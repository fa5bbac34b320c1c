"""Golden outputs: the sha256 of every pass's serialized output on fixed inputs.

The passes are deterministic, so a change that keeps their behaviour keeps
these digests byte for byte; a digest that moves means some output changed.
Every pass with a registry name runs through transforms.run_pass, so the
pinned outputs also pass its contracts; collapse and homogenize have no
registry name and are called directly.  The comb(8001) digests live in
test_transforms.test_deep_comb_all_passes, which already builds those
outputs.
"""

from __future__ import annotations

from fractions import Fraction

import pytest

from lowdepth import ir
from lowdepth import transforms as tr
from lowdepth.hardpoly import HardParams, gen_hard

from conftest import digest


def _homogenize(f):
    fb = tr.binarize(f)
    return tr.homogenize(fb, ir.syn_degree(fb))


def _run(name, params=None):
    """The pass as the registry dispatches it, contract checks included."""
    return lambda f: tr.run_pass(f, name, params or {})[0]


PASSES = {
    "bb_half": _run("bb", {"epsilon": Fraction(1, 2)}),
    "bb_one": _run("bb", {"epsilon": 1}),
    "main": _run("main"),
    "product_fanin_2": _run("prodfanin2"),
    "homogenize": _homogenize,
    "homogeneous": _run("homogeneous"),
    "nearlinear": _run("nearlinear"),
    "pipeline": _run("pipeline"),
    "collapse": tr.collapse,
}

# pass -> (digest over corpus_both, digest on H(3, 3))
GOLDEN = {
    "bb_half": (
        "2a27151b642e63ce47ce0d729f28b255fdd2b664dd5b2c7375caca6a60e25ab6",
        "9e416a0232dde2bcbfb962c45d8ea8d88b71dbaa79d9bdcfb02265e66e6852b5",
    ),
    "bb_one": (
        "107294aad669a7ac3a5bcf73568e82c62ebb767d70d816bc35f54a23a1bfc767",
        "9e416a0232dde2bcbfb962c45d8ea8d88b71dbaa79d9bdcfb02265e66e6852b5",
    ),
    "collapse": (
        "0935dbd2e878a534190cb755858e982752fbbf7d4321478a0c282b66b73beec1",
        "e93bde6272008d3fb2c9a2011833556eba6322ae8fca24a3556dee976cf6a127",
    ),
    "homogeneous": (
        "32222c80949df990c62f50c6e714b10a39f80d4f061413ae38de2093bba5155a",
        "e93bde6272008d3fb2c9a2011833556eba6322ae8fca24a3556dee976cf6a127",
    ),
    "homogenize": (
        "fdafc1e8454fc8231898cef486fa8caf4a69f35a9893c8eb80f8344bb3fc342f",
        "3d054dd6ea552f724eb0ff7be330908963f450909a8231d519a91720f3355d0f",
    ),
    "main": (
        "e5792590bc05ba3681033d07d7d60dd19d2f1d5095c2fabe302f0dc38c623673",
        "2130a52788e75e4590944b39d6f1ed001197108dac68f7269add7ff6fb62fdfb",
    ),
    "nearlinear": (
        "361b452830c8d85f8bb2fbf2a259f7cdfd2e1ccc5a1e26b6af8d6b56a858089a",
        "9e416a0232dde2bcbfb962c45d8ea8d88b71dbaa79d9bdcfb02265e66e6852b5",
    ),
    "pipeline": (
        "32222c80949df990c62f50c6e714b10a39f80d4f061413ae38de2093bba5155a",
        "e93bde6272008d3fb2c9a2011833556eba6322ae8fca24a3556dee976cf6a127",
    ),
    "product_fanin_2": (
        "46ea6d1177655ca72474eb82432bdf38f2552c1f6cf8dfe1a0f04af9be4555ac",
        "e93bde6272008d3fb2c9a2011833556eba6322ae8fca24a3556dee976cf6a127",
    ),
}


@pytest.fixture(scope="module")
def hard33():
    return gen_hard(HardParams(k=3, r=3))


@pytest.mark.parametrize("name", sorted(PASSES))
def test_golden_pass_outputs(name, corpus_both, hard33):
    run = PASSES[name]
    assert (digest(run(f) for f in corpus_both), digest([run(hard33)])) == GOLDEN[name]
