"""Shared fixtures: deterministic formula corpora used across test modules."""

from __future__ import annotations

import hashlib
import random

import pytest

from lowdepth import ir, poly, sexpr
from lowdepth.bench import gen_random_homogeneous, gen_random_skew
from lowdepth.hardpoly import HardParams, gen_hard
from lowdepth.transforms import binarize

#: cap on parse trees so the expansion oracle stays fast
PT_CAP = 3000


def make_homogeneous_corpus(count: int, seed: int, commutative: bool) -> list:
    """Deterministic corpus of random homogeneous monotone formulas
    (n <= 12, s <= 200, d <= 16) whose expansion stays oracle-friendly."""
    rng = random.Random(seed)
    out = []
    attempt = 0
    while len(out) < count:
        attempt += 1
        n = rng.randint(2, 12)
        d = rng.choice([1, 2, 2, 3, 4, 4, 6, 8, 12, 16])
        s = rng.randint(max(d, 8), 200)
        f = gen_random_homogeneous(n, d, s, seed * 100_003 + attempt, commutative)
        if ir.count_parse_trees(f) <= PT_CAP:
            out.append(f)
    return out


@pytest.fixture(scope="session")
def corpus_comm():
    return make_homogeneous_corpus(30, seed=11, commutative=True)


@pytest.fixture(scope="session")
def corpus_noncomm():
    return make_homogeneous_corpus(30, seed=17, commutative=False)


@pytest.fixture(scope="session")
def corpus_both(corpus_comm, corpus_noncomm):
    return corpus_comm + corpus_noncomm


@pytest.fixture(scope="session")
def hard_instances():
    out = []
    for k in (1, 2):
        for r in (2, 3):
            p = HardParams(k=k, r=r)
            out.append((p, gen_hard(p)))
    return out


@pytest.fixture(scope="session")
def skew_corpus():
    return [gen_random_skew(rng_sd, seed=7000 + i, commutative=(i % 2 == 0))
            for i, rng_sd in enumerate([d for d in (0, 1, 2, 3, 4, 5, 6, 7, 8) for _ in range(4)])]


def assert_equivalent(a, b, budget: int = 10**6) -> None:
    __tracebackhide__ = True
    assert poly.equal_expand(a, b, budget=budget), "expansion mismatch"


def binarized(f):
    return binarize(f)


def digest(outputs) -> str:
    """sha256 over the serialized outputs; a list output (homogenize) is
    hashed component by component, an absent component as "None"."""
    h = hashlib.sha256()
    for out in outputs:
        for f in out if isinstance(out, list) else [out]:
            h.update(b"None" if f is None else sexpr.serialize(f).encode())
            h.update(b"\0")
        h.update(b"\1")
    return h.hexdigest()
