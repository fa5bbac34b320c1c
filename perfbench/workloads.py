"""Workload inputs and op lists.

An op is one `reduce --no-verify -o OUT` call followed by the verification
commands for its output (`verify-equal`, and `check-hard` for H(k, r)).  A
control is a `verify-equal` of an op's input against a copy of its output
with one edge scalar doubled; it must exit 1 with verdict `unequal`.

Formula shapes come from fixed generator seeds (see NOTES.md for why); the
run seed relabels their variables, picks the doubled edge of each control
and sets every `--seed` passed to randomized identity testing.
"""

from __future__ import annotations

import random
import re
import time
from dataclasses import dataclass
from pathlib import Path

WORKLOADS = ("wide", "exact", "deep")

# Generator seeds of the fixed formula shapes, the first ones of the
# generator, not picked by outcome.
_SHAPE_SEEDS = (0, 1, 2)

_WIDE_VERIFY = ("--method", "auto", "--budget", "10000", "--trials", "20")
_EXACT_VERIFY = ("--method", "expand")
_DEEP_VERIFY = ("--method", "pit", "--trials", "20")


@dataclass(frozen=True)
class Op:
    name: str                   # unique within the workload
    source: str                 # input file name inside the run directory
    method: str                 # reduce --method
    verify: tuple[str, ...]     # verify-equal flags after LHS RHS, before --seed
    pit_seed: int
    hard: tuple[int, int] | None = None  # (k, r): also run check-hard on the output
    control: bool = False       # also verify the input against a mutated output


@dataclass(frozen=True)
class Input:
    source: str
    s_requested: int
    s_in: int


@dataclass(frozen=True)
class Spec:
    """Generator parameters of one workload."""

    random: tuple[tuple[str, int, int, int, bool], ...]  # (source, n_vars, d, s, commutative)
    hard: tuple[tuple[int, int], ...]                   # (k, r) of H(k, r)
    comb: int                                           # leaves of comb(n), 0 for none


def spec(workload: str) -> Spec:
    if workload == "wide":
        return Spec((("comm.frm", 10, 16, 10**4, True), ("nc.frm", 8, 8, 1000, False)), (), 0)
    if workload == "exact":
        return Spec(tuple((f"e{i}.frm", 8, 8, 2000, True) for i in range(3)), ((3, 3), (3, 4)), 0)
    if workload == "deep":
        return Spec((), (), 8001)
    raise ValueError(f"unknown workload {workload!r}")


def ops(workload: str, seed: int) -> list[Op]:
    rng = random.Random(f"ops:{workload}:{seed}")

    def pit_seed() -> int:
        return rng.randrange(2**31)

    sp = spec(workload)
    if workload == "wide":
        return [
            Op(src[: -len(".frm")], src, "homogeneous", _WIDE_VERIFY, pit_seed(), control=True)
            for src, *_ in sp.random
        ]
    if workload == "exact":
        out = [
            Op(method, src, method, _EXACT_VERIFY, pit_seed())
            for (src, *_), method in zip(sp.random, ("main", "nearlinear", "pipeline"))
        ]
        for i, (k, r) in enumerate(sp.hard):
            out.append(Op(f"H{k}{r}", f"H{k}{r}.frm", "homogeneous", _EXACT_VERIFY, pit_seed(),
                          hard=(k, r), control=i == 0))
        return out
    return [Op("comb", "comb.frm", "bb", _DEEP_VERIFY, pit_seed(), control=True)]


# ---------------------------------------------------------------------------
# Input generation
# ---------------------------------------------------------------------------

_VAR = re.compile(r"\bx(\d+)\b")


def relabel(text: str, rng: random.Random) -> str:
    """Permute the variable ids of a serialized formula among themselves."""
    ids = sorted({int(m) for m in _VAR.findall(text)})
    shuffled = ids[:]
    rng.shuffle(shuffled)
    perm = dict(zip(ids, shuffled))
    return _VAR.sub(lambda m: f"x{perm[int(m.group(1))]}", text)


def generate(L, workload: str, seed: int, directory: Path) -> tuple[list[Input], float]:
    """Write the workload's input files; returns them and the generator time.

    `L` is the imported `lowdepth` package.  H(k, r) comes from the CLI's
    `gen-hard` and keeps its variable ids, which `check-hard` decodes.
    """
    from harness import call_cli

    rng = random.Random(f"inputs:{workload}:{seed}")
    sp = spec(workload)
    inputs: list[Input] = []
    gen_s = 0.0

    def write(source: str, formula, s_requested: int) -> None:
        text = relabel(L.sexpr.serialize(formula), rng)
        (directory / source).write_text(text, encoding="utf-8")
        inputs.append(Input(source, s_requested, L.ir.size(formula)))

    for (source, n_vars, d, s, commutative), shape_seed in zip(sp.random, _SHAPE_SEEDS):
        t0 = time.perf_counter()
        f = L.bench.gen_random_homogeneous(n_vars, d, s, seed=shape_seed, commutative=commutative)
        gen_s += time.perf_counter() - t0
        write(source, f, s)
    if sp.comb:
        t0 = time.perf_counter()
        f = L.bench.gen_comb(sp.comb)
        gen_s += time.perf_counter() - t0
        write("comb.frm", f, sp.comb)
    for k, r in sp.hard:
        path = directory / f"H{k}{r}.frm"
        t0 = time.perf_counter()
        rc, _ = call_cli(L, ["gen-hard", "--k", str(k), "--r", str(r), "-o", str(path)])
        gen_s += time.perf_counter() - t0
        if rc != 0:
            raise RuntimeError(f"gen-hard --k {k} --r {r} exited {rc}")
        size = (2 * r) ** k
        inputs.append(Input(path.name, size, L.ir.size(L.sexpr.parse_file(str(path)))))
    return inputs, gen_s


# ---------------------------------------------------------------------------
# Negative controls
# ---------------------------------------------------------------------------

def double_one_edge(L, formula, rng: random.Random):
    """Copy of the formula with the scalar of one random edge doubled.

    The passes keep monotone inputs monotone, so on these workloads the copy
    computes a different polynomial.
    """
    gates = []  # (gate, parent index, position in parent)
    stack = [(formula.root, -1, -1)]
    while stack:
        node, parent, pos = stack.pop()
        if L.ir.is_gate(node):
            index = len(gates)
            gates.append((node, parent, pos))
            stack.extend((child, index, i) for i, (_, child) in enumerate(node.children))
    node, parent, pos = gates[rng.randrange(len(gates))]
    i = rng.randrange(len(node.children))
    c, child = node.children[i]
    new = _with_child(node, i, (formula.field.add(c, c), child))
    while parent >= 0:
        up, grand, up_pos = gates[parent]
        new = _with_child(up, pos, (up.children[pos][0], new))
        parent, pos = grand, up_pos
    return formula.with_root(new)


def _with_child(gate, i: int, edge):
    children = gate.children
    return type(gate)(children[:i] + (edge,) + children[i + 1:])
