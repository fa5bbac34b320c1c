"""Randomized identity testing by evaluation over a prime field.

Commutative formulas are evaluated at uniformly random scalar points.  In the
non-commutative case each variable x_i is replaced by the m x m matrix
sum_j r_{i,j} E_{j,j+1}, with random entries on the first superdiagonal only
and m at least one more than the degree (Bogdanov and Wee, CCC 2005; Raz and
Shpilka, CCC 2004).  A product of such matrices keeps every value a sum of
superdiagonals, and entry (0, k) of the result is the degree-k part of the
polynomial with each word x_{w_1} ... x_{w_k} sent to prod_t r_{w_t, t-1}.
That map is injective on words, so a non-zero difference stays a non-zero
polynomial of degree at most d in the r's.  By Schwartz-Zippel a trial then
errs with probability at most d/p for syntactic degree d, in both modes.

An "unequal" verdict is certain and carries a witness that can be replayed;
"equal-probably" reports the per-trial error bound.

All trials run in one bottom-up traversal: a value holds every trial's
residues, edge scalars are reduced mod p once per formula, and a value is
dropped as soon as its last parent has used it.

Rational formulas are reduced mod the configured prime (sound: a mismatch mod
p separates them over Q too).  Formulas over a prime field are evaluated in
their own field; their coefficients are already reduced, so lifting them to
integers mod a different prime would be meaningless.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from itertools import zip_longest

from .errors import BudgetExceeded, ModeMismatch
from .fields import MERSENNE61, PrimeField
from . import ir, poly

#: A value for all trials at once: superdiagonal k -> its entries, position j
#: of trial t at index j * trials + t.  Scalar mode uses diagonal 0 of a 1 x 1
#: matrix, so a scalar value is {0: [one residue per trial]}.
Value = dict[int, list[int]]


@dataclass(frozen=True)
class PITConfig:
    trials: int = 20
    prime: int = MERSENNE61
    matrix_dim: int | None = None  # default: max syntactic degree + 1
    seed: int = 0


@dataclass(frozen=True)
class PITResult:
    verdict: str  # "equal-probably" | "unequal"
    trials_run: int
    per_trial_error: Fraction  # d/p in both modes
    witness: dict | None

    @property
    def equal(self) -> bool:
        return self.verdict == "equal-probably"


def _trial_seed(seed: int, trial: int) -> int:
    return seed * 1_000_003 + trial


def _residue(fp: PrimeField, c) -> int:
    try:
        return fp.normalize(c)
    except ZeroDivisionError as exc:
        raise ValueError(f"edge scalar {c}: {exc}; choose another prime") from None


def _add_into(acc: Value, c: int, v: Value) -> None:
    """acc += c * v, entries left unreduced."""
    for k, xs in v.items():
        cur = acc.get(k)
        if cur is None:
            acc[k] = xs if c == 1 else [c * x for x in xs]
        elif c == 1:
            acc[k] = [a + x for a, x in zip(cur, xs)]
        else:
            acc[k] = [a + c * x for a, x in zip(cur, xs)]


def _mul(a: Value, b: Value, m: int, trials: int, p: int) -> Value:
    """Matrix product of two sums of superdiagonals.

    Diagonal k1 times diagonal k2 is diagonal k1 + k2 with c[j] = a[j] *
    b[j + k1]; diagonals at or beyond m vanish.
    """
    out: Value = {}
    for k1, xs in a.items():
        off = k1 * trials
        for k2, ys in b.items():
            k = k1 + k2
            if k >= m:
                continue
            prod = [x * y % p for x, y in zip(xs, ys[off:] if off else ys)]
            cur = out.get(k)
            out[k] = prod if cur is None else [(x + y) % p for x, y in zip(cur, prod)]
    return out


def _shape(root: ir.Node) -> tuple[list[ir.Node], int, int, set[int]]:
    """Postorder of the distinct nodes, syntactic degree, size and variables,
    from one traversal."""
    order = ir.postorder(root)
    degree: dict[int, int] = {}
    size: dict[int, int] = {}
    vs: set[int] = set()
    for node in order:
        if isinstance(node, ir.VarLeaf):
            degree[id(node)], size[id(node)] = 1, 1
            vs.add(node.var)
        elif isinstance(node, ir.OneLeaf):
            degree[id(node)], size[id(node)] = 0, 1
        else:
            kids = [id(child) for _, child in node.children]
            degs = [degree[k] for k in kids]
            degree[id(node)] = max(degs) if isinstance(node, ir.SumGate) else sum(degs)
            size[id(node)] = sum(size[k] for k in kids)
    return order, degree[id(root)], size[id(root)], vs


def _evaluate(order: list[ir.Node], leaves: dict[int, Value], m: int, trials: int, p: int) -> Value:
    """Value of the root (the last node of the postorder) for every trial;
    leaves maps variable -> value.

    Each edge scalar is reduced once.  A node's value is dropped when its
    last parent edge has read it, so shared nodes are evaluated once and kept
    only as long as needed.
    """
    fp = PrimeField(p)
    uses = Counter(id(child) for node in order if ir.is_gate(node) for _, child in node.children)
    one: Value = {0: [1] * (m * trials)}
    vals: dict[int, Value] = {}
    for node in order:
        if isinstance(node, ir.VarLeaf):
            vals[id(node)] = leaves[node.var]
            continue
        if isinstance(node, ir.OneLeaf):
            vals[id(node)] = one
            continue
        edges = []
        for c, child in node.children:
            key = id(child)
            edges.append((_residue(fp, c), vals[key]))
            uses[key] -= 1
            if not uses[key]:
                del vals[key]
        if isinstance(node, ir.SumGate):
            acc: Value = {}
            for c, v in edges:
                _add_into(acc, c, v)
            val = {k: [x % p for x in xs] for k, xs in acc.items()}
        else:
            coeff, val = edges[0]
            for c, v in edges[1:]:
                coeff = coeff * c % p
                val = _mul(val, v, m, trials, p)
            if coeff != 1:
                val = {k: [coeff * x % p for x in xs] for k, xs in val.items()}
        vals[id(node)] = val
    return vals[id(order[-1])]


def _point_for_trial(seed: int, variables: list[int], p: int) -> dict[int, int]:
    rng = random.Random(seed)
    return {v: rng.randrange(p) for v in variables}


def _scalar_leaves(seeds: list[int], variables: list[int], p: int) -> dict[int, Value]:
    """x_v -> its coordinate of every trial's point."""
    cols: dict[int, list[int]] = {v: [] for v in variables}
    for seed in seeds:
        for v, x in _point_for_trial(seed, variables, p).items():
            cols[v].append(x)
    return {v: {0: xs} for v, xs in cols.items()}


def _superdiagonal_leaves(seeds: list[int], variables: list[int], m: int, p: int) -> dict[int, Value]:
    """x_v -> sum_j r_{v,j} E_{j,j+1}, with fresh r's for every trial."""
    trials = len(seeds)
    cols: dict[int, list[int]] = {v: [0] * ((m - 1) * trials) for v in variables}
    for t, seed in enumerate(seeds):
        rng = random.Random(seed)
        for v in variables:
            cols[v][t::trials] = [rng.randrange(p) for _ in range(m - 1)]  # r_{v,0..m-2}
    return {v: {1: xs} for v, xs in cols.items()}


def _entry(val: Value, i: int, j: int, trial: int, trials: int) -> int:
    """Entry (i, j) of one trial's matrix; zero off the stored diagonals."""
    diag = val.get(j - i)
    return 0 if diag is None else diag[i * trials + trial]


def pit_equal(a: ir.Formula, b: ir.Formula, cfg: PITConfig = PITConfig()) -> PITResult:
    """Randomized equality test; see the module docstring for guarantees."""
    if a.commutative != b.commutative:
        raise ModeMismatch("cannot compare formulas in different commutativity modes")
    if a.field != b.field:
        raise ModeMismatch(f"field mismatch: {a.field.name} vs {b.field.name}")
    # formulas over a prime field are evaluated in their own field; the
    # configured prime only applies to rational formulas, whose scalars embed
    # soundly mod any large p
    native = isinstance(a.field, PrimeField)
    p = a.field.p if native else cfg.prime
    order_a, deg_a, size_a, vars_a = _shape(a.root)
    order_b, deg_b, size_b, vars_b = _shape(b.root)
    d = max(deg_a, deg_b, 1)
    if native:
        if p <= 2 * d:
            raise ValueError(f"field {a.field.name} too small to test degree {d}")
    elif p <= 2 * d * max(size_a, size_b):
        raise ValueError(
            f"prime {p} below the heuristic floor 2 * degree * size = "
            f"{2 * d * max(size_a, size_b)}; error bounds would be weak"
        )
    vs = sorted(vars_a | vars_b)
    trials = cfg.trials
    seeds = [_trial_seed(cfg.seed, t) for t in range(trials)]
    if a.commutative:
        m = 1
        leaves = _scalar_leaves(seeds, vs, p)
    else:
        m = cfg.matrix_dim if cfg.matrix_dim is not None else d + 1
        if m < d + 1:
            raise ValueError(f"matrix dimension {m} below degree bound {d + 1}")
        leaves = _superdiagonal_leaves(seeds, vs, m, p)
    va = _evaluate(order_a, leaves, m, trials, p)
    vb = _evaluate(order_b, leaves, m, trials, p)
    error = Fraction(d, p)
    # the first differing trial, and in it the first differing entry in row-major order
    first = min(
        ((idx % trials, idx // trials, idx // trials + k)
         for k in va.keys() | vb.keys()
         for idx, (x, y) in enumerate(zip_longest(va.get(k, ()), vb.get(k, ()), fillvalue=0))
         if x != y),
        default=None,
    )
    if first is None:
        return PITResult("equal-probably", trials, error, None)
    t, i, j = first
    witness = {
        "kind": "scalar" if a.commutative else "superdiagonal",
        "prime": p,
        "trial": t,
        "trial_seed": seeds[t],
    }
    if a.commutative:
        witness["point"] = {str(v): x for v, x in _point_for_trial(seeds[t], vs, p).items()}
    else:
        witness["dim"] = m
        witness["entry"] = [i, j]
    witness["lhs"] = _entry(va, i, j, t, trials)
    witness["rhs"] = _entry(vb, i, j, t, trials)
    return PITResult("unequal", t + 1, error, witness)


def verify(
    a: ir.Formula, b: ir.Formula, method: str, budget: int | None, cfg: PITConfig
) -> tuple[str, str, dict | None]:
    """Decide whether a and b agree; returns (verdict, method used, witness).

    "expand" decides exactly ("equal" or "unequal") and lets BudgetExceeded
    through; "auto" expands and falls back to pit_equal when the expansion
    goes over budget; "pit" runs pit_equal directly.  Only a PIT "unequal"
    carries a witness.
    """
    if method not in ("expand", "auto", "pit"):
        raise ValueError(f"unknown verification method {method!r}")
    if method != "pit":
        try:
            return ("equal" if poly.equal_expand(a, b, budget) else "unequal"), "expand", None
        except BudgetExceeded:
            if method == "expand":
                raise
    res = pit_equal(a, b, cfg)
    return res.verdict, "pit", res.witness


def check_witness(a: ir.Formula, b: ir.Formula, witness: dict) -> bool:
    """Replay a recorded witness and confirm it still separates the formulas."""
    p = witness["prime"]
    order_a, _, _, vars_a = _shape(a.root)
    order_b, _, _, vars_b = _shape(b.root)
    vs = sorted(vars_a | vars_b)
    seeds = [witness["trial_seed"]]
    if witness["kind"] == "scalar":
        point = _point_for_trial(seeds[0], vs, p)
        if {str(v): x for v, x in point.items()} != witness["point"]:
            return False
        m, i, j = 1, 0, 0
        leaves = _scalar_leaves(seeds, vs, p)
    elif witness["kind"] == "superdiagonal":
        m = witness["dim"]
        i, j = witness["entry"]
        leaves = _superdiagonal_leaves(seeds, vs, m, p)
    else:
        raise ValueError(f"unknown witness kind {witness.get('kind')!r}")
    va = _entry(_evaluate(order_a, leaves, m, 1, p), i, j, 0, 1)
    vb = _entry(_evaluate(order_b, leaves, m, 1, p), i, j, 0, 1)
    return va == witness["lhs"] and vb == witness["rhs"] and va != vb
