"""Reference implementations that the tests compare the package with.

The ring operations on `PolyTable`: the gate-by-gate expansion that the
packed kernel of `lowdepth.poly` must reproduce key for key, and the ring laws.

The batched evaluator that `lowdepth.pit` used before it compiled formulas to
a flat program: a postorder walk for the shape, a second one for the values,
each edge scalar reduced where it is read, and the points drawn with
`random.Random(seed).randrange(p)`.  Tests compare the compiled program with it
value for value.
"""

from __future__ import annotations

import random
from collections import Counter

from lowdepth import ir
from lowdepth.errors import BudgetExceeded, ModeMismatch
from lowdepth.fields import Field, PrimeField, Scalar
from lowdepth.pit import Value
from lowdepth.poly import CommKey, PolyTable


# ---------------------------------------------------------------------------
# Ring operations on PolyTable
# ---------------------------------------------------------------------------

def poly_zero(commutative: bool, field: Field) -> PolyTable:
    return PolyTable(commutative, field, {})


def poly_const(commutative: bool, field: Field, value: Scalar) -> PolyTable:
    if field.is_zero(value):
        return poly_zero(commutative, field)
    return PolyTable(commutative, field, {(): value})


def poly_var(commutative: bool, field: Field, v: int) -> PolyTable:
    key = ((v, 1),) if commutative else (v,)
    return PolyTable(commutative, field, {key: field.one()})


def check_compatible(a: PolyTable, b: PolyTable) -> None:
    if a.commutative != b.commutative:
        raise ModeMismatch("cannot combine commutative and non-commutative tables")
    if a.field != b.field:
        raise ModeMismatch(f"field mismatch: {a.field.name} vs {b.field.name}")


def poly_add(a: PolyTable, b: PolyTable) -> PolyTable:
    check_compatible(a, b)
    f = a.field
    out = dict(a.terms)
    for key, coeff in b.terms.items():
        acc = f.add(out.get(key, f.zero()), coeff)
        if f.is_zero(acc):
            out.pop(key, None)
        else:
            out[key] = acc
    return PolyTable(a.commutative, f, out)


def poly_scale(t: PolyTable, scalar: Scalar) -> PolyTable:
    f = t.field
    if f.is_zero(scalar):
        return poly_zero(t.commutative, f)
    if f.is_one(scalar):
        return t
    return PolyTable(t.commutative, f, {k: f.mul(scalar, c) for k, c in t.terms.items()})


def mul_comm_keys(a: CommKey, b: CommKey) -> CommKey:
    counts = dict(a)
    for v, e in b:
        counts[v] = counts.get(v, 0) + e
    return tuple(sorted(counts.items()))


def poly_mul(a: PolyTable, b: PolyTable, budget: int | None = None) -> PolyTable:
    """a * b, the budget checked after every row of a."""
    check_compatible(a, b)
    f = a.field
    out: dict = {}
    for ka, ca in a.terms.items():
        for kb, cb in b.terms.items():
            key = mul_comm_keys(ka, kb) if a.commutative else ka + kb
            acc = f.add(out.get(key, f.zero()), f.mul(ca, cb))
            if f.is_zero(acc):
                out.pop(key, None)
            else:
                out[key] = acc
        if budget is not None and len(out) > budget:
            raise BudgetExceeded(f"expansion table grew past {budget} entries")
    return PolyTable(a.commutative, f, out)


# ---------------------------------------------------------------------------
# Identity testing
# ---------------------------------------------------------------------------


def residue(fp: PrimeField, c) -> int:
    try:
        return fp.normalize(c)
    except ZeroDivisionError as exc:
        raise ValueError(f"edge scalar {c}: {exc}; choose another prime") from None


def add_into(acc: Value, c: int, v: Value) -> None:
    """acc += c * v, entries left unreduced."""
    for k, xs in v.items():
        cur = acc.get(k)
        if cur is None:
            acc[k] = xs if c == 1 else [c * x for x in xs]
        elif c == 1:
            acc[k] = [a + x for a, x in zip(cur, xs)]
        else:
            acc[k] = [a + c * x for a, x in zip(cur, xs)]


def mul(a: Value, b: Value, m: int, trials: int, p: int) -> Value:
    """Matrix product of two sums of superdiagonals; diagonals at or beyond m
    vanish."""
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


def shape(root: ir.Node) -> tuple[list[ir.Node], int, int, set[int]]:
    """Postorder of the distinct nodes, syntactic degree, size and variables."""
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


def evaluate(order: list[ir.Node], leaves: dict[int, Value], m: int, trials: int, p: int) -> Value:
    """Value of the root (the last node of the postorder) for every trial;
    leaves maps variable -> value."""
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
            edges.append((residue(fp, c), vals[key]))
            uses[key] -= 1
            if not uses[key]:
                del vals[key]
        if isinstance(node, ir.SumGate):
            acc: Value = {}
            for c, v in edges:
                add_into(acc, c, v)
            val = {k: [x % p for x in xs] for k, xs in acc.items()}
        else:
            coeff, val = edges[0]
            for c, v in edges[1:]:
                coeff = coeff * c % p
                val = mul(val, v, m, trials, p)
            if coeff != 1:
                val = {k: [coeff * x % p for x in xs] for k, xs in val.items()}
        vals[id(node)] = val
    return vals[id(order[-1])]


def scalar_leaves(seeds: list[int], variables: list[int], p: int) -> dict[int, Value]:
    """x_v -> its coordinate of every trial's point."""
    cols: dict[int, list[int]] = {v: [] for v in variables}
    for seed in seeds:
        rng = random.Random(seed)
        for v in variables:
            cols[v].append(rng.randrange(p))
    return {v: {0: xs} for v, xs in cols.items()}


def superdiagonal_leaves(seeds: list[int], variables: list[int], m: int, p: int) -> dict[int, Value]:
    """x_v -> sum_j r_{v,j} E_{j,j+1}, with fresh r's for every trial."""
    trials = len(seeds)
    cols: dict[int, list[int]] = {v: [0] * ((m - 1) * trials) for v in variables}
    for t, seed in enumerate(seeds):
        rng = random.Random(seed)
        for v in variables:
            cols[v][t::trials] = [rng.randrange(p) for _ in range(m - 1)]
    return {v: {1: xs} for v, xs in cols.items()}
