"""Reference implementations that the tests compare the package with.

The ring operations on `PolyTable`: the gate-by-gate expansion that the
packed kernel of `lowdepth.poly` must reproduce key for key, and the ring laws.

The batched evaluator that `lowdepth.pit` used before it compiled formulas to
a flat program: a postorder walk for the shape, a second one for the values,
each edge scalar reduced where it is read, and the points drawn with
`random.Random(seed).randrange(p)`.  Tests compare the compiled program with it
value for value.

The bottom-up distribution that `lowdepth.transforms` used to rewrite a skew
region as a sum of products: one term list per interior gate, which each
parent copies and rescales.  Tests compare the top-down walk with it term for
term.

The bottom-up collapse, which copies the edge list of each collapsed child of
the same kind into its parent.  Tests compare the block-wise collapse with it
byte for byte.

Predicates and oracles that only the tests use: the one form of a scalar, the
order of a field and the sign of a scalar, monotonicity, skewness,
set-multilinearity, parse-tree enumeration and its sum, the unit-weight
support, the tree copy of a formula that shares subtrees, and the
sub-instances, variable groups and parameters of the hard polynomial.
"""

from __future__ import annotations

import random
from collections import Counter
from fractions import Fraction

from lowdepth import hardpoly, ir, poly
from lowdepth.ir import OneLeaf, ProdGate, SumGate, VarLeaf
from lowdepth.errors import BudgetExceeded, InputError, ModeMismatch, ParamOutOfRange
from lowdepth.fields import QQ, Field, PrimeField, Rationals, Scalar
from lowdepth.hardpoly import HardParams
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


# ---------------------------------------------------------------------------
# Bottom-up distribution of a skew region
# ---------------------------------------------------------------------------

def sigma_pi_terms(root: ir.Node, is_factor, field: Field) -> list:
    """The (coefficient, factor tuple) terms of the region below the gate
    root, merged by factor identity with zero coefficients dropped.

    Each child is classified once: a 1-leaf is a constant, a node is_factor
    marks is a factor, and any other node is interior and distributed in turn;
    a product takes the cross product of its children's term lists.
    """
    one = field.one()
    memo: dict[int, list] = {}  # interior gate id -> its terms
    # a gate to enter, or (gate, its edges) to distribute once its interior
    # children are done; an edge is its terms, or (scalar, interior child)
    stack: list = [(root, None)]
    while stack:
        node, edges = stack.pop()
        if edges is None:
            if id(node) in memo:
                continue  # a shared gate, distributed already
            edges, interior = [], []
            for c, ch in node.children:
                if type(ch) is OneLeaf:
                    edges.append([(c, ())])
                elif is_factor(ch):
                    edges.append([(c, (ch,))])
                else:
                    edges.append((c, ch))
                    interior.append(ch)
            stack.append((node, edges))
            stack.extend((ch, None) for ch in interior if id(ch) not in memo)
            continue
        branches = [
            e if type(e) is list else [(field.mul(e[0], c), fs) for c, fs in memo[id(e[1])]]
            for e in edges
        ]
        if type(node) is SumGate:
            memo[id(node)] = [t for branch in branches for t in branch]
        else:
            acc: list = [(one, ())]
            for branch in branches:
                acc = [(field.mul(c0, c1), f0 + f1) for c0, f0 in acc for c1, f1 in branch]
            memo[id(node)] = acc

    merged: dict[tuple, list] = {}
    for c, fs in memo[id(root)]:
        key = tuple(id(f) for f in fs)
        slot = merged.get(key)
        if slot is None:
            merged[key] = [c, fs]
        else:
            slot[0] = field.add(slot[0], c)
    return [(c, fs) for c, fs in merged.values() if not field.is_zero(c)]


# ---------------------------------------------------------------------------
# Bottom-up collapse
# ---------------------------------------------------------------------------

def collapse(formula: ir.Formula) -> ir.Formula:
    """collapse as one bottom-up walk: each gate copies, and rescales, the
    edge list of every collapsed child of its own kind."""
    from lowdepth.transforms import _merge_constant_edges, scale_node

    field = formula.field
    one = field.one()

    def fn(node: ir.Node, vals: list) -> tuple:
        if ir.is_leaf(node):
            return (one, node)
        edges = []
        for (c, _), (cm, sub) in zip(node.children, vals):
            c2 = field.mul(c, cm)
            if isinstance(node, SumGate) and isinstance(sub, SumGate):
                edges.extend((field.mul(c2, cc), g) for cc, g in sub.children)
            elif isinstance(node, ir.ProdGate) and isinstance(sub, ir.ProdGate):
                for i, (cc, g) in enumerate(sub.children):
                    edges.append((field.mul(c2, cc) if i == 0 else cc, g))
            else:
                edges.append((c2, sub))
        if isinstance(node, SumGate):
            edges = _merge_constant_edges(edges, field)
        if not edges:
            raise ValueError("formula computes the zero polynomial; cannot collapse")
        if len(edges) == 1 and not isinstance(edges[0][1], OneLeaf):
            return edges[0]
        return (one, type(node)(tuple(edges)))

    scalar, out = ir.node_attribute(formula.root, fn)[id(formula.root)]
    return formula.with_root(scale_node(scalar, out, field))


# ---------------------------------------------------------------------------
# Predicates and oracles over parse trees and the hard instances
# ---------------------------------------------------------------------------

def is_canonical(field: Field, c) -> bool:
    """Whether c is a scalar of field in its one form: over Fp an int in
    [0, p); over Q an int when the value is integral, else a Fraction.  A
    Fraction with denominator 1, a bool or a float is not."""
    if isinstance(field, PrimeField):
        return type(c) is int and 0 <= c < field.p
    return type(c) is int or (type(c) is Fraction and c.denominator != 1)


class FieldUnordered(InputError):
    """An order-dependent check was requested over a prime field."""


def ordered(field: Field) -> bool:
    """Whether field is ordered, so that sign checks apply: Q is, Fp is not."""
    return isinstance(field, Rationals)


def is_positive(field: Field, a: Scalar) -> bool:
    """Whether a > 0 in field; raises FieldUnordered over a prime field."""
    if not ordered(field):
        raise FieldUnordered(f"{field.name} has no order; use the rationals for sign checks")
    return a > 0


def is_monotone_syntactic(formula: ir.Formula) -> bool:
    """Sufficient sign condition: every edge weight is positive.

    Requires an ordered field; raises FieldUnordered over a prime field.
    """
    if not ordered(formula.field):
        raise FieldUnordered("syntactic monotonicity needs an ordered field")
    for node in ir.postorder(formula.root):
        if ir.is_gate(node):
            for scalar, _ in node.children:
                if not is_positive(formula.field, scalar):
                    return False
    return True


def is_monotone(formula: ir.Formula, mode: str = "syntactic", budget: int | None = None) -> bool:
    """Monotonicity check.

    syntactic: all edge weights positive (sufficient, never exploits
    cancellation).  semantic: every monomial built by some parse tree keeps a
    non-zero coefficient in the expanded polynomial.
    """
    if mode == "syntactic":
        return is_monotone_syntactic(formula)
    if mode == "semantic":
        return is_monotone_semantic(formula, budget=budget)
    raise ValueError(f"unknown monotonicity mode {mode!r}")


def is_set_multilinear(formula: ir.Formula, partition: list[set[int]], budget: int | None = None) -> bool:
    """True iff every expansion monomial takes exactly one variable per part.

    The partition must cover all variables of the formula.
    """
    covered = set()
    for part in partition:
        covered |= set(part)
    missing = ir.variables(formula) - covered
    if missing:
        raise ValueError(f"partition does not cover variables {sorted(missing)[:5]}")
    table = poly.expand(formula, budget=budget)
    parts = [frozenset(p) for p in partition]
    for key in table.terms:
        per_part = [0] * len(parts)
        for var, exp in poly.key_exponents(key, formula.commutative):
            hit = False
            for i, part in enumerate(parts):
                if var in part:
                    per_part[i] += exp
                    hit = True
                    break
            if not hit:
                return False
        if any(c != 1 for c in per_part):
            return False
    return True


def enumerate_parse_trees(formula: ir.Formula, budget: int = 100_000) -> list[tuple[Scalar, tuple[int, ...]]]:
    """All (coefficient, monomial-word) pairs, one per parse tree.

    A parse tree keeps one child of every sum gate and all children of every
    product gate; its monomial is the left-to-right word of variable leaves
    and its coefficient the product of the edge scalars it uses.  Words are
    returned as tuples of variable ids in formula order; commutative callers
    canonicalize afterwards.  Entries are not merged, so summing them (after
    merging equal monomials) reproduces the expanded polynomial.
    """
    n = ir.count_parse_trees(formula)
    if n > budget:
        raise BudgetExceeded(f"{n} parse trees exceed budget {budget}")
    field = formula.field
    one = field.one()

    def lists(node: ir.Node, vals: list) -> list[tuple[Scalar, tuple[int, ...]]]:
        if isinstance(node, ir.VarLeaf):
            return [(one, (node.var,))]
        if isinstance(node, OneLeaf):
            return [(one, ())]
        if isinstance(node, SumGate):
            out: list[tuple[Scalar, tuple[int, ...]]] = []
            for (scalar, _), sub in zip(node.children, vals):
                out.extend((field.mul(scalar, c), w) for c, w in sub)
            return out
        acc: list[tuple[Scalar, tuple[int, ...]]] = [(one, ())]
        for (scalar, _), sub in zip(node.children, vals):
            nxt: list[tuple[Scalar, tuple[int, ...]]] = []
            for c0, w0 in acc:
                for c1, w1 in sub:
                    nxt.append((field.mul(c0, field.mul(scalar, c1)), w0 + w1))
            acc = nxt
        return acc

    return ir.node_attribute(formula.root, lists)[id(formula.root)]


def parse_tree_sum(formula: ir.Formula, budget: int = 10**5) -> PolyTable:
    """Sum the per-parse-tree monomials into a table; must agree with expand."""
    comm, f = formula.commutative, formula.field
    out: dict = {}
    for coeff, word in enumerate_parse_trees(formula, budget=budget):
        key = poly.word_to_comm_key(word) if comm else word
        acc = f.add(out.get(key, f.zero()), coeff)
        if f.is_zero(acc):
            out.pop(key, None)
        else:
            out[key] = acc
    return PolyTable(comm, f, out)


def support_expand(formula: ir.Formula, budget: int | None = poly.DEFAULT_EXPANSION_BUDGET) -> frozenset:
    """Support of the parse-tree sum with every scalar replaced by 1.

    With all-positive unit weights no cancellation can occur, so this is the
    set of monomials produced by at least one parse tree, computed without
    enumerating parse trees.  The kernel runs over Q whatever the field, so
    no count vanishes mod p.
    """
    (prog,), scalars = poly._compile(formula)
    packing = poly._packing(formula.commutative, prog)
    root = poly._kernel(prog, [1] * len(scalars), None, packing, budget, None)
    return frozenset(root if packing is None else map(poly._decoder(packing), root))


def is_monotone_semantic(formula: ir.Formula, budget: int | None = None) -> bool:
    """True iff every parse-tree monomial survives in the expanded polynomial."""
    budget = poly.DEFAULT_EXPANSION_BUDGET if budget is None else budget
    actual = frozenset(poly.expand(formula, budget=budget).terms)
    possible = support_expand(formula, budget=budget)
    # actual is always a subset of possible; monotone means nothing cancelled
    return actual == possible


def is_skew(formula: ir.Formula) -> bool:
    """True iff every product gate has at most one non-leaf child."""
    for node in ir.postorder(formula.root):
        if isinstance(node, ProdGate):
            non_trivial = sum(1 for _, ch in node.children if not ir.is_leaf(ch))
            if non_trivial > 1:
                return False
    return True


def tree_materialize(root: ir.Node) -> ir.Node:
    """A fresh true tree equal to root: every position gets its own new node,
    so internal sharing is expanded.  Post-order over positions with an
    explicit value stack, so deep trees need no recursion.
    """
    out: list[ir.Node] = []
    stack: list[tuple[ir.Node, bool]] = [(root, False)]
    while stack:
        cur, expanded = stack.pop()
        if not expanded:
            stack.append((cur, True))
            if ir.is_gate(cur):
                for _, child in reversed(cur.children):
                    stack.append((child, False))
            continue
        if isinstance(cur, VarLeaf):
            out.append(VarLeaf(cur.var))
        elif isinstance(cur, OneLeaf):
            out.append(OneLeaf())
        else:
            n = len(cur.children)
            kids = out[len(out) - n:]
            del out[len(out) - n:]
            edges = tuple((c, kid) for (c, _), kid in zip(cur.children, kids))
            out.append(SumGate(edges) if isinstance(cur, SumGate) else ProdGate(edges))
    assert len(out) == 1, "tree rebuild stack imbalance"
    return out[0]


def metrics_table(formula: ir.Formula) -> dict[int, ir.GateMetrics]:
    """Per-gate metrics keyed by preorder gate id (0 = output gate)."""
    return {i: ir.GateMetrics(node.size, node.depth, node.sum_depth, node.product_depth, node.syn_degree)
            for i, node in enumerate(ir.gates_preorder(formula))}


def max_total_degree(table: PolyTable) -> int:
    """The largest total degree of a monomial of the table (0 when empty)."""
    if not table.terms:
        return 0
    return max(poly.key_total_degree(k, table.commutative) for k in table.terms)


def subpolynomial(
    p: HardParams,
    u: tuple[int, ...],
    v: tuple[int, ...],
    commutative: bool = True,
    field: Field = QQ,
) -> ir.Formula:
    """The subformula computing H[u, v]; the interleaved address
    v1 u1 ... vl ul walks sum then product children from the output gate.

    Up to renaming of variables this is the (k - l, r) instance.
    """
    if len(u) != len(v):
        raise ValueError("u and v must have equal length")
    if len(u) > p.k:
        raise ValueError(f"prefix longer than k = {p.k}")
    for s in u:
        if s not in (1, 2):
            raise ValueError("u letters must be 1 or 2")
    for t in v:
        if not 1 <= t <= p.r:
            raise ValueError(f"v letters must be in 1..{p.r}")
    root = hardpoly._build(p, tuple(u), tuple(v), field.one())
    return ir.Formula(root=root, commutative=commutative, field=field)


def sigma_partition(p: HardParams) -> list[set[int]]:
    """The variable groups X[sigma], one per sigma in {1,2}^k."""
    rk = p.r**p.k
    return [set(range(s_val * rk, (s_val + 1) * rk)) for s_val in range(2**p.k)]


def lower_bound_params(n: int, d: int) -> tuple[HardParams, Fraction]:
    """Parameters (k, r) = (log2 d, floor(n^(1/k) / 2)) for an n-variable
    budget and target degree d; returns (params, coverage = variables / n).

    Requires d a power of two with d <= sqrt(n), which keeps r >= 2.
    """
    if d < 2 or d & (d - 1) != 0:
        raise ParamOutOfRange(f"degree {d} must be a power of two, at least 2")
    if d * d > n:
        raise ParamOutOfRange(f"degree {d} above sqrt(n) for n = {n}")
    k = d.bit_length() - 1
    # largest r with (2r)^k <= n, i.e. r = floor(n^(1/k) / 2), never below 2
    r = 2
    while (2 * (r + 1)) ** k <= n:
        r += 1
    p = HardParams(k=k, r=r)
    return p, Fraction(p.num_vars, n)
