"""Ground-truth semantics: exact sparse expansion of formulas.

A PolyTable maps monomial keys to non-zero coefficients.  In commutative mode
the key is a sorted tuple of (variable, exponent) pairs; in non-commutative
mode it is the word of variable ids in multiplication order.  The empty key
is the constant monomial.  Expansion is the oracle every rewriting pass is
checked against, so its result is exact and does not depend on how it is
computed.

Expansion runs bottom-up on plain dicts.  Inside it a commutative monomial is
the sorted tuple of its variable ids, one entry per power, so the product of
two monomials is tuple(sorted(a + b)); a non-commutative one is its word.
Over Q a coefficient is a plain int until an edge scalar with a denominator
other than 1 makes it a Fraction (the two mix exactly); over Fp it is an int
in [0, p).  Only the root table is converted to PolyTable keys and field
scalars, so the result is the table that composing PolyTable.add, scale and
mul gate by gate gives: the same keys in the same order, the same
coefficients, and BudgetExceeded on the same inputs.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field as dc_field
from typing import Iterable

from .errors import BudgetExceeded, ModeMismatch
from .fields import Field, PrimeField, Scalar
from . import ir

#: Default cap on expansion table entries (per table).
DEFAULT_EXPANSION_BUDGET = 10**6
#: Default cap on parse-tree enumeration.
DEFAULT_PARSE_TREE_BUDGET = 10**5

CommKey = tuple[tuple[int, int], ...]
Word = tuple[int, ...]
Key = tuple  # CommKey | Word, disambiguated by the table's mode


def word_to_comm_key(word: Word) -> CommKey:
    counts: dict[int, int] = {}
    for v in word:
        counts[v] = counts.get(v, 0) + 1
    return tuple(sorted(counts.items()))


def key_exponents(key: Key, commutative: bool) -> Iterable[tuple[int, int]]:
    """(variable, exponent) pairs of a monomial key, in either mode."""
    if commutative:
        return key  # already (var, exp) pairs
    return word_to_comm_key(key)


def key_total_degree(key: Key, commutative: bool) -> int:
    if commutative:
        return sum(e for _, e in key)
    return len(key)


def _mul_comm_keys(a: CommKey, b: CommKey) -> CommKey:
    counts = dict(a)
    for v, e in b:
        counts[v] = counts.get(v, 0) + e
    return tuple(sorted(counts.items()))


@dataclass
class PolyTable:
    """Sparse exact polynomial; zero coefficients are never stored."""

    commutative: bool
    field: Field
    terms: dict = dc_field(default_factory=dict)

    # -- constructors -------------------------------------------------------
    @classmethod
    def zero(cls, commutative: bool, field: Field) -> "PolyTable":
        return cls(commutative, field, {})

    @classmethod
    def const(cls, commutative: bool, field: Field, value: Scalar) -> "PolyTable":
        if field.is_zero(value):
            return cls.zero(commutative, field)
        return cls(commutative, field, {(): value})

    @classmethod
    def var(cls, commutative: bool, field: Field, v: int) -> "PolyTable":
        key = ((v, 1),) if commutative else (v,)
        return cls(commutative, field, {key: field.one()})

    # -- ring operations ----------------------------------------------------
    def add(self, other: "PolyTable") -> "PolyTable":
        self._check_compatible(other)
        f = self.field
        out = dict(self.terms)
        for key, coeff in other.terms.items():
            acc = f.add(out.get(key, f.zero()), coeff)
            if f.is_zero(acc):
                out.pop(key, None)
            else:
                out[key] = acc
        return PolyTable(self.commutative, f, out)

    def scale(self, scalar: Scalar) -> "PolyTable":
        f = self.field
        if f.is_zero(scalar):
            return PolyTable.zero(self.commutative, f)
        if f.is_one(scalar):
            return self
        return PolyTable(self.commutative, f, {k: f.mul(scalar, c) for k, c in self.terms.items()})

    def mul(self, other: "PolyTable", budget: int | None = None) -> "PolyTable":
        self._check_compatible(other)
        f = self.field
        out: dict = {}
        for ka, ca in self.terms.items():
            for kb, cb in other.terms.items():
                key = _mul_comm_keys(ka, kb) if self.commutative else ka + kb
                acc = f.add(out.get(key, f.zero()), f.mul(ca, cb))
                if f.is_zero(acc):
                    out.pop(key, None)
                else:
                    out[key] = acc
            _over_budget(out, budget)
        return PolyTable(self.commutative, f, out)

    # -- queries ------------------------------------------------------------
    def support(self) -> frozenset:
        return frozenset(self.terms)

    def num_terms(self) -> int:
        return len(self.terms)

    def max_total_degree(self) -> int:
        if not self.terms:
            return 0
        return max(key_total_degree(k, self.commutative) for k in self.terms)

    def degrees_present(self) -> set[int]:
        return {key_total_degree(k, self.commutative) for k in self.terms}

    def _check_compatible(self, other: "PolyTable") -> None:
        if self.commutative != other.commutative:
            raise ModeMismatch("cannot combine commutative and non-commutative tables")
        if self.field != other.field:
            raise ModeMismatch(f"field mismatch: {self.field.name} vs {other.field.name}")

    def __eq__(self, other) -> bool:
        if not isinstance(other, PolyTable):
            return NotImplemented
        return (
            self.commutative == other.commutative
            and self.field == other.field
            and self.terms == other.terms
        )


# ---------------------------------------------------------------------------
# Expansion
# ---------------------------------------------------------------------------

def _edge_scalar(c: Scalar, p: int | None) -> Scalar:
    """An edge scalar as the kernel uses it: reduced mod p over Fp, a plain
    int over Q when its denominator is 1."""
    if p is not None:
        return c % p
    return c.numerator if c.denominator == 1 else c


def _scaled(t: dict, s: Scalar, p: int | None) -> dict:
    """A new table holding s * t, zero products dropped."""
    if not s:
        return {}
    if s == 1:
        return dict(t)
    if p is None:
        return {k: s * c for k, c in t.items()}
    return {k: v for k, c in t.items() if (v := s * c % p)}


def _over_budget(t: dict, budget: int | None) -> None:
    if budget is not None and len(t) > budget:
        raise BudgetExceeded(f"expansion table grew past {budget} entries")


def _sum(edges: list, p: int | None) -> dict:
    """Sum of scalar * table over the edges, accumulated in one new dict."""
    s, t = edges[0]
    acc = _scaled(t, s, p)
    get = acc.get
    for s, t in edges[1:]:
        if not s:
            continue
        if p is not None:
            for k, c in t.items():
                v = (get(k, 0) + s * c) % p
                if v:
                    acc[k] = v
                else:
                    acc.pop(k, None)
        else:
            # over Q no product of non-zero coefficients is zero, so a zero
            # sum means the key was present
            for k, c in t.items():
                v = get(k, 0) + s * c
                if v:
                    acc[k] = v
                else:
                    del acc[k]
    return acc


def _product(edges: list, commutative: bool, p: int | None, budget: int | None) -> dict:
    """Product of scalar * table over the edges, left to right.

    The running product is the outer loop and the next factor the inner one,
    and the budget is checked after every outer row.
    """
    s, t = edges[0]
    acc = _scaled(t, s, p)  # the single row of 1 * (s * t)
    _over_budget(acc, budget)
    for s, t in edges[1:]:
        if not s:
            t = {}
        out: dict = {}
        get = out.get
        for ka, ca in acc.items():
            cs = ca * s if p is None else ca * s % p
            for kb, cb in t.items():
                key = tuple(sorted(ka + kb)) if commutative else ka + kb
                if p is None:
                    v = get(key, 0) + cs * cb
                    if v:
                        out[key] = v
                    else:
                        del out[key]
                else:
                    v = (get(key, 0) + cs * cb) % p
                    if v:
                        out[key] = v
                    else:
                        out.pop(key, None)
            _over_budget(out, budget)
        acc = out
    return acc


def _expand(formula: ir.Formula, budget: int | None, sizes: dict[int, int] | None = None) -> PolyTable:
    """Root table of the formula, bottom-up over its distinct nodes.

    Inside the loop a table is a plain dict from internal keys to internal
    coefficients (see the module docstring); only the root is converted to
    PolyTable keys and field scalars.  Each edge scalar is converted once, and
    a child's table is dropped once its last parent edge has read it.  When
    sizes is given it receives the number of terms at every node, keyed by
    id(node).
    """
    comm, f = formula.commutative, formula.field
    p = f.p if isinstance(f, PrimeField) else None
    order = ir.postorder(formula.root)
    uses = Counter(id(child) for node in order if ir.is_gate(node) for _, child in node.children)
    tables: dict[int, dict] = {}
    for node in order:
        if isinstance(node, ir.VarLeaf):
            t = {(node.var,): 1}
        elif isinstance(node, ir.OneLeaf):
            t = {(): 1}
        else:
            edges = []
            for c, child in node.children:
                key = id(child)
                edges.append((_edge_scalar(c, p), tables[key]))
                uses[key] -= 1
                if not uses[key]:
                    del tables[key]
            if isinstance(node, ir.SumGate):
                t = _sum(edges, p)
            else:
                t = _product(edges, comm, p, budget)
            _over_budget(t, budget)
        if sizes is not None:
            sizes[id(node)] = len(t)
        tables[id(node)] = t
    norm = f.normalize
    root = tables[id(formula.root)]
    if comm:
        return PolyTable(comm, f, {word_to_comm_key(k): norm(c) for k, c in root.items()})
    return PolyTable(comm, f, {k: norm(c) for k, c in root.items()})


def expand(formula: ir.Formula, budget: int | None = DEFAULT_EXPANSION_BUDGET) -> PolyTable:
    """Exact polynomial of the formula in its own field and mode.

    Raises BudgetExceeded as soon as any intermediate table passes the budget.
    Distributes over the constructors: a sum gate adds scaled child tables, a
    product gate multiplies them in child order.
    """
    return _expand(formula, budget)


def expand_with_gate_counts(
    formula: ir.Formula, budget: int | None = DEFAULT_EXPANSION_BUDGET
) -> tuple[PolyTable, dict[int, int]]:
    """expand and gate_monomial_counts from one expansion."""
    sizes: dict[int, int] = {}
    table = _expand(formula, budget, sizes)
    return table, {i: sizes[id(node)] for i, node in enumerate(ir.gates_preorder(formula))}


def equal_expand(a: ir.Formula, b: ir.Formula, budget: int | None = DEFAULT_EXPANSION_BUDGET) -> bool:
    """Exact table equality of two formulas in the same mode and field."""
    if a.commutative != b.commutative:
        raise ModeMismatch("cannot compare formulas in different commutativity modes")
    if a.field != b.field:
        raise ModeMismatch(f"field mismatch: {a.field.name} vs {b.field.name}")
    return expand(a, budget=budget) == expand(b, budget=budget)


def parse_tree_sum(formula: ir.Formula, budget: int = DEFAULT_PARSE_TREE_BUDGET) -> PolyTable:
    """Sum the per-parse-tree monomials into a table; must agree with expand."""
    comm, f = formula.commutative, formula.field
    out: dict = {}
    for coeff, word in ir.enumerate_parse_trees(formula, budget=budget):
        key = word_to_comm_key(word) if comm else word
        acc = f.add(out.get(key, f.zero()), coeff)
        if f.is_zero(acc):
            out.pop(key, None)
        else:
            out[key] = acc
    return PolyTable(comm, f, out)


def support_expand(formula: ir.Formula, budget: int | None = DEFAULT_EXPANSION_BUDGET) -> frozenset:
    """Support of the parse-tree sum with every scalar replaced by 1.

    With all-positive unit weights no cancellation can occur, so this is the
    set of monomials produced by at least one parse tree, computed without
    enumerating parse trees.
    """
    from .fields import QQ

    unit = QQ.one()

    def strip(node: ir.Node, vals: list) -> ir.Node:
        if isinstance(node, ir.SumGate):
            return ir.SumGate(tuple((unit, v) for v in vals))
        if isinstance(node, ir.ProdGate):
            return ir.ProdGate(tuple((unit, v) for v in vals))
        return node

    stripped = ir.node_attribute(formula.root, strip)[id(formula.root)]
    shadow = ir.Formula(stripped, commutative=formula.commutative, field=QQ)  # type: ignore[arg-type]
    return expand(shadow, budget=budget).support()


def is_monotone_semantic(formula: ir.Formula, budget: int | None = None) -> bool:
    """True iff every parse-tree monomial survives in the expanded polynomial."""
    budget = DEFAULT_EXPANSION_BUDGET if budget is None else budget
    actual = expand(formula, budget=budget).support()
    possible = support_expand(formula, budget=budget)
    # actual is always a subset of possible; monotone means nothing cancelled
    return actual == possible


def gate_monomial_counts(formula: ir.Formula, budget: int | None = DEFAULT_EXPANSION_BUDGET) -> dict[int, int]:
    """Non-zero monomial count of the polynomial at every gate.

    Keys are preorder gate ids (0 is the output gate).
    """
    return expand_with_gate_counts(formula, budget)[1]
