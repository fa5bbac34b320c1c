"""Ground-truth semantics: exact sparse expansion of formulas.

A PolyTable maps monomial keys to non-zero coefficients.  In commutative mode
the key is a sorted tuple of (variable, exponent) pairs; in non-commutative
mode it is the word of variable ids in multiplication order.  The empty key
is the constant monomial.  Expansion is the oracle every rewriting pass is
checked against, so its result is exact and does not depend on how it is
computed.

Expansion runs bottom-up on plain dicts.  Inside it a commutative monomial is
one int, its exponent vector packed into fixed-width digits: each distinct
variable of the formula has a slot, in sorted-id order, and variable v is
1 << (b * slot(v)), the constant monomial 0.  The digit width is
b = max(1, D.bit_length()) for the syntactic degree D of the root, which bounds
every exponent at every node, so digits never carry and the product of two
monomials is the int sum ka + kb.  A non-commutative monomial is its word, a
tuple of variable ids, and a product concatenates.  Over Q a coefficient is a
plain int until an edge scalar with a denominator other than 1 makes it a
Fraction (the two mix exactly); over Fp it is an int in [0, p).  Packing is a
bijection on monomials, so every dict sees the same key equalities in the same
order.  Only the root table is decoded, to PolyTable keys and field scalars:
a key's low and high halves are read apart, each digit found from the top
down by bit_length, and each distinct half once.  So the result is the table
that composing PolyTable.add, scale and mul gate by gate gives: the same keys
in the same order, the same coefficients, and BudgetExceeded on the same
inputs.
equal_expand and expand_against compare two root tables packed alike and
decode neither (expand_against then decodes its first table, once).
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from typing import Iterable, NamedTuple

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


def _product(edges: list, p: int | None, budget: int | None) -> dict:
    """Product of scalar * table over the edges, left to right.

    The running product is the outer loop and the next factor the inner one,
    and the budget is checked after every outer row.  In either mode the key
    of a product is ka + kb: packed exponent vectors add, words concatenate.
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
                key = ka + kb
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


class Packing(NamedTuple):
    """How the kernel packs commutative monomials into ints.

    Slot i belongs to variables[i], the variables in sorted-id order, and is
    the width-bit digit at bit offset shift[variables[i]] = width * i.  Every
    exponent fits a digit, so digits never carry.
    """

    width: int
    variables: list[int]
    shift: dict[int, int]


def _packing(variables: set[int], degree: int, like: Packing | None) -> Packing:
    """like when it covers the variables and the degree, else one packing
    over both: the union of the variables, wide enough for either degree."""
    if like is not None:
        if degree < 1 << like.width and variables <= like.shift.keys():
            return like
        variables = variables | like.shift.keys()
        degree = max(degree, (1 << like.width) - 1)
    width = max(1, degree.bit_length())
    order = sorted(variables)
    return Packing(width, order, {v: width * slot for slot, v in enumerate(order)})


def _digit_reader(width: int, var_of: list[int]):
    """The function from a packed key over the slots of var_of to its sorted
    (variable, exponent) pairs; it reads the digits from the top one down,
    each found by bit_length."""

    def read(key: int) -> CommKey:
        pairs = []
        while key:
            slot = (key.bit_length() - 1) // width
            at = slot * width
            e = key >> at
            pairs.append((var_of[slot], e))
            key ^= e << at
        pairs.reverse()
        return tuple(pairs)

    return read


def _decoder(packing: Packing):
    """The function from a packed key to its sorted (variable, exponent) pairs.

    The low and the high half of the slots are read apart, each distinct half
    once: the monomials of one table share most of their halves (16,384
    monomials of H(3, 4) have 256 of each).
    """
    half = len(packing.variables) // 2
    at = half * packing.width
    mask = (1 << at) - 1
    read_low = _digit_reader(packing.width, packing.variables[:half])
    read_high = _digit_reader(packing.width, packing.variables[half:])
    lows: dict[int, CommKey] = {}
    highs: dict[int, CommKey] = {}

    def decode(key: int) -> CommKey:
        low, high = key & mask, key >> at
        a = lows.get(low)
        if a is None:
            a = lows[low] = read_low(low)
        b = highs.get(high)
        if b is None:
            b = highs[high] = read_high(high)
        return a + b

    return decode


def _repack(t: dict, old: Packing, new: Packing) -> dict:
    """The table t, packed by old, repacked by new (which covers old)."""
    decode, shift = _decoder(old), new.shift
    return {sum(e << shift[v] for v, e in decode(k)): c for k, c in t.items()}


def _expand(
    formula: ir.Formula,
    budget: int | None,
    sizes: dict[int, int] | None = None,
    like: Packing | None = None,
) -> tuple[dict, Packing | None]:
    """Internal root table of the formula, and its packing (None for words).

    The table is bottom-up over the distinct nodes, each a plain dict from
    internal keys to internal coefficients (see the module docstring).  One
    loop over the postorder counts each node's parent edges and, for packing,
    collects the variables and the syntactic degree of the root; in
    commutative mode the packing is like when that covers them, else one over
    both.  Each edge scalar is converted once, and a child's table is dropped
    once its last parent edge has read it.  When sizes is given it receives
    the number of terms at every node, keyed by id(node).
    """
    comm, f = formula.commutative, formula.field
    p = f.p if isinstance(f, PrimeField) else None
    order = ir.postorder(formula.root)
    uses: dict[int, int] = {}
    degree: dict[int, int] = {}
    variables: set[int] = set()
    for node in order:
        kind = type(node)
        if kind is ir.VarLeaf:
            variables.add(node.var)
            degree[id(node)] = 1
        elif kind is ir.OneLeaf:
            degree[id(node)] = 0
        else:
            ds = []
            for _, child in node.children:
                key = id(child)
                uses[key] = uses.get(key, 0) + 1
                ds.append(degree[key])
            degree[id(node)] = sum(ds) if kind is ir.ProdGate else max(ds)
    packing = _packing(variables, degree[id(formula.root)], like) if comm else None
    del degree
    tables: dict[int, dict] = {}
    for node in order:
        if isinstance(node, ir.VarLeaf):
            t = {1 << packing.shift[node.var]: 1} if comm else {(node.var,): 1}
        elif isinstance(node, ir.OneLeaf):
            t = {0: 1} if comm else {(): 1}
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
                t = _product(edges, p, budget)
            _over_budget(t, budget)
        if sizes is not None:
            sizes[id(node)] = len(t)
        tables[id(node)] = t
    return tables[id(formula.root)], packing


def _table(formula: ir.Formula, root: dict, packing: Packing | None) -> PolyTable:
    """The PolyTable of an internal root table: keys decoded, scalars normalized."""
    norm = formula.field.normalize
    if packing is None:
        terms = {k: norm(c) for k, c in root.items()}
    else:
        decode = _decoder(packing)
        terms = {decode(k): norm(c) for k, c in root.items()}
    return PolyTable(formula.commutative, formula.field, terms)


def expand(formula: ir.Formula, budget: int | None = DEFAULT_EXPANSION_BUDGET) -> PolyTable:
    """Exact polynomial of the formula in its own field and mode.

    Raises BudgetExceeded as soon as any intermediate table passes the budget.
    Distributes over the constructors: a sum gate adds scaled child tables, a
    product gate multiplies them in child order.
    """
    return _table(formula, *_expand(formula, budget))


def _gate_sizes(formula: ir.Formula, sizes: dict[int, int]) -> dict[int, int]:
    return {i: sizes[id(node)] for i, node in enumerate(ir.gates_preorder(formula))}


def _check_comparable(a: ir.Formula, b: ir.Formula) -> None:
    if a.commutative != b.commutative:
        raise ModeMismatch("cannot compare formulas in different commutativity modes")
    if a.field != b.field:
        raise ModeMismatch(f"field mismatch: {a.field.name} vs {b.field.name}")


def _expand_pair(
    a: ir.Formula, b: ir.Formula, budget: int | None, sizes: dict[int, int] | None = None
) -> tuple[dict, Packing | None, bool]:
    """a's internal root table and packing, and whether b has the same polynomial.

    a is expanded first, so b costs nothing when a goes over budget.  b is
    then expanded in a's packing when that covers b's variables and degree,
    as it does for a rewrite of a, and nothing is decoded.  Otherwise b gets
    one packing over both, and a's table is repacked into it.  The root
    tables are compared in the kernel's encoding.
    """
    ta, pa = _expand(a, budget, sizes)
    tb, pb = _expand(b, budget, None, pa)
    if pb is not pa:
        ta, pa = _repack(ta, pa, pb), pb
    return ta, pa, ta == tb


def equal_expand(a: ir.Formula, b: ir.Formula, budget: int | None = DEFAULT_EXPANSION_BUDGET) -> bool:
    """Exact table equality of two formulas in the same mode and field."""
    _check_comparable(a, b)
    return _expand_pair(a, b, budget)[2]


def expand_against(
    formula: ir.Formula, reference: ir.Formula, budget: int | None = DEFAULT_EXPANSION_BUDGET
) -> tuple[PolyTable, dict[int, int], bool]:
    """The formula's table and gate_monomial_counts, and whether the reference
    has the same polynomial, from one expansion of each; only the formula's
    table is decoded."""
    _check_comparable(formula, reference)
    sizes: dict[int, int] = {}
    root, packing, same = _expand_pair(formula, reference, budget, sizes)
    return _table(formula, root, packing), _gate_sizes(formula, sizes), same


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
    sizes: dict[int, int] = {}
    _expand(formula, budget, sizes)
    return _gate_sizes(formula, sizes)
