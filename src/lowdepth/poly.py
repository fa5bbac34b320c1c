"""Ground-truth semantics: exact sparse expansion of formulas.

A PolyTable maps monomial keys to non-zero coefficients.  In commutative mode
the key is a sorted tuple of (variable, exponent) pairs; in non-commutative
mode it is the word of variable ids in multiplication order.  The empty key
is the constant monomial.  Expansion is the oracle every rewriting pass is
checked against, so its result is exact and does not depend on how it is
computed.

Expansion runs on the formula's compiled program (ir.compile_program), the
one PIT evaluates: bottom-up by program position on plain dicts, each distinct
edge-scalar object reduced once over Fp.  Inside it a commutative monomial is
one int, its exponent vector packed into fixed-width digits: each distinct
variable of the formula has a slot, in sorted-id order, and variable v is
1 << (b * slot(v)), the constant monomial 0.  The digit width is
b = max(1, D.bit_length()) for the syntactic degree D of the root, which bounds
every exponent at every node, so digits never carry and the product of two
monomials is the int sum ka + kb.  A non-commutative monomial is its word, a
tuple of variable ids, and a product concatenates.  Over Q a coefficient is a
plain int until an edge scalar with a denominator other than 1 makes it a
Fraction (the two mix exactly), since the field keeps integral scalars as
ints; over Fp it is an int in [0, p).  Packing is a bijection on monomials,
so every dict sees the same key equalities in the same order.  Only the root
table is decoded, to PolyTable keys and field scalars: a key's low and high
halves are read apart, each digit found from the top down by bit_length, and
each distinct half once, and a coefficient takes the field's one form (over
Q, an int when it is integral).  So the result is the table that adding, scaling and multiplying PolyTables gate by gate gives (the tests
keep those ring operations as the reference): the same keys in the same
order, the same coefficients, and BudgetExceeded on the same inputs.
equal_expand and expand_against compile both formulas over one scalar list,
pack them alike (the union of their variables, the larger degree), compare the
two root tables and decode neither.  pit.verify compiles a pair once and
hands the programs to _expand and to PIT alike.

table_bounds bounds every table the kernel would build for a program, by one
integer pass and without expanding: the smaller of the parse trees and the
monomials of the gate's degree, saturated just past a cap.  A bound at most
the budget proves that expansion cannot raise BudgetExceeded, so pit.verify's
"auto" picks its oracle from it.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from operator import add
from typing import Iterable, NamedTuple

from .errors import BudgetExceeded, ModeMismatch
from .fields import Field, PrimeField, Scalar
from . import ir
from .ir import _ONE, _SUM, _VAR

#: Default cap on expansion table entries (per table).
DEFAULT_EXPANSION_BUDGET = 10**6

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


@dataclass
class PolyTable:
    """Sparse exact polynomial; zero coefficients are never stored."""

    commutative: bool
    field: Field
    terms: dict = dc_field(default_factory=dict)

    def num_terms(self) -> int:
        return len(self.terms)

    def degrees_present(self) -> set[int]:
        return {key_total_degree(k, self.commutative) for k in self.terms}


# ---------------------------------------------------------------------------
# Expansion
# ---------------------------------------------------------------------------

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


def _packing(commutative: bool, *progs: ir.Program) -> Packing | None:
    """One packing for the compiled formulas: the union of their variables,
    wide enough for the largest syntactic degree (None for words)."""
    if not commutative:
        return None
    width = max(1, max(prog.degree for prog in progs).bit_length())
    order = sorted(set().union(*(prog.variables for prog in progs)))
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


def _by_halves(packing: Packing, of, join):
    """key -> join(of(low), of(high)), low and high the sorted (variable,
    exponent) pairs of the key's low and high half of the slots, each distinct
    half read once: 16,384 monomials of H(3, 4) have 256 halves of each kind."""
    half = len(packing.variables) // 2
    at = half * packing.width
    mask = (1 << at) - 1
    read_low = _digit_reader(packing.width, packing.variables[:half])
    read_high = _digit_reader(packing.width, packing.variables[half:])
    lows, highs = {}, {}

    def at_key(key: int):
        low, high = key & mask, key >> at
        a = lows.get(low)
        if a is None:
            a = lows[low] = of(read_low(low))
        b = highs.get(high)
        if b is None:
            b = highs[high] = of(read_high(high))
        return join(a, b)

    return at_key


def _decoder(packing: Packing):
    """The function from a packed key to its sorted (variable, exponent) pairs."""
    return _by_halves(packing, tuple, add)


def _compile(*formulas: ir.Formula) -> tuple[list[ir.Program], list]:
    """The formulas' programs over one shared scalar list."""
    scalars: list = []
    return [ir.compile_program(f.root, scalars) for f in formulas], scalars


def _kernel(prog: ir.Program, scalars: list, p: int | None, packing: Packing | None,
            budget: int | None, sizes: list[int] | None) -> dict:
    """Internal root table of a compiled formula, packed by packing.

    The tables are built bottom-up by program position, each a plain dict
    from internal keys to internal coefficients (see the module docstring);
    a child's table is dropped once its last parent edge has read it.  When
    sizes is given it receives the number of terms at every position.
    """
    comm, unit = packing is not None, scalars[0]
    left, tables = prog.uses[:], [None] * len(prog.uses)
    for i, (kind, arg, slots) in enumerate(zip(prog.kinds, prog.args, prog.slots)):
        if kind == _VAR:
            t = {1 << packing.shift[arg]: 1} if comm else {(arg,): 1}
        elif kind == _ONE:
            t = {0: 1} if comm else {(): 1}
        else:
            edges = []
            for j, k in enumerate(arg):
                edges.append((unit if slots is None else scalars[slots[j]], tables[k]))
                left[k] -= 1
                if not left[k]:
                    tables[k] = None
            t = _sum(edges, p) if kind == _SUM else _product(edges, p, budget)
            _over_budget(t, budget)
        if sizes is not None:
            sizes.append(len(t))
        tables[i] = t
    return tables[-1]


def _expand(progs: list[ir.Program], scalars: list, commutative: bool, field: Field,
            budget: int | None, sizes: list[int] | None = None) -> tuple[dict, Packing | None, bool]:
    """The internal root table and packing of progs[0], and whether progs[1],
    when given, has the same polynomial; both are read in the given mode and
    field.

    The programs share scalars and are packed alike, over the union of their
    variables at the larger degree.  Over Fp each distinct scalar is reduced
    mod p once.  progs[0] is expanded first, so progs[1] is not expanded when
    it goes over budget.  The root tables are compared in the kernel's encoding, and
    nothing is decoded.
    """
    p = field.p if isinstance(field, PrimeField) else None
    if p is not None:
        scalars = [c % p for c in scalars]
    packing = _packing(commutative, *progs)
    ta = _kernel(progs[0], scalars, p, packing, budget, sizes)
    return ta, packing, len(progs) > 1 and ta == _kernel(progs[1], scalars, p, packing, budget, None)


def table_bounds(prog: ir.Program, commutative: bool, cap: int) -> list[int]:
    """An upper bound on the entries of every table expansion builds for
    prog, by program position, up to the first position whose bound passes
    cap; integers only, each saturated at cap + 1.

    The bound at a position is the smaller of two counts.  One is its parse
    trees, taken over the children's bounds: a sum adds them and a product
    multiplies them.  The other is the monomials of degree at most its
    syntactic degree D over the program's n variables: C(n + D, D)
    commutative, n^0 + ... + n^D words otherwise.  A sum's running table and
    a product's partial rows hold a subset of the gate's monomials, and no
    more keys than its parse trees.  A gate's bound is at least each child's,
    so the last entry is the largest: the root's bound, or cap + 1 where the
    list stops early.  When it is at most the budget, expanding prog cannot
    raise BudgetExceeded.
    """
    top, n = cap + 1, len(prog.variables)
    mono = [1]  # mono[D]: monomials of degree at most D, until one passes top
    while mono[-1] <= top and len(mono) <= prog.degree:
        d = len(mono)
        mono.append(mono[-1] * (n + d) // d if commutative else mono[-1] + n**d)
    deg, bound = [], []
    for kind, arg in zip(prog.kinds, prog.args):
        if kind == _VAR or kind == _ONE:
            deg.append(int(kind == _VAR))
            bound.append(1)
            continue
        if kind == _SUM:
            d = max([deg[k] for k in arg])
            b = sum([bound[k] for k in arg])
        else:
            d, b = sum([deg[k] for k in arg]), 1
            for k in arg:
                b *= bound[k]
                if b > top:
                    break
        deg.append(d)
        bound.append(min(b, top, mono[d] if d < len(mono) else top))
        if bound[-1] == top:
            break
    return bound


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
    root, packing, _ = _expand(*_compile(formula), formula.commutative, formula.field, budget)
    return _table(formula, root, packing)


def _gate_sizes(formula: ir.Formula, sizes: list[int]) -> dict[int, int]:
    """Term counts by program position, keyed by preorder gate id instead."""
    at = {id(node): i for i, node in enumerate(ir.postorder(formula.root))}
    return {g: sizes[at[id(node)]] for g, node in enumerate(ir.gates_preorder(formula))}


def _check_comparable(a: ir.Formula, b: ir.Formula) -> None:
    if a.commutative != b.commutative:
        raise ModeMismatch("cannot compare formulas in different commutativity modes")
    if a.field != b.field:
        raise ModeMismatch(f"field mismatch: {a.field.name} vs {b.field.name}")


def equal_expand(a: ir.Formula, b: ir.Formula, budget: int | None = DEFAULT_EXPANSION_BUDGET) -> bool:
    """Exact table equality of two formulas in the same mode and field."""
    _check_comparable(a, b)
    return _expand(*_compile(a, b), a.commutative, a.field, budget)[2]


def expand_against(
    formula: ir.Formula, reference: ir.Formula, budget: int | None = DEFAULT_EXPANSION_BUDGET
) -> tuple[dict[int, int], bool]:
    """The formula's gate_monomial_counts, and whether the reference has the
    same polynomial, from one expansion of each."""
    _check_comparable(formula, reference)
    sizes: list[int] = []
    same = _expand(*_compile(formula, reference), formula.commutative, formula.field, budget, sizes)[2]
    return _gate_sizes(formula, sizes), same


def gate_monomial_counts(formula: ir.Formula, budget: int | None = DEFAULT_EXPANSION_BUDGET) -> dict[int, int]:
    """Non-zero monomial count of the polynomial at every gate.

    Keys are preorder gate ids (0 is the output gate).
    """
    sizes: list[int] = []
    _expand(*_compile(formula), formula.commutative, formula.field, budget, sizes)
    return _gate_sizes(formula, sizes)
