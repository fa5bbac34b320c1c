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

Both oracles read one flat program per formula (ir.Program: node kinds, child
positions, parent-use counts, edge scalars interned by identity).  verify
compiles a pair of formulas once; verify_programs takes programs read straight
from text (sexpr.parse_program), as verify-equal does.  Its "auto" policy
picks the oracle before running one: it expands when poly.table_bounds shows
that no table of either program can pass the budget, and otherwise runs PIT on
the same programs, with nothing expanded.  Each equal scalar value is reduced mod
p once.  All trials run in one pass over the program, and a value is dropped
once its last parent has read it.  Scalar mode works on plain lists of
residues, one per trial: a fan-in-2 sum is (c0*x + c1*y) % p and a fan-in-2
product c*x*y % p, in one comprehension each.  Points are drawn as
random.randrange(p) does.

Matrix mode multiplies no matrices.  A verdict reads only the root's
entries, so _lower turns a program and a root demand into a scalar cell
program: a cell (position, row i, diagonal k) is one entry of a position's
matrix, and a position supplies only the rows its parents read, in the
diagonals it can hold.  _run_scalar evaluates the cell program as it does a
scalar program, so one loop serves both modes.  _pit's root demands every
entry the root holds, so its values, verdicts and witnesses are those of the
full matrices; check_witness's root demands its recorded entry alone.  At
the default m = d + 1 a homogeneous program demands the one entry (0, d),
and its cell program has one cell per position.

Rational formulas are reduced mod the configured prime (sound: a mismatch mod
p separates them over Q too).  Formulas over a prime field are evaluated in
their own field; their coefficients are already reduced, so lifting them to
integers mod a different prime would be meaningless.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, repeat, zip_longest
from math import prod
from operator import add, mul

from .fields import MERSENNE61, Field, PrimeField, _require_prime
from . import ir, poly
from .ir import _ONE, _PROD, _SUM, _VAR

#: A matrix-mode value for all trials at once: superdiagonal k -> its entries,
#: position j of trial t at index j * trials + t.  Scalar mode computes on
#: plain residue lists and gives its root as diagonal 0 of a 1 x 1 matrix,
#: {0: [one residue per trial]}.
Value = dict[int, list[int]]


@dataclass(frozen=True)
class PITConfig:
    trials: int = 20
    prime: int = MERSENNE61
    matrix_dim: int | None = None  # default: max syntactic degree + 1
    seed: int = 0

    def __post_init__(self):
        if self.trials < 0:
            raise ValueError(f"trials must be >= 0, got {self.trials}")
        _require_prime(self.prime)


@dataclass(frozen=True)
class PITResult:
    verdict: str  # "equal-probably" | "unequal"
    trials_run: int
    per_trial_error: Fraction  # d/p in both modes
    witness: dict | None

    @property
    def equal(self) -> bool:
        return self.verdict == "equal-probably"


def _residues(scalars: list, p: int) -> list[int]:
    """The scalars of the compiled programs mod p, in slot order; each equal
    value is reduced once."""
    fp, memo, out = PrimeField(p), {}, []
    for c in scalars:
        r = memo.get(c)
        if r is None:
            try:
                r = memo[c] = fp.normalize(c)
            except ZeroDivisionError as exc:
                raise ValueError(f"edge scalar {c}: {exc}; choose another prime") from None
        out.append(r)
    return out


def _columns(seeds: list[int], variables: list[int], per: int, p: int) -> dict:
    """x_v -> per draws of every trial (its coordinate, or r_{v,0..m-2}), draw j of trial t
    at j * trials + t; a trial draws variable by variable as Random(seed).randrange(p)."""
    k, n, rows = p.bit_length(), per * len(variables), []
    for seed in seeds:
        bits, row = random.Random(seed).getrandbits, []
        for _ in range(n):
            r = bits(k)
            while r >= p:  # randrange's rejection rule
                r = bits(k)
            row.append(r)
        rows.append(row)
    draws = list(zip(*rows)) or [()] * n  # draws[q]: draw q of every trial
    if per == 1:
        return dict(zip(variables, draws))
    return {v: list(chain.from_iterable(draws[i * per:(i + 1) * per])) for i, v in enumerate(variables)}


def _run_scalar(prog: ir.Program, cols: dict, res: list[int], trials: int, p: int,
                roots: list[int] | None = None) -> list:
    """Residue of the root at every trial's point, or with roots the residues
    of each of those positions (whose uses must keep them alive); x_v is
    cols[v] and res holds the residues of the scalar table."""
    one = [1] * trials
    left, vals = prog.uses[:], [None] * len(prog.uses)
    for i, (kind, kids, slots) in enumerate(zip(prog.kinds, prog.args, prog.slots)):
        if kind == _VAR or kind == _ONE:
            vals[i] = cols[kids] if kind == _VAR else one
            continue
        if len(kids) == 2:
            # a unit sum is left unreduced; products and weighted sums reduce,
            # so entries stay below size * p until the root reduces them
            xs, ys = vals[kids[0]], vals[kids[1]]
            if slots is None:
                val = list(map(add, xs, ys)) if kind == _SUM else [z % p for z in map(mul, xs, ys)]
            elif kind == _SUM:
                c0, c1 = res[slots[0]], res[slots[1]]
                val = [(c0 * x + c1 * y) % p for x, y in zip(xs, ys)]
            else:
                c = res[slots[0]] * res[slots[1]] % p
                val = [c * x * y % p for x, y in zip(xs, ys)]
        elif kind == _SUM:
            val = None
            for j, k in enumerate(kids):
                c, xs = 1 if slots is None else res[slots[j]], vals[k]
                xs = xs if c == 1 else [c * x for x in xs]
                val = xs if val is None else list(map(add, val, xs))
            val = [x % p for x in val]
        else:
            val, c = vals[kids[0]], prod([res[s] for s in slots or ()]) % p
            for k in kids[1:]:
                val = [z % p for z in map(mul, val, vals[k])]
            if c != 1:
                val = [c * x % p for x in val]
        for k in kids:
            left[k] -= 1
            if not left[k]:
                vals[k] = None
        vals[i] = val
    if roots is None:
        return [x % p for x in vals[-1]]
    return [[x % p for x in vals[r]] for r in roots]


def _bits(mask: int) -> list[int]:
    """The members of a set of small naturals held as a bitmask, in order."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def _plus(a: int, b: int) -> int:
    """Minkowski sum {x + y} of two sets held as bitmasks."""
    out = 0
    while b:
        low = b & -b
        out |= a * low  # a shifted by the member of b at low
        b ^= low
    return out


def _lower(prog: ir.Program, m: int, entry: tuple[int, int] | None = None) -> tuple[ir.Program, dict]:
    """The cell program of prog for m x m superdiagonal values, and its root
    cells: (i, k) -> the cell that holds entry (i, i + k) of the root.

    A cell (position, row i, diagonal k), i + k <= m - 1, is one entry of a
    position's matrix, and the cell program computes it as a scalar, so that
    _run_scalar evaluates it.  A bottom-up pass gives each position the
    diagonals it can hold, capped below m: a variable {1}, the constant {0},
    a sum the union of its children's and a product their Minkowski sum.  A
    top-down pass gives each position the rows its parents read: a sum
    passes its rows to every child, a product its rows R to its first factor
    and R + ka to the factor after one of degrees ka, a row going only where
    the child holds some entry; a shared node takes the union.  The root
    demands every entry it holds, or with entry = (i, j) that entry alone.

    A variable cell at row i reads the variable's column (v, i), draw i of
    its r's; a sum cell adds its children's cells of its row and diagonal;
    a product cell multiplies one cell of each factor, or sums such products
    over the splits of its diagonal among the factors, folded left: the
    products that reach one diagonal after a factor become one sum cell.  A
    gate of one unit-weight edge is its child's cell, and cells no root
    reads are dropped, so on a homogeneous program at m = degree + 1 the
    root demands one cell and each position supplies one.
    """
    kinds, args, slots_of = prog.kinds, prog.args, prog.slots
    n, cap = len(kinds), (1 << m) - 1
    degs = [0] * n  # position -> its diagonals, bit k for diagonal k
    for pos, (kind, kids) in enumerate(zip(kinds, args)):
        if kind == _VAR or kind == _ONE:
            d = 2 if kind == _VAR else 1
        elif kind == _SUM:
            d = 0
            for k in kids:
                d |= degs[k]
        else:
            d = 1
            for k in kids:
                d = _plus(d, degs[k]) & cap
        degs[pos] = d & cap
    rows = [0] * n  # position -> its rows, bit i for row i
    root = degs[-1]  # the diagonals the root demands
    if entry is not None:
        i, j = entry
        root &= 1 << j - i if 0 <= i <= j < m else 0
        rows[-1] = 1 << i if root else 0
    elif root:
        rows[-1] = cap >> _bits(root)[0]  # the rows that hold an entry
    for pos in range(n - 1, -1, -1):
        r, kind = rows[pos], kinds[pos]
        if not r or kind < _SUM:
            continue
        for k in args[pos]:
            d = degs[k]
            if d:
                rows[k] |= r & cap >> (d & -d).bit_length() - 1
            if kind == _PROD:
                r = _plus(r, d) & cap
    kinds_c, args_c, slots_c, uses_c = [], [], [], []
    at: dict[int, int] = {}  # (pos * m + i) * m + k -> the cell of (pos, i, k)

    def leaf(kind: int, arg, slots=None) -> int:
        kinds_c.append(kind)
        args_c.append(arg)
        slots_c.append(slots)
        uses_c.append(0)
        return len(kinds_c) - 1

    def gate(kind: int, edges: list) -> int:
        """The cell of a gate over edges, each (cell, slot)."""
        if len(edges) == 1 and not edges[0][1]:
            return edges[0][0]
        cs, ss = zip(*edges)
        for c in cs:
            uses_c[c] += 1
        return leaf(kind, cs, ss if any(ss) else None)

    def total(products: list) -> int:
        """One cell for a sum of products, each a list of edges."""
        return gate(_SUM, [(gate(_PROD, edges), 0) for edges in products])

    for pos, (kind, kids, slots) in enumerate(zip(kinds, args, slots_of)):
        d, slots = degs[pos], slots or repeat(0)
        for i in _bits(rows[pos]):
            key = (pos * m + i) * m
            if kind == _VAR:
                at[key + 1] = leaf(_VAR, (kids, i))
            elif kind == _ONE:
                at[key] = leaf(_ONE, None)
            elif kind == _SUM:
                for k in _bits(d & cap >> i):
                    at[key + k] = gate(_SUM, [(at[(c * m + i) * m + k], s) for c, s in zip(kids, slots)
                                              if (c * m + i) * m + k in at])
            else:
                # the diagonal of the factors so far -> the products, each a
                # list of edges, that reach it
                acc = {0: [[]]}
                for c, s in zip(kids, slots):
                    step: dict[int, list] = {}
                    for k0, products in acc.items():
                        fits = _bits(degs[c] & cap >> i + k0)
                        if fits and len(products) > 1:
                            products = [[(total(products), 0)]]
                        for kc in fits:
                            edge = (at[(c * m + i + k0) * m + kc], s)
                            if len(fits) == 1:  # the one split: extend in place
                                for edges in products:
                                    edges.append(edge)
                                out = products
                            else:
                                out = [edges + [edge] for edges in products]
                            step.setdefault(k0 + kc, []).extend(out)
                    acc = step
                for k, products in acc.items():
                    if d >> k & 1:
                        at[key + k] = total(products)
    roots = {}
    for i in _bits(rows[-1]):
        for k in _bits(root & cap >> i):
            roots[i, k] = c = at[((n - 1) * m + i) * m + k]
            uses_c[c] += 1
    if 0 in uses_c:  # keep only the cells a root reads, renumbered
        left = [0] * len(kinds_c)  # cell -> its reads by roots and kept cells
        for c in roots.values():
            left[c] += 1
        for c in range(len(kinds_c) - 1, -1, -1):
            if left[c] and kinds_c[c] >= _SUM:
                for k in args_c[c]:
                    left[k] += 1
        keep = [c for c, u in enumerate(left) if u]
        new = {c: t for t, c in enumerate(keep)}
        kinds_c = [kinds_c[c] for c in keep]
        slots_c = [slots_c[c] for c in keep]
        args_c = [tuple(new[k] for k in args_c[c]) if kinds_c[t] >= _SUM else args_c[c]
                  for t, c in enumerate(keep)]
        uses_c = [left[c] for c in keep]
        roots = {key: new[c] for key, c in roots.items()}
    columns = {arg for kind, arg in zip(kinds_c, args_c) if kind == _VAR}
    return ir.Program(kinds_c, args_c, slots_c, uses_c, prog.degree, prog.size, columns), roots


def _run_cells(cells: ir.Program, roots: dict, cols: dict, res: list[int], trials: int, p: int) -> list:
    """The residues of each root cell at every trial, x_v being cols[v] with
    draw i of trial t at i * trials + t."""
    at_row = {(v, i): cols[v][i * trials:(i + 1) * trials] for v, i in cells.variables}
    return _run_scalar(cells, at_row, res, trials, p, list(roots.values()))


def _run(prog: ir.Program, cols: dict, diag: int, res: list[int], m: int, trials: int, p: int) -> Value:
    """Value of the root for every trial; x_v is cols[v] on diagonal diag (0
    for scalars, m = 1, which run on plain residue lists) and res holds the
    residues of the scalar table.  A matrix value holds the root's entries:
    prog is lowered to its cell program (_lower) with the root demanding
    every entry it holds, and _run_scalar evaluates that."""
    if not diag:
        return {0: _run_scalar(prog, cols, res, trials, p)}
    cells, roots = _lower(prog, m)
    out: Value = {}
    for (_, k), xs in zip(roots, _run_cells(cells, roots, cols, res, trials, p)):
        out.setdefault(k, []).extend(xs)  # rows in order, so row i at i * trials
    return out


def _root_entry(prog: ir.Program, cols: dict, res: list[int], m: int, p: int, entry: tuple[int, int]) -> int:
    """Entry (i, j) = entry of the root's matrix at one trial's draws cols,
    from the cell program whose root demands that entry alone; zero when
    the root holds no entry there."""
    cells, roots = _lower(prog, m, entry)
    return _run_cells(cells, roots, cols, res, 1, p)[0][0] if roots else 0


def _entry(val: Value, i: int, j: int, trial: int, trials: int) -> int:
    """Entry (i, j) of one trial's matrix; zero off the stored diagonals."""
    return val[j - i][i * trials + trial] if j - i in val else 0


def pit_equal(a: ir.Formula, b: ir.Formula, cfg: PITConfig = PITConfig()) -> PITResult:
    """Randomized equality test; see the module docstring for guarantees."""
    poly._check_comparable(a, b)
    return _pit(*poly._compile(a, b), a.commutative, a.field, cfg)


def _pit(progs: list[ir.Program], scalars: list, commutative: bool, field: Field,
         cfg: PITConfig) -> PITResult:
    """pit_equal on a pair of programs compiled over the one list scalars,
    read in the given mode and field."""
    # formulas over a prime field are evaluated in it; the configured prime
    # applies only to rationals, whose scalars embed soundly mod any large p
    native = isinstance(field, PrimeField)
    p = field.p if native else cfg.prime
    prog_a, prog_b = progs
    d = max(prog_a.degree, prog_b.degree, 1)
    size = max(prog_a.size, prog_b.size)
    if native:
        if p <= 2 * d:
            raise ValueError(f"field {field.name} too small to test degree {d}")
    elif p <= 2 * d * size:
        raise ValueError(f"prime {p} below the heuristic floor 2 * degree * size = "
                         f"{2 * d * size}; error bounds would be weak")
    m = 1
    if not commutative:
        m = cfg.matrix_dim if cfg.matrix_dim is not None else d + 1
        if m < d + 1:
            raise ValueError(f"matrix dimension {m} below degree bound {d + 1}")
    res = _residues(scalars, p)
    vs = sorted(prog_a.variables | prog_b.variables)
    trials = cfg.trials
    seeds = [cfg.seed * 1_000_003 + t for t in range(trials)]
    cols = _columns(seeds, vs, max(m - 1, 1), p)
    va, vb = (_run(prog, cols, int(m > 1), res, m, trials, p) for prog in (prog_a, prog_b))
    # the first differing trial, and in it the first differing entry in row-major order
    first = min(((idx % trials, idx // trials, idx // trials + k) for k in va.keys() | vb.keys()
                 for idx, (x, y) in enumerate(zip_longest(va.get(k, ()), vb.get(k, ()), fillvalue=0))
                 if x != y), default=None)
    if first is None:
        return PITResult("equal-probably", trials, Fraction(d, p), None)
    t, i, j = first
    witness = {"kind": "scalar" if commutative else "superdiagonal", "prime": p, "trial": t,
               "trial_seed": seeds[t]}
    if commutative:
        witness["point"] = {str(v): cols[v][t] for v in vs}
    else:
        witness.update(dim=m, entry=[i, j])
    witness.update(lhs=_entry(va, i, j, t, trials), rhs=_entry(vb, i, j, t, trials))
    return PITResult("unequal", t + 1, Fraction(d, p), witness)


def verify(
    a: ir.Formula, b: ir.Formula, method: str, budget: int | None, cfg: PITConfig
) -> tuple[str, str, dict | None]:
    """Decide whether a and b agree; returns (verdict, method used, witness).

    "expand" decides exactly ("equal" or "unequal") and lets BudgetExceeded
    through; "pit" runs PIT directly, as pit_equal does; "auto" expands when
    the static table bound of both formulas (poly.table_bounds) is at most the
    budget, so that expansion cannot go over it, and otherwise runs PIT
    without expanding.  A budget of None always expands.  Each formula is
    compiled once, and the bound and both oracles read those programs
    (verify_programs).  Only a PIT "unequal" carries a witness.
    """
    if method not in ("expand", "auto", "pit"):
        raise ValueError(f"unknown verification method {method!r}")
    poly._check_comparable(a, b)
    return verify_programs(*poly._compile(a, b), a.commutative, a.field, method, budget, cfg)


def verify_programs(progs: list[ir.Program], scalars: list, commutative: bool, field: Field,
                    method: str, budget: int | None, cfg: PITConfig) -> tuple[str, str, dict | None]:
    """verify on a comparable pair of programs compiled over the one list
    scalars, read in the given mode and field.  Under "auto" the bound of a
    program stops at its first position past the budget, and the second
    program is not bounded once the first does not fit."""
    if method == "auto":
        fits = budget is None or all(poly.table_bounds(prog, commutative, budget)[-1] <= budget
                                     for prog in progs)
        method = "expand" if fits else "pit"
    if method == "expand":
        same = poly._expand(progs, scalars, commutative, field, budget)[2]
        return ("equal" if same else "unequal"), "expand", None
    res = _pit(progs, scalars, commutative, field, cfg)
    return res.verdict, "pit", res.witness


def check_witness(a: ir.Formula, b: ir.Formula, witness: dict) -> bool:
    """Replay a recorded witness and confirm it still separates the formulas.

    Raises ModeMismatch as pit_equal does, and ValueError for a witness that
    cannot come from this pair: an unknown kind, a kind that does not fit the
    mode (scalar for commutative formulas, superdiagonal otherwise), or a
    prime other than that of a prime-field pair.
    """
    poly._check_comparable(a, b)
    kind, p, seeds = witness.get("kind"), witness["prime"], [witness["trial_seed"]]
    if kind not in ("scalar", "superdiagonal"):
        raise ValueError(f"unknown witness kind {kind!r}")
    if (kind == "scalar") != a.commutative:
        mode = "commutative" if a.commutative else "non-commutative"
        raise ValueError(f"a {kind} witness does not fit {mode} formulas")
    if isinstance(a.field, PrimeField) and p != a.field.p:
        raise ValueError(f"witness prime {p} is not the prime of {a.field.name}")
    (prog_a, prog_b), scalars = poly._compile(a, b)
    vs = sorted(prog_a.variables | prog_b.variables)
    res = _residues(scalars, p)
    if kind == "scalar":
        cols = _columns(seeds, vs, 1, p)
        if {str(v): xs[0] for v, xs in cols.items()} != witness["point"]:
            return False
        va, vb = (_run_scalar(prog, cols, res, 1, p)[0] for prog in (prog_a, prog_b))
    else:
        # the root demands the recorded entry alone
        m, entry = witness["dim"], tuple(witness["entry"])
        cols = _columns(seeds, vs, m - 1, p)
        va, vb = (_root_entry(prog, cols, res, m, p, entry) for prog in (prog_a, prog_b))
    return va == witness["lhs"] and vb == witness["rhs"] and va != vb
