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

Rational formulas are reduced mod the configured prime (sound: a mismatch mod
p separates them over Q too).  Formulas over a prime field are evaluated in
their own field; their coefficients are already reduced, so lifting them to
integers mod a different prime would be meaningless.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, zip_longest
from math import prod
from operator import add, mul

from .fields import MERSENNE61, Field, PrimeField, _require_prime
from . import ir, poly
from .ir import _ONE, _SUM, _VAR

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


def _mul(a: Value, b: Value, m: int, trials: int, p: int) -> Value:
    """Matrix product of two sums of superdiagonals: diagonal k1 times k2 is
    diagonal k1 + k2 with c[j] = a[j] * b[j + k1]; those at or beyond m vanish."""
    out: Value = {}
    for k1, xs in a.items():
        off = k1 * trials
        for k2, ys in b.items():
            k = k1 + k2
            if k >= m:
                continue
            part = [x * y % p for x, y in zip(xs, ys[off:] if off else ys)]
            cur = out.get(k)
            out[k] = part if cur is None else [(x + y) % p for x, y in zip(cur, part)]
    return out


def _run_scalar(prog: ir.Program, cols: dict, res: list[int], trials: int, p: int) -> list[int]:
    """Residue of the root at every trial's point; x_v is cols[v] and res holds
    the residues of the scalar table."""
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
    return [x % p for x in vals[-1]]


def _run(prog: ir.Program, cols: dict, diag: int, res: list[int], m: int, trials: int, p: int) -> Value:
    """Value of the root for every trial; x_v is cols[v] on diagonal diag (0
    for scalars, m = 1, which run on plain residue lists) and res holds the
    residues of the scalar table."""
    if not diag:
        return {0: _run_scalar(prog, cols, res, trials, p)}
    one = {0: [1] * (m * trials)}
    left, vals = prog.uses[:], [None] * len(prog.uses)
    for i, (kind, kids, slots) in enumerate(zip(prog.kinds, prog.args, prog.slots)):
        if kind == _VAR or kind == _ONE:
            vals[i] = {diag: cols[kids]} if kind == _VAR else one
            continue
        if kind == _SUM:
            acc: Value = {}
            for j, k in enumerate(kids):
                c = 1 if slots is None else res[slots[j]]
                for d, xs in vals[k].items():
                    xs = xs if c == 1 else [c * x for x in xs]
                    acc[d] = xs if d not in acc else list(map(add, acc[d], xs))
            val = {d: [x % p for x in xs] for d, xs in acc.items()}
        else:
            val, coeff = vals[kids[0]], prod([res[s] for s in slots or ()]) % p
            for k in kids[1:]:
                val = _mul(val, vals[k], m, trials, p)
            if coeff != 1:
                val = {d: [coeff * x % p for x in xs] for d, xs in val.items()}
        for k in kids:
            left[k] -= 1
            if not left[k]:
                vals[k] = None
        vals[i] = val
    return {d: [x % p for x in xs] for d, xs in vals[-1].items()}


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
    if kind == "scalar":
        diag, m, i, j = 0, 1, 0, 0
        cols = _columns(seeds, vs, 1, p)
        if {str(v): xs[0] for v, xs in cols.items()} != witness["point"]:
            return False
    else:
        diag, m, (i, j) = 1, witness["dim"], witness["entry"]
        cols = _columns(seeds, vs, m - 1, p)
    res = _residues(scalars, p)
    va, vb = (_entry(_run(prog, cols, diag, res, m, 1, p), i, j, 0, 1) for prog in (prog_a, prog_b))
    return va == witness["lhs"] and vb == witness["rhs"] and va != vb
