"""Nested-inner-product hard instances and their combinatorial checkers.

For k >= 1 and r >= 2 the polynomial is built over the (2r)^k variables
x[sigma, tau], sigma in {1,2}^k, tau in {1..r}^k, by the recursion

    H[u, v] = x[u, v]                                 when |u| = |v| = k
    H[u, v] = sum_{a=1..r} H[u.1, v.a] * H[u.2, v.a]  otherwise

with the top-level polynomial H[(), ()].  Its canonical formula alternates a
fan-in-r sum with fan-in-2 products, has size (2r)^k, depth 2k, degree 2^k,
and exactly r^(2^k - 1) monomials, all with coefficient 1.  It is monotone
and set-multilinear with respect to the groups X[sigma].

The checkers verify, exhaustively at desk scale: the prefix-alignment
property of monomials (two variables whose sigma-words agree on exactly
l < k letters must have tau-words agreeing on at least l+1), read off the
expansion kernel's packed root table with one mask of bad partners per
variable, and the per-gate monomial-count bound r^(d_gate - 1) for any
monotone formula computing the polynomial.  check_gate_counts first compares
the formula's packed table with H(k, r)'s, so a formula it accepts has H's
monomials: their count, unit coefficients and prefix alignment follow from
that one comparison, and check-hard reports them without recomputing them.

Variable encoding (stable; test fixtures depend on it): sigma and tau are
read as mixed-radix numbers with the first letter most significant, and
id = sigma_value * r^k + tau_value.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache, reduce
from itertools import combinations
from operator import or_

from .errors import NotComputingH, ParamOutOfRange, UniverseTooLarge
from .fields import QQ, Field
from . import ir, poly
from .ir import Formula, Node, ProdGate, SumGate, VarLeaf

#: gen_hard refuses to build instances with more variables than this.
DEFAULT_UNIVERSE_BOUND = 10**6

#: Past this many variables (masks take quadratic memory) pairs are tested one by one.
_MASKED_VARIABLES = 4096


@dataclass(frozen=True)
class HardParams:
    k: int
    r: int

    def __post_init__(self):
        if self.k < 1:
            raise ParamOutOfRange(f"k must be >= 1, got {self.k}")
        if self.r < 2:
            raise ParamOutOfRange(f"r must be >= 2, got {self.r}")

    @property
    def degree(self) -> int:
        return 2**self.k

    @property
    def num_vars(self) -> int:
        return (2 * self.r) ** self.k


Wordpair = tuple[tuple[int, ...], tuple[int, ...]]  # (sigma-prefix, tau-prefix)


def encode_var(p: HardParams, sigma: tuple[int, ...], tau: tuple[int, ...]) -> int:
    """id = sigma-value * r^k + tau-value, first letters most significant."""
    if len(sigma) != p.k or len(tau) != p.k:
        raise ValueError("sigma and tau must have length k")
    s_val = 0
    for s in sigma:
        if s not in (1, 2):
            raise ValueError(f"sigma letters must be 1 or 2, got {s}")
        s_val = s_val * 2 + (s - 1)
    t_val = 0
    for t in tau:
        if not 1 <= t <= p.r:
            raise ValueError(f"tau letters must be in 1..{p.r}, got {t}")
        t_val = t_val * p.r + (t - 1)
    return s_val * p.r**p.k + t_val


def decode_var(p: HardParams, var: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Inverse of encode_var."""
    rk = p.r**p.k
    if not 0 <= var < 2**p.k * rk:
        raise ValueError(f"variable id {var} outside the (k={p.k}, r={p.r}) universe")
    s_val, t_val = divmod(var, rk)
    sigma = []
    for _ in range(p.k):
        sigma.append(s_val % 2 + 1)
        s_val //= 2
    tau = []
    for _ in range(p.k):
        tau.append(t_val % p.r + 1)
        t_val //= p.r
    return tuple(reversed(sigma)), tuple(reversed(tau))


def _build(p: HardParams, u: tuple[int, ...], v: tuple[int, ...], one) -> Node:
    if len(u) == p.k:
        return VarLeaf(encode_var(p, u, v))
    summands = []
    for a in range(1, p.r + 1):
        left = _build(p, u + (1,), v + (a,), one)
        right = _build(p, u + (2,), v + (a,), one)
        summands.append((one, ProdGate(((one, left), (one, right)))))
    return SumGate(tuple(summands))


def gen_hard(
    p: HardParams,
    commutative: bool = True,
    field: Field = QQ,
) -> Formula:
    """The canonical monotone formula: size (2r)^k, depth 2k, degree 2^k."""
    if p.num_vars > DEFAULT_UNIVERSE_BOUND:
        raise UniverseTooLarge(f"{p.num_vars} variables exceed the bound {DEFAULT_UNIVERSE_BOUND}")
    root = _build(p, (), (), field.one())
    return Formula(root=root, commutative=commutative, field=field)


def _monomial_vars(key, commutative: bool) -> list[int]:
    out = []
    for var, exp in poly.key_exponents(key, commutative):
        out.extend([var] * exp)
    return out


def _lcp(a: tuple, b: tuple) -> int:
    n = 0
    for x, y in zip(a, b):
        if x != y:
            break
        n += 1
    return n


def check_prefix_property(
    p: HardParams,
    formula: Formula | None = None,
    budget: int | None = poly.DEFAULT_EXPANSION_BUDGET,
) -> tuple[bool, dict | None]:
    """Exhaustively check monomial prefix alignment.

    For every monomial and every variable pair in it whose sigma-words share
    a prefix of exactly l < k letters, the tau-words must share a prefix of
    at least l + 1 letters.  Returns (True, None) or (False, counterexample).
    budget caps the expansion's tables as in poly.expand; None lifts the cap.
    """
    f = formula if formula is not None else gen_hard(p)
    root, packing, _ = poly._expand(*poly._compile(f), f.commutative, f.field, budget)
    return _prefix_verdict(p, root, packing)


def _bad_partners(p: HardParams, words: dict[int, Wordpair], bit: dict[int, int]) -> dict[int, int]:
    """Per variable v of words, the OR of bit[w] over the w breaking alignment with v:
    OR_{l<k} S(sigma[:l]) & ~S(sigma[:l+1]) & ~T(tau[:l+1]) for v's words (sigma, tau),
    S(u) (T(u)) being the OR over the variables whose sigma-word (tau-word) starts with u."""
    S, T = {}, {}  # prefix -> mask
    for v, (sigma, tau) in words.items():
        for ell in range(p.k + 1):
            S[sigma[:ell]] = S.get(sigma[:ell], 0) | bit[v]
            T[tau[:ell]] = T.get(tau[:ell], 0) | bit[v]
    return {v: reduce(or_, [S[sigma[:ell]] & ~S[sigma[:ell + 1]] & ~T[tau[:ell + 1]]
                            for ell in range(p.k)], 0) for v, (sigma, tau) in words.items()}


def _prefix_verdict(p: HardParams, root: dict, packing: poly.Packing | None) -> tuple[bool, dict | None]:
    """check_prefix_property's verdict on poly._expand's root table.  A monomial
    passes when its support (a packed key itself, as a bit fills a digit; for a
    word, its letters' bits) ANDed with its variables' masks is 0.  The first
    that fails is tested pair by pair: its counterexample or ValueError is the first."""
    variables = sorted({v for word in root for v in word}) if packing is None else packing.variables
    words = {v: decode_var(p, v) for v in variables if 0 <= v < p.num_vars}
    partners = lambda vs: reduce(or_, [masks.get(v, -1) for v in vs], 0)  # -1: outside the universe
    decode = None if packing is None else poly._decoder(packing)
    if len(variables) > _MASKED_VARIABLES:
        passes = lambda key: False
    elif packing is None:
        bit = {v: 1 << i for i, v in enumerate(variables)}
        masks = _bad_partners(p, words, bit)
        passes = lambda key: not reduce(or_, [bit[v] for v in key], 0) & partners(key)
    else:  # the OR of the masks is taken once per distinct half of a key
        masks = _bad_partners(p, words, {v: ((1 << packing.width) - 1) << s for v, s in packing.shift.items()})
        of_key = poly._by_halves(packing, lambda pairs: partners([v for v, _ in pairs]), or_)
        passes = lambda key: not key & of_key(key)
    # a pair breaks alignment when sigma-words share l < k letters, tau-words < l + 1
    broken = cache(lambda v, w: (ell := _lcp(words[v][0], words[w][0])) < p.k
                   and _lcp(words[v][1], words[w][1]) < ell + 1)
    for key in root:
        if passes(key):
            continue
        key = key if decode is None else decode(key)
        in_key = _monomial_vars(key, decode is not None)
        decoded = [words[v] if v in words else decode_var(p, v) for v in in_key]
        for (v, (sig_i, tau_i)), (w, (sig_j, tau_j)) in combinations(zip(in_key, decoded), 2):
            if broken(v, w):
                return False, {
                    "monomial": key,
                    "pair": [[list(sig_i), list(tau_i)], [list(sig_j), list(tau_j)]],
                    "sigma_lcp": _lcp(sig_i, sig_j),
                    "tau_lcp": _lcp(tau_i, tau_j),
                }
    return True, None


def check_gate_counts(
    formula: Formula,
    p: HardParams,
    budget: int | None = poly.DEFAULT_EXPANSION_BUDGET,
) -> tuple[bool, dict | None]:
    """Per-gate monomial-count bound r^(d_gate - 1) for a monotone formula
    computing the hard polynomial.

    Applies to the canonical formula and to any rewritten monotone formula
    for it.  One expansion of the formula and one of H(k, r) in its mode and
    field, compared packed, come first: NotComputingH unless they are equal.
    budget caps their tables as in poly.expand; None lifts the cap.
    """
    reference = gen_hard(p, commutative=formula.commutative, field=formula.field)
    counts, same = poly.expand_against(formula, reference, budget)
    if not same:
        raise NotComputingH(f"formula does not compute the (k={p.k}, r={p.r}) polynomial")
    return _gate_verdict(formula, p, counts)


def _gate_verdict(formula: Formula, p: HardParams, counts: dict[int, int]) -> tuple[bool, dict | None]:
    """The bound r^(d_gate - 1) on counts, the monomial counts of formula's
    gates by preorder gate id: (True, None), or (False, the first gate over it)."""
    gates = ir.gates_preorder(formula)
    for gate_id, count in counts.items():
        d_gate = gates[gate_id].syn_degree
        if d_gate == 0:
            continue  # constant gates cannot appear in a monotone formula for H
        if count > p.r ** (d_gate - 1):
            return False, {
                "gate_id": gate_id,
                "count": count,
                "degree": d_gate,
                "bound": p.r ** (d_gate - 1),
            }
    return True, None


def expected_monomials(p: HardParams) -> int:
    return p.r ** (p.degree - 1)
