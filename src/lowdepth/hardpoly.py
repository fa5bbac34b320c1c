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
l < k letters must have tau-words agreeing on at least l+1), and the
per-gate monomial-count bound r^(d_gate - 1) for any monotone formula
computing the polynomial.

Variable encoding (stable; test fixtures depend on it): sigma and tau are
read as mixed-radix numbers with the first letter most significant, and
id = sigma_value * r^k + tau_value.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import NotComputingH, ParamOutOfRange, UniverseTooLarge
from .fields import QQ, Field
from . import ir, poly
from .ir import Formula, Node, ProdGate, SumGate, VarLeaf

#: gen_hard refuses to build instances with more variables than this.
DEFAULT_UNIVERSE_BOUND = 10**6


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
    budget: int | None = None,
) -> tuple[bool, dict | None]:
    """Exhaustively check monomial prefix alignment.

    For every monomial and every variable pair in it whose sigma-words share
    a prefix of exactly l < k letters, the tau-words must share a prefix of
    at least l + 1 letters.  Returns (True, None) or (False, counterexample).
    """
    f = formula if formula is not None else gen_hard(p)
    return _prefix_verdict(p, poly.expand(f, budget=_budget(budget)))


def _budget(budget: int | None) -> int:
    return budget if budget is not None else poly.DEFAULT_EXPANSION_BUDGET


def _breaks_alignment(p: HardParams, a: Wordpair, b: Wordpair) -> bool:
    ell = _lcp(a[0], b[0])
    return ell < p.k and _lcp(a[1], b[1]) < ell + 1


def _prefix_verdict(p: HardParams, table: poly.PolyTable) -> tuple[bool, dict | None]:
    decoded_of: dict[int, Wordpair] = {}
    breaks: dict[tuple[int, int], bool] = {}  # per ordered variable pair, decided once
    for key in table.terms:
        variables = _monomial_vars(key, table.commutative)
        for v in variables:
            if v not in decoded_of:
                decoded_of[v] = decode_var(p, v)
        for i, v_i in enumerate(variables):
            for v_j in variables[i + 1:]:
                broken = breaks.get((v_i, v_j))
                if broken is None:
                    broken = breaks[v_i, v_j] = _breaks_alignment(
                        p, decoded_of[v_i], decoded_of[v_j]
                    )
                if broken:
                    (sig_i, tau_i), (sig_j, tau_j) = decoded_of[v_i], decoded_of[v_j]
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
    budget: int | None = None,
) -> tuple[bool, dict | None]:
    """Per-gate monomial-count bound r^(d_gate - 1) for a monotone formula
    computing the hard polynomial (checked semantically first).

    Applies to the canonical formula and to any rewritten monotone formula
    for it.  Raises NotComputingH when the polynomial does not match.
    """
    return _expand_against_h(p, formula, budget)[1]


def _expand_against_h(
    p: HardParams, formula: Formula, budget: int | None
) -> tuple[poly.PolyTable, tuple[bool, dict | None]]:
    """The formula's table and its gate-count verdict, from one expansion of
    the formula and one of H(k, r), compared in the kernel's encoding."""
    reference = gen_hard(p, commutative=formula.commutative, field=formula.field)
    table, counts, same = poly.expand_against(formula, reference, _budget(budget))
    if not same:
        raise NotComputingH(f"formula does not compute the (k={p.k}, r={p.r}) polynomial")
    gates = ir.gates_preorder(formula)
    for gate_id, count in counts.items():
        d_gate = gates[gate_id].syn_degree
        if d_gate == 0:
            continue  # constant gates cannot appear in a monotone formula for H
        if count > p.r ** (d_gate - 1):
            return table, (False, {
                "gate_id": gate_id,
                "count": count,
                "degree": d_gate,
                "bound": p.r ** (d_gate - 1),
            })
    return table, (True, None)


def check_formula(
    p: HardParams,
    formula: Formula,
    budget: int | None = None,
) -> tuple[poly.PolyTable, tuple[bool, dict | None], tuple[bool, dict | None]]:
    """The formula's table, check_prefix_property and check_gate_counts,
    all from one expansion of the formula."""
    table, gate_verdict = _expand_against_h(p, formula, budget)
    return table, _prefix_verdict(p, table), gate_verdict


def expected_monomials(p: HardParams) -> int:
    return p.r ** (p.degree - 1)
