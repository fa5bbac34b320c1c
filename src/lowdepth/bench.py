"""Experiment harness: formula families, per-pass frontier rows, CSV output.

Experiments are fully determined by their seed and family parameters, so
reruns reproduce every column except the wall-clock duration.  Rows are keyed
by index and independent of each other.  Output is data only (CSV and JSON
records); plotting is out of scope.
"""

from __future__ import annotations

import math
import random
import time
from dataclasses import dataclass, field as dc_field

from .errors import InfeasibleShape, InternalInvariantError
from .fields import QQ, Field
from . import hardpoly, ir, pit, poly, sexpr, transforms
from .ir import Formula, Node, ProdGate, SumGate, VarLeaf

#: FrontierRow CSV columns, in the order they are written.
CSV_COLUMNS = [
    "s_in",
    "d",
    "depth_in",
    "depth_out",
    "product_depth_out",
    "size_out",
    "phi_delta",
    "bound_size",
    "bound_depth",
    "verified",
    "duration",
    "seed",
]


# ---------------------------------------------------------------------------
# Formula families
# ---------------------------------------------------------------------------

def gen_comb(num_leaves: int, commutative: bool = True, field: Field = QQ) -> Formula:
    """Alternating sum/product chain x1 + x2*(x3 + x4*(...)), the motivating
    worst case for naive balancing."""
    if num_leaves < 1:
        raise InfeasibleShape("comb needs at least one leaf")
    one = field.one()
    node: Node = VarLeaf(num_leaves - 1)
    for i in range(num_leaves - 2, -1, -1):
        pair = ((one, VarLeaf(i)), (one, node))
        node = SumGate(pair) if i % 2 == 0 else ProdGate(pair)
    return Formula(root=node, commutative=commutative, field=field)


def _geometric(rng: random.Random, p_stop: float = 0.5, cap: int = 8) -> int:
    n = 0
    while n < cap and rng.random() >= p_stop:
        n += 1
    return n


def gen_random_homogeneous(
    n_vars: int,
    d: int,
    s: int,
    seed: int,
    commutative: bool = True,
    field: Field = QQ,
) -> Formula:
    """Random homogeneous formula of syntactic degree exactly d, size <= s.

    Shape policy: products split the degree uniformly, sums branch with a
    geometric fan-out, edge weights are uniform in 1..9 (so the formula is
    monotone).  Deterministic per seed.
    """
    if n_vars < 1:
        raise InfeasibleShape("need at least one variable")
    if d < 1:
        raise InfeasibleShape("degree must be at least 1")
    if d > s:
        raise InfeasibleShape(f"degree {d} cannot fit in size {s}")
    rng = random.Random(seed)

    def weight():
        return field.normalize(rng.randint(1, 9))

    def leaf() -> Node:
        return VarLeaf(rng.randrange(n_vars))

    def branch_p(budget: int, deg: int) -> float:
        # branch more when the budget is slack, so sizes land near s
        return min(0.8, 0.35 * (budget / deg - 1.0))

    def build(deg: int, budget: int) -> tuple[Node, int]:
        # returns (node, leaves used); budget >= deg always holds
        if deg == 1:
            if budget >= 2 and rng.random() < branch_p(budget, 1):
                t = min(budget, 2 + _geometric(rng))
                shares = _split_budget(rng, budget, t, 1)
                children = []
                used = 0
                for b in shares:
                    node, u = build(1, b)
                    children.append((weight(), node))
                    used += u
                return SumGate(tuple(children)), used
            return leaf(), 1
        if budget >= 2 * deg and rng.random() < branch_p(budget, deg) * 0.75:
            t = min(budget // deg, 2 + _geometric(rng))
            if t >= 2:
                shares = _split_budget(rng, budget, t, deg)
                children = []
                used = 0
                for b in shares:
                    node, u = build(deg, b)
                    children.append((weight(), node))
                    used += u
                return SumGate(tuple(children)), used
        d1 = rng.randint(1, deg - 1)
        d2 = deg - d1
        # split the slack roughly in degree proportion so both sides can grow
        slack = budget - deg
        s1 = round(slack * d1 / deg)
        jitter = rng.randint(-min(s1, slack - s1, 3), min(s1, slack - s1, 3)) if slack else 0
        b1 = d1 + s1 + jitter
        left, u1 = build(d1, b1)
        right, u2 = build(d2, budget - u1)
        return ProdGate(((weight(), left), (weight(), right))), u1 + u2

    root, _ = build(d, s)
    del build  # a closure that calls itself is a cycle only the cyclic collector frees
    f = Formula(root=root, commutative=commutative, field=field)
    if ir.syn_degree(f) != d or ir.size(f) > s:
        raise InternalInvariantError("generator violated its own shape contract")
    return f


def _split_budget(rng: random.Random, budget: int, t: int, minimum: int) -> list[int]:
    """Split budget into t parts, each at least minimum."""
    spare = budget - t * minimum
    cuts = sorted(rng.randint(0, spare) for _ in range(t - 1))
    parts = []
    prev = 0
    for c in cuts:
        parts.append(minimum + c - prev)
        prev = c
    parts.append(minimum + spare - prev)
    return parts


def gen_random_skew(
    sum_depth: int,
    seed: int,
    commutative: bool = True,
    field: Field = QQ,
) -> Formula:
    """Random skew fan-in-2 formula with distinct leaf variables and sum
    depth at most the given bound."""
    if sum_depth < 0:
        raise InfeasibleShape("sum depth must be >= 0")
    rng = random.Random(seed)
    counter = [0]

    def leaf() -> Node:
        counter[0] += 1
        return VarLeaf(counter[0] - 1)

    def weight():
        return field.normalize(rng.randint(1, 9))

    def build(sd: int, fuel: int) -> Node:
        if fuel <= 1:
            return leaf()
        roll = rng.random()
        if sd > 0 and roll < 0.5:
            half = fuel // 2
            return SumGate(
                ((weight(), build(sd - 1, half)), (weight(), build(sd - 1, fuel - half)))
            )
        if roll < 0.85:
            sub = build(sd, fuel - 1)
            pair = ((weight(), leaf()), (weight(), sub))
            if rng.random() < 0.5:
                pair = (pair[1], pair[0])
            return ProdGate(pair)
        return leaf()

    fuel = rng.randint(3, max(3, 2**min(sum_depth, 6)))
    root = build(sum_depth, fuel)
    del build  # a closure that calls itself is a cycle only the cyclic collector frees
    return Formula(root=root, commutative=commutative, field=field)


def make_family(family: str, params: dict, seed: int) -> Formula:
    """Instantiate a named family deterministically."""
    commutative = params.get("commutative", True)
    field = params.get("field", QQ)
    if family == "comb":
        return gen_comb(params["size"], commutative, field)
    if family == "random-homogeneous":
        return gen_random_homogeneous(
            params.get("n_vars", 8), params["d"], params["size"], seed, commutative, field
        )
    if family == "random-skew":
        return gen_random_skew(params.get("sum_depth", 6), seed, commutative, field)
    if family == "hard":
        p = hardpoly.HardParams(k=params["k"], r=params["r"])
        return hardpoly.gen_hard(p, commutative, field)
    if family == "user-file":
        return sexpr.parse_file(params["path"])
    raise ValueError(f"unknown family {family!r}")


# ---------------------------------------------------------------------------
# Experiments
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Experiment:
    family: str
    family_params: dict
    pass_name: str
    pass_params: dict = dc_field(default_factory=dict)
    seed: int = 0
    repetitions: int = 1
    verify: str = "expand"  # expand | pit | none
    pit_trials: int = 20


@dataclass
class FrontierRow:
    s_in: int
    d: int
    depth_in: int
    depth_out: int
    product_depth_out: int
    size_out: int
    phi_delta: int
    bound_size: int
    bound_depth: int
    verified: bool
    duration: float
    seed: int
    failed: str = ""  # non-empty: error text; the row is not counted verified


def _verify(formula: Formula, out: Formula, e: Experiment, seed: int) -> bool:
    if e.verify == "none":
        return True
    cfg = pit.PITConfig(trials=e.pit_trials, seed=seed)
    verdict, _, _ = pit.verify(formula, out, e.verify, poly.DEFAULT_EXPANSION_BUDGET, cfg)
    return verdict != "unequal"


def run(e: Experiment) -> list[FrontierRow]:
    """Execute an experiment; one row per repetition, failures marked not
    aborted.  Row i uses seed e.seed + i."""
    rows: list[FrontierRow] = []
    for i in range(e.repetitions):
        seed = e.seed + i
        t0 = time.perf_counter()
        try:
            rows.append(_run_one(e, seed, t0))
        except Exception as exc:  # noqa: BLE001 - row-level isolation
            rows.append(
                FrontierRow(
                    s_in=0, d=0, depth_in=0, depth_out=0, product_depth_out=0,
                    size_out=0, phi_delta=0, bound_size=0, bound_depth=0,
                    verified=False, duration=time.perf_counter() - t0, seed=seed,
                    failed=f"{type(exc).__name__}: {exc}",
                )
            )
    return rows


def _run_one(e: Experiment, seed: int, t0: float) -> FrontierRow:
    formula = make_family(e.family, e.family_params, seed)
    m_in = ir.metrics(formula)
    out, params, main_bounds = transforms.run_pass(formula, e.pass_name, e.pass_params)
    m_out = ir.metrics(out)

    phi_delta = bound_size = bound_depth = 0
    if main_bounds is not None:  # the bounds main checked its output against
        phi_delta, bound_size = main_bounds
        bound_depth = 2 * phi_delta + 1
    elif e.pass_name in ("bb", "nearlinear"):
        eps = params["epsilon"]
        bound_size = math.ceil(m_in.size ** (1 + float(eps)))
        bound_depth = transforms.bb_branch_param(eps) * max(1, m_in.size.bit_length())
    elif e.pass_name in ("homogeneous", "pipeline"):
        d = max(m_in.syn_degree, 2)
        bound_depth = 2 * (2 * d.bit_length()) + 1  # reference curve, fitted not asserted
        bound_size = m_in.size**2 * max(m_in.syn_degree, 1)

    verified = _verify(formula, out, e, seed)
    return FrontierRow(
        s_in=m_in.size,
        d=m_in.syn_degree,
        depth_in=m_in.depth,
        depth_out=m_out.depth,
        product_depth_out=m_out.product_depth,
        size_out=m_out.size,
        phi_delta=phi_delta,
        bound_size=bound_size,
        bound_depth=bound_depth,
        verified=verified,
        duration=time.perf_counter() - t0,
        seed=seed,
    )


def rows_to_csv(rows: list[FrontierRow]) -> str:
    lines = [",".join(CSV_COLUMNS)]
    for row in rows:
        values = {c: getattr(row, c) for c in CSV_COLUMNS}
        values["verified"], values["duration"] = int(row.verified), f"{row.duration:.6f}"
        lines.append(",".join(str(v) for v in values.values()))
    return "\n".join(lines) + "\n"


def fit_constants(rows: list[FrontierRow]) -> dict:
    """Observed constants: depth_out / log2(d) and size_out / bound_size.

    These populate the acceptance report; the asymptotic claims are reported
    as fitted constants, never asserted.
    """
    c_depth = 0.0
    c_size = 0.0
    for row in rows:
        if row.failed:
            continue
        if row.d >= 2:
            c_depth = max(c_depth, row.depth_out / math.log2(row.d))
        if row.bound_size:
            c_size = max(c_size, row.size_out / row.bound_size)
    return {"c_depth": c_depth, "c_size": c_size}
