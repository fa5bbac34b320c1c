"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s`.  The corpus and the pass
runs over it are built once per session and shared by the criteria.
"""

from __future__ import annotations

import math
import random
import time
from dataclasses import dataclass
from fractions import Fraction

import pytest

import reference
import views

from lowdepth import bench, hardpoly as hp, ir, pit, poly, sexpr
from lowdepth import transforms as tr
from lowdepth.ir import Formula, ProdGate, SumGate, VarLeaf

EPSILON = Fraction(1)  # k_bb = 16, so the split recursion is exercised at corpus sizes
PT_CAP = 2500


def _report(n: int, ok: bool, desc: str) -> None:
    print(f"[acceptance] criterion {n:2d}: {'PASS' if ok else 'FAIL'} - {desc}")
    assert ok, f"criterion {n} failed: {desc}"


# ---------------------------------------------------------------------------
# corpus and pass runs (shared)
# ---------------------------------------------------------------------------

def _make_corpus():
    """>= 100 random homogeneous formulas per mode (n <= 12, s <= 200,
    d <= 16), plus the binarized canonical hard formulas for
    (k, r) in {1,2,3} x {2,3}, in both modes."""
    entries = []
    rng = random.Random(20240801)
    structures = []
    attempt = 0
    while len(structures) < 100:
        attempt += 1
        n = rng.randint(2, 12)
        d = rng.choice([1, 2, 2, 3, 4, 4, 6, 8, 12, 16])
        s = rng.randint(max(d, 10), 200)
        seed = 31 * attempt + 7
        f = bench.gen_random_homogeneous(n, d, s, seed, commutative=True)
        if ir.count_parse_trees(f) <= PT_CAP:
            structures.append((n, d, s, seed))
    for i, (n, d, s, seed) in enumerate(structures):
        for comm in (True, False):
            f = bench.gen_random_homogeneous(n, d, s, seed, commutative=comm)
            entries.append((f"random{i}-{'c' if comm else 'nc'}", f))
    for k in (1, 2, 3):
        for r in (2, 3):
            for comm in (True, False):
                m = hp.gen_hard(hp.HardParams(k=k, r=r), commutative=comm)
                entries.append((f"hard{k}{r}-{'c' if comm else 'nc'}", tr.binarize(m)))
    return entries


@dataclass
class PassRun:
    entry: str
    pass_name: str
    f_in: Formula          # the formula handed to the pass (binarized for main)
    out: Formula
    m_in: ir.GateMetrics
    m_out: ir.GateMetrics
    delta: int | None
    expand_equal: bool


@pytest.fixture(scope="session")
def corpus():
    return _make_corpus()


@pytest.fixture(scope="session")
def runs(corpus):
    t0 = time.perf_counter()
    out: list[PassRun] = []
    for name, f in corpus:
        table_in = poly.expand(f)
        for pass_name in tr.PASSES:
            result, params, _ = tr.run_pass(f, pass_name, {"epsilon": EPSILON})
            # the formula run_pass hands the pass: main's wider inputs are binarized
            f_in = tr.binarize(f) if pass_name == "main" and ir.max_fanin(f) > 2 else f
            out.append(
                PassRun(
                    entry=name,
                    pass_name=pass_name,
                    f_in=f_in,
                    out=result,
                    m_in=ir.metrics(f_in),
                    m_out=ir.metrics(result),
                    delta=params.get("delta"),
                    expand_equal=(poly.expand(result) == table_in),
                )
            )
    elapsed = time.perf_counter() - t0
    print(f"[acceptance] corpus: {len(corpus)} formulas, "
          f"{len(out)} pass runs in {elapsed:.1f}s")
    return out, elapsed


def _pass_runs(runs) -> list[PassRun]:
    return runs[0]


# ---------------------------------------------------------------------------
# criteria
# ---------------------------------------------------------------------------

def test_criterion_1_oracle_equivalence(corpus, runs):
    elapsed = runs[1]
    rs = _pass_runs(runs)
    n_random = sum(1 for name, _ in corpus if name.startswith("random"))
    modes = {f.commutative for _, f in corpus}
    bad = [(r.entry, r.pass_name) for r in rs if not r.expand_equal]
    ok = (
        not bad
        and n_random >= 200  # >= 100 per mode
        and modes == {True, False}
        and len(rs) == len(corpus) * len(tr.PASSES)
        and elapsed < 600.0
    )
    _report(1, ok,
            f"every pass expand-equal on {len(rs)} runs over {len(corpus)} formulas "
            f"({n_random} random, both modes) in {elapsed:.1f}s < 600s"
            + (f"; violations: {bad[:3]}" if bad else ""))


def test_criterion_2_potential_bounds(runs):
    violations = []
    for r in _pass_runs(runs):
        if r.pass_name != "main":
            continue
        d = max(r.m_in.syn_degree, 1)
        phi = tr._phi(d, r.m_in.sum_depth, r.delta)
        if r.m_out.product_depth > phi:
            violations.append((r.entry, "product_depth", r.m_out.product_depth, phi))
        if r.m_out.size > r.m_in.size * d**r.delta:
            violations.append((r.entry, "size", r.m_out.size, r.m_in.size * d**r.delta))
    _report(2, not violations,
            f"product_depth <= ceil(log2 d) + ceil(sum_depth/delta) and "
            f"size <= s*d^delta on every main run (violations: {violations[:3]})")


def test_criterion_3_degree_never_grows(runs):
    violations = [
        (r.entry, r.m_in.syn_degree, r.m_out.syn_degree)
        for r in _pass_runs(runs)
        if r.pass_name == "main" and r.m_out.syn_degree > r.m_in.syn_degree
    ]
    _report(3, not violations,
            f"syntactic degree never grows under the potential-guided pass "
            f"(violations: {violations[:3]})")


def test_criterion_4_preservation(runs):
    violations = []
    for r in _pass_runs(runs):
        if ir.is_homogeneous(r.f_in) and not ir.is_homogeneous(r.out):
            violations.append((r.entry, r.pass_name, "homogeneity"))
        if reference.ordered(r.f_in.field) and reference.is_monotone(r.f_in) and not reference.is_monotone(r.out):
            violations.append((r.entry, r.pass_name, "monotonicity"))
        if r.out.commutative != r.f_in.commutative:
            violations.append((r.entry, r.pass_name, "mode"))
    _report(4, not violations,
            f"homogeneity, syntactic monotonicity and mode preserved by all "
            f"{len(_pass_runs(runs))} runs (violations: {violations[:3]})")


def test_criterion_5_skew_terms():
    rng = random.Random(555)
    checked = 0
    violations = []
    while checked < 100:
        sd = rng.randint(0, 8)
        g = bench.gen_random_skew(sd, seed=9000 + checked, commutative=(checked % 2 == 0))
        terms, out = views.sigma_pi(g)  # main's walk, variable leaves as factors
        delta = ir.metrics(g).sum_depth
        if len(terms) > 2**delta:
            violations.append((checked, "terms", len(terms), 2**delta))
        if not poly.equal_expand(g, out):
            violations.append((checked, "equivalence"))
        non_dup = set()
        for node in ir.postorder(g.root):
            if isinstance(node, SumGate):
                non_dup.update(ch.var for _, ch in node.children if isinstance(ch, VarLeaf))
            elif isinstance(node, ProdGate):
                kids = [ch for _, ch in node.children]
                if all(ir.is_leaf(kid) for kid in kids):
                    non_dup.update(ch.var for ch in kids if isinstance(ch, VarLeaf))
        counts: dict[int, int] = {}
        for _, fs in terms:
            for leaf in fs:
                counts[leaf.var] = counts.get(leaf.var, 0) + 1
        for v in non_dup:
            if counts.get(v, 0) != 1:
                violations.append((checked, f"x{v} occurs {counts.get(v, 0)}"))
        checked += 1
    _report(5, not violations,
            f"skew rewrite: term count <= 2^sum_depth and every non-duplicable "
            f"leaf in exactly one term, on {checked} skew formulas "
            f"(violations: {violations[:3]})")


def test_criterion_6_homogenize_bound(corpus):
    violations = []
    checked = 0
    extras = [
        sexpr.parse("(* (+ x1 1) (+ x2 1) (+ x3 1))"),
        sexpr.parse("mode: noncommutative\n(* (+ x1 1) (+ x2 1) (+ x3 1))"),
        sexpr.parse("(* (+ x1 1) (+ x2 (scale -1 1)) (+ x3 1) (+ x4 1))"),
    ]
    targets = [f for _, f in corpus[:60]] + extras
    for f in targets:
        fb = tr.binarize(f)
        m = ir.metrics(fb)
        d = m.syn_degree
        comps = tr.homogenize(fb, d)
        total_size = 0
        acc = reference.poly_zero(fb.commutative, fb.field)
        for i, comp in enumerate(comps):
            if comp is None:
                continue
            if not ir.is_homogeneous(comp):
                violations.append((checked, i, "not homogeneous"))
            total_size += ir.metrics(comp).size
            acc = reference.poly_add(acc, poly.expand(comp))
        if acc != poly.expand(fb):
            violations.append((checked, "sum mismatch"))
        bound = m.size * math.comb(m.product_depth + d + 1, d)
        if total_size > bound:
            violations.append((checked, "size", total_size, bound))
        checked += 1
    _report(6, not violations,
            f"homogenize: components homogeneous, sum to the input exactly, "
            f"total size within s*C(pd+d+1, d), on {checked} formulas "
            f"(violations: {violations[:3]})")


def test_criterion_7_product_fanin(runs):
    violations = []
    for r in _pass_runs(runs):
        if r.pass_name != "prodfanin2":
            continue
        for node in ir.postorder(r.out.root):
            if isinstance(node, ProdGate) and len(node.children) != 2:
                violations.append((r.entry, "fanin", len(node.children)))
                break
        if r.m_out.size > r.m_in.size:
            violations.append((r.entry, "size", r.m_out.size, r.m_in.size))
    _report(7, not violations,
            f"product gates all fan-in 2 and leaf count never grows "
            f"(violations: {violations[:3]})")


def test_criterion_8_hard_combinatorics():
    t0 = time.perf_counter()
    violations = []
    for k in (1, 2, 3):
        for r in (2, 3):
            p = hp.HardParams(k=k, r=r)
            m = hp.gen_hard(p)
            table = poly.expand(m)
            if table.num_terms() != hp.expected_monomials(p):
                violations.append((k, r, "count", table.num_terms()))
            ok, cx = hp.check_prefix_property(p, m)
            if not ok:
                violations.append((k, r, "prefix", cx))
            ok, cx = hp.check_gate_counts(m, p)
            if not ok:
                violations.append((k, r, "gate-count", cx))
            mb = tr.binarize(m)
            mm = ir.metrics(mb)
            reduced = tr.depth_reduce_main(
                mb, tr.auto_delta(mm.size, mm.syn_degree, mm.sum_depth)
            )
            ok, cx = hp.check_gate_counts(reduced, p)
            if not ok:
                violations.append((k, r, "gate-count-reduced", cx))
    elapsed = time.perf_counter() - t0
    ok = not violations and elapsed < 120.0
    _report(8, ok,
            f"hard-instance combinatorics exhaustive for k<=3, r<=3 in "
            f"{elapsed:.1f}s < 120s (violations: {violations[:3]})")


def test_criterion_9_split_structure(corpus):
    k = 16
    checked = 0
    violations = []
    for name, f in corpus:
        fb = tr.binarize(f)
        if ir.size(fb) <= k:
            continue
        try:  # the pass's walk; it raises on two heavy children
            _, alpha, _, _, path = views.split(fb, k)
        except Exception as exc:  # noqa: BLE001
            violations.append((name, f"find_split: {exc}"))
            continue
        a, b, c = views.parts(fb, path)
        prod = reference.poly_mul(reference.poly_mul(poly.expand(a), poly.expand(fb.with_root(alpha))),
                                  poly.expand(b))
        rhs = reference.poly_add(prod, poly.expand(c)) if c is not None else prod
        if rhs != poly.expand(fb):
            violations.append((name, "decompose identity"))
        checked += 1
    _report(9, not violations and checked >= 100,
            f"split gate unique and A*alpha*B + C identity exact (ordered) on "
            f"{checked} formulas (violations: {violations[:3]})")


def test_criterion_10_constant_reporting():
    rows_all = []
    for d in (2, 4, 8, 16):
        e = bench.Experiment(
            family="random-homogeneous",
            family_params={"n_vars": 10, "d": d, "size": 10**4},
            pass_name="homogeneous",
            seed=100 + d,
            repetitions=2,
            verify="pit",
            pit_trials=3,
        )
        rows_all.extend(bench.run(e))
        e_small = bench.Experiment(
            family="random-homogeneous",
            family_params={"n_vars": 10, "d": d, "size": 2000},
            pass_name="homogeneous",
            seed=200 + d,
            verify="pit",
            pit_trials=3,
        )
        rows_all.extend(bench.run(e_small))
    fitted = bench.fit_constants(rows_all)
    # the near-linear size claim is reported as a fitted constant, not asserted
    size_rows = bench.run(
        bench.Experiment(
            family="random-homogeneous",
            family_params={"n_vars": 10, "d": 8, "size": 4000},
            pass_name="bb",
            pass_params={"epsilon": Fraction(1, 2)},
            seed=7,
            verify="pit",
            pit_trials=3,
        )
    )
    c_size = bench.fit_constants(size_rows)["c_size"]
    ok = (
        all(r.verified and not r.failed for r in rows_all + size_rows)
        and fitted["c_depth"] > 0
        and math.isfinite(fitted["c_depth"])
    )
    _report(10, ok,
            f"bench sweep d in {{2,4,8,16}}, s up to 1e4, PIT-verified: fitted "
            f"c_depth = {fitted['c_depth']:.2f} (depth_out/log2 d), fitted "
            f"near-linear size constant = {c_size:.3f} (reported, not asserted)")


def test_criterion_11_cross_oracle(corpus):
    cfg_comm = pit.PITConfig(trials=20, prime=2**61 - 1, seed=13)
    agree = 0
    violations = []
    # all commutative corpus pairs for the cheapest three passes, plus every
    # non-commutative pair small enough for matrix evaluation
    comm_entries = [(n, f) for n, f in corpus if f.commutative][:40]
    for name, f in comm_entries:
        for pass_name in ("bb", "main", "prodfanin2"):
            out, _, _ = tr.run_pass(f, pass_name, {"epsilon": EPSILON})
            expected = poly.equal_expand(f, out)
            got = pit.pit_equal(f, out, cfg_comm).equal
            if got != expected:
                violations.append((name, pass_name, expected, got))
            agree += 1
    nc_entries = [
        (n, f) for n, f in corpus
        if not f.commutative and ir.syn_degree(f) <= 4 and ir.size(f) <= 120
    ][:8]
    for name, f in nc_entries:
        out, _, _ = tr.run_pass(f, "main", {})
        expected = poly.equal_expand(f, out)
        got = pit.pit_equal(f, out, cfg_comm).equal
        if got != expected:
            violations.append((name, "main-nc", expected, got))
        agree += 1
    # unequal verdicts must carry a witness that replays
    unequal_pairs = [
        (sexpr.parse("(+ x1 x2)"), sexpr.parse("(+ x1 (scale 2 x2))")),
        (sexpr.parse("(* x1 x2 x3)"), sexpr.parse("(* x1 x2 (scale 3 x3))")),
        (
            sexpr.parse("mode: noncommutative\n(* x1 x2)"),
            sexpr.parse("mode: noncommutative\n(* x2 x1)"),
        ),
    ]
    for a, b in unequal_pairs:
        res = pit.pit_equal(a, b, cfg_comm)
        if res.verdict != "unequal" or res.witness is None or not pit.check_witness(a, b, res.witness):
            violations.append(("unequal-pair", res.verdict))
        agree += 1
    _report(11, not violations,
            f"randomized testing (20 trials, p = 2^61 - 1) agrees with exact "
            f"expansion on {agree} pairs; unequal verdicts carry replayable "
            f"witnesses (violations: {violations[:3]})")
