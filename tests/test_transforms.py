import random
import time
from fractions import Fraction

import pytest

import reference
import views

from lowdepth import ir, poly, sexpr
from lowdepth import transforms as tr
from lowdepth.bench import gen_comb, gen_random_homogeneous
from lowdepth.errors import (
    InternalInvariantError,
    NotSemanticallyHomogeneous,
    WellFormednessError,
)
from lowdepth.fields import QQ, PrimeField, Rationals
from lowdepth.hardpoly import HardParams, gen_hard
from lowdepth.ir import Formula, OneLeaf, ProdGate, SumGate, VarLeaf

from conftest import assert_equivalent, digest, sum_chain

ONE = Fraction(1)


# ---------------------------------------------------------------------------
# binarize
# ---------------------------------------------------------------------------

def test_binarize_balanced_sum():
    f = sexpr.parse("(+ x1 x2 x3 x4)")
    out = tr.binarize(f)
    m = ir.metrics(out)
    assert m.depth == 2 and m.size == 4
    assert ir.max_fanin(out) == 2
    assert_equivalent(f, out)


def test_binarize_fixed_point_identity():
    f = sexpr.parse("(+ x1 (* x2 x3))")
    out = tr.binarize(f)
    assert out.root is f.root  # structural identity, not just equality


def test_binarize_scan_visits_node_objects_not_positions(monkeypatch):
    # 60 levels of (+ g g) over one node g: 61 distinct nodes at 2^60
    # positions, so a scan by position would never end.  A node prints by
    # position too, so a failure report prints each node by its type and size.
    monkeypatch.setattr(ir.Node, "__repr__", lambda n: f"<{type(n).__name__} size={n.size}>")

    def stacked(bottom):
        g = bottom
        for _ in range(60):
            g = SumGate(((1, g), (1, g)))
        return Formula(g)

    f = stacked(VarLeaf(1))
    assert f.root.size == 2**60
    for run in (tr.binarize, tr._fanin_2):
        start = time.perf_counter()
        assert run(f) is f
        assert time.perf_counter() - start < 1
    # a fan-in-3 gate at the bottom is still binarized, once per node object
    f = stacked(SumGate(((1, VarLeaf(1)), (1, VarLeaf(2)), (1, VarLeaf(3)))))
    for run in (tr.binarize, tr._fanin_2):
        start = time.perf_counter()
        out = run(f)
        assert time.perf_counter() - start < 1
        assert out.root is not f.root and out.root.size == 3 * 2**60
        assert ir.max_fanin(out) == 2
        assert len(ir.postorder(out.root)) == 65  # 3 leaves, 2 + 60 gates


def test_binarize_noncommutative_word_preserved():
    f = sexpr.parse("mode: noncommutative\n(* x1 x2 x3)")
    out = tr.binarize(f)
    assert ir.max_fanin(out) == 2
    assert poly.expand(out).terms == {(1, 2, 3): ONE}


def test_binarize_absorbs_unary_gates():
    f = Formula(SumGate(((Fraction(2), SumGate(((Fraction(3), VarLeaf(0)),))),)))
    out = tr.binarize(f)
    assert out.root == SumGate(((Fraction(6), VarLeaf(0)),))
    assert_equivalent(f, out)


def test_binarize_depth_bound(corpus_both):
    for f in corpus_both[:10]:
        m_in = ir.metrics(f)
        out = tr.binarize(f)
        m = ir.metrics(out)
        fanin = max(ir.max_fanin(f), 2)
        ceil_log = (fanin - 1).bit_length()
        assert m.depth <= max(1, m_in.depth * ceil_log)
        assert m.size <= m_in.size
        assert_equivalent(f, out)
        assert ir.is_homogeneous(out) == ir.is_homogeneous(f)
        assert out.commutative == f.commutative


def test_binarize_merges_parallel_constants():
    f = sexpr.parse("(* (+ 1 1 x1) x2)")
    out = tr.binarize(f)
    ir.validate(out)
    assert ir.max_fanin(out) == 2
    assert_equivalent(f, out)


_TWO_CONSTANTS = Formula(ProdGate(((ONE, VarLeaf(1)),
                                    (ONE, SumGate(((ONE, OneLeaf()), (ONE, OneLeaf())))))))


@pytest.mark.parametrize("f, out", [
    (sexpr.parse("(+ 1 1)"), "(+ (scale 2 1))"),
    (sexpr.parse("(+ (scale 3 1) 1)"), "(+ (scale 4 1))"),
    (sexpr.parse("(+ (scale 2 1) (scale -2 1))"), None),
    (sexpr.parse("field: Fp:7\n(+ (scale 3 1) (scale 4 1))"), None),
    (_TWO_CONSTANTS, "(* x1 (+ (scale 2 1)))"),
], ids=["one-one", "three-one", "cancel", "cancel-mod-7", "below-a-product"])
def test_binarize_merges_a_sum_of_two_constants(f, out):
    # every gate has fan-in 2, yet binarize (and bb through it) merges the
    # two constants, or refuses when they cancel; _fanin_2 keeps the sum
    assert tr._fanin_2(f) is f
    for run in (tr.binarize, tr.depth_reduce_bb):
        if out is None:
            with pytest.raises(ValueError, match="^formula computes the zero polynomial; cannot binarize$"):
                run(f)
        else:
            assert sexpr.serialize(run(f)).splitlines()[-1] == out


# ---------------------------------------------------------------------------
# collapse
# ---------------------------------------------------------------------------

def test_collapse_flattens_sums():
    f = sexpr.parse("(+ (+ x1 x2) x3)")
    out = tr.collapse(f)
    assert out.root == SumGate(((ONE, VarLeaf(1)), (ONE, VarLeaf(2)), (ONE, VarLeaf(3))))


def test_collapse_pushes_scalars():
    f = Formula(SumGate(((Fraction(2), SumGate(((Fraction(3), VarLeaf(1)),))),)))
    out = tr.collapse(f)
    assert out.root == SumGate(((Fraction(6), VarLeaf(1)),))


def test_collapse_alternating_fixed_point():
    f = sexpr.parse("(+ (* x1 x2) x3)")
    assert tr.collapse(f).root == f.root


def test_collapse_depth_bound(corpus_both):
    for f in corpus_both[:10]:
        out = tr.collapse(f)
        m = ir.metrics(out)
        assert m.depth <= 2 * m.product_depth + 1
        assert m.size <= ir.metrics(f).size
        assert_equivalent(f, out)


def _collapse_text(rng, depth: int) -> str:
    """Small nested text: same-kind chains, fan-in-1 gates and constants whose
    scalars may cancel."""
    if depth == 0 or rng.random() < 0.25:
        return rng.choice(["x1", "x2", "x3"])
    op = rng.choice("+*")
    kids = []
    for _ in range(rng.randint(1, 3)):
        kid = "1" if op == "+" and rng.random() < 0.3 else _collapse_text(rng, depth - 1)
        if rng.random() < 0.4:
            kid = f"(scale {rng.choice(['2', '-1', '-2', '4'])} {kid})"
        kids.append(kid)
    if op == "+" and all(k.endswith(" 1)") or k == "1" for k in kids):
        kids.append("x4")
    return f"({op} " + " ".join(kids) + ")"


def _collapse_outcome(collapse, f):
    try:
        return sexpr.serialize(collapse(f))
    except ValueError as exc:
        return repr(exc)


def test_collapse_matches_bottom_up_reference(corpus_both, hard_instances, skew_corpus):
    # byte for byte the bottom-up collapse: same merged constants in the same
    # places, the same fan-in-1 absorptions, the same zero-polynomial error
    formulas = corpus_both + [f for _, f in hard_instances] + skew_corpus
    formulas += [tr.depth_reduce_main(tr.binarize(f), "auto") for f in corpus_both[:10]]
    for text in ("(* x1 (+ 1 (scale -1 1) (* x2 x3)))", "(+ (+ x1 (scale 2 1)) (scale -2 1) x2)",
                 "(* x4 (+ (+ x1 (scale 2 1)) (scale -2 1)))", "(+ (+ x1 (scale 2 1)) (scale -2 1))",
                 "(+ 1 (+ x1 (scale -1 1)) x2 (scale 3 1))", "(* (+ (* x1 x2)) (+ (* (+ (* x3)))))",
                 "(+ (scale 2 (+ 1 (scale -1 1) x2)) x1)", "(+ 1 (scale -1 1) (+ x1 (scale -1 x1)))"):
        formulas.append(sexpr.parse(text))
    # a shared sum, inlined twice into its parent: its constant is merged once
    shared = SumGate(((ONE, VarLeaf(1)), (Fraction(2), OneLeaf())))
    formulas.append(Formula(SumGate(((ONE, shared), (Fraction(3), shared)))))
    rng = random.Random(31)
    while len(formulas) < 2000:
        header = rng.choice(["", "field: Fp:3\n", "mode: noncommutative\nfield: Fp:5\n"])
        try:
            formulas.append(sexpr.parse(header + _collapse_text(rng, 5)))
        except WellFormednessError:
            continue
    for f in formulas:
        assert _collapse_outcome(tr.collapse, f) == _collapse_outcome(reference.collapse, f)


def test_collapse_builds_only_the_gates_it_returns(corpus_both, hard_instances, monkeypatch):
    # a block that a same-kind parent inlines, or that is absorbed as a
    # fan-in-1 gate, is never built
    built = []
    real_gate = tr._gate
    monkeypatch.setattr(tr, "_gate", lambda kind, edges: built.append(kind) or real_gate(kind, edges))
    formulas = corpus_both + [f for _, f in hard_instances]
    formulas += [tr.depth_reduce_homogeneous(f) for f in corpus_both[:6]]
    for f in formulas:
        built.clear()
        out = tr.collapse(f)
        assert len(built) == sum(ir.is_gate(node) for node in ir.postorder(out.root))


# ---------------------------------------------------------------------------
# split gate machinery
# ---------------------------------------------------------------------------

def test_find_split_left_comb():
    f = gen_comb(8)
    gate_id, _, _, size_alpha, _ = views.split(f, 4)
    # subtree size >= 6, both children below 6: the gate two steps down
    assert size_alpha == 6
    sizes = {i: m.size for i, m in reference.metrics_table(f).items()}
    assert sizes[gate_id] == 6


def test_find_split_balanced_root():
    leaves = [VarLeaf(i) for i in range(8)]
    quads = [
        ProdGate(((ONE, ProdGate(((ONE, leaves[i]), (ONE, leaves[i + 1])))),
                  (ONE, ProdGate(((ONE, leaves[i + 2]), (ONE, leaves[i + 3]))))))
        for i in (0, 4)
    ]
    f = Formula(SumGate(((ONE, quads[0]), (ONE, quads[1]))))
    assert views.split(f, 4)[0] == 0  # only the root reaches size 6


def test_find_split_too_small():
    assert views.split(gen_comb(4), 4) is None


def test_decompose_single_product():
    # F = x1 * alpha with alpha the right child
    f = sexpr.parse("(* x1 (+ x2 x3))")
    a, b, c = views.parts(f, [(f.root, 1)])
    assert poly.expand(a).terms == {((1, 1),): ONE}
    assert poly.expand(b).terms == {(): ONE}  # empty product is the one formula
    assert c is None


def test_decompose_sum_sibling():
    # F = alpha + x3
    f = sexpr.parse("(+ (* x1 x2) x3)")
    a, b, c = views.parts(f, [(f.root, 0)])
    assert poly.expand(a).terms == {(): ONE}
    assert poly.expand(b).terms == {(): ONE}
    assert c is not None and poly.expand(c).terms == {((3, 1),): ONE}


def test_decompose_noncommutative_order():
    f = sexpr.parse("mode: noncommutative\n(+ (* x1 (+ x5 x6) x2) x4)")
    prod = f.root.children[0][1]
    alpha = prod.children[1][1]  # (+ x5 x6)
    a, b, c = views.parts(f, [(f.root, 0), (prod, 1)])
    assert poly.expand(a).terms == {(1,): ONE}
    assert poly.expand(b).terms == {(2,): ONE}
    assert poly.expand(c).terms == {(4,): ONE}
    lhs = poly.expand(f)
    rhs = reference.poly_add(
        reference.poly_mul(reference.poly_mul(poly.expand(a), poly.expand(f.with_root(alpha))), poly.expand(b)),
        poly.expand(c),
    )
    assert lhs == rhs


def _check_decompose_identity(fb, k):
    # fb is binarized: the parts are the ones depth_reduce_bb recurses on,
    # fan-in 2 as built, so binarize leaves their text unchanged
    _, alpha, s, _, path = views.split(fb, k)
    a, b, c = views.parts(fb, path)
    prod = reference.poly_mul(reference.poly_mul(poly.expand(a), poly.expand(fb.with_root(alpha))), poly.expand(b))
    rhs = reference.poly_add(prod, poly.expand(c)) if c is not None else prod
    assert poly.expand(fb) == rhs
    for part in (a, b, c):
        if part is None:
            continue
        assert ir.size(part) <= max(1, 2 * s // k)
        assert ir.max_fanin(part) <= 2
        assert sexpr.serialize(tr.binarize(part)) == sexpr.serialize(part)


def test_decompose_identity_on_corpus(corpus_both):
    inputs = [tr.binarize(f) for f in corpus_both]
    inputs += [gen_comb(64), gen_comb(257), tr.binarize(gen_hard(HardParams(k=3, r=3)))]
    for fb in inputs:
        for k in (4, 16):
            if ir.size(fb) > k:
                _check_decompose_identity(fb, k)


def test_find_split_uniqueness_matches_walk(corpus_both):
    # reference: scan every gate in preorder for the split predicate
    for f in corpus_both:
        for g in (f, tr.binarize(f)):
            table = reference.metrics_table(g)
            s = table[0].size
            for k in (4, 16):
                if s <= k:
                    assert views.split(g, k) is None
                    continue
                heavy = lambda sz: k * sz >= (k - 1) * s
                hits = [
                    (i, table[i].size)
                    for i, node in enumerate(ir.gates_preorder(g))
                    if ir.is_gate(node) and heavy(table[i].size)
                    and not any(heavy(ch.size) for _, ch in node.children)
                ]
                gate_id, _, total, size_alpha, _ = views.split(g, k)
                assert hits == [(gate_id, size_alpha)]
                assert total == s


# ---------------------------------------------------------------------------
# depth_reduce_bb
# ---------------------------------------------------------------------------

def test_bb_branch_param():
    assert tr.bb_branch_param(1) == 16
    assert tr.bb_branch_param(Fraction(1, 2)) == 256
    assert tr.bb_branch_param(Fraction(2, 3)) == 64
    with pytest.raises(ValueError):
        tr.bb_branch_param(0)
    with pytest.raises(ValueError):
        tr.bb_branch_param(Fraction(3, 2))


def test_bb_size_one_unchanged():
    f = Formula(VarLeaf(0))
    assert tr.depth_reduce_bb(f, 1).root == f.root


def test_bb_base_case_identity():
    f = gen_comb(10)
    out = tr.depth_reduce_bb(f, 1)  # k = 16 >= size
    assert out.root == f.root


def test_bb_comb64():
    f = gen_comb(64)
    out = tr.depth_reduce_bb(f, 1)
    m = ir.metrics(out)
    assert_equivalent(f, out)
    # depth bound O(k log s): record the constant, assert the reference curve
    assert m.depth <= 16 * 6
    assert m.size <= 64**2
    assert m.syn_degree <= ir.syn_degree(f)
    assert reference.is_monotone(out)


def test_bb_comb_memory_linear():
    # every node carries its leaf count, so the pass keeps no per-gate map:
    # beyond the input it holds only its output (about 1x the input here,
    # by tracemalloc) and the pending recursion
    import tracemalloc

    tracemalloc.start()
    try:
        f = gen_comb(2001)
        input_bytes = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        tr.depth_reduce_bb(f, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - input_bytes <= 2 * input_bytes


@pytest.mark.parametrize("eps", [Fraction(1, 2), 1])
def test_bb_walks_node_attribute_once(monkeypatch, eps):
    # binarize walks the input once, and a fan-in-2 input (comb, the chain)
    # not at all; the parts are fan-in 2 as built, so no level re-binarizes
    # them
    walks = []
    node_attribute = ir.node_attribute

    def counting(root, fn):
        walks.append(root)
        return node_attribute(root, fn)

    monkeypatch.setattr(ir, "node_attribute", counting)
    for f, expected in ((gen_comb(2001), 0), (sum_chain(2001), 0),
                        (gen_random_homogeneous(8, 8, 2000, seed=0), 1)):
        walks.clear()
        tr.depth_reduce_bb(f, eps)
        assert len(walks) == expected


def test_bb_output_is_fanin_2_below_its_root(corpus_both, hard_instances):
    # the compositions hand bb's output to main and homogenize as it is: every
    # gate below the root has fan-in 2, and a fan-in-1 sum at the root (over a
    # leaf or a constant) is what binarize leaves, so bb's output serializes
    # like _fanin_2 of itself
    texts = ["x1", "(+ (scale 3 x1))", "(+ 1 1)", "(* x1 (scale 2 x2))", "(+ x1 (* x2 x3) 1)",
             "mode: noncommutative\n(+ (* x2 x1) (scale 1/2 (* x1 x2 x3)) 1)",
             "field: Fp:7\n(* (+ x1 (scale 6 x2)) (+ x1 x3 x4))"]
    formulas = ([sexpr.parse(t) for t in texts] + corpus_both + [g for _, g in hard_instances]
                + [gen_comb(301), sum_chain(301)])
    for f in formulas:
        for eps in (Fraction(1, 8), Fraction(1, 2), 1):
            out = tr.depth_reduce_bb(f, eps)
            assert all(len(n.children) == 2 for n in ir.postorder(out.root)
                       if ir.is_gate(n) and n is not out.root)
            assert sexpr.serialize(out) == sexpr.serialize(tr._fanin_2(out))


def _count_fraction_products(monkeypatch, run) -> int:
    """Fraction multiplications that run() makes."""
    calls = []
    mul, rmul = Fraction.__mul__, Fraction.__rmul__

    def counting(real):
        def wrapped(a, b):
            calls.append(1)
            return real(a, b)
        return wrapped

    monkeypatch.setattr(Fraction, "__mul__", counting(mul))
    monkeypatch.setattr(Fraction, "__rmul__", counting(rmul))
    try:
        run()
    finally:
        monkeypatch.undo()
    return len(calls)


def _count_nonunit_products(monkeypatch, run) -> int:
    """Rationals.mul calls that run() makes with neither operand equal to 1."""
    calls = []
    mul = Rationals.mul

    def counting(self, a, b):
        if a != 1 and b != 1:
            calls.append(1)
        return mul(self, a, b)

    monkeypatch.setattr(Rationals, "mul", counting)
    try:
        run()
    finally:
        monkeypatch.undo()
    return len(calls)


def test_homogeneous_pass_multiplies_no_fraction(monkeypatch):
    # the wide shape's weights are integers 1..9: the pass multiplies them,
    # and they stay ints through parsing and every product
    f = sexpr.parse(sexpr.serialize(gen_random_homogeneous(10, 16, 10**4, seed=0)))

    def run():
        tr.run_pass(f, "homogeneous", {})

    assert _count_fraction_products(monkeypatch, run) == 0
    assert _count_nonunit_products(monkeypatch, run) > 0


@pytest.mark.parametrize("eps", [Fraction(1, 2), 1])
def test_bb_never_multiplies_by_the_elided_weight(monkeypatch, eps):
    # every weight of the comb is the unit, so no product is needed
    f = gen_comb(2001)
    assert _count_nonunit_products(monkeypatch, lambda: tr.depth_reduce_bb(f, eps)) == 0


def test_shape_passes_never_multiply_by_the_elided_weight(monkeypatch):
    # wide gates, fan-in-1 gates, same-kind nesting and parallel constants,
    # with every edge weight elided
    f = sexpr.parse(
        "(+ (* x1 (+ x2 x3 (* x4 x5 x6)) (* x6 x7)) (+ (+ x8 1 1) (* (+ x9) (+ x1 1)))"
        " (* (* x2 x3) x4 (+ (+ x5 x6) 1)))"
    )
    for run in (tr.binarize, tr.collapse):
        out = []
        assert _count_nonunit_products(monkeypatch, lambda: out.append(run(f))) == 0
        assert_equivalent(f, out[0])


def test_bb_monotone_and_mode_preserved(corpus_both):
    for f in corpus_both[:10]:
        out = tr.depth_reduce_bb(f, 1)
        assert_equivalent(f, out)
        assert out.commutative == f.commutative
        if reference.ordered(f.field):
            assert reference.is_monotone(out)
        assert ir.is_homogeneous(out)
        assert ir.max_fanin(out) <= 2
        assert ir.syn_degree(out) <= ir.syn_degree(f)


def test_bb_depth_bound_recursion():
    # s up to k, then 4 more per level, each shrinking s to ceil((k-1)s/k) - 1
    assert [tr.bb_depth_bound(s, 16) for s in (1, 16, 17, 18)] == [1, 16, 19, 20]
    assert [tr.bb_depth_bound(8001, k) for k in (16, 256)] == [375, 3356]


def test_bb_contract_on_corpus(corpus_both):
    hard33 = gen_hard(HardParams(k=3, r=3))
    for eps in (Fraction(1, 2), 1):
        k = tr.bb_branch_param(eps)
        for f in corpus_both + [hard33]:
            out, params, _ = tr.run_pass(f, "bb", {"epsilon": eps})  # checks the contract
            assert params == {"epsilon": eps, "k_bb": k}
            m_in, m_out = ir.metrics(f), ir.metrics(out)
            assert m_out.depth <= tr.bb_depth_bound(m_in.size, k)
            assert m_out.syn_degree == m_in.syn_degree


def test_bb_checks_its_own_contract(monkeypatch):
    f, real, sizes = gen_comb(200), tr.bb_depth_bound, []
    depth = ir.metrics(tr.depth_reduce_bb(f, 1)).depth
    monkeypatch.setattr(tr, "bb_depth_bound", lambda s, k: depth - 1)
    with pytest.raises(InternalInvariantError, match=f"^bb output depth {depth} above its bound$"):
        tr.depth_reduce_bb(f, 1)
    monkeypatch.setattr(tr, "bb_depth_bound", lambda s, k: depth)
    assert ir.metrics(tr.depth_reduce_bb(f, 1)).depth == depth
    # every pass that runs bb, nearlinear on each of its three branches, reaches
    # the check through it, once per bb run
    monkeypatch.setattr(tr, "bb_depth_bound", lambda s, k: sizes.append(s) or real(s, k))
    chain = sexpr.parse("(+ " + " ".join(f"x{i}" for i in range(40)) + ")")
    quadratic = gen_random_homogeneous(6, 2, 100, seed=1)
    for g, name, eps in ((f, "bb", 1), (chain, "nearlinear", 1), (f, "nearlinear", 1),
                         (quadratic, "nearlinear", 1), (quadratic, "homogeneous", None),
                         (_interpolated_e2(), "pipeline", None)):
        sizes.clear()
        tr.run_pass(g, name, {"epsilon": eps})
        assert sizes == [g.root.size], name


def test_run_pass_rejects_out_of_range_params():
    f = gen_random_homogeneous(4, 4, 40, seed=7)
    for delta in (0, "0"):
        with pytest.raises(ValueError, match="delta must be >= 1"):
            tr.run_pass(f, "main", {"delta": delta})
    for name in ("bb", "nearlinear"):
        for eps in (0, "0/5", Fraction(0), "2"):
            with pytest.raises(ValueError, match=r"epsilon must be in \(0, 1\]"):
                tr.run_pass(f, name, {"epsilon": eps})
    # only None and "auto" pick the defaults
    assert tr.run_pass(f, "bb", {"epsilon": None})[1]["epsilon"] == Fraction(1, 2)
    m = ir.metrics(f if ir.max_fanin(f) <= 2 else tr.binarize(f))
    auto = tr.auto_delta(m.size, m.syn_degree, m.sum_depth)
    assert tr.run_pass(f, "main", {"delta": "auto"})[1] == {"delta": auto}


# ---------------------------------------------------------------------------
# potential, frontier, skew rewrite
# ---------------------------------------------------------------------------

def test_potential_arithmetic():
    # degree 8 and sum depth 6 at delta = 3 give 3 + 2 = 5
    assert tr._phi(8, 6, 3) == 5
    assert tr._phi(1, 0, 1) == 0
    # (+ (* x1 x2) (* x3 x4)) at delta = 1: 1 + 1
    assert tr._phi(2, 1, 1) == 2
    with pytest.raises(ValueError, match="degree >= 1"):
        tr._phi(0, 1, 1)


def test_select_frontier_zero_potential():
    ids, phi_root = views.frontier(Formula(VarLeaf(0)), 2)
    assert (ids, phi_root) == (frozenset(), 0)


def test_select_frontier_low_degree_product_child():
    # product with child degrees (4, 2): the low half loses a phi1 level and
    # lands on the frontier, so the residual top region is skew
    f = sexpr.parse("(* (* (* x1 x2) (* x3 x4)) (* x5 x6))")
    ids, _ = views.frontier(f, 5)
    table = reference.metrics_table(f)
    member_degrees = sorted(table[g].syn_degree for g in ids)
    assert 2 in member_degrees  # the degree-2 sibling dropped out of the region
    assert all(table[g].syn_degree <= table[0].syn_degree // 2 + 1 for g in ids)
    residual = views.residual(f, ids)
    assert reference.is_skew(residual)


def test_select_frontier_sum_chain_cut():
    # chain of 2*delta sums: the cut lands after exactly delta of them
    delta = 3
    node = VarLeaf(0)
    for i in range(1, 2 * delta + 1):
        node = SumGate(((ONE, VarLeaf(i)), (ONE, node)))
    f = Formula(node)
    m = ir.metrics(f)
    assert m.sum_depth == 2 * delta
    ids, phi_root = views.frontier(f, delta)
    table = reference.metrics_table(f)
    depths = {table[g].sum_depth for g in ids if table[g].sum_depth > 0}
    assert depths == {delta}  # frontier gates carry sum depth exactly delta
    assert phi_root == 2


def _term_vars(terms) -> list:
    """The variable ids of each term's factors, in order."""
    return [[f.var for f in fs] for _, fs in terms]


def test_skew_to_sigma_pi_comb():
    g = sexpr.parse("(+ x1 (* x2 (+ x3 (* x4 x5))))")
    terms, out = views.sigma_pi(g)
    assert_equivalent(g, out)
    assert len(terms) == 3  # <= 2^2 terms
    assert _term_vars(terms) == [[1], [2, 3], [2, 4, 5]]
    assert [c for c, _ in terms] == [1, 1, 1]


def test_skew_to_sigma_pi_single_leaf():
    g = Formula(VarLeaf(7))
    terms, out = views.sigma_pi(g)
    assert len(terms) == 1 and terms[0][0] == 1 and terms[0][1][0] is g.root
    assert_equivalent(g, out)


def test_skew_to_sigma_pi_single_product():
    g = sexpr.parse("(* x1 x2)")
    terms, out = views.sigma_pi(g)
    assert _term_vars(terms) == [[1, 2]]
    assert_equivalent(g, out)


def test_skew_to_sigma_pi_bounds(skew_corpus):
    for g in skew_corpus:
        terms, out = views.sigma_pi(g)
        assert_equivalent(g, out)  # both modes: factor order is kept
        delta = ir.metrics(g).sum_depth
        assert len(terms) <= 2**delta
        # non-duplicable members: +-leaves and x-leaves with a leaf sibling
        non_dup = set()
        for node in ir.postorder(g.root):
            if isinstance(node, SumGate):
                non_dup.update(
                    ch.var for _, ch in node.children if isinstance(ch, VarLeaf)
                )
            elif isinstance(node, ProdGate):
                kids = [ch for _, ch in node.children]
                if all(ir.is_leaf(kid) for kid in kids):
                    non_dup.update(ch.var for ch in kids if isinstance(ch, VarLeaf))
        counts: dict[int, int] = {}
        for vs in _term_vars(terms):
            for v in vs:
                counts[v] = counts.get(v, 0) + 1
        for v in non_dup:
            assert counts.get(v, 0) == 1, f"non-duplicable x{v} occurs {counts.get(v, 0)} times"
        for v, c in counts.items():
            assert c <= 2**delta


def _term_identity(terms) -> list:
    """Terms by coefficient (type and value) and factor objects, in order."""
    return [(type(c), c, tuple(id(f) for f in fs)) for c, fs in terms]


def test_sigma_pi_walk_matches_bottom_up_reference(corpus_both, skew_corpus):
    # main's frontier regions below every gate of potential >= 1, and the
    # skew corpus: the top-down walk returns the reference's terms, with the
    # same factor objects in the same order
    regions = []
    for f in corpus_both:
        fb = tr.binarize(f)
        m = ir.metrics(fb)
        for delta in (1, 2, tr.auto_delta(m.size, m.syn_degree, m.sum_depth)):
            for node in ir.postorder(fb.root):
                phi = tr._potential(node, delta)
                if phi >= 1:
                    regions.append((node, tr._below(phi, delta), fb.field))
    is_var = lambda node: type(node) is VarLeaf
    regions += [(g.root, is_var, g.field) for g in skew_corpus if ir.is_gate(g.root)]
    for root, is_factor, field in regions:
        expected = reference.sigma_pi_terms(root, is_factor, field)
        assert _term_identity(tr._sigma_pi_terms(root, is_factor, field)) == _term_identity(expected)


def test_sigma_pi_walk_refuses_two_interior_children():
    f = sexpr.parse("(+ x5 (* (+ x1 x2) (+ x3 x4)))")
    with pytest.raises(InternalInvariantError):
        tr._sigma_pi_terms(f.root, lambda node: type(node) is VarLeaf, f.field)


def test_main_on_sum_chain_makes_linear_multiplications(monkeypatch):
    # one region holds the whole chain at delta auto; the walk multiplies once
    # per edge, where a term list per gate made about n^2/2 multiplications
    n = 2001
    calls = []
    mul = Rationals.mul

    def counting(self, a, b):
        calls.append(1)
        return mul(self, a, b)

    monkeypatch.setattr(Rationals, "mul", counting)
    tr.depth_reduce_main(sum_chain(n), "auto")
    assert len(calls) <= 4 * n


# ---------------------------------------------------------------------------
# depth_reduce_main
# ---------------------------------------------------------------------------

def test_main_on_hard_instance():
    f = gen_hard(HardParams(k=2, r=2))
    fb = tr.binarize(f)
    m = ir.metrics(fb)
    delta = tr.auto_delta(m.size, m.syn_degree, m.sum_depth)
    out = tr.depth_reduce_main(fb, delta)
    assert_equivalent(f, out)
    assert ir.metrics(out).product_depth <= tr._phi(m.syn_degree, m.sum_depth, delta)


def test_main_noncommutative_monotone():
    f = gen_hard(HardParams(k=2, r=2), commutative=False)
    fb = tr.binarize(f)
    out = tr.depth_reduce_main(fb, 2)
    assert_equivalent(f, out)
    assert reference.is_monotone(out)
    assert ir.is_homogeneous(out)
    assert not out.commutative


def test_main_degree_one_formula():
    # pure linear combination: output is a flat sum, size does not grow
    f = tr.binarize(sexpr.parse("(+ (scale 2 x1) (+ x2 (scale 3/2 x3)) (+ x4 x5))"))
    m = ir.metrics(f)
    out = tr.depth_reduce_main(f, 1)
    assert_equivalent(f, out)
    mo = ir.metrics(out)
    assert mo.product_depth == 0
    assert mo.size <= m.size


def test_main_corpus_bounds_and_preservation(corpus_both):
    for f in corpus_both:
        fb = tr.binarize(f)
        m = ir.metrics(fb)
        delta = tr.auto_delta(m.size, m.syn_degree, m.sum_depth)
        out = tr.depth_reduce_main(fb, delta)
        assert tr.depth_reduce_main(fb, "auto") == out
        assert_equivalent(f, out)
        mo = ir.metrics(out)
        phi = tr._phi(max(m.syn_degree, 1), m.sum_depth, delta)
        assert mo.product_depth <= phi
        assert mo.size <= m.size * max(m.syn_degree, 1) ** delta
        assert mo.syn_degree <= m.syn_degree
        assert ir.is_homogeneous(out)
        if reference.ordered(f.field):
            assert reference.is_monotone(out)
        assert out.commutative == f.commutative
        collapsed = tr.collapse(out)
        assert ir.metrics(collapsed).depth <= 2 * mo.product_depth + 1


def test_main_inner_cancellation_survives():
    # inner region cancels to zero; the rest must survive
    f = tr.binarize(sexpr.parse("(+ (* x2 (+ x1 (scale -1 x1))) x3)"))
    out = tr.depth_reduce_main(f, 1)
    assert poly.expand(out).terms == {((3, 1),): ONE}


def test_main_zero_polynomial_input_stays_equivalent():
    # the zero-computing input violates the usual no-zero-gate assumption;
    # the pass must still emit an expansion-equal output rather than crash
    f = tr.binarize(sexpr.parse("(+ x1 (scale -1 x1))"))
    out = tr.depth_reduce_main(f, 1)
    assert poly.expand(out).terms == {}


def test_main_requires_fanin_2():
    # main binarizes a wider input itself: byte for byte the output of its binarized form
    f = sexpr.parse("(+ x1 x2 x3)")
    for g in (f, gen_random_homogeneous(6, 4, 60, seed=3)):
        assert ir.max_fanin(g) > 2
        for delta in (1, "auto"):
            assert digest([tr.depth_reduce_main(g, delta)]) == digest(
                [tr.depth_reduce_main(tr.binarize(g), delta)])
    with pytest.raises(ValueError, match="delta must be >= 1"):
        tr.depth_reduce_main(tr.binarize(f), 0)


def test_fanin_1_gates_are_binarized_on_demand():
    # main's potential bound needs products of fan-in exactly 2
    for text in ("(* x3)", "(* (* x3) x1)", "(+ (* x1 (+ x2)) x3)"):
        f = sexpr.parse(text)
        out = tr.depth_reduce_main(f, "auto")
        assert_equivalent(f, out)
        assert digest([out]) == digest([tr.depth_reduce_main(tr.binarize(f), "auto")])
    comps = tr.homogenize(sexpr.parse("(* x1)"), 1)
    assert comps[0] is None and poly.expand(comps[1]).terms == {((1, 1),): ONE}
    # a formula with a gate wider than 2 splits like its binarized form
    for f in (sexpr.parse("(+ x1 (* x2 x3 x4) (* (+ x1 1) (scale 2 x2) (+ x3 1)))"),
              gen_random_homogeneous(6, 4, 60, seed=3, commutative=False)):
        assert ir.max_fanin(f) > 2
        assert digest([tr.homogenize(f, 4)]) == digest([tr.homogenize(tr.binarize(f), 4)])


# ---------------------------------------------------------------------------
# homogenize
# ---------------------------------------------------------------------------

def test_homogenize_already_split():
    f = sexpr.parse("(+ x1 (* x2 x3))")
    comps = tr.homogenize(f, 2)
    assert comps[0] is None
    assert poly.expand(comps[1]).terms == {((1, 1),): ONE}
    assert poly.expand(comps[2]).terms == {((2, 1), (3, 1)): ONE}


def test_homogenize_mixed_product():
    f = sexpr.parse("(* (+ x1 1) (+ x2 1))")
    comps = tr.homogenize(f, 2)
    assert poly.expand(comps[0]).terms == {(): ONE}
    assert poly.expand(comps[1]).terms == {((1, 1),): ONE, ((2, 1),): ONE}
    assert poly.expand(comps[2]).terms == {((1, 1), (2, 1)): ONE}


def test_homogenize_homogeneous_fixed_point(corpus_both):
    for f in corpus_both[:10]:
        fb = tr.binarize(f)
        d = ir.syn_degree(fb)
        comps = tr.homogenize(fb, d)
        for i, comp in enumerate(comps):
            if i == d:
                assert comp is not None
                assert poly.equal_expand(comp, fb)
            else:
                assert comp is None  # homogeneous input has one component


def test_homogenize_components_sum_to_input(corpus_both):
    import math

    for f in corpus_both[:8]:
        fb = tr.binarize(f)
        m = ir.metrics(fb)
        d = m.syn_degree
        comps = tr.homogenize(fb, d)
        total = reference.poly_zero(fb.commutative, fb.field)
        size_sum = 0
        for i, comp in enumerate(comps):
            if comp is None:
                continue
            assert ir.is_homogeneous(comp)
            cm = ir.metrics(comp)
            assert cm.product_depth <= m.product_depth
            if i > 0:
                assert cm.syn_degree == i
            size_sum += cm.size
            total = reference.poly_add(total, poly.expand(comp))
        assert total == poly.expand(fb)
        assert size_sum <= m.size * math.comb(m.product_depth + d + 1, d)


def test_homogenize_noncommutative_order():
    f = sexpr.parse("mode: noncommutative\n(* (+ x1 1) (+ x2 1))")
    comps = tr.homogenize(f, 2)
    assert poly.expand(comps[2]).terms == {(1, 2): ONE}
    assert set(poly.expand(comps[1]).terms) == {(1,), (2,)}


def test_homogenize_pins_nodes_of_several_degrees():
    # the golden test pins homogeneous inputs only; here nodes have several
    # degrees, and the target is the full degree D and D // 2
    signed = sexpr.parse("(+ (* (+ x1 (scale -2 1)) (+ (* x2 x3) (scale 1/3 x1) 1) "
                         "(+ x4 (scale -1 x1))) (scale -3/2 (* x2 x2)) (scale 5 1))")
    outs = []
    for f in (gen_comb(301), _interpolated_e2(4), signed):
        d = ir.syn_degree(f)
        outs += [tr.homogenize(f, d), tr.homogenize(f, d // 2)]
    assert digest(outs) == "b8d44b0aaac0bb37256dad91f724260c71b9bb5f4758ea8c48eb6b6f75666460"


def test_homogenize_components_hold_the_input_leaves():
    # a component is built over the input's own nodes, with no tree copy:
    # each variable leaf of a present component is a leaf object of the input
    for f in (gen_comb(301), _interpolated_e2(4), gen_hard(HardParams(2, 3)),
              gen_random_homogeneous(8, 6, 1000, seed=3, commutative=False)):
        fb = tr.binarize(f)
        leaves = {id(n) for n in ir.postorder(fb.root) if type(n) is VarLeaf}
        comps = tr.homogenize(fb, ir.syn_degree(fb))
        assert comps[-1] is not None
        for comp in comps[1:]:
            if comp is not None:
                assert {id(n) for n in ir.postorder(comp.root) if type(n) is VarLeaf} <= leaves


# ---------------------------------------------------------------------------
# product_fanin_2
# ---------------------------------------------------------------------------

def test_fanin2_split_index_deg323():
    # child degrees (3, 2, 3): prefix sums 3, 5 so the middle child is #2
    f = sexpr.parse("(* (* x1 x2 x3) (* x4 x5) (* x6 x7 x8))")
    out = tr.product_fanin_2(f)
    assert_equivalent(f, out)
    root = out.root
    # shape ((F1 x F2) x F3)
    assert isinstance(root, ProdGate) and len(root.children) == 2
    left = root.children[0][1]
    assert isinstance(left, ProdGate)


def test_fanin2_split_index_unit_degrees():
    f = sexpr.parse("(* x1 x2 x3 x4)")
    out = tr.product_fanin_2(f)
    assert_equivalent(f, out)
    # m = 2: ((x1 x x2) x (x3 x x4))
    root = out.root
    lhs, rhs = (ch for _, ch in root.children)
    assert poly.expand(out.with_root(lhs)).terms == {((1, 1), (2, 1)): ONE}
    assert poly.expand(out.with_root(rhs)).terms == {((3, 1), (4, 1)): ONE}


def test_fanin2_sum_rooted_and_corpus(corpus_both):
    for f in corpus_both:
        out = tr.product_fanin_2(f)
        assert_equivalent(f, out)
        mo = ir.metrics(out)
        m = ir.metrics(f)
        assert mo.size <= m.size
        for node in ir.postorder(out.root):
            if isinstance(node, ProdGate):
                assert len(node.children) == 2
        assert ir.is_homogeneous(out)
        if reference.ordered(f.field):
            assert reference.is_monotone(out)
        assert mo.depth <= 2 * (m.depth + max(m.syn_degree, 1).bit_length() + 1) + 2


def test_fanin2_noncommutative_order():
    f = sexpr.parse("mode: noncommutative\n(* x3 x1 x2 x5 x4)")
    out = tr.product_fanin_2(f)
    assert poly.expand(out).terms == {(3, 1, 2, 5, 4): ONE}


# ---------------------------------------------------------------------------
# compositions
# ---------------------------------------------------------------------------

def test_homogeneous_reduction_hard32():
    f = gen_hard(HardParams(k=3, r=2))
    out = tr.depth_reduce_homogeneous(f)
    assert poly.expand(out).num_terms() == 2**7
    assert_equivalent(f, out)
    assert ir.is_homogeneous(out)
    m = ir.metrics(out)
    assert m.depth <= 8 * 3  # c * log2(d) with the constant recorded small


def test_homogeneous_reduction_shallow_input():
    f = sexpr.parse("(+ (* x1 x2) (* x3 x4))")
    out = tr.depth_reduce_homogeneous(f)
    assert_equivalent(f, out)
    assert ir.metrics(out).depth <= 5


def test_nearlinear_delta_arithmetic():
    # floor(eps log2 s / (2 log2 d)) for eps=1/2, s=10^4, d=2 is 3;
    # for eps=1 it is floor(13.28../2) = 6
    assert tr._floor_ratio_log(Fraction(1, 2), 10**4, 2) == 3
    assert tr._floor_ratio_log(Fraction(1), 10**4, 2) == 6
    assert tr._floor_ratio_log(Fraction(1, 2), 2**20, 2) == 5


def test_nearlinear_bb_branch_structural():
    # d^(4/eps) >= s: output is exactly the split-reduction output
    f = gen_random_homogeneous(6, 4, 60, seed=2)
    out = tr.depth_reduce_nearlinear(f, Fraction(1, 2))
    ref = tr.depth_reduce_bb(f, Fraction(1, 2))
    assert out.root == ref.root


def test_nearlinear_main_branch():
    # d = 2, s > 16 with eps = 1 takes the potential branch
    f = gen_random_homogeneous(6, 2, 80, seed=9)
    assert ir.size(f) > 16
    out = tr.depth_reduce_nearlinear(f, 1)
    assert_equivalent(f, out)
    assert ir.is_homogeneous(out)


def test_nearlinear_corpus(corpus_both):
    from lowdepth.pit import PITConfig, pit_equal

    for i, f in enumerate(corpus_both[:10]):
        out = tr.depth_reduce_nearlinear(f, 1)
        assert_equivalent(f, out)
        if reference.ordered(f.field):
            assert reference.is_monotone(out)
        if f.commutative:
            assert pit_equal(f, out, PITConfig(trials=20, seed=i)).equal


def _interpolated_e2(n: int = 4) -> Formula:
    """Inhomogeneous size-O(n) formula for the degree-2 elementary symmetric
    polynomial, by interpolating prod_i (1 + t*x_i) at t in {1,-1,2,-2}."""
    # P(t) = sum_d e_d t^d, e_0 = 1.  With A = (P(1)+P(-1))/2 - 1 = e2 + e4
    # and B = (P(2)+P(-2))/2 - 1 = 4 e2 + 16 e4:  e2 = (16 A - B) / 12.
    one = Fraction(1)

    def prod_at(t: Fraction):
        return ProdGate(
            tuple(
                (one, SumGate(((one, OneLeaf()), (Fraction(t), VarLeaf(i)))))
                for i in range(n)
            )
        )

    w1 = Fraction(16, 2 * 12)
    w2 = Fraction(-1, 2 * 12)
    const = Fraction(-16 + 1, 12)  # -(16 - 1)/12 from the two "-1" corrections
    root = SumGate(
        (
            (w1, prod_at(Fraction(1))),
            (w1, prod_at(Fraction(-1))),
            (w2, prod_at(Fraction(2))),
            (w2, prod_at(Fraction(-2))),
            (const, OneLeaf()),
        )
    )
    return Formula(root)


def test_interpolation_instance_is_e2():
    f = _interpolated_e2(4)
    table = poly.expand(f)
    expected = {}
    for i in range(4):
        for j in range(i + 1, 4):
            expected[((i, 1), (j, 1))] = ONE
    assert table.terms == expected


def test_pipeline_interpolated_e2():
    f = _interpolated_e2(4)
    assert not ir.is_homogeneous(f)
    out = tr.pipeline_inhom(f)
    assert ir.is_homogeneous(out)
    assert_equivalent(f, out)
    assert ir.syn_degree(out) == 2


def _reweighted(f: Formula, seed: int, field=QQ) -> Formula:
    """f with about 20 % of its edge scalars times -3/2, normalized into field
    (a scalar that field sends to 0 becomes 1)."""
    rng = random.Random(seed)

    def rebuild(node, vals):
        if not ir.is_gate(node):
            return node
        edges = []
        for (c, _), v in zip(node.children, vals):
            c = field.normalize(c * Fraction(-3, 2) if rng.random() < 0.2 else c)
            edges.append((c if not field.is_zero(c) else field.one(), v))
        return type(node)(tuple(edges))

    return Formula(ir.node_attribute(f.root, rebuild)[id(f.root)], f.commutative, field)


def test_pipeline_homogeneous_input_matches(corpus_both):
    # on a syntactically homogeneous input pipeline is the homogeneous
    # composition, byte for byte, signed or over Fp as well
    inputs = corpus_both + [gen_hard(HardParams(2, 3), commutative=c) for c in (True, False)]
    for i, shape in enumerate([(4, 2, 50), (5, 4, 200), (6, 3, 300)]):
        for commutative in (True, False):
            f = gen_random_homogeneous(*shape, seed=i, commutative=commutative)
            inputs += [_reweighted(f, i), _reweighted(f, i, PrimeField(7))]
    for f in inputs:
        assert ir.is_homogeneous(f)
        out = sexpr.serialize(tr.pipeline_inhom(f))
        assert out == sexpr.serialize(tr.depth_reduce_homogeneous(f))


def test_pipeline_mixed_degrees_rejected():
    f = sexpr.parse("(+ x1 (* x2 x3))")
    with pytest.raises(NotSemanticallyHomogeneous):
        tr.pipeline_inhom(f)


#: inputs at the edge of what the syntax decides, with what pipeline_inhom
#: gives: an exception type and message, or the output's text.  Mixed degrees
#: expand once, to learn d; a homogeneous input with a scalar below zero or
#: over Fp runs the homogeneous composition, a zero polynomial too, and a
#: constant is refused, all without expanding
_PIPELINE_EXPANDS = [
    ("(+ x1 (* x2 x3))", NotSemanticallyHomogeneous, "expansion mixes degrees [1, 2]"),
    ("comb", NotSemanticallyHomogeneous, f"expansion mixes degrees {list(range(1, 151))}"),
    ("(+ x1 (scale -1 x1))", None, "mode: commutative\nfield: Q\n(+ x1 (scale -1 x1))\n"),
    ("(+ 1 (scale 2 1))", ValueError, "pipeline needs degree >= 1; the input is a constant"),
    ("(+ (* x1 x2) (scale -1 (* x1 x3)))", None,
     "mode: commutative\nfield: Q\n(+ (* x1 x2) (scale -1 (* x1 x3)))\n"),
    ("mode: noncommutative\n(+ (* x1 x2) (scale -1 (* x2 x1)) (* x1 x1))", None,
     "mode: noncommutative\nfield: Q\n(+ (* x1 x2) (scale -1 (* x2 x1)) (* x1 x1))\n"),
    ("field: Fp:7\n(+ (* x1 x2) (scale 3 (* x2 x3)))", None,
     "mode: commutative\nfield: Fp:7\n(+ (* x1 x2) (scale 3 (* x2 x3)))\n"),
]


def _counting_expand(monkeypatch) -> list:
    calls = []
    real = poly.expand
    monkeypatch.setattr(poly, "expand", lambda *a, **kw: calls.append(a[0]) or real(*a, **kw))
    return calls


def test_pipeline_reads_the_degree_of_monotone_homogeneous_inputs(monkeypatch):
    # every sum's children share one syntactic degree and every scalar is
    # positive: the polynomial is not zero, so pipeline runs the homogeneous
    # composition and expands nothing
    inputs = [gen_random_homogeneous(8, 8, 2000, seed=i) for i in range(3)] + [
        gen_hard(HardParams(3, 3)), sum_chain(8001),
        gen_random_homogeneous(8, 8, 1000, seed=0, commutative=False),
        gen_hard(HardParams(2, 3), commutative=False), sexpr.parse("(+ (scale 1/2 x3))")]
    calls = _counting_expand(monkeypatch)
    for i, f in enumerate(inputs):
        out = tr.pipeline_inhom(f)
        assert len(calls) == 0, i
        assert ir.syn_degree(out) == ir.syn_degree(f)


def test_pipeline_reduces_signed_noncommutative_inputs_without_expanding(monkeypatch):
    # a syntactically homogeneous input proves its degree, so a signed one
    # runs the homogeneous composition at once, where expanding it to refuse
    # the zero polynomial ran past the expansion budget
    calls = _counting_expand(monkeypatch)
    for seed in range(4):
        f = _reweighted(gen_random_homogeneous(8, 8, 2000, seed=seed, commutative=False), seed)
        assert any(c < 0 for node in ir.postorder(f.root) if ir.is_gate(node)
                   for c, _ in node.children)
        t0 = time.perf_counter()
        out = tr.pipeline_inhom(f)
        assert time.perf_counter() - t0 < 1.0, seed
        assert calls == []
        assert sexpr.serialize(out) == sexpr.serialize(tr.depth_reduce_homogeneous(f))


@pytest.mark.parametrize("text, error, expected", _PIPELINE_EXPANDS,
                         ids=[t.split("\n")[-1] for t, _, _ in _PIPELINE_EXPANDS])
def test_pipeline_expands_what_the_syntax_leaves_open(monkeypatch, text, error, expected):
    # only mixed degrees leave d open: one expansion decides, with its errors;
    # a scalar below zero, a field without order, a zero polynomial or a
    # constant is decided by the syntax, with no expansion
    f = gen_comb(300) if text == "comb" else sexpr.parse(text)
    calls = _counting_expand(monkeypatch)
    if error is None:
        assert sexpr.serialize(tr.pipeline_inhom(f)) == expected
    else:
        with pytest.raises(error) as info:
            tr.pipeline_inhom(f)
        assert type(info.value) is error and str(info.value) == expected
    assert calls == ([] if ir.is_homogeneous(f) else [f])


def _text(f: Formula) -> str:
    return sexpr.serialize(f).splitlines()[-1]


def _unit_shared_input() -> Formula:
    """A mixed-degree formula computing 2*x7, on which bb puts x7 in its A and
    its C part and the degree-1 component then sums x7 twice, as one object:
    (* x7 (+ T Z)), where T and Z each compute 1 and Z is heavy enough that bb
    splits below it."""
    zs = []
    for seed in (1, 2):
        g = _text(gen_random_homogeneous(4, 2, 1500, seed=seed))
        zs.append(f"(+ (scale 1/2 1) {g} (scale -1 {g}))")
    return sexpr.parse(f"(* x7 (+ (+ 1 x1 (scale -1 x1)) (+ {zs[0]} {zs[1]})))")


def _nested_mixed(seed: int) -> tuple[Formula, int]:
    """A homogeneous core under 2-5 levels (* y (+ t core)), where t holds a
    cancelling pair of degree 1 and, at odd levels, a monomial of the core's
    degree: mixed syntactic degrees, and the polynomial of degree d returned."""
    rng = random.Random(seed)
    comm = seed % 2 == 0
    d = rng.randint(1, 4)
    text = _text(gen_random_homogeneous(6, d, rng.randint(2000, 6000), seed=seed, commutative=comm))
    for level in range(rng.randint(2, 5)):
        x, c = f"x{rng.randint(0, 5)}", rng.choice(["1", "2", "1/2", "3"])
        t = [f"(scale {c} {x})", f"(scale -{c} {x})"]
        if level % 2:
            t.append("(* " + " ".join(f"x{rng.randint(0, 5)}" for _ in range(d)) + ")")
        inner = "(+ " + " ".join(t) + f" {text})"
        y = f"x{rng.randint(0, 5)}"
        text = f"(* {y} {inner})" if rng.random() < 0.5 else f"(* {inner} {y})"
        d += 1
    return sexpr.parse(("" if comm else "mode: noncommutative\n") + text), d


def test_pipeline_gives_main_on_the_tree_copy_of_its_component():
    # homogenize hands main its degree-d component with the subtrees it
    # shares, and main merges terms by the step that added their factors, so
    # pipeline's bytes are those of main on the component's tree copy
    inputs = [_nested_mixed(seed) for seed in range(16)] + [(_unit_shared_input(), 1)]
    shared = 0
    for f, d in inputs:
        assert not ir.is_homogeneous(f)
        comp = tr._components(tr.depth_reduce_bb(f, Fraction(1, 2)), d)[d]
        tree = comp.with_root(reference.tree_materialize(comp.root))
        shared += len(ir.postorder(comp.root)) < len(ir.postorder(tree.root))
        expected = sexpr.serialize(tr.collapse(tr.depth_reduce_main(tree, "auto")))
        assert sexpr.serialize(tr.pipeline_inhom(f)) == expected
    assert shared >= 4
    assert sexpr.serialize(tr.pipeline_inhom(inputs[-1][0])).endswith("(+ x7 x7)\n")


def test_main_output_is_that_of_the_tree_its_input_unfolds_to():
    # a factor object at two positions gives two terms, as two copies do
    p = ProdGate(((ONE, VarLeaf(1)), (ONE, VarLeaf(2))))
    for commutative in (True, False):
        for root in (SumGate(((1, p), (1, p))), SumGate(((1, p), (2, VarLeaf(3)), (-1, p)))):
            f = Formula(root, commutative)
            tree = f.with_root(reference.tree_materialize(root))
            assert (sexpr.serialize(tr.depth_reduce_main(f, "auto"))
                    == sexpr.serialize(tr.depth_reduce_main(tree, "auto")))


def test_main_output_shares_reduced_factors():
    # a reduced factor goes into every term that multiplies it as one object,
    # so main's output, and the homogeneous composition's, hold fewer
    # distinct nodes than their tree copies, with the same bytes
    f = gen_random_homogeneous(10, 16, 10**4, seed=0)  # the wide shape
    bb = tr.depth_reduce_bb(f, Fraction(1, 2))
    for out in (tr.depth_reduce_main(bb, "auto"), tr.depth_reduce_homogeneous(f)):
        tree = out.with_root(reference.tree_materialize(out.root))
        assert len(ir.postorder(out.root)) < len(ir.postorder(tree.root))
        assert sexpr.serialize(out) == sexpr.serialize(tree)


def test_auto_delta():
    assert tr.auto_delta(200, 16) == 2
    assert tr.auto_delta(16, 2) == 4
    assert tr.auto_delta(17, 2) == 5
    assert tr.auto_delta(50, 1, sum_depth=7) == 7


def test_select_frontier_corpus_assertions(corpus_both):
    # views.frontier asserts skewness and the sum-depth cap of the residual
    for f in corpus_both[:12]:
        fb = tr.binarize(f)
        m = ir.metrics(fb)
        if m.syn_degree == 0:
            continue
        delta = tr.auto_delta(m.size, m.syn_degree, m.sum_depth)
        ids, phi = views.frontier(fb, delta)
        table = reference.metrics_table(fb)
        phi_root = tr._phi(m.syn_degree, m.sum_depth, delta)
        assert phi == phi_root
        for gid in ids:
            sub = table[gid]
            assert not isinstance(ir.gates_preorder(fb)[gid], OneLeaf)
            if sub.syn_degree >= 1:
                assert tr._phi(sub.syn_degree, sub.sum_depth, delta) < phi_root


def test_passes_over_prime_field():
    # the whole pass stack works over Fp; scalars stay normalized
    text = "field: Fp:97\n(+ (scale 96 x1) (* x2 x3 (+ x4 (scale 13 1))) x5)"
    f = sexpr.parse(text)
    for make in (
        lambda g: tr.binarize(g),
        lambda g: tr.collapse(g),
        lambda g: tr.depth_reduce_bb(g, 1),
        lambda g: tr.depth_reduce_main(tr.binarize(g), 2),
        lambda g: tr.product_fanin_2(g),
        lambda g: tr.depth_reduce_homogeneous(g),
    ):
        out = make(f)
        assert out.field == f.field
        assert poly.equal_expand(f, out)


def test_homogenize_over_prime_field():
    f = sexpr.parse("field: Fp:97\n(* (+ x1 1) (+ x2 (scale 96 1)))")
    comps = tr.homogenize(tr.binarize(f), 2)
    acc = reference.poly_zero(f.commutative, f.field)
    for comp in comps:
        if comp is not None:
            acc = reference.poly_add(acc, poly.expand(comp))
    assert acc == poly.expand(f)


def _over_field(f: Formula, field) -> Formula:
    """f with every edge scalar normalized into field."""

    def rebuild(node, vals):
        if not ir.is_gate(node):
            return node
        edges = tuple((field.normalize(c), v) for (c, _), v in zip(node.children, vals))
        return type(node)(edges)

    return Formula(ir.node_attribute(f.root, rebuild)[id(f.root)], f.commutative, field)


def test_edge_scalars_keep_the_field_type(corpus_both):
    # every scalar a pass emits is in its field's one form: over Q an int
    # when integral, else a Fraction; over Fp a reduced int.  The last input's
    # weights are fractions whose products are integers.
    runs = [lambda g, name=name: tr.run_pass(g, name, {})[0] for name in tr.PASSES]
    runs += [tr.collapse, lambda g: tr.homogenize(tr.binarize(g), ir.syn_degree(g))]
    reciprocal = sexpr.parse("(+ (scale 1/2 (+ (scale 2 (* x1 x2)) (scale 4 (* x2 x3))))"
                             " (scale 2/3 (* (scale 3/2 x1) (+ (scale 1/3 x3) (scale 3 x2)))))")
    for field in (QQ, PrimeField()):
        for f in corpus_both + [reciprocal]:
            g = f if field is QQ else _over_field(f, field)
            for run in runs:
                out = run(g)
                for h in out if isinstance(out, list) else [out]:
                    if h is None:
                        continue
                    assert h.field == field
                    for node in ir.postorder(h.root):
                        if ir.is_gate(node):
                            assert all(reference.is_canonical(field, c) for c, _ in node.children)


def test_deep_comb_all_passes(monkeypatch):
    # depth ~8000, far above the interpreter's default recursion limit of
    # 1000: every pass must run on the caller's thread at that limit
    import sys
    import threading

    from lowdepth.pit import PITConfig, pit_equal

    def no_thread(*args, **kwargs):
        raise AssertionError("a pass started a thread")

    monkeypatch.setattr(threading, "Thread", no_thread)
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    try:
        f = gen_comb(8001)
        assert ir.metrics(f).depth == 8000
        pf = tr.product_fanin_2(f)
        assert ir.size(pf) == ir.size(f)
        bb = tr.depth_reduce_bb(f, 1)
        assert ir.metrics(bb).depth < 400
        # the CLI's default epsilon, k = 256
        bb_half = tr.depth_reduce_bb(f, Fraction(1, 2))
        assert (ir.metrics(bb).depth, ir.metrics(bb_half).depth) == (277, 2453)
        fb = tr.binarize(f)
        m = ir.metrics(fb)
        delta = tr.auto_delta(m.size, m.syn_degree, m.sum_depth)
        main = tr.depth_reduce_main(fb, delta)
        comps = tr.homogenize(sum_chain(8001), 1)
        ids, phi_root = views.frontier(fb, delta)
        assert (len(ids), phi_root) == (4, 2012)
        # nested ids: the leaf x0 and the middle gate take the fresh
        # variables in preorder; the deepest gate lies inside the middle one
        nodes = ir.gates_preorder(fb)
        gates = [i for i, n in enumerate(nodes) if ir.is_gate(n)]
        residual = views.residual(fb, frozenset({1, gates[len(gates) // 2], gates[-1]}))
        assert ir.metrics(residual).depth == 4000
        cfg = PITConfig(trials=2, seed=0)
        for out in (pf, bb, bb_half, main):
            assert pit_equal(f, out, cfg).equal
    finally:
        sys.setrecursionlimit(limit)
    # the outputs, pinned byte for byte
    assert digest([pf]) == "6fdae5af3a1421e265ffdc61399d6dea8b190022fcfb4b75c82e5a530205d1de"
    assert digest([bb]) == "22de70d6f76057cff9074381e4683aed910764e10b5ec71d68b0d11f8749b334"
    assert digest([bb_half]) == "33f0229eb5285d652a84610e97e64cf0548788f621b453aa697fc53c2c365c10"
    assert digest([main]) == "a9c4b0f4d5b1ec552c8dc9a22f7dddae4fe3009f83db4250357aba7f756691bf"
    assert digest([comps]) == "34726221908b29df7f942f3015cbc106c1ef87e2301f27228a944ba41e3e9e9b"
    assert digest([residual]) == "9dc989bf8ef92316489715ef489ce128831f9470ad0297918cff2768fe3c237f"


def test_decompose_at_root():
    # balanced tree: the split gate is the root; A and B are the one formula
    leaves = [VarLeaf(i) for i in range(8)]
    half = lambda i: ProdGate(
        ((ONE, ProdGate(((ONE, leaves[i]), (ONE, leaves[i + 1])))),
         (ONE, ProdGate(((ONE, leaves[i + 2]), (ONE, leaves[i + 3])))))
    )
    f = Formula(SumGate(((ONE, half(0)), (ONE, half(4)))))
    gate_id, _, _, _, path = views.split(f, 4)
    assert gate_id == 0
    a, b, c = views.parts(f, path)
    assert poly.expand(a).terms == {(): ONE}
    assert poly.expand(b).terms == {(): ONE}
    assert c is None


def test_mixed_sign_formula_through_all_passes():
    # the corpus is monotone; exercise cancellation-rich inputs separately
    text = (
        "(+ (scale -2/3 (* x1 (+ x2 (scale -1 x3)) x4)) "
        "(* (+ x1 (scale 5 x2)) (+ x3 x4) (scale -1/7 (+ x1 x4))) "
        "(scale 3 (* x2 x3 x4)))"
    )
    for mode in ("commutative", "noncommutative"):
        f = sexpr.parse(f"mode: {mode}\n{text}")
        table = poly.expand(f)
        fb = tr.binarize(f)
        m = ir.metrics(fb)
        outs = [
            tr.depth_reduce_bb(f, 1),
            tr.depth_reduce_main(fb, tr.auto_delta(m.size, m.syn_degree, m.sum_depth)),
            tr.depth_reduce_nearlinear(f, 1),
            tr.depth_reduce_homogeneous(f),
            tr.product_fanin_2(f),
            tr.pipeline_inhom(f),
        ]
        for out in outs:
            assert poly.expand(out) == table


def test_pipeline_noncommutative_inhomogeneous():
    # (1+x1)(1+x2) - 1 - x1 - x2 computes the single word x1 x2; the
    # degree-2 component must keep the factor order
    text = ("(+ (* (+ 1 x1) (+ 1 x2)) (scale -1 1) "
            "(scale -1 x1) (scale -1 x2))")
    f = sexpr.parse("mode: noncommutative\n" + text)
    assert poly.expand(f).terms == {(1, 2): ONE}
    out = tr.pipeline_inhom(f)
    assert ir.is_homogeneous(out)
    assert poly.expand(out).terms == {(1, 2): ONE}
    g = sexpr.parse("mode: noncommutative\n" + text.replace("x2", "x9").replace("x1", "x2").replace("x9", "x1"))
    assert poly.expand(tr.pipeline_inhom(g)).terms == {(2, 1): ONE}


def test_homogenize_truncated_target():
    # components above target_d are simply not requested; the ones below
    # are still exact
    f = sexpr.parse("(* (+ x1 1) (+ x2 1))")
    comps = tr.homogenize(f, 1)
    assert len(comps) == 2
    assert poly.expand(comps[0]).terms == {(): ONE}
    assert poly.expand(comps[1]).terms == {((1, 1),): ONE, ((2, 1),): ONE}


def test_select_frontier_with_constant_leaves():
    # constant leaves stay in the residual comb rather than joining the frontier
    f = tr.binarize(sexpr.parse("(+ 1 (* x1 (+ x2 1)) (* x3 x4))"))
    ids, _ = views.frontier(f, 1)
    gates = ir.gates_preorder(f)
    assert all(not isinstance(gates[g], OneLeaf) for g in ids)
    residual = views.residual(f, ids)
    assert reference.is_skew(residual)
    assert ir.metrics(residual).sum_depth <= 1
