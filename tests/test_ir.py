from fractions import Fraction

import pytest

import reference

from lowdepth import ir, poly, sexpr
from lowdepth.errors import BudgetExceeded, WellFormednessError
from lowdepth.fields import PrimeField, QQ
from lowdepth.hardpoly import HardParams, gen_hard
from lowdepth.ir import Formula, OneLeaf, ProdGate, SumGate, VarLeaf

from conftest import sum_chain

ONE = Fraction(1)


def F(root, commutative=True, field=QQ):
    return Formula(root=root, commutative=commutative, field=field)


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

def test_metrics_single_leaf():
    m = ir.metrics(F(VarLeaf(0)))
    assert (m.size, m.depth, m.syn_degree) == (1, 0, 1)
    assert m.sum_depth == 0 and m.product_depth == 0


def test_metrics_canonical_hard_formula():
    # size (2r)^k and depth 2k
    f = gen_hard(HardParams(k=2, r=3))
    m = ir.metrics(f)
    assert m.size == 36
    assert m.depth == 4
    assert m.syn_degree == 4


def test_metrics_sum_of_product():
    f = sexpr.parse("(+ x1 (* x2 x3))")
    m = ir.metrics(f)
    assert (m.size, m.depth, m.sum_depth, m.product_depth, m.syn_degree) == (3, 2, 1, 1, 2)


def test_metrics_table_recursion(corpus_both):
    # per-gate degrees satisfy the recursive definition; root is the max
    for f in corpus_both[:10]:
        table = reference.metrics_table(f)
        gates = ir.gates_preorder(f)
        memo = {id(n): table[i] for i, n in enumerate(gates)}
        for node in gates:
            m = memo[id(node)]
            if isinstance(node, VarLeaf):
                assert m.syn_degree == 1
            elif isinstance(node, OneLeaf):
                assert m.syn_degree == 0
            elif isinstance(node, SumGate):
                assert m.syn_degree == max(memo[id(ch)].syn_degree for _, ch in node.children)
            else:
                assert m.syn_degree == sum(memo[id(ch)].syn_degree for _, ch in node.children)
            assert m.depth >= max(m.sum_depth, m.product_depth)
            assert m.size >= 1
            assert m.syn_degree <= table[0].syn_degree


def test_metrics_roundtrip_invariant(corpus_both):
    for f in corpus_both[:8]:
        assert ir.metrics(sexpr.parse(sexpr.serialize(f))) == ir.metrics(f)


def test_deep_formulas_compare_hash_and_print():
    # comb(8001) and an 8,001-leaf sum chain, at the default recursion limit
    import sys
    import time

    from lowdepth.bench import gen_comb

    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    try:
        for f in (gen_comb(8001), sum_chain(8001)):
            text = sexpr.serialize(f)
            g = sexpr.parse(text)
            last = text.rindex("x")  # the deepest leaf gets another variable
            other = sexpr.parse(text[:last] + "x99999" + text[last:].lstrip("x0123456789"))
            for check in (
                lambda: f == g and f.root == g.root,
                lambda: hash(f) == hash(g) and hash(f.root) == hash(g.root),
                lambda: repr(f.root) == text.splitlines()[-1] and repr(f).startswith("Formula("),
                lambda: f != other and f.root != other.root,
                lambda: len({f.root, g.root}) == 1,
            ):
                start = time.perf_counter()
                assert check()
                assert time.perf_counter() - start < 10
    finally:
        sys.setrecursionlimit(limit)


# ---------------------------------------------------------------------------
# predicates
# ---------------------------------------------------------------------------

def test_is_homogeneous_examples():
    assert ir.is_homogeneous(sexpr.parse("(+ (* x1 x2) (* x3 x4))"))
    assert not ir.is_homogeneous(sexpr.parse("(+ x1 (* x2 x3))"))


def test_is_homogeneous_hard_formula_matches_expansion(hard_instances):
    for _, m in hard_instances:
        assert ir.is_homogeneous(m)
        degrees = poly.expand(m).degrees_present()
        assert len(degrees) == 1


def test_is_skew_examples():
    assert ir.is_skew(sexpr.parse("(+ x1 (* x2 (+ x3 (* x4 x5))))"))
    assert not ir.is_skew(sexpr.parse("(* (+ x1 x2) (+ x3 x4))"))
    assert ir.is_skew(F(VarLeaf(3)))


def test_is_monotone_syntactic():
    assert reference.is_monotone(sexpr.parse("(+ (scale 2 x1) (* x2 x3))"))
    assert not reference.is_monotone(sexpr.parse("(+ x1 (scale -1 x2))"))
    fp = PrimeField(97)
    with pytest.raises(reference.FieldUnordered):
        reference.is_monotone(F(VarLeaf(0), field=fp), mode="syntactic")


def test_is_monotone_semantic_cancellation():
    # x1*x2 - x1*x2 + x3: the product monomial cancels
    f = sexpr.parse("(+ (* x1 x2) (scale -1 (* x1 x2)) x3)")
    assert not reference.is_monotone(f, mode="semantic")
    assert reference.is_monotone(gen_hard(HardParams(k=2, r=2)), mode="semantic")


def test_is_set_multilinear():
    p = HardParams(k=1, r=2)
    f = gen_hard(p)
    assert reference.is_set_multilinear(f, reference.sigma_partition(p))
    p2 = HardParams(k=2, r=2)
    assert reference.is_set_multilinear(gen_hard(p2), reference.sigma_partition(p2))
    sq = F(ProdGate(((ONE, VarLeaf(0)), (ONE, VarLeaf(0)))))
    assert not reference.is_set_multilinear(sq, [{0}])


def test_syntactic_monotone_implies_semantic(corpus_both):
    for f in corpus_both[:10]:
        assert reference.is_monotone(f, mode="syntactic")
        assert reference.is_monotone(f, mode="semantic")


# ---------------------------------------------------------------------------
# parse trees
# ---------------------------------------------------------------------------

def test_parse_trees_comb():
    f = sexpr.parse("(+ x1 (* x2 (+ x3 (* x4 x5))))")
    trees = reference.enumerate_parse_trees(f)
    words = sorted(t[1] for t in trees)
    assert words == [(1,), (2, 3), (2, 4, 5)]


def test_parse_trees_single_product():
    f = sexpr.parse("(* x1 x2)")
    assert len(reference.enumerate_parse_trees(f)) == 1


def test_parse_trees_hard_count():
    # r^(d-1) monomials, all parse trees distinct
    f = gen_hard(HardParams(k=2, r=2))
    assert ir.count_parse_trees(f) == 8
    assert len(reference.enumerate_parse_trees(f)) == 8


def test_parse_tree_budget():
    f = gen_hard(HardParams(k=2, r=3))
    with pytest.raises(BudgetExceeded):
        reference.enumerate_parse_trees(f, budget=5)


def test_parse_tree_sum_matches_expand(corpus_both):
    for f in corpus_both[:12]:
        if ir.count_parse_trees(f) <= 10_000:
            assert reference.parse_tree_sum(f) == poly.expand(f)


# ---------------------------------------------------------------------------
# well-formedness
# ---------------------------------------------------------------------------

def test_validate_one_leaf_under_product():
    bad = F(ProdGate(((ONE, OneLeaf()), (ONE, VarLeaf(0)))))
    with pytest.raises(WellFormednessError):
        ir.validate(bad)


def test_validate_interior_constant_sum():
    inner = SumGate(((ONE, OneLeaf()), (ONE, OneLeaf())))
    bad = F(ProdGate(((ONE, inner), (ONE, VarLeaf(0)))))
    with pytest.raises(WellFormednessError):
        ir.validate(bad)
    # at the output gate the same sum is fine
    ir.validate(F(SumGate(((ONE, OneLeaf()), (ONE, OneLeaf())))))


def test_validate_zero_weight():
    bad = F(SumGate(((Fraction(0), VarLeaf(0)),)))
    with pytest.raises(WellFormednessError):
        ir.validate(bad)


def test_validate_empty_gate():
    with pytest.raises(WellFormednessError):
        ir.validate(F(SumGate(())))


def test_copy_tree_structural_equality(corpus_both):
    shared = ProdGate(((ONE, VarLeaf(0)), (ONE, VarLeaf(1))))
    dag = SumGate(((ONE, shared), (Fraction(2), shared), (ONE, OneLeaf())))
    for root in (corpus_both[0].root, dag):
        out = ir.tree_materialize(root)
        assert out == root
        old_ids = {id(n) for n in ir.postorder(root)}
        positions = [n for n, _ in ir.iter_preorder_positions(out)]
        assert len({id(n) for n in positions}) == len(positions)
        assert not old_ids & {id(n) for n in positions}


# ---------------------------------------------------------------------------
# traversal kernel
# ---------------------------------------------------------------------------

def _reference_postorder(root):
    """The generator ir.postorder replaced: distinct nodes, children first."""
    seen = set()
    stack = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            yield node
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        if ir.is_gate(node):
            for _, child in reversed(node.children):
                if id(child) not in seen:
                    stack.append((child, False))


def _reference_metrics(node, vals):
    """An independent per-node fold of the five metrics, as a plain tuple."""
    if isinstance(node, VarLeaf):
        return (1, 0, 0, 0, 1)
    if isinstance(node, OneLeaf):
        return (1, 0, 0, 0, 0)
    is_sum = isinstance(node, SumGate)
    return (
        sum(v[0] for v in vals),
        1 + max(v[1] for v in vals),
        (1 if is_sum else 0) + max(v[2] for v in vals),
        (0 if is_sum else 1) + max(v[3] for v in vals),
        max(v[4] for v in vals) if is_sum else sum(v[4] for v in vals),
    )


def _kernel_inputs(corpus_both):
    from lowdepth.bench import gen_comb
    from lowdepth.transforms import binarize

    inner = SumGate(((ONE, VarLeaf(1)), (ONE, OneLeaf())))
    shared = ProdGate(((ONE, VarLeaf(0)), (Fraction(3), inner)))
    leaf = VarLeaf(2)
    dag = SumGate(
        ((ONE, shared), (Fraction(2), ProdGate(((ONE, shared), (ONE, leaf)))), (ONE, leaf))
    )
    return [f.root for f in corpus_both] + [binarize(gen_comb(8001)).root, dag]


def test_postorder_matches_reference_generator(corpus_both):
    for root in _kernel_inputs(corpus_both):
        order = ir.postorder(root)
        assert [id(n) for n in order] == [id(n) for n in _reference_postorder(root)]
        assert order[-1] is root


def test_stored_metrics_match_reference_fold(corpus_both):
    # every node carries its metrics from construction, the shared DAG included
    for root in _kernel_inputs(corpus_both):
        ref = {}
        for node in _reference_postorder(root):
            kids = [ref[id(ch)] for _, ch in node.children] if ir.is_gate(node) else []
            ref[id(node)] = _reference_metrics(node, kids)
            got = (node.size, node.depth, node.sum_depth, node.product_depth, node.syn_degree)
            assert got == ref[id(node)]


@pytest.mark.parametrize("node, name", [
    (SumGate(((ONE, VarLeaf(1)),)), "children"),
    (VarLeaf(1), "var"),
    (ProdGate(((ONE, VarLeaf(1)), (ONE, VarLeaf(2)))), "size"),
])
def test_nodes_refuse_assignment(node, name):
    # a changed child would leave its ancestors' stored metrics stale
    with pytest.raises(AttributeError):
        setattr(node, name, getattr(node, name))


def test_gate_metrics_fields_equality_and_report():
    from lowdepth.report import metrics_dict

    m = ir.GateMetrics(size=7, depth=3, sum_depth=2, product_depth=1, syn_degree=4)
    assert (m.size, m.depth, m.sum_depth, m.product_depth, m.syn_degree) == (7, 3, 2, 1, 4)
    assert m == ir.GateMetrics(7, 3, 2, 1, 4)
    assert m != ir.GateMetrics(7, 3, 2, 1, 5)
    assert list(metrics_dict(m).items()) == [
        ("size", 7), ("depth", 3), ("sum_depth", 2), ("product_depth", 1), ("syn_degree", 4),
    ]
    assert ir.metrics(F(SumGate(((ONE, VarLeaf(0)), (ONE, OneLeaf()))))) == ir.GateMetrics(
        size=2, depth=1, sum_depth=1, product_depth=0, syn_degree=1
    )


@pytest.mark.parametrize("text, message", [
    # preorder: the product under the root is entered before the sibling sum
    ("(+ (* x1 1) (+ 1 1))", "constant leaf 1 must be the child of a sum gate"),
    ("(+ (+ 1 1) (* x1 1))",
     "sum gate over constant leaves only is allowed at the output gate only"),
    # a gate's edge weights are checked when the gate is entered
    ("(+ (+ 1 1) (scale 0 x2))", "edge weight 0 is not allowed"),
    ("(+ (* x1 (+ 1 1)) (* x2 1))",
     "sum gate over constant leaves only is allowed at the output gate only"),
    # a child sum is entered before a constant leaf to its right
    ("(+ (* (+ 1 1) 1))", "sum gate over constant leaves only is allowed at the output gate only"),
])
def test_validate_reports_first_violation_in_preorder(tmp_path, text, message):
    path = tmp_path / "two.frm"
    path.write_text(text + "\n")
    with pytest.raises(WellFormednessError) as info:
        sexpr.parse_file(str(path))
    assert str(info.value) == message


def test_validate_checks_a_gate_before_its_children():
    # the root's zero weight is found before the constant leaf under it
    bad = F(ProdGate(((ONE, OneLeaf()), (Fraction(0), VarLeaf(0)))))
    with pytest.raises(WellFormednessError, match="^edge weight 0 is not allowed$"):
        ir.validate(bad)
    # an empty gate is found before a zero weight to its right
    bad = F(SumGate(((ONE, SumGate(())), (Fraction(0), VarLeaf(1)))))
    with pytest.raises(WellFormednessError, match="^edge weight 0 is not allowed$"):
        ir.validate(bad)
    bad = F(SumGate(((ONE, ProdGate(())), (ONE, ProdGate(((ONE, OneLeaf()),))))))
    with pytest.raises(WellFormednessError, match="^gate with fan-in 0$"):
        ir.validate(bad)
