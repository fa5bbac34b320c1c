"""Property-based invariants over generated formulas."""

from fractions import Fraction

from hypothesis import given, settings, strategies as st

import reference

from lowdepth import ir, poly, sexpr
from lowdepth import transforms as tr
from lowdepth.fields import QQ
from lowdepth.ir import Formula, OneLeaf, ProdGate, SumGate, VarLeaf

scalars = st.fractions(
    min_value=Fraction(-9), max_value=Fraction(9), max_denominator=7
).filter(lambda q: q != 0)


def _nodes(max_depth: int):
    leaf = st.builds(VarLeaf, st.integers(min_value=0, max_value=9))
    if max_depth == 0:
        return leaf
    child = _nodes(max_depth - 1)
    sum_child = st.tuples(scalars, st.one_of(child, st.just(OneLeaf())))
    prod_child = st.tuples(scalars, child)
    sums = st.builds(
        lambda kids: SumGate(tuple(kids)),
        st.lists(sum_child, min_size=1, max_size=3).filter(
            lambda kids: not all(isinstance(ch, OneLeaf) for _, ch in kids)
        ),
    )
    prods = st.builds(
        lambda kids: ProdGate(tuple(kids)),
        st.lists(prod_child, min_size=1, max_size=3),
    )
    return st.one_of(leaf, sums, prods)


formulas = st.builds(
    lambda root, comm: Formula(root=root, commutative=comm, field=QQ),
    _nodes(3),
    st.booleans(),
)


@settings(max_examples=120, deadline=None)
@given(formulas)
def test_roundtrip(f):
    ir.validate(f)
    assert sexpr.parse(sexpr.serialize(f)) == f


@settings(max_examples=80, deadline=None)
@given(formulas)
def test_parse_tree_sum_matches_expansion(f):
    if ir.count_parse_trees(f) <= 2000:
        assert reference.parse_tree_sum(f) == poly.expand(f)


@settings(max_examples=80, deadline=None)
@given(formulas)
def test_binarize_and_collapse_preserve_value(f):
    t = poly.expand(f)
    fb = tr.binarize(f)
    assert poly.expand(fb) == t
    assert ir.max_fanin(fb) <= 2 or ir.size(fb) <= 2
    fc = tr.collapse(f)
    assert poly.expand(fc) == t
    m = ir.metrics(fc)
    assert m.depth <= 2 * m.product_depth + 1


@settings(max_examples=60, deadline=None)
@given(formulas, st.integers(min_value=1, max_value=3))
def test_main_preserves_value_and_bounds(f, delta):
    fb = tr.binarize(f)
    m = ir.metrics(fb)
    if m.syn_degree == 0:
        return
    try:
        out = tr.depth_reduce_main(fb, delta)
    except ValueError:
        assert not poly.expand(fb).terms  # only the zero polynomial is refused
        return
    assert poly.expand(out) == poly.expand(f)
    mo = ir.metrics(out)
    assert mo.product_depth <= tr._phi(m.syn_degree, m.sum_depth, delta)
    assert mo.syn_degree <= m.syn_degree


@settings(max_examples=60, deadline=None)
@given(formulas)
def test_fanin2_preserves_value_and_size(f):
    out = tr.product_fanin_2(f)
    assert poly.expand(out) == poly.expand(f)
    assert ir.size(out) <= ir.size(f)
    for node in ir.postorder(out.root):
        if isinstance(node, ProdGate):
            assert len(node.children) == 2


@settings(max_examples=60, deadline=None)
@given(formulas)
def test_homogenize_components_sum_on_arbitrary_shapes(f):
    fb = tr.binarize(f)
    d = ir.syn_degree(fb)
    comps = tr.homogenize(fb, d)
    acc = reference.poly_zero(fb.commutative, fb.field)
    for comp in comps:
        if comp is not None:
            acc = reference.poly_add(acc, poly.expand(comp))
    assert acc == poly.expand(fb)


@settings(max_examples=50, deadline=None)
@given(formulas)
def test_split_reduction_on_arbitrary_shapes(f):
    try:
        out = tr.depth_reduce_bb(f, 1)
    except ValueError as exc:
        # only an all-constant cancellation may be refused
        assert "zero polynomial" in str(exc)
        return
    assert poly.expand(out) == poly.expand(f)
    out2 = tr.depth_reduce_nearlinear(f, 1)
    assert poly.expand(out2) == poly.expand(f)
