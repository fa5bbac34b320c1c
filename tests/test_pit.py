from fractions import Fraction

import pytest

from lowdepth import ir, pit, poly, sexpr
from lowdepth.errors import ModeMismatch
from lowdepth.pit import PITConfig, check_witness, pit_equal


def test_self_comparison_any_seed():
    f = sexpr.parse("(+ x1 (* x2 x3))")
    for seed in range(5):
        assert pit_equal(f, f, PITConfig(trials=4, seed=seed)).verdict == "equal-probably"


def test_noncommutative_order_detected_across_seeds():
    a = sexpr.parse("mode: noncommutative\n(* x1 x2)")
    b = sexpr.parse("mode: noncommutative\n(* x2 x1)")
    for seed in range(20):
        res = pit_equal(a, b, PITConfig(trials=3, matrix_dim=3, seed=seed))
        assert res.verdict == "unequal"
        assert res.witness is not None
        assert check_witness(a, b, res.witness)


def test_scalar_witness_replay():
    a = sexpr.parse("(+ x1 x2)")
    b = sexpr.parse("(+ x1 (scale 2 x2))")
    res = pit_equal(a, b, PITConfig(trials=8, seed=3))
    assert res.verdict == "unequal"
    assert res.witness["kind"] == "scalar"
    assert check_witness(a, b, res.witness)


def test_commutative_reordering_passes():
    a = sexpr.parse("(* x1 x2)")
    b = sexpr.parse("(* x2 x1)")
    assert pit_equal(a, b, PITConfig(trials=6, seed=0)).verdict == "equal-probably"


def test_rational_scalars_reduce_mod_p():
    a = sexpr.parse("(+ (scale 1/2 x1) (scale 1/2 x1))")
    b = sexpr.parse("(+ x1)")
    assert pit_equal(a, b, PITConfig(trials=4, seed=0)).verdict == "equal-probably"


def test_mode_mismatch():
    a = sexpr.parse("(+ x1 x2)")
    b = sexpr.parse("mode: noncommutative\n(+ x1 x2)")
    with pytest.raises(ModeMismatch):
        pit_equal(a, b)


def test_matrix_dim_too_small_rejected():
    a = sexpr.parse("mode: noncommutative\n(* x1 x2 x3)")
    with pytest.raises(ValueError):
        pit_equal(a, a, PITConfig(matrix_dim=2))


def test_agrees_with_expansion_oracle(corpus_comm):
    for f in corpus_comm[:8]:
        from lowdepth.transforms import binarize

        g = binarize(f)
        assert poly.equal_expand(f, g)
        assert pit_equal(f, g, PITConfig(trials=5, seed=1)).verdict == "equal-probably"


def test_per_trial_error_bound_reported():
    f = sexpr.parse("(* x1 x2 x3)")
    res = pit_equal(f, f, PITConfig(trials=2, seed=0))
    assert res.per_trial_error is not None
    assert float(res.per_trial_error) < 1e-15  # d/p with p = 2^61 - 1


def test_prime_floor_enforced():
    f = sexpr.parse("(* x1 x2 x3 x4)")
    with pytest.raises(ValueError) as exc:
        pit_equal(f, f, PITConfig(trials=1, prime=17))  # 2*d*s = 32 > 17
    assert str(exc.value) == (
        "prime 17 below the heuristic floor 2 * degree * size = 32; error bounds would be weak"
    )
    assert pit_equal(f, f, PITConfig(trials=1, prime=101)).equal
    g = sexpr.parse("field: Fp:7\n(* x1 x2 x3 x4)")
    with pytest.raises(ValueError) as exc:
        pit_equal(g, g, PITConfig(trials=1))
    assert str(exc.value) == "field Fp:7 too small to test degree 4"


def test_native_prime_field_evaluation():
    # equality must be judged in the formula's own field: 50 + 50 = 3 mod 97
    a = sexpr.parse("field: Fp:97\n(+ (scale 50 x1) (scale 50 x1))")
    b = sexpr.parse("field: Fp:97\n(+ (scale 3 x1))")
    assert poly.equal_expand(a, b)
    res = pit_equal(a, b, PITConfig(trials=6, seed=0))
    assert res.verdict == "equal-probably"
    c = sexpr.parse("field: Fp:97\n(+ (scale 4 x1))")
    assert pit_equal(a, c, PITConfig(trials=6, seed=0)).verdict == "unequal"


def test_field_mismatch_rejected():
    a = sexpr.parse("(+ x1 x2)")
    b = sexpr.parse("field: Fp:97\n(+ x1 x2)")
    with pytest.raises(ModeMismatch):
        pit_equal(a, b)


def test_noncommutative_error_bound_is_degree_over_prime():
    a = sexpr.parse("mode: noncommutative\n(* x1 (+ x2 x3) x1)")
    b = sexpr.parse("mode: noncommutative\n(+ (* x1 x2 x1) (* x1 x3 x1))")
    res = pit_equal(a, b, PITConfig(trials=4, seed=0))
    assert res.verdict == "equal-probably"
    assert res.per_trial_error == Fraction(3, pit.MERSENNE61)


def test_inhomogeneous_noncommutative_pairs_match_expansion():
    unequal = (
        sexpr.parse("mode: noncommutative\n(+ x1 (* x1 x2))"),
        sexpr.parse("mode: noncommutative\n(+ x1 (* x2 x1))"),
    )
    square = (
        sexpr.parse("mode: noncommutative\n(* (+ x1 x2) (+ x1 x2))"),
        sexpr.parse("mode: noncommutative\n(+ (* x1 x1) (* x1 x2) (* x2 x1) (* x2 x2))"),
    )
    assert not poly.equal_expand(*unequal)
    assert poly.equal_expand(*square)
    for seed in range(5):
        res = pit_equal(*unequal, PITConfig(trials=3, seed=seed))
        assert res.verdict == "unequal"
        assert res.witness["kind"] == "superdiagonal"
        assert res.witness["entry"] == [0, 2]  # the degree-2 part differs
        assert check_witness(*unequal, res.witness)
        assert pit_equal(*square, PITConfig(trials=3, seed=seed)).equal


@pytest.mark.parametrize("mode", ["commutative", "noncommutative"])
def test_shared_node_matches_tree_copy(mode):
    shared = sexpr.parse("(+ x1 (* x2 x3))").root
    dag = ir.ProdGate(((Fraction(2), shared), (Fraction(1), ir.VarLeaf(4)), (Fraction(1), shared)))
    root = ir.SumGate(((Fraction(1), dag), (Fraction(3), shared)))
    a = ir.Formula(root, commutative=mode == "commutative")
    tree = a.with_root(ir.tree_materialize(root))
    assert poly.equal_expand(a, tree)
    assert pit_equal(a, tree, PITConfig(trials=4, seed=2)).equal
    other = a.with_root(ir.SumGate(((Fraction(1), dag), (Fraction(4), shared))))
    res = pit_equal(a, other, PITConfig(trials=4, seed=2))
    assert res.verdict == "unequal"
    assert check_witness(a, other, res.witness)


@pytest.mark.parametrize("lhs, rhs, seed, trials_run, witness", [
    ("(+ x1 x2)", "(+ x1 (scale 2 x2))", 3, 1, {
        "kind": "scalar",
        "prime": 2305843009213693951,
        "trial": 0,
        "trial_seed": 3000009,
        "point": {"1": 2285534578677817298, "2": 1323347817011036218},
        "lhs": 1303039386475159565,
        "rhs": 320544194272501832,
    }),
    # 2x^3 = 2x at x in {0, 1, 6} mod 7, so trials 0 to 4 agree
    ("field: Fp:7\n(* (scale 2 x1) x1 x1)", "field: Fp:7\n(+ (scale 2 x1))", 0, 6, {
        "kind": "scalar",
        "prime": 7,
        "trial": 5,
        "trial_seed": 5,
        "point": {"1": 4},
        "lhs": 2,
        "rhs": 1,
    }),
])
def test_scalar_witness_pinned(lhs, rhs, seed, trials_run, witness):
    # recorded from the trial-by-trial evaluator; batching must not move it
    a, b = sexpr.parse(lhs), sexpr.parse(rhs)
    res = pit_equal(a, b, PITConfig(trials=8, seed=seed))
    assert res.trials_run == trials_run
    assert res.witness == witness


def test_dense_matrix_witness_kind_rejected():
    a = sexpr.parse("mode: noncommutative\n(* x1 x2)")
    b = sexpr.parse("mode: noncommutative\n(* x2 x1)")
    witness = {
        "kind": "matrix",
        "prime": pit.MERSENNE61,
        "trial": 0,
        "trial_seed": 0,
        "dim": 3,
        "entry": [0, 2],
        "lhs": 1,
        "rhs": 2,
    }
    with pytest.raises(ValueError, match="unknown witness kind"):
        check_witness(a, b, witness)


def test_shape_matches_metrics_and_variables(corpus_both):
    shared = sexpr.parse("(* x1 x2)").root
    dag = ir.Formula(ir.SumGate(((Fraction(1), shared), (Fraction(2), shared))))
    for f in corpus_both[:20] + [dag]:
        order, degree, size, variables = pit._shape(f.root)
        m = ir.metrics(f)
        assert (degree, size, variables) == (m.syn_degree, m.size, ir.variables(f))
        assert order == list(ir.iter_postorder(f.root))
    assert pit._shape(dag.root)[2] == 4  # positions, not distinct nodes
