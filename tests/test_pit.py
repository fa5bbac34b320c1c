import random
from fractions import Fraction

import pytest

import reference
from lowdepth import ir, pit, poly, sexpr, transforms
from lowdepth.bench import gen_comb, gen_random_homogeneous
from lowdepth.errors import BudgetExceeded, ModeMismatch
from lowdepth.fields import QQ, PrimeField
from lowdepth.hardpoly import HardParams, gen_hard
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
    tree = a.with_root(reference.tree_materialize(root))
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


def _dag():
    shared = sexpr.parse("(* x1 x2)").root
    return ir.Formula(ir.SumGate(((Fraction(1), shared), (Fraction(2), shared))))


def test_shape_matches_metrics_and_variables(corpus_both):
    dag = _dag()
    for f in corpus_both[:20] + [dag]:
        prog = ir.compile_program(f.root, [])
        m = ir.metrics(f)
        assert (prog.degree, prog.size, prog.variables) == (m.syn_degree, m.size, ir.variables(f))
        # the program lists the distinct nodes in postorder, each gate
        # reading its children's positions
        order = ir.postorder(f.root)
        at = {id(node): i for i, node in enumerate(order)}
        assert len(prog.kinds) == len(prog.args) == len(prog.slots) == len(order)
        for node, kind, arg in zip(order, prog.kinds, prog.args):
            if isinstance(node, ir.VarLeaf):
                assert (kind, arg) == (ir._VAR, node.var)
            elif isinstance(node, ir.OneLeaf):
                assert kind == ir._ONE
            else:
                assert kind == (ir._SUM if isinstance(node, ir.SumGate) else ir._PROD)
                assert list(arg) == [at[id(child)] for _, child in node.children]
    scalars: list = []
    prog = ir.compile_program(dag.root, scalars)
    assert prog.size == 4  # positions, not distinct nodes
    assert prog.uses == [1, 1, 2, 0]
    # the unit weight takes slot 0 and a gate of unit weights keeps no slots
    assert scalars == [1, 2]
    assert prog.slots == [None, None, None, [0, 1]]


#: Weighted gates of fan-in 2 and 3, with unit and non-unit weights mixed;
#: over Fp:97 the weights 2/7 and -3/5 become 42 and -3.
_WEIGHTED = [
    "(+ (scale 3 x1) x2)",
    "(+ x1 (scale 2/7 (* x2 x3)))",
    "(+ (scale 2/7 x1) (scale -3/5 x2))",
    "(* (scale -3/5 x1) x2)",
    "(* x1 (scale 2/7 (+ x2 1)))",
    "(* (scale 2/7 x1) (scale -3/5 (+ x2 1)))",
    "(+ (scale 2/7 x1) x2 (scale -3/5 (* x1 x3)))",
    "(+ (scale 4 x1) (scale 2/7 x2) (scale -3/5 x3))",
    "(* x1 (scale 4 x2) (scale -3/5 x3))",
    "(* (scale 2/7 x1) (scale 4 x2) (scale -3/5 (+ x3 (scale 6 x1))))",
    "(+ (* (scale 2 x1) (+ x2 (scale 3 x3))) (scale -1 (* x1 x1 (scale 5 x2))))",
]


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_compiled_values_match_reference(corpus_both, seed):
    rational = ir.Formula(ir.ProdGate(((Fraction(2, 7), _dag().root), (Fraction(-3, 5), ir.VarLeaf(3)))))
    # a comb is all fan-in-2 gates of unit weight, the scalar mode's fast case
    extra = [_dag(), rational, gen_comb(41), sexpr.parse("(* (+ x1 1) (+ x2 x3 x1) x1)")]
    for text in _WEIGHTED:
        extra.append(sexpr.parse(text))
        extra.append(sexpr.parse("field: Fp:97\n" + text.replace("2/7", "42").replace("-3/5", "-3")))
    # the shape of the benchmark's wide input: weights 1..9 on almost every edge
    extra += [gen_random_homogeneous(10, 16, 500, seed=0, field=field) for field in (QQ, PrimeField(97))]
    for f in corpus_both[:20] + extra:
        p = f.field.p if isinstance(f.field, PrimeField) else pit.MERSENNE61
        order, degree, _, variables = reference.shape(f.root)
        vs = sorted(variables)
        seeds = [seed * 1_000_003 + t for t in range(4)]
        scalars: list = []
        prog = ir.compile_program(f.root, scalars)
        res = pit._residues(scalars, p)
        for m in (1, degree + 1):  # scalar mode, then matrix mode
            if m == 1:
                leaves = reference.scalar_leaves(seeds, vs, p)
            else:
                leaves = reference.superdiagonal_leaves(seeds, vs, m, p)
            cols = pit._columns(seeds, vs, max(m - 1, 1), p)
            diag = 0 if m == 1 else 1
            assert {v: list(xs) for v, xs in cols.items()} == {v: leaf[diag] for v, leaf in leaves.items()}
            expected = reference.evaluate(order, leaves, m, len(seeds), p)
            assert pit._run(prog, cols, diag, res, m, len(seeds), p) == expected


@pytest.mark.parametrize("lhs, rhs, seed, trials_run, witness", [
    ("(+ (* x1 x2 x3) (scale 2 (* x3 x1)))", "(+ (* x1 x3 x2) (scale 2 (* x3 x1)))", 5, 1, {
        "kind": "superdiagonal",
        "prime": 2305843009213693951,
        "trial": 0,
        "trial_seed": 5000015,
        "dim": 4,
        "entry": [0, 3],
        "lhs": 1072276285462124618,
        "rhs": 1762648661071138149,
    }),
    # x1 x2 = x2 x1 at trials 0 and 1 mod 7
    ("field: Fp:7\n(* x1 x2)", "field: Fp:7\n(* x2 x1)", 6, 3, {
        "kind": "superdiagonal",
        "prime": 7,
        "trial": 2,
        "trial_seed": 6000020,
        "dim": 3,
        "entry": [0, 2],
        "lhs": 5,
        "rhs": 1,
    }),
])
def test_superdiagonal_witness_pinned(lhs, rhs, seed, trials_run, witness):
    a = sexpr.parse("mode: noncommutative\n" + lhs)
    b = sexpr.parse("mode: noncommutative\n" + rhs)
    res = pit_equal(a, b, PITConfig(trials=8, seed=seed))
    assert res.trials_run == trials_run
    assert res.witness == witness
    assert check_witness(a, b, res.witness)


def test_scalar_witness_pinned_on_rational_dag():
    # a non-unit rational edge inside a node that the product reads twice
    shared = ir.SumGate(((Fraction(1), ir.VarLeaf(1)), (Fraction(3, 5), ir.VarLeaf(2))))
    root = ir.ProdGate(((Fraction(2, 7), shared), (Fraction(1), shared), (Fraction(1), ir.VarLeaf(3))))
    copy = reference.tree_materialize(shared)
    other = ir.ProdGate(((Fraction(2, 7), shared), (Fraction(1), copy), (Fraction(-1), ir.VarLeaf(3))))
    a, b = ir.Formula(root), ir.Formula(other)
    res = pit_equal(a, b, PITConfig(trials=8, seed=11))
    assert res.trials_run == 1
    assert res.witness == {
        "kind": "scalar",
        "prime": 2305843009213693951,
        "trial": 0,
        "trial_seed": 11000033,
        "point": {"1": 1750975959517608049, "2": 795992145707998493, "3": 150483415162753106},
        "lhs": 963867169415302740,
        "rhs": 1341975839798391211,
    }
    assert check_witness(a, b, res.witness)


def _drawn(trial_seed, nvars, per_var, p):
    """randrange(p) draws of one trial: per_var for each variable in id order."""
    rng = random.Random(trial_seed)
    return [[rng.randrange(p) for _ in range(per_var)] for _ in range(nvars)]


@pytest.mark.parametrize("p", [7, 97, pit.MERSENNE61])
def test_points_drawn_like_randrange(p):
    # over x1 and x2, lhs - rhs = -r_2 and 2 lhs - rhs = r_1, so each witness
    # shows the draws of its trial; the trials before it drew r_2 = 0
    header = "" if p == pit.MERSENNE61 else f"field: Fp:{p}\n"
    for mode in ("", "mode: noncommutative\n"):
        a = sexpr.parse(mode + header + "(+ x1 x2)")
        b = sexpr.parse(mode + header + "(+ x1 (scale 2 x2))")
        for seed in range(12):
            cfg = PITConfig(trials=6, seed=seed, matrix_dim=None if not mode else 3)
            expected = None
            for t in range(cfg.trials):
                trial_seed = seed * 1_000_003 + t
                if not mode:
                    (x1,), (x2,) = _drawn(trial_seed, 2, 1, p)
                    if x2:
                        expected = {"kind": "scalar", "point": {"1": x1, "2": x2}}
                else:
                    r1, r2 = _drawn(trial_seed, 2, 2, p)
                    j = next((j for j in range(2) if r2[j]), None)
                    if j is not None:
                        expected = {"kind": "superdiagonal", "dim": 3, "entry": [j, j + 1]}
                        x1, x2 = r1[j], r2[j]
                if expected is not None:
                    expected.update(prime=p, trial=t, trial_seed=trial_seed,
                                    lhs=(x1 + x2) % p, rhs=(x1 + 2 * x2) % p)
                    break
            res = pit_equal(a, b, cfg)
            assert res.witness == expected
            assert res.trials_run == (cfg.trials if expected is None else expected["trial"] + 1)


def test_error_precedence():
    # 1/17 vanishes mod 17, but the prime floor (2 * 4 * 4 = 32) fails first
    f = sexpr.parse("(* x1 x2 x3 (+ (scale 1/17 x4)))")
    with pytest.raises(ValueError) as exc:
        pit_equal(f, f, PITConfig(trials=1, prime=17))
    assert str(exc.value) == (
        "prime 17 below the heuristic floor 2 * degree * size = 32; error bounds would be weak"
    )
    # above the floor the vanishing denominator is reported
    g = sexpr.parse("(+ (scale 1/37 x1) x2)")
    with pytest.raises(ValueError) as exc:
        pit_equal(g, g, PITConfig(trials=1, prime=37))
    assert str(exc.value) == "edge scalar 1/37: denominator 37 vanishes mod 37; choose another prime"
    # the matrix dimension is checked before any scalar is reduced
    h = sexpr.parse("mode: noncommutative\n(* x1 x2 (+ (scale 1/37 x3)))")
    with pytest.raises(ValueError) as exc:
        pit_equal(h, h, PITConfig(trials=1, prime=37, matrix_dim=2))
    assert str(exc.value) == "matrix dimension 2 below degree bound 4"
    # mode and field mismatches come before everything else
    nc = sexpr.parse("mode: noncommutative\n(* x1 x2 x3 (+ (scale 1/17 x4)))")
    with pytest.raises(ModeMismatch):
        pit_equal(f, nc, PITConfig(trials=1, prime=17))
    fp = sexpr.parse("field: Fp:5\n(* x1 x2 x3 x4)")
    with pytest.raises(ModeMismatch, match="field mismatch: Q vs Fp:5"):
        pit_equal(f, fp, PITConfig(trials=1, prime=17))


def test_config_rejects_negative_trials_and_composite_moduli():
    for bad in ({"trials": -1}, {"prime": 12}, {"prime": 1}, {"prime": 1000000}):
        with pytest.raises(ValueError):
            PITConfig(**bad)
    assert PITConfig(prime=7).prime == 7  # zero trials stay allowed: see below


@pytest.mark.parametrize("header", ["", "mode: noncommutative\n"])
def test_zero_trials_and_constant_formulas(header):
    a = sexpr.parse(header + "(+ x1 (* x2 x3))")
    b = sexpr.parse(header + "(+ x1 (* x3 x2) x4)")
    res = pit_equal(a, b, PITConfig(trials=0))
    assert (res.verdict, res.trials_run, res.witness) == ("equal-probably", 0, None)
    # no variables: the constants differ in every trial, at entry (0, 0)
    res = pit_equal(sexpr.parse(header + "(+ 1 1)"), sexpr.parse(header + "(+ 1)"), PITConfig(trials=2))
    assert (res.trials_run, res.witness["lhs"], res.witness["rhs"]) == (1, 2, 1)
    assert res.witness.get("point", {}) == {} and res.witness.get("entry", [0, 0]) == [0, 0]


def test_check_witness_rejects_witnesses_that_do_not_fit_the_pair():
    # 8 x1 and x1 are equal over Fp:7; a scalar witness taken mod 11 separates them
    x1 = ir.VarLeaf(1)
    eight, one = (ir.SumGate(((c, x1),)) for c in (8, 1))
    res = pit_equal(ir.Formula(eight), ir.Formula(one), PITConfig(trials=1, prime=11))
    assert res.witness["prime"] == 11
    assert check_witness(ir.Formula(eight), ir.Formula(one), res.witness)
    f7 = PrimeField(7)
    a, b = ir.Formula(eight, field=f7), ir.Formula(one, field=f7)
    assert pit_equal(a, b, PITConfig(trials=3)).equal
    with pytest.raises(ValueError, match="witness prime 11 is not the prime of Fp:7"):
        check_witness(a, b, res.witness)
    with pytest.raises(ModeMismatch, match="field mismatch: Fp:7 vs Q"):
        check_witness(a, ir.Formula(one), res.witness)
    # a superdiagonal witness of x1 x2 != x2 x1 does not apply to commuting variables
    nc = [sexpr.parse("mode: noncommutative\n" + t) for t in ("(* x1 x2)", "(* x2 x1)")]
    res = pit_equal(*nc, PITConfig(trials=2))
    assert res.witness["kind"] == "superdiagonal" and check_witness(*nc, res.witness)
    comm = [sexpr.parse(t) for t in ("(* x1 x2)", "(* x2 x1)")]
    assert pit_equal(*comm).equal
    with pytest.raises(ValueError, match="a superdiagonal witness does not fit commutative formulas"):
        check_witness(*comm, res.witness)
    with pytest.raises(ModeMismatch, match="different commutativity modes"):
        check_witness(nc[0], comm[1], res.witness)
    # and a scalar witness does not fit non-commutative formulas
    scalar = pit_equal(sexpr.parse("(* x1 x2)"), sexpr.parse("(* x1 x1)")).witness
    with pytest.raises(ValueError, match="a scalar witness does not fit non-commutative formulas"):
        check_witness(*nc, scalar)


def test_wide_shaped_pair_verdicts_pinned():
    # the benchmark's wide op in small: a homogeneous reduction whose check
    # goes over the expansion budget, so auto decides by scalar PIT
    f = gen_random_homogeneous(10, 16, 600, seed=0)
    out = transforms.depth_reduce_homogeneous(f)
    with pytest.raises(BudgetExceeded):
        poly.equal_expand(f, out, 1000)
    (c, child), *rest = out.root.children
    doubled = out.with_root(type(out.root)(((2 * c, child), *rest)))
    cfg = PITConfig(trials=20, seed=7)
    assert pit.verify(f, out, "auto", 1000, cfg) == ("equal-probably", "pit", None)
    assert pit_equal(f, out, cfg).trials_run == 20
    point = [348931329217543998, 1825780902574124075, 1464864499101617251, 1343279262226069011,
             551294302189064261, 1182213613024026174, 380864503201987935, 1252370724956109752,
             1501463725549792450, 1404453534879291992]
    assert pit.verify(f, doubled, "auto", 1000, cfg) == ("unequal", "pit", {
        "kind": "scalar",
        "prime": 2305843009213693951,
        "trial": 0,
        "trial_seed": 7000021,
        "point": {str(v): x for v, x in enumerate(point)},
        "lhs": 2049287421644148973,
        "rhs": 124563102822051533,
    })
    assert pit_equal(f, doubled, cfg).trials_run == 1


# ---------------------------------------------------------------------------
# matrix mode by lowering to a cell program
# ---------------------------------------------------------------------------

def _shares(prog: ir.Program) -> bool:
    return any(u > 1 for u in prog.uses)


def _reads(cells: ir.Program, roots: dict) -> list[int]:
    """The reads of each cell by the cells after it and by the roots."""
    reads = [0] * len(cells.kinds)
    for kind, arg in zip(cells.kinds, cells.args):
        if kind >= ir._SUM:
            for c in arg:
                reads[c] += 1
    for c in roots.values():
        reads[c] += 1
    return reads


def _lowering_inputs(field) -> list:
    """Non-commutative formulas over field: pass outputs that share nodes,
    and formulas of mixed degree, some with constants."""
    header = f"mode: noncommutative\nfield: {field.name}\n"
    out = [sexpr.parse(header + text) for text in (
        "(+ x1 (* x1 x2))", "(+ x1 (* x2 x1))", "(* x1 (+ x2 1))", "(* (+ x2 1) x1)",
        "(+ (* x1 (+ x2 (* x3 x1)) x2) (scale 3 (* x2 (+ 1 x1))) x3)",
        "(* (+ x1 (* x2 x2)) (+ 1 x3) (+ x2 (* x1 x3 x1)))",
    )]
    one, two = field.one(), field.normalize(2)
    for seed in range(2):
        f = gen_random_homogeneous(5, 4, 120, seed=seed, commutative=False, field=field)
        # f + 2 x1 (f + 1): degrees 4 and 5, reading the one node f twice
        mix = f.with_root(ir.SumGate(((one, f.root), (two, ir.ProdGate((
            (one, ir.VarLeaf(1)), (one, ir.SumGate(((one, f.root), (one, ir.OneLeaf()))))))))))
        bb = transforms.depth_reduce_bb(mix)
        out += [mix, bb, transforms.depth_reduce_main(transforms.binarize(mix), "auto"),
                transforms.depth_reduce_homogeneous(f)]
        out += [c for c in transforms.homogenize(bb, 5) if c is not None]
    return out


@pytest.mark.parametrize("p", [7, 97])
def test_lowered_matrix_mode_matches_reference(p):
    field = PrimeField(p)
    formulas = _lowering_inputs(field)
    shared = mixed = 0
    for f in formulas:
        order, degree, _, variables = reference.shape(f.root)
        scalars: list = []
        prog = ir.compile_program(f.root, scalars)
        shared += _shares(prog)
        mixed += not ir.is_homogeneous(f)
        res = pit._residues(scalars, p)
        vs, seeds = sorted(variables), [3, 1_000_004, 77]
        d = max(degree, 1)
        for m in (d + 1, d + 2, d + 4):
            leaves = reference.superdiagonal_leaves(seeds, vs, m, p)
            cols = pit._columns(seeds, vs, m - 1, p)
            expected = reference.evaluate(order, leaves, m, len(seeds), p)
            assert pit._run(prog, cols, 1, res, m, len(seeds), p) == expected
    assert shared >= 6 and mixed >= 12


def _reference_witness(a, b, cfg):
    """(trials run, witness) of a non-commutative pit_equal over Fp, found
    from reference.evaluate's values: the first trial that differs, and in
    it the first differing entry in row-major order."""
    p = a.field.p
    (order_a, da, _, va), (order_b, db, _, vb) = reference.shape(a.root), reference.shape(b.root)
    m = cfg.matrix_dim or max(da, db, 1) + 1
    vs = sorted(va | vb)
    for t in range(cfg.trials):
        seed = cfg.seed * 1_000_003 + t
        leaves = reference.superdiagonal_leaves([seed], vs, m, p)
        xa, xb = (reference.evaluate(order, leaves, m, 1, p) for order in (order_a, order_b))
        for i in range(m):
            for j in range(i, m):
                x, y = (val[j - i][i] if j - i in val else 0 for val in (xa, xb))
                if x != y:
                    return t + 1, {"kind": "superdiagonal", "prime": p, "trial": t, "trial_seed": seed,
                                   "dim": m, "entry": [i, j], "lhs": x, "rhs": y}
    return cfg.trials, None


def test_witness_in_a_lower_row_matches_reference():
    # at dim 4 the degree-2 parts sit on entries (0, 2) and (1, 3); under
    # seed 5 they agree at (0, 2) mod 7, so the witness is in row 1
    header = "mode: noncommutative\nfield: Fp:7\n"
    a, b = sexpr.parse(header + "(* x1 (+ x2 1))"), sexpr.parse(header + "(* (+ x2 1) x1)")
    cfg = PITConfig(trials=8, seed=5, matrix_dim=4)
    res = pit_equal(a, b, cfg)
    assert (res.trials_run, res.witness) == _reference_witness(a, b, cfg)
    assert res.witness == {"kind": "superdiagonal", "prime": 7, "trial": 0, "trial_seed": 5000015,
                           "dim": 4, "entry": [1, 3], "lhs": 4, "rhs": 1}
    assert check_witness(a, b, res.witness)
    # and on the mixed-degree inputs, at several dimensions and seeds
    inputs = _lowering_inputs(PrimeField(97))[:6]
    for lhs, rhs in zip(inputs[::2], inputs[1::2]):
        d = max(ir.syn_degree(lhs), ir.syn_degree(rhs))
        for dim in (d + 1, d + 2, d + 4):
            for seed in range(4):
                cfg = PITConfig(trials=3, seed=seed, matrix_dim=dim)
                res = pit_equal(lhs, rhs, cfg)
                assert (res.trials_run, res.witness) == _reference_witness(lhs, rhs, cfg)


def test_cell_program_of_a_homogeneous_program_has_one_cell_per_position():
    # the benchmark's non-commutative wide input, its reduction, and H(2, 3)
    wide = gen_random_homogeneous(8, 8, 1000, seed=0, commutative=False)
    hard = gen_hard(HardParams(k=2, r=3), commutative=False)
    for f in (wide, transforms.depth_reduce_homogeneous(wide), hard):
        assert ir.is_homogeneous(f)
        prog = ir.compile_program(f.root, [])
        d = prog.degree
        cells, roots = pit._lower(prog, d + 1)
        assert len(cells.kinds) == len(prog.kinds) and list(roots) == [(0, d)]
        # one more row asks for one more entry of the root, and at most two
        # cells per position
        cells, roots = pit._lower(prog, d + 2)
        assert list(roots) == [(0, d), (1, d)] and len(cells.kinds) <= 2 * len(prog.kinds)


@pytest.mark.parametrize("lhs, rhs, entry", [
    ("(+ x1 (* x1 x2) (* x2 x1 x2))", "(+ x1 (* x2 x1) (* x2 x1 x2))", (0, 2)),
    # the root's cell (0, 2), which the entry does not demand, reads x1 too
    ("(* x1 (+ x2 (* x2 x1)))", "(* x1 (+ x2 (* x1 x2)))", (0, 3)),
])
def test_check_witness_lowers_one_root_cell(lhs, rhs, entry):
    header = "mode: noncommutative\n"
    a, b = sexpr.parse(header + lhs), sexpr.parse(header + rhs)
    cfg = PITConfig(trials=3, seed=1, matrix_dim=5)
    w = pit_equal(a, b, cfg).witness
    assert w["entry"] == list(entry) and check_witness(a, b, w)
    (prog_a, prog_b), scalars = poly._compile(a, b)
    res, p, m = pit._residues(scalars, w["prime"]), w["prime"], w["dim"]
    cols = pit._columns([w["trial_seed"]], [1, 2], m - 1, p)
    for prog, side in ((prog_a, "lhs"), (prog_b, "rhs")):
        cells, roots = pit._lower(prog, m, entry)
        assert list(roots) == [(0, entry[1])]
        assert len(cells.kinds) < len(pit._lower(prog, m)[0].kinds)
        assert pit._run_cells(cells, roots, cols, res, 1, p) == [[w[side]]]
        # every cell is read, and its use count is its reads, so that the
        # evaluator drops each value after its last read
        assert 0 not in cells.uses and cells.uses == _reads(cells, roots)
        # an entry the root does not hold lowers no root cell
        assert pit._lower(prog, m, (1, 1))[1] == {} and pit._lower(prog, m, (0, m))[1] == {}


def test_product_of_inhomogeneous_factors_folds_left():
    # k factors (x1 + 1): diagonal j of the product has C(k, j) splits, and
    # folding the splits that meet after each factor into one sum cell keeps
    # the cells to a sum and a product per row, factor and diagonal
    k = 12
    f = sexpr.parse("mode: noncommutative\n(* " + " ".join(["(+ x1 1)"] * k) + ")")
    prog = ir.compile_program(f.root, [])
    cells, roots = pit._lower(prog, k + 1)
    assert len(roots) == (k + 1) * (k + 2) // 2  # every entry on or above the diagonal
    assert len(cells.kinds) <= 2 * k * (k + 1) ** 2
    assert cells.uses == _reads(cells, roots)
