import random
from fractions import Fraction
from math import comb

import pytest

from lowdepth import ir, pit, poly, sexpr
from lowdepth import transforms as tr
from lowdepth.bench import gen_random_homogeneous
from lowdepth.errors import BudgetExceeded, ModeMismatch
from lowdepth.fields import PrimeField, QQ
from lowdepth.hardpoly import HardParams, encode_var, gen_hard
from lowdepth.ir import Formula, OneLeaf, SumGate
from lowdepth.poly import PolyTable

import reference
from reference import poly_add as add, poly_mul as mul, poly_scale as scale


def test_expand_hard_k1():
    # hand expansion of the two-monomial instance: x[1,1]x[2,1] + x[1,2]x[2,2]
    p = HardParams(k=1, r=2)
    f = gen_hard(p)
    v = lambda s, t: encode_var(p, (s,), (t,))
    expected = {
        tuple(sorted([(v(1, 1), 1), (v(2, 1), 1)])): Fraction(1),
        tuple(sorted([(v(1, 2), 1), (v(2, 2), 1)])): Fraction(1),
    }
    assert poly.expand(f).terms == expected


def test_expand_one_leaf():
    f = Formula(root=OneLeaf())
    assert poly.expand(f).terms == {(): Fraction(1)}


def test_expand_noncommutative_words():
    a = sexpr.parse("mode: noncommutative\n(* x1 x2)")
    b = sexpr.parse("mode: noncommutative\n(* x2 x1)")
    assert poly.expand(a).terms == {(1, 2): Fraction(1)}
    assert poly.expand(b).terms == {(2, 1): Fraction(1)}
    assert not poly.equal_expand(a, b)


def test_equal_expand_commutative():
    assert poly.equal_expand(sexpr.parse("(+ x1 x2)"), sexpr.parse("(+ x2 x1)"))


def test_equal_expand_mode_mismatch():
    a = sexpr.parse("(+ x1 x2)")
    b = sexpr.parse("mode: noncommutative\n(+ x1 x2)")
    with pytest.raises(ModeMismatch):
        poly.equal_expand(a, b)
    c = sexpr.parse("field: Fp:97\n(+ x1 x2)")
    with pytest.raises(ModeMismatch):
        poly.equal_expand(a, c)


def test_expand_budget():
    f = gen_hard(HardParams(k=2, r=3))
    with pytest.raises(BudgetExceeded):
        poly.expand(f, budget=10)


def test_key_degrees_bounded_by_syn_degree(corpus_both):
    for f in corpus_both[:10]:
        t = poly.expand(f)
        assert reference.max_total_degree(t) <= ir.syn_degree(f)


def test_gate_monomial_counts_hard():
    p = HardParams(k=2, r=2)
    f = gen_hard(p)
    counts = poly.gate_monomial_counts(f)
    assert counts[0] == 8  # r^(d-1) at the output gate
    table = reference.metrics_table(f)
    for gate_id, c in counts.items():
        if table[gate_id].size == 1 and table[gate_id].syn_degree == 1:
            assert c == 1  # leaves carry a single monomial
        assert c <= 2 ** (table[gate_id].syn_degree - 1) or table[gate_id].syn_degree == 0


def test_gate_monomial_counts_bound_r3():
    p = HardParams(k=2, r=3)
    f = gen_hard(p)
    counts = poly.gate_monomial_counts(f)
    table = reference.metrics_table(f)
    for gate_id, c in counts.items():
        d = table[gate_id].syn_degree
        if d >= 1:
            assert c <= 3 ** (d - 1)


# ---------------------------------------------------------------------------
# ring laws (randomized)
# ---------------------------------------------------------------------------

def _random_table(rng: random.Random, commutative: bool, field) -> PolyTable:
    terms = {}
    for _ in range(rng.randint(0, 6)):
        if commutative:
            n = rng.randint(0, 3)
            key = tuple(sorted({rng.randrange(4): rng.randint(1, 2) for _ in range(n)}.items()))
        else:
            key = tuple(rng.randrange(4) for _ in range(rng.randint(0, 3)))
        coeff = field.normalize(Fraction(rng.randint(-5, 5)))
        if not field.is_zero(coeff):
            terms[key] = coeff
    return PolyTable(commutative, field, terms)


@pytest.mark.parametrize("commutative", [True, False])
@pytest.mark.parametrize("field", [QQ, PrimeField(10007)])
def test_polytable_ring_laws(commutative, field):
    rng = random.Random(99)
    for _ in range(60):
        a = _random_table(rng, commutative, field)
        b = _random_table(rng, commutative, field)
        c = _random_table(rng, commutative, field)
        assert add(a, b) == add(b, a)
        assert add(add(a, b), c) == add(a, add(b, c))
        assert mul(mul(a, b), c) == mul(a, mul(b, c))
        assert mul(a, add(b, c)) == add(mul(a, b), mul(a, c))
        assert mul(add(b, c), a) == add(mul(b, a), mul(c, a))
        if commutative:
            assert mul(a, b) == mul(b, a)


def test_expand_distributes_over_constructors(corpus_both):
    # expand(sum) = sum of scaled child tables; expand(prod) = ordered product
    for f in corpus_both[:6]:
        root = f.root
        if not ir.is_gate(root):
            continue
        whole = poly.expand(f)
        parts = [scale(poly.expand(f.with_root(ch)), c) for c, ch in root.children]
        if isinstance(root, SumGate):
            acc = reference.poly_zero(f.commutative, f.field)
            for t in parts:
                acc = add(acc, t)
        else:
            acc = reference.poly_const(f.commutative, f.field, f.field.one())
            for t in parts:
                acc = mul(acc, t)
        assert acc == whole


def test_support_expand_monotone_detection():
    f = sexpr.parse("(+ (* x1 x2) (scale -1 (* x1 x2)) x3)")
    support = reference.support_expand(f)
    actual = frozenset(poly.expand(f).terms)
    assert actual < support  # the cancelled monomial is in the parse-tree support


# ---------------------------------------------------------------------------
# differential test: the expansion kernel against the gate-by-gate reference
# ---------------------------------------------------------------------------

def _reference_memo(formula: Formula, budget: int | None) -> dict:
    """Per-node tables from the reference ring operations, one gate at a time.

    The budget is checked after every outer row of a product (inside
    reference.poly_mul) and at the end of every gate.
    """
    comm, f = formula.commutative, formula.field

    def fn(node, vals):
        if isinstance(node, ir.VarLeaf):
            return reference.poly_var(comm, f, node.var)
        if isinstance(node, OneLeaf):
            return reference.poly_const(comm, f, f.one())
        if isinstance(node, SumGate):
            acc = reference.poly_zero(comm, f)
            for (c, _), sub in zip(node.children, vals):
                acc = add(acc, scale(sub, c))
        else:
            acc = reference.poly_const(comm, f, f.one())
            for (c, _), sub in zip(node.children, vals):
                acc = mul(acc, scale(sub, c), budget=budget)
        if budget is not None and acc.num_terms() > budget:
            raise BudgetExceeded(f"expansion table grew past {budget} entries")
        return acc

    return ir.node_attribute(formula.root, fn)


def _reweighted(f: Formula, rng: random.Random, weights: list, field=None) -> Formula:
    field = f.field if field is None else field

    def fn(node, vals):
        if isinstance(node, SumGate):
            return SumGate(tuple((rng.choice(weights), v) for v in vals))
        if isinstance(node, ir.ProdGate):
            return ir.ProdGate(tuple((rng.choice(weights), v) for v in vals))
        return node

    return Formula(ir.node_attribute(f.root, fn)[id(f.root)], f.commutative, field)


def _differential_inputs(corpus_comm, corpus_noncomm) -> list[Formula]:
    rng = random.Random(2024)
    q = [Fraction(1, 2), Fraction(-3, 4), Fraction(1), Fraction(-1), Fraction(2)]
    half, minus_half = Fraction(1, 2), Fraction(-1, 2)
    out = list(corpus_comm) + list(corpus_noncomm)
    for f in corpus_comm[:8] + corpus_noncomm[:8]:
        w = _reweighted(f, rng, q)
        one, x1 = Fraction(1), ir.VarLeaf(1)
        x1_w = ir.ProdGate(((one, x1), (one, w.root)))
        w_x1 = ir.ProdGate(((one, w.root), (one, x1)))
        # x1 * w - w * x1 cancels in commutative mode only; half w - half w
        # cancels through a child that appears twice in one gate
        out.append(w)
        out.append(w.with_root(SumGate((
            (one, x1_w),
            (Fraction(-1), w_x1),
            (half, w.root),
            (minus_half, w.root),
            (Fraction(-3, 4), _reweighted(f, rng, q).root),
        ))))
        out.append(w.with_root(ir.ProdGate(((half, w.root), (Fraction(-3, 4), w.root)))))
        out.append(_reweighted(f, rng, [1, 2, 3, 4, 5, 6], field=PrimeField(7)))
    for field, weights in ((QQ, [Fraction(1), Fraction(1)]), (QQ, [half, Fraction(1)]),
                           (PrimeField(7), [1, 1]), (PrimeField(7), [3, 5])):
        # (a x1 + b x2)^30: high powers of two variables; mod 7 most binomials vanish
        factors = tuple(
            (1, SumGate(((weights[0], ir.VarLeaf(1)), (weights[1], ir.VarLeaf(2))))) for _ in range(30)
        )
        out.append(Formula(ir.ProdGate(factors), True, field))
    # (x1 - x2)(y1 + y2) * sum_i x1^i x2^(7-i): the product's rows reach 16
    # terms before cancellation leaves x1^8 y1 + x1^8 y2 - x2^8 y1 - x2^8 y2
    x1, x2 = ir.VarLeaf(1), ir.VarLeaf(2)
    geometric = SumGate(tuple(
        (1, ir.ProdGate(tuple((1, x1) for _ in range(i)) + tuple((1, x2) for _ in range(7 - i))))
        for i in range(8)
    ))
    out.append(Formula(ir.ProdGate((
        (1, SumGate(((1, x1), (-1, x2)))),
        (1, SumGate(((1, ir.VarLeaf(3)), (1, ir.VarLeaf(4))))),
        (1, geometric),
    ))))
    # a first factor over budget 0 times a factor that cancels to zero
    out.append(sexpr.parse("(* x1 (+ x2 (scale -1 x2)))"))
    # mod 6, which PrimeField accepts although it is not prime, 2 * 3 = 0
    two_x1_x2 = SumGate(((2, x1), (1, x2)))
    out.append(Formula(ir.ProdGate(((3, two_x1_x2), (2, x2))), True, PrimeField(6)))
    out.append(Formula(SumGate(((3, two_x1_x2), (1, x1))), True, PrimeField(6)))
    # zero edge scalars, which only well-formedness checks reject
    zero = Fraction(0)
    out.append(Formula(SumGate(((1, x2), (zero, x1), (zero, x2)))))
    out.append(Formula(ir.ProdGate(((1, x1), (zero, x2), (1, x2)))))
    return out


def _assert_same_table(got: PolyTable, want: PolyTable) -> None:
    assert got == want
    assert list(got.terms) == list(want.terms)  # same key order
    assert [type(c) for c in got.terms.values()] == [type(c) for c in want.terms.values()]
    assert all(reference.is_canonical(got.field, c) for c in got.terms.values())


def test_expand_matches_gate_by_gate_reference(corpus_comm, corpus_noncomm):
    inputs = _differential_inputs(corpus_comm, corpus_noncomm)
    cancelled = 0
    for f in inputs:
        memo = _reference_memo(f, None)
        _assert_same_table(poly.expand(f, budget=None), memo[id(f.root)])
        assert poly.gate_monomial_counts(f, budget=None) == {
            i: memo[id(node)].num_terms() for i, node in enumerate(ir.gates_preorder(f))
        }
        cancelled += len(memo[id(f.root)].terms) < len(reference.support_expand(f, budget=None))
    assert cancelled >= 10  # the inputs do exercise cancellation


def test_expand_budget_matches_gate_by_gate_reference(corpus_comm, corpus_noncomm):
    inputs = _differential_inputs(corpus_comm, corpus_noncomm)
    raised = {0: 0, 10: 0, 100: 0, 1000: 0}
    for f in inputs:
        for budget in raised:
            try:
                want = _reference_memo(f, budget)[id(f.root)]
            except BudgetExceeded:
                with pytest.raises(BudgetExceeded):
                    poly.expand(f, budget=budget)
                raised[budget] += 1
                continue
            _assert_same_table(poly.expand(f, budget=budget), want)
    # both outcomes occur at every budget
    assert all(0 < n < len(inputs) for n in raised.values())


# ---------------------------------------------------------------------------
# edge cases of the monomial encoding
# ---------------------------------------------------------------------------

def _power(node: ir.Node, e: int) -> ir.ProdGate:
    """node^e as one product gate whose e children are the same node."""
    return ir.ProdGate(tuple((1, node) for _ in range(e)))


def _assert_matches_reference(f: Formula) -> None:
    memo = _reference_memo(f, None)
    _assert_same_table(poly.expand(f, budget=None), memo[id(f.root)])
    assert poly.gate_monomial_counts(f, budget=None) == {
        i: memo[id(node)].num_terms() for i, node in enumerate(ir.gates_preorder(f))
    }


@pytest.mark.parametrize("e", [15, 16, 255, 256])
def test_exponents_at_the_digit_boundary(e):
    x1, x2 = ir.VarLeaf(1), ir.VarLeaf(2)
    power = Formula(_power(x1, e))
    assert poly.expand(power).terms == {((1, e),): Fraction(1)}
    below, above = Formula(_power(x1, e - 1)), Formula(_power(x1, e + 1))
    for other in (below, above):
        assert not poly.equal_expand(power, other)
        assert not poly.equal_expand(other, power)
    assert poly.equal_expand(power, Formula(ir.ProdGate(((1, _power(x1, e - 1)), (1, x1)))))
    # (x1 + x2)^2 * x1^(e-2): every exponent up to e, summed coefficients
    mixed = Formula(ir.ProdGate((
        (1, _power(SumGate(((1, x1), (1, x2))), 2)),
        (1, _power(x1, e - 2)),
    )))
    assert poly.expand(mixed).terms == {
        ((1, e),): Fraction(1),
        ((1, e - 1), (2, 1)): Fraction(2),
        ((1, e - 2), (2, 2)): Fraction(1),
    }
    for f in (power, mixed, Formula(SumGate(((1, _power(x1, e)), (-1, _power(x2, e)))))):
        _assert_matches_reference(f)


def test_shared_squaring_chain():
    # one leaf, ten squarings: the single monomial x1^1024 from 11 distinct nodes
    node = ir.VarLeaf(1)
    for _ in range(10):
        node = ir.ProdGate(((1, node), (1, node)))
    chain = Formula(node)
    assert ir.syn_degree(chain) == 1024
    assert poly.expand(chain).terms == {((1, 1024),): Fraction(1)}
    assert set(poly.gate_monomial_counts(chain).values()) == {1}
    assert poly.equal_expand(chain, Formula(_power(ir.VarLeaf(1), 1024)))
    assert not poly.equal_expand(chain, Formula(_power(ir.VarLeaf(1), 1023)))
    # (x1 + 2 x2) squared ten times would have 1025 terms; keep it to five
    node = SumGate(((1, ir.VarLeaf(1)), (2, ir.VarLeaf(2))))
    for _ in range(5):
        node = ir.ProdGate(((1, node), (1, node)))
    _assert_matches_reference(Formula(node))


@pytest.mark.parametrize("field", [QQ, PrimeField(7)])
def test_sparse_and_huge_variable_ids(field):
    big = 1 << 40
    paired = sexpr.cantor_pair(10**6, 3)
    text = (f"field: {field.name}\n"
            f"(+ (* x{big} x{big + 5} x_1000000_3) (scale 3 (* x0 x{big} x{big})) x_1000000_3 1)")
    f = sexpr.parse(text)
    one = field.one()
    want = {
        ((paired, 1), (big, 1), (big + 5, 1)): one,
        ((0, 1), (big, 2)): field.normalize(Fraction(3)),
        ((paired, 1),): one,
        (): one,
    }
    assert poly.expand(f).terms == want
    _assert_matches_reference(f)
    swapped = sexpr.parse(text.replace(f"x{big + 5}", "x7"))
    assert not poly.equal_expand(f, swapped)
    nc = sexpr.parse(f"mode: noncommutative\nfield: {field.name}\n(* x{big} x_1000000_3 x{big})")
    assert poly.expand(nc).terms == {(big, paired, big): one}
    _assert_matches_reference(nc)


@pytest.mark.parametrize("field", ["Q", "Fp:7"])
def test_equal_expand_across_variable_sets_and_degrees(field):
    def parse(body: str) -> Formula:
        return sexpr.parse(f"field: {field}\n{body}")

    x1 = parse("x1")
    padded = parse("(+ x1 (* x2 x2) (scale -1 (* x2 x2)))")
    # the same polynomial at a syntactic degree that needs a wider digit
    wide = parse("(+ x1 (* x3 x3 x3 x3 x3 x3 x3 x3 x3 x3 x3 x3 x3 x3 x3 x3 x3)"
                 " (scale -1 (* x3 x3 x3 x3 x3 x3 x3 x3 x3 x3 x3 x3 x3 x3 x3 x3 x3)))")
    square = parse("(* x1 x1)")
    padded_square = parse("(+ (* x1 x1) (* x9 x9 x9) (scale -1 (* x9 x9 x9)))")
    for a, b in ((x1, padded), (x1, wide), (padded, wide), (square, padded_square)):
        assert poly.equal_expand(a, b) and poly.equal_expand(b, a)
    unequal = [
        (x1, parse("(+ x1 (* x2 x2))")),
        (x1, parse("x2")),
        (x1, square),
        (square, parse("(* x1 x1 x1 x1 x1 x1 x1 x1 x1 x1 x1 x1 x1 x1 x1 x1 x1)")),
        (padded, parse("(+ (scale 2 x1))")),
        (wide, parse("(+ x1 1)")),
    ]
    for a, b in unequal:
        assert not poly.equal_expand(a, b) and not poly.equal_expand(b, a)


def test_equal_expand_compares_in_the_kernel_encoding(corpus_both, monkeypatch):
    # two corpus formulas, or a formula and a rewrite of it, are compared as
    # internal tables: no PolyTable is built and no word_to_comm_key called
    built, words, decoded = [], [], []
    real_init, real_word = PolyTable.__init__, poly.word_to_comm_key
    real_decoder = getattr(poly, "_decoder", None)

    def counting_init(self, *args, **kwargs):
        built.append(self)
        real_init(self, *args, **kwargs)

    monkeypatch.setattr(PolyTable, "__init__", counting_init)
    monkeypatch.setattr(poly, "word_to_comm_key", lambda w: words.append(w) or real_word(w))
    monkeypatch.setattr(poly, "_decoder", lambda p: decoded.append(p) or real_decoder(p),
                        raising=False)
    for f in corpus_both:
        assert poly.equal_expand(f, tr.binarize(f))
        assert poly.equal_expand(tr.collapse(f), f)
    # both tables are packed alike, so nothing is decoded
    assert (built, words, decoded) == ([], [], [])
    for i, f in enumerate(corpus_both):
        neighbour = corpus_both[i + 1 - 2 * (i % 2)]  # same mode: each half has even length
        assert not poly.equal_expand(f, neighbour)
    assert built == [] and words == []


# ---------------------------------------------------------------------------
# one compiled program per formula
# ---------------------------------------------------------------------------

def test_each_oracle_compiles_each_formula_once(monkeypatch):
    from lowdepth import pit

    compiled = []
    real = ir.compile_program

    def counting(root, scalars):
        compiled.append(root)
        return real(root, scalars)

    monkeypatch.setattr(ir, "compile_program", counting)
    for header in ("", "mode: noncommutative\n", "field: Fp:101\n"):
        a = sexpr.parse(header + "(+ (* x1 x2) (scale 2 (* x2 x3)))")
        b = sexpr.parse(header + "(+ (* x1 x2) (scale 3 (* x2 x3)))")
        calls = [
            ([a.root], lambda: poly.expand(a)),
            ([a.root], lambda: poly.gate_monomial_counts(a)),
            ([a.root], lambda: reference.support_expand(a)),
            ([a.root, b.root], lambda: poly.equal_expand(a, b)),
            ([a.root, b.root], lambda: poly.expand_against(a, b)),
            ([a.root, b.root], lambda: pit.pit_equal(a, b)),
            ([a.root, b.root], lambda: pit.verify(a, b, "expand", None, pit.PITConfig())),
            ([a.root, b.root], lambda: pit.verify(a, b, "pit", None, pit.PITConfig())),
            # budget 0 sends auto to PIT, which reads the programs expansion compiled
            ([a.root, b.root], lambda: pit.verify(a, b, "auto", 0, pit.PITConfig())),
        ]
        for roots, call in calls:
            compiled.clear()
            call()
            assert [id(r) for r in compiled] == [id(r) for r in roots]
        witness = pit.pit_equal(a, b).witness
        compiled.clear()
        assert pit.check_witness(a, b, witness)
        assert [id(r) for r in compiled] == [id(a.root), id(b.root)]


def test_gate_counts_on_a_dag_match_its_tree_copy():
    # the DAG of test_pit.py's test_shared_node_matches_tree_copy
    shared = sexpr.parse("(+ x1 (* x2 x3))").root
    dag = ir.ProdGate(((Fraction(2), shared), (Fraction(1), ir.VarLeaf(4)), (Fraction(1), shared)))
    root = SumGate(((Fraction(1), dag), (Fraction(3), shared)))
    for commutative in (True, False):
        a = Formula(root, commutative=commutative)
        tree = a.with_root(ir.tree_materialize(root))
        counts = poly.gate_monomial_counts(tree)
        assert len(counts) == len(ir.gates_preorder(tree)) == 18  # every position
        assert poly.gate_monomial_counts(a) == counts
        assert poly.expand_against(a, tree) == (counts, True)
        assert poly.expand(a) == poly.expand(tree)
        assert poly.expand_against(tree, a) == (counts, True)


def test_support_is_taken_over_the_rationals():
    # 7 x1 vanishes over Fp:7, but its parse trees still reach x1
    f = sexpr.parse("field: Fp:7\n(+ x1 x1 x1 x1 x1 x1 x1)")
    assert poly.expand(f).terms == {}
    assert reference.support_expand(f) == {((1, 1),)}
    assert not reference.is_monotone_semantic(f)


# ---------------------------------------------------------------------------
# the static table bound
# ---------------------------------------------------------------------------

def _bounds(f: Formula, cap: int) -> list[int]:
    return poly.table_bounds(ir.compile_program(f.root, []), f.commutative, cap)


def test_table_bounds_by_hand():
    # each sum has 4 parse trees but 3 monomials of degree at most 1 (1, x1,
    # x2); the product has 9 from its children, against C(2 + 2, 2) = 6
    # commutative monomials and 1 + 2 + 4 = 7 words of length at most 2
    text = "(* (+ x1 x2 x1 x2) (+ x1 x2 x1 x2))"
    assert _bounds(sexpr.parse(text), 100) == [1] * 4 + [3] + [1] * 4 + [3, 6]
    assert _bounds(sexpr.parse("mode: noncommutative\n" + text), 100) == [1] * 4 + [3] + [1] * 4 + [3, 7]
    # a sum has the degree of its highest child: 4 parse trees, 3 monomials
    # (1, x1, x1^2) of degree at most 2
    assert _bounds(sexpr.parse("(+ x1 x1 x1 (* x1 x1))"), 100)[-1] == 3
    # the list ends at the first position past the cap, saturated at cap + 1
    f = sexpr.parse("(+ (* (+ x1 x2) (+ x3 x4)) x5)")
    assert _bounds(f, 100) == [1, 1, 2, 1, 1, 2, 4, 1, 5]
    assert _bounds(f, 3) == [1, 1, 2, 1, 1, 2, 4]
    # auto expands exactly when the bound is at most the budget
    cfg = pit.PITConfig()
    assert pit.verify(f, f, "auto", 5, cfg) == ("equal", "expand", None)
    assert pit.verify(f, f, "auto", 4, cfg) == ("equal-probably", "pit", None)


def test_table_bounds_cover_every_gate(corpus_both):
    # on the corpus and every registry pass's output, in both modes, no gate
    # has more terms than its bound
    assert {f.commutative for f in corpus_both} == {True, False}
    for f in corpus_both:
        for g in [f] + [tr.run_pass(f, name, {})[0] for name in tr.PASSES]:
            bounds = _bounds(g, 10**9)
            at = {id(node): i for i, node in enumerate(ir.postorder(g.root))}
            assert len(bounds) == len(at)  # no position passed the cap
            counts = poly.gate_monomial_counts(g, budget=None)
            for gid, node in enumerate(ir.gates_preorder(g)):
                assert counts[gid] <= bounds[at[id(node)]]


def test_auto_expands_the_exact_pairs():
    # every pair the exact benchmark checks fits the default budget by the
    # bound alone: C(16, 8) monomials on e0-e2 and their outputs, r^7 parse
    # trees on H(3, r)
    budget, cfg = poly.DEFAULT_EXPANSION_BUDGET, pit.PITConfig()
    pairs = []
    for seed in range(3):
        f = gen_random_homogeneous(8, 8, 2000, seed=seed)
        pairs += [(f, tr.run_pass(f, m, {})[0], comb(16, 8)) for m in ("main", "nearlinear", "pipeline")]
    for r in (3, 4):
        h = gen_hard(HardParams(k=3, r=r))
        pairs.append((h, tr.depth_reduce_homogeneous(h), r**7))
    assert [want for *_, want in pairs][-3:] == [12870, 2187, 16384]
    for f, out, want in pairs:
        assert _bounds(f, budget)[-1] == _bounds(out, budget)[-1] == want
        assert pit.verify(f, out, "auto", budget, cfg) == ("equal", "expand", None)


def test_table_bound_of_the_6264_leaf_formula():
    # C(10 + 16, 16) monomials at the root, so auto sends it to PIT at the
    # default budget without expanding it
    f = gen_random_homogeneous(10, 16, 10**4, seed=116)
    assert _bounds(f, 10**7)[-1] == comb(26, 16) == 5_311_735
    assert _bounds(f, poly.DEFAULT_EXPANSION_BUDGET)[-1] == poly.DEFAULT_EXPANSION_BUDGET + 1
