import random
from fractions import Fraction

import pytest

import reference

from lowdepth import hardpoly as hp
from lowdepth import ir, poly, transforms as tr
from lowdepth.fields import field_from_name
from lowdepth.errors import NotComputingH, ParamOutOfRange, UniverseTooLarge
from lowdepth.ir import Formula, ProdGate, SumGate, VarLeaf

ONE = Fraction(1)


def test_params_validation():
    with pytest.raises(ParamOutOfRange):
        hp.HardParams(k=0, r=2)
    with pytest.raises(ParamOutOfRange):
        hp.HardParams(k=1, r=1)
    p = hp.HardParams(k=3, r=2)
    assert p.degree == 8 and p.num_vars == 64


def test_encoding_bijection_roundtrip():
    for k in (1, 2, 3):
        for r in (2, 3):
            p = hp.HardParams(k=k, r=r)
            seen = set()
            sigmas = _words((1, 2), k)
            taus = _words(tuple(range(1, r + 1)), k)
            for sigma in sigmas:
                for tau in taus:
                    v = hp.encode_var(p, sigma, tau)
                    assert 0 <= v < p.num_vars
                    assert hp.decode_var(p, v) == (sigma, tau)
                    seen.add(v)
            assert len(seen) == p.num_vars


def _words(alphabet, length):
    out = [()]
    for _ in range(length):
        out = [w + (a,) for w in out for a in alphabet]
    return out


def test_gen_hard_smallest():
    p = hp.HardParams(k=1, r=2)
    f = hp.gen_hard(p)
    m = ir.metrics(f)
    assert (m.size, m.depth) == (4, 2)
    v = lambda s, t: hp.encode_var(p, (s,), (t,))
    expected = {
        tuple(sorted([(v(1, 1), 1), (v(2, 1), 1)])): ONE,
        tuple(sorted([(v(1, 2), 1), (v(2, 2), 1)])): ONE,
    }
    assert poly.expand(f).terms == expected


def test_gen_hard_shape_23():
    f = hp.gen_hard(hp.HardParams(k=2, r=3))
    m = ir.metrics(f)
    assert (m.size, m.depth) == (36, 4)
    # alternating + over x, sum fan-in r, product fan-in 2
    root = f.root
    assert isinstance(root, SumGate) and len(root.children) == 3
    for _, ch in root.children:
        assert isinstance(ch, ProdGate) and len(ch.children) == 2


def test_gen_hard_monomial_counts_desk_scale():
    for k in (1, 2, 3):
        for r in (2, 3):
            p = hp.HardParams(k=k, r=r)
            t = poly.expand(hp.gen_hard(p))
            assert t.num_terms() == hp.expected_monomials(p)
            assert all(c == ONE for c in t.terms.values())


def test_gen_hard_predicates():
    p = hp.HardParams(k=2, r=2)
    f = hp.gen_hard(p)
    assert reference.is_monotone(f)
    assert ir.is_homogeneous(f)
    assert reference.is_set_multilinear(f, reference.sigma_partition(p))
    # distinct variables on the leaves
    leaves = [n.var for n in ir.postorder(f.root) if isinstance(n, VarLeaf)]
    assert len(leaves) == len(set(leaves)) == p.num_vars


def test_gen_hard_universe_bound():
    with pytest.raises(UniverseTooLarge):
        hp.gen_hard(hp.HardParams(k=10, r=2))  # 4^10 = 1,048,576 variables


def test_subpolynomial_empty_prefix_is_whole():
    p = hp.HardParams(k=2, r=2)
    assert reference.subpolynomial(p, (), ()).root == hp.gen_hard(p).root


def test_subpolynomial_full_prefix_is_leaf():
    p = hp.HardParams(k=2, r=2)
    f = reference.subpolynomial(p, (1, 2), (2, 1))
    assert f.root == VarLeaf(hp.encode_var(p, (1, 2), (2, 1)))


def test_subpolynomial_isomorphic_to_smaller_instance():
    # length-1 prefix of the (2,2) instance matches the (1,2) instance
    # after renaming x[s', t'] -> x[u s', v t']
    p = hp.HardParams(k=2, r=2)
    small = hp.HardParams(k=1, r=2)
    for u, v in (((1,), (1,)), ((2,), (2,))):
        sub = reference.subpolynomial(p, u, v)
        renamed = {}
        for sp in _words((1, 2), 1):
            for tp in _words((1, 2), 1):
                renamed[hp.encode_var(small, sp, tp)] = hp.encode_var(p, u + sp, v + tp)

        def rename(node):
            if isinstance(node, VarLeaf):
                return VarLeaf(renamed[node.var])
            if ir.is_gate(node):
                kids = tuple((c, rename(ch)) for c, ch in node.children)
                return SumGate(kids) if isinstance(node, SumGate) else ProdGate(kids)
            return node

        lifted = Formula(rename(hp.gen_hard(small).root))
        assert poly.expand(lifted) == poly.expand(sub)
        assert poly.expand(sub).num_terms() == 2


def test_interleaved_address_reaches_labelled_leaf():
    # walking v1 u1 v2 u2 from the output gate lands on x[sigma, tau]
    p = hp.HardParams(k=2, r=3)
    f = hp.gen_hard(p)
    for sigma in _words((1, 2), 2):
        for tau in _words((1, 2, 3), 2):
            node = f.root
            for t, s in zip(tau, sigma):
                node = node.children[t - 1][1]  # sum gate: pick tau letter
                node = node.children[s - 1][1]  # product gate: pick sigma letter
            assert node == VarLeaf(hp.encode_var(p, sigma, tau))


def test_prefix_property_desk_scale():
    # check-hard reports these three for any formula that computes H(k, r)
    # without recomputing them: H(k, r) itself must have them
    for k in (1, 2, 3):
        for r in (2, 3, 4):
            p = hp.HardParams(k=k, r=r)
            for commutative in (True, False):
                h = hp.gen_hard(p, commutative=commutative)
                t = poly.expand(h)
                assert t.num_terms() == hp.expected_monomials(p)
                assert all(c == ONE for c in t.terms.values())
                assert hp.check_prefix_property(p, h) == (True, None)


def test_prefix_property_mutated_counterexample():
    # relabel one leaf so tau alignment breaks inside some monomial
    p = hp.HardParams(k=2, r=2)
    f = hp.gen_hard(p)
    bad_leaf = hp.encode_var(p, (1, 1), (1, 1))
    # replace tau = (1,1) by (2,1): now its product partner under the same
    # first-level branch keeps tau starting with 1
    replacement = hp.encode_var(p, (1, 1), (2, 1))

    def mutate(node):
        if isinstance(node, VarLeaf):
            return VarLeaf(replacement) if node.var == bad_leaf else node
        if ir.is_gate(node):
            kids = tuple((c, mutate(ch)) for c, ch in node.children)
            return SumGate(kids) if isinstance(node, SumGate) else ProdGate(kids)
        return node

    mutated = Formula(mutate(f.root))
    ok, cx = hp.check_prefix_property(p, mutated)
    assert not ok
    assert cx is not None and cx["tau_lcp"] < cx["sigma_lcp"] + 1


@pytest.mark.parametrize("commutative", [True, False])
def test_prefix_property_first_counterexample_decodes_once(commutative, monkeypatch):
    p = hp.HardParams(k=2, r=2)
    f = hp.gen_hard(p, commutative=commutative)
    bad_leaf = hp.encode_var(p, (1, 1), (1, 1))
    replacement = hp.encode_var(p, (1, 1), (2, 1))

    def mutate(node, vals):
        if isinstance(node, VarLeaf):
            return VarLeaf(replacement) if node.var == bad_leaf else node
        return type(node)(tuple((c, v) for (c, _), v in zip(node.children, vals)))

    mutated = f.with_root(ir.node_attribute(f.root, mutate)[id(f.root)])
    decoded = []
    real_decode = hp.decode_var

    def counting_decode(params, var):
        decoded.append(var)
        return real_decode(params, var)

    monkeypatch.setattr(hp, "decode_var", counting_decode)
    ok, cx = hp.check_prefix_property(p, mutated)
    # the first counterexample in expansion order, as found before variables
    # were decoded once each
    assert not ok
    assert cx == {
        "monomial": ((2, 1), (4, 1), (8, 1), (12, 1)) if commutative else (2, 4, 8, 12),
        "pair": [[[1, 1], [2, 1]], [[1, 2], [1, 1]]],
        "sigma_lcp": 1,
        "tau_lcp": 0,
    }
    assert len(decoded) == len(set(decoded))

    decoded.clear()
    assert hp.check_prefix_property(hp.HardParams(k=3, r=2), budget=None) == (True, None)
    assert sorted(decoded) == list(range(hp.HardParams(k=3, r=2).num_vars))


def _prefix_reference(p, table):
    # every pair of every monomial, decided afresh
    for key in table.terms:
        words = [hp.decode_var(p, v) for v in hp._monomial_vars(key, table.commutative)]
        for i in range(len(words)):
            for j in range(i + 1, len(words)):
                (sig_i, tau_i), (sig_j, tau_j) = words[i], words[j]
                ell = hp._lcp(sig_i, sig_j)
                if ell < p.k and hp._lcp(tau_i, tau_j) < ell + 1:
                    return False, {
                        "monomial": key,
                        "pair": [[list(sig_i), list(tau_i)], [list(sig_j), list(tau_j)]],
                        "sigma_lcp": ell,
                        "tau_lcp": hp._lcp(tau_i, tau_j),
                    }
    return True, None


@pytest.mark.parametrize("commutative", [True, False])
def test_prefix_verdict_matches_reference_on_relabelled_leaves(commutative):
    # one leaf relabelled at a time: the pair verdicts reused across monomials
    # must give the first counterexample that deciding every pair gives
    for k, r in ((2, 2), (2, 3)):
        p = hp.HardParams(k=k, r=r)
        f = hp.gen_hard(p, commutative=commutative)
        for old in range(p.num_vars):
            new = (old + 1) % p.num_vars

            def relabel(node, vals):
                if isinstance(node, VarLeaf):
                    return VarLeaf(new) if node.var == old else node
                return type(node)(tuple((c, v) for (c, _), v in zip(node.children, vals)))

            g = f.with_root(ir.node_attribute(f.root, relabel)[id(f.root)])
            assert hp.check_prefix_property(p, g) == _prefix_reference(p, poly.expand(g))


def test_gate_counts_canonical():
    ok, cx = hp.check_gate_counts(hp.gen_hard(hp.HardParams(k=2, r=2)), hp.HardParams(k=2, r=2))
    assert ok and cx is None


def test_gate_counts_after_reduction():
    p = hp.HardParams(k=2, r=2)
    f = hp.gen_hard(p)
    fb = tr.binarize(f)
    m = ir.metrics(fb)
    out = tr.depth_reduce_main(fb, tr.auto_delta(m.size, m.syn_degree, m.sum_depth))
    assert reference.is_monotone(out)
    ok, cx = hp.check_gate_counts(out, p)
    assert ok and cx is None


def test_gate_counts_wrong_polynomial():
    p = hp.HardParams(k=1, r=2)
    with pytest.raises(NotComputingH):
        hp.check_gate_counts(hp.gen_hard(hp.HardParams(k=1, r=3)), p)


def _relabelled(f, mapping):
    def relabel(node, vals):
        if isinstance(node, VarLeaf):
            return VarLeaf(mapping.get(node.var, node.var))
        return type(node)(tuple((c, v) for (c, _), v in zip(node.children, vals)))

    return f.with_root(ir.node_attribute(f.root, relabel)[id(f.root)])


@pytest.mark.parametrize("commutative", [True, False])
@pytest.mark.parametrize("field", ["Q", "Fp:7"])
def test_mask_verdict_matches_reference(commutative, field, monkeypatch):
    # the bad-partner masks decide every monomial; only the first failing one
    # is tested pair by pair, and a passing table has none tested
    tested = []
    real_vars = hp._monomial_vars
    monkeypatch.setattr(hp, "_monomial_vars", lambda key, comm: tested.append(key) or real_vars(key, comm))
    h32, h33 = hp.HardParams(k=3, r=2), hp.HardParams(k=3, r=3)
    cases = [(h32, {old: (old + 1) % h32.num_vars}) for old in range(h32.num_vars)]
    rng = random.Random(19)
    for _ in range(20):
        a, b = rng.sample(range(h33.num_vars), 2)
        cases.append((h33, {a: b, b: a}))
    # sigma-siblings whose tau-words differ in the last letter only: the swap
    # keeps every monomial aligned, though two variables share a sigma-word
    a, b = hp.encode_var(h33, (1, 1, 1), (1, 1, 1)), hp.encode_var(h33, (1, 1, 2), (1, 1, 2))
    cases.append((h33, {a: b, b: a}))
    verdicts = set()
    for p, mapping in cases:
        g = _relabelled(hp.gen_hard(p, commutative, field_from_name(field)), mapping)
        tested.clear()
        got = hp.check_prefix_property(p, g)
        assert len(tested) == (0 if got[0] else 1)
        assert got == _prefix_reference(p, poly.expand(g))
        verdicts.add(got[0])
    assert verdicts == {True, False}


@pytest.mark.parametrize("commutative", [True, False])
def test_prefix_verdict_past_the_mask_bound(commutative, monkeypatch):
    # above _MASKED_VARIABLES every monomial is tested pair by pair
    monkeypatch.setattr(hp, "_MASKED_VARIABLES", 0)
    p = hp.HardParams(k=2, r=3)
    f = hp.gen_hard(p, commutative)
    for old in range(0, p.num_vars, 5):
        g = _relabelled(f, {old: (old + 7) % p.num_vars})
        assert hp.check_prefix_property(p, g) == _prefix_reference(p, poly.expand(g))
    assert hp.check_prefix_property(p, f) == (True, None)


@pytest.mark.parametrize("commutative", [True, False])
def test_prefix_property_outside_the_universe(commutative):
    # the pair loop decodes the outside variable and raises decode_var's error
    p = hp.HardParams(k=2, r=2)
    g = _relabelled(hp.gen_hard(p, commutative), {5: p.num_vars + 3})
    with pytest.raises(ValueError, match=r"^variable id 19 outside the \(k=2, r=2\) universe$"):
        hp.check_prefix_property(p, g)


def test_gate_counts_outside_the_universe():
    # variables H(1, 2) does not have: the polynomial is not H's
    f = Formula(ProdGate(((1, VarLeaf(100)), (1, VarLeaf(200)))))
    with pytest.raises(NotComputingH):
        hp.check_gate_counts(f, hp.HardParams(k=1, r=2))


def test_lower_bound_params():
    p, coverage = reference.lower_bound_params(256, 4)
    assert (p.k, p.r) == (2, 8)
    assert coverage == Fraction(256, 256)
    p2, cov2 = reference.lower_bound_params(16, 4)
    assert (p2.k, p2.r) == (2, 2)
    assert cov2 <= 1
    with pytest.raises(ParamOutOfRange):
        reference.lower_bound_params(15, 4)  # d > sqrt(n)
    with pytest.raises(ParamOutOfRange):
        reference.lower_bound_params(1000, 6)  # not a power of two


def test_budget_none_means_no_cap(monkeypatch):
    # as in poly: None lifts the cap, whatever the default budget is
    monkeypatch.setattr(poly, "DEFAULT_EXPANSION_BUDGET", 1)
    assert hp.check_prefix_property(hp.HardParams(2, 2), budget=None) == (True, None)
    f = hp.gen_hard(hp.HardParams(2, 2))
    assert hp.check_gate_counts(f, hp.HardParams(2, 2), budget=None) == (True, None)
