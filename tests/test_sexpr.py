import errno
import os
import random
import re
from fractions import Fraction

import pytest

import reference

from lowdepth import ir, sexpr
from lowdepth.errors import FormulaSyntaxError, WellFormednessError
from lowdepth.fields import PrimeField, QQ
from lowdepth.hardpoly import HardParams, gen_hard
from lowdepth.ir import Formula, OneLeaf, ProdGate, SumGate, VarLeaf


def test_parse_basic():
    f = sexpr.parse("(+ x1 (* x2 x3))")
    m = ir.metrics(f)
    assert (m.size, m.depth) == (3, 2)
    assert f.commutative and f.field is QQ


def test_parse_one_under_product_rejected():
    with pytest.raises(WellFormednessError):
        sexpr.parse("(* 1 x1)")


_ONE_UNDER_PRODUCT = "constant leaf 1 must be the child of a sum gate"
_CONSTANT_SUM = "sum gate over constant leaves only is allowed at the output gate only"


_WELLFORMEDNESS = [
    ("(+ (scale 0 x1) x2)", "edge weight 0 is not allowed"),
    ("(* x2 (scale 0/5 x1))", "edge weight 0 is not allowed"),
    ("field: Fp:7\n(+ (scale 7 x1) x2)", "edge weight 0 is not allowed"),
    ("(* 1 x1)", _ONE_UNDER_PRODUCT),
    ("(* x1 (scale 2 1))", _ONE_UNDER_PRODUCT),
    ("(* x1 (scale 2 (scale 1 1)))", _ONE_UNDER_PRODUCT),
    ("(* x1 (scale 1 (scale 1 1)))", _ONE_UNDER_PRODUCT),
    ("(+ x2 (* x1 (+ x3 1) 1))", _ONE_UNDER_PRODUCT),
    ("(* x1 (+ 1 1))", _CONSTANT_SUM),
    ("(+ x1 (+ (scale 2 1) 1))", _CONSTANT_SUM),
]


@pytest.mark.parametrize("text, message", _WELLFORMEDNESS)
def test_parse_rejects_each_wellformedness_rule(text, message):
    with pytest.raises(WellFormednessError) as info:
        sexpr.parse(text)
    assert str(info.value) == message


def test_parse_accepts_a_sum_of_constants_at_the_root():
    for text in ("(+ 1 1)", "(+ (scale 2 1) 1)", "(+ 1)"):
        f = sexpr.parse(text)
        assert isinstance(f.root, SumGate) and sexpr.parse(sexpr.serialize(f)) == f


_AFTER_A_VIOLATION = [
    ("(+ (* 1 x1) (- x2))", "unknown gate head '-' (at position 13)"),
    ("(+ (scale 0 x1) x2", "unterminated gate (at position 1)"),
    ("(* x1 (+ 1 1)) x2", "expected exactly one top-level expression (at position 0)"),
]


@pytest.mark.parametrize("text, message", _AFTER_A_VIOLATION)
def test_syntax_error_after_a_violation_is_reported(text, message):
    with pytest.raises(FormulaSyntaxError) as info:
        sexpr.parse(text)
    assert str(info.value) == message


def test_clean_text_is_not_validated(corpus_both, hard_instances, skew_corpus, monkeypatch):
    calls = []
    real = sexpr.validate
    monkeypatch.setattr(sexpr, "validate", lambda f: calls.append(f) or real(f))
    clean = corpus_both + [f for _, f in hard_instances] + skew_corpus
    for f in clean:
        assert sexpr.parse(sexpr.serialize(f)) == f
    assert calls == []
    # a product under a scale raises no suspicion
    sexpr.parse("(* x1 (scale 3 (* x2 x3)))")
    assert calls == []
    # any constant leaf is checked once, and one under a sum passes the check
    sexpr.parse("(* x1 (+ 1 x2) (scale 3 (* x2 x3)))")
    assert len(calls) == 1
    # so is a root sum of constants
    sexpr.parse("(+ 1 1)")
    assert len(calls) == 2


def _random_text(rng: random.Random, depth: int) -> str:
    """Small formula text that often breaks a well-formedness rule: constants
    anywhere, zero and unit scalars, and chains of scales."""
    if depth == 0 or rng.random() < 0.3:
        expr = rng.choice(["1", "x1", "x2"])
    else:
        op = rng.choice("+*")
        expr = f"({op} " + " ".join(_random_text(rng, depth - 1) for _ in range(rng.randint(1, 3))) + ")"
    for _ in range(rng.choice([0, 0, 1, 2])):
        expr = f"(scale {rng.choice(['1', '1', '2', '0', '7'])} {expr})"
    return expr


def test_parse_rejects_exactly_what_validate_rejects(monkeypatch):
    # the parser validates only on suspicion; it must suspect every violation
    rng = random.Random(13)
    skip = lambda f: None
    for _ in range(2000):
        text = rng.choice(["", "field: Fp:7\n"]) + "(+ x3 " + _random_text(rng, 3) + ")"
        with monkeypatch.context() as m:
            m.setattr(sexpr, "validate", skip)
            try:
                raw = sexpr.parse(text)
            except FormulaSyntaxError:
                continue
        try:
            ir.validate(raw)
            expected = None
        except WellFormednessError as e:
            expected = str(e)
        try:
            sexpr.parse(text)
            got = None
        except WellFormednessError as e:
            got = str(e)
        assert got == expected, text


def test_parse_scale():
    f = sexpr.parse("(+ (scale 2/3 x1) x2)")
    root = f.root
    assert isinstance(root, SumGate)
    assert root.children[0][0] == Fraction(2, 3)
    assert root.children[1][0] == Fraction(1)


def test_serialize_elides_unit_scalars():
    f = sexpr.parse("(+ (scale 1 x1) x2)")
    assert sexpr.serialize(f).splitlines()[-1] == "(+ x1 x2)"


def test_header_modes_and_fields():
    f = sexpr.parse("mode: noncommutative\nfield: Fp:97\n(* x2 x1)")
    assert not f.commutative
    assert isinstance(f.field, PrimeField) and f.field.p == 97
    text = sexpr.serialize(f)
    assert "mode: noncommutative" in text
    assert "field: Fp:97" in text
    assert sexpr.parse(text) == f


def test_noncommutative_child_order_preserved():
    f = sexpr.parse("mode: noncommutative\n(* x2 x1)")
    assert sexpr.serialize(f).splitlines()[-1] == "(* x2 x1)"
    g = sexpr.parse(sexpr.serialize(f))
    assert g.root == f.root


def test_two_index_variable_alias():
    f = sexpr.parse("(+ x_1_1 x_2_1)")
    a, b = (ch for _, ch in f.root.children)
    assert a == VarLeaf(sexpr.cantor_pair(1, 1))
    assert b == VarLeaf(sexpr.cantor_pair(2, 1))
    # serializer normalizes to plain ids, and that form round-trips
    assert "x_" not in sexpr.serialize(f)
    assert sexpr.parse(sexpr.serialize(f)) == f


def test_syntax_errors_positioned():
    with pytest.raises(FormulaSyntaxError):
        sexpr.parse("(+ x1")
    with pytest.raises(FormulaSyntaxError):
        sexpr.parse("(+ x1))")
    with pytest.raises(FormulaSyntaxError):
        sexpr.parse("(- x1 x2)")
    with pytest.raises(FormulaSyntaxError):
        sexpr.parse("(scale 2 x1)")  # scale must sit under a gate
    with pytest.raises(FormulaSyntaxError):
        sexpr.parse("(+ (scale 2 (scale 3 x1)))")  # no nesting
    with pytest.raises(FormulaSyntaxError):
        sexpr.parse("(+ y1 x2)")
    err = None
    try:
        sexpr.parse("(+ x1 @)")
    except FormulaSyntaxError as exc:
        err = exc
    assert err is not None and err.position is not None


_SYNTAX_ERRORS = [
    # only space, tab, CR and LF end an atom; other whitespace is part of it
    ("(+ x1\x0bx2 x3)", "bad variable 'x1\\x0bx2' (at position 3)", 3),
    ("(+ x1\xa0x2 x3)", "bad variable 'x1\\xa0x2' (at position 3)", 3),
    ("(+ (scale 2/0 x1) x2)", "bad rational scalar '2/0': Fraction(2, 0)", None),
    # the same bad scalar twice in one text: its first use fails
    ("(+ (scale 1/0 x1) (scale 1/0 x2))", "bad rational scalar '1/0': Fraction(1, 0)", None),
    ("field: Fp:7\n(+ (scale 2.5 x1) (scale 2.5 x2))", "bad field element '2.5'", None),
    ("(+ x1 x2))", "unmatched ) (at position 9)", 9),
    (")", "unmatched ) (at position 0)", 0),
    ("(+ x1 (* x2 x3)", "unterminated gate (at position 1)", 1),
    ("(+ x1 (", "unterminated gate (at position 6)", 6),
]


@pytest.mark.parametrize("text, message, position", _SYNTAX_ERRORS)
def test_syntax_error_message_and_position(text, message, position):
    # parsed twice: a failed scalar must fail again, not come back from a cache
    for _ in range(2):
        with pytest.raises(FormulaSyntaxError) as info:
            sexpr.parse(text)
        assert str(info.value) == message
        assert info.value.position == position


_INSERTED = [chr(i) for i in range(128)] + ["\x85", "\xa0", "\u2000", "\u3000"]
# {0} is the inserted character: between atoms, beside each parenthesis,
# inside a scalar, and around the whole expression
_INSERT_SITES = ["(+ x1{0}x2 x3)", "(+{0}x1 x2)", "({0}+ x1 x2)", "(+ x1 x2{0})",
                 "(+ x1 (* x2 x3){0}(scale 2 x4))", "(+ (scale{0}2/3 x1) x2)",
                 "(+ (scale 2{0}/3 x1) x2)", "{0}(+ x1 x2){0}", "(+ x1{0}{0}(* x2 x3))"]


def _outcome(text: str):
    try:
        return sexpr.serialize(sexpr.parse(text))
    except (FormulaSyntaxError, WellFormednessError) as exc:
        return type(exc), str(exc), getattr(exc, "position", None)


@pytest.mark.parametrize("ch", _INSERTED, ids=[f"U+{ord(c):04X}" for c in _INSERTED])
def test_split_tokenizer_matches_the_regex(monkeypatch, ch):
    # str.split() separates on more whitespace than the grammar; _tokens
    # must fall back to the regex wherever the two would differ
    for site in _INSERT_SITES:
        text = site.format(ch)
        for start, full in ((0, text), (len("mode: commutative\n"), "mode: commutative\n" + text)):
            assert sexpr._tokens(full, start) == sexpr._TOKEN.findall(full, start)
    fast = [_outcome(site.format(ch)) for site in _INSERT_SITES]
    monkeypatch.setattr(sexpr, "_tokens", lambda text, start: sexpr._TOKEN.findall(text, start))
    assert fast == [_outcome(site.format(ch)) for site in _INSERT_SITES]


def test_repeated_scalar_text_parses_to_equal_scalars():
    for header, c in (("", "2/3"), ("field: Fp:7\n", "3")):
        f = sexpr.parse(header + f"(+ (scale {c} x1) (* (scale {c} x2) x3) (scale 5 x4))")
        (c1, _), (_, prod), (c3, _) = f.root.children
        c2 = prod.children[0][0]
        assert c1 == c2 and c1 != c3
        assert all(reference.is_canonical(f.field, c) for c in (c1, c2, c3))
        assert sexpr.parse(sexpr.serialize(f)) == f


def test_hard_formula_roundtrip():
    f = gen_hard(HardParams(k=2, r=2))
    assert sexpr.parse(sexpr.serialize(f)) == f


def _random_formula(rng: random.Random, commutative: bool) -> Formula:
    field = QQ

    def build(depth: int):
        if depth == 0 or rng.random() < 0.3:
            if rng.random() < 0.08:
                return OneLeaf()
            return VarLeaf(rng.randrange(20))
        kind = SumGate if rng.random() < 0.5 else ProdGate
        n = rng.randint(1, 4)
        children = []
        for _ in range(n):
            child = build(depth - 1)
            if kind is ProdGate and isinstance(child, OneLeaf):
                child = VarLeaf(rng.randrange(20))
            scalar = Fraction(rng.randint(1, 9), rng.randint(1, 9))
            if rng.random() < 0.3:
                scalar = -scalar
            children.append((scalar, child))
        if kind is SumGate and all(isinstance(ch, OneLeaf) for _, ch in children):
            children.append((Fraction(1), VarLeaf(rng.randrange(20))))
        return kind(tuple(children))

    root = build(4)
    if isinstance(root, OneLeaf):
        root = SumGate(((Fraction(1), root),))
    return Formula(root=root, commutative=commutative, field=field)


def test_roundtrip_random_corpus():
    # parse(serialize(F)) is structurally F on >= 1000 formulas, both modes
    rng = random.Random(2024)
    for i in range(1000):
        f = _random_formula(rng, commutative=(i % 2 == 0))
        ir.validate(f)
        g = sexpr.parse(sexpr.serialize(f))
        assert g == f, f"roundtrip failed at case {i}"


def test_deep_comb_roundtrip():
    # iterative parser and serializer cope with very deep nesting
    from lowdepth.bench import gen_comb

    f = gen_comb(4001)
    g = sexpr.parse(sexpr.serialize(f))
    assert ir.metrics(g) == ir.metrics(f)


def test_file_io(tmp_path):
    f = sexpr.parse("(+ x1 (scale -2/7 (* x2 x3)))")
    path = tmp_path / "f.frm"
    sexpr.write_file(str(path), f)
    text = path.read_bytes().decode()
    assert "\r" not in text and text.endswith("\n")
    assert sexpr.parse_file(str(path)) == f


def test_write_file_is_all_or_nothing(tmp_path, monkeypatch):
    f, g = sexpr.parse("(+ x1 (scale -2/7 (* x2 x3)))"), sexpr.parse("(* x1 x4)")
    path = tmp_path / "f.frm"
    path.write_text("(+ x1 x2)\n")
    real_open = open

    class HalfWrite:
        """A file that takes five characters and then finds the disk full."""

        def __init__(self, *args, **kwargs):
            self.fh = real_open(*args, **kwargs)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self.fh.close()

        def write(self, text):
            self.fh.write(text[:5])
            self.fh.flush()
            raise OSError(errno.ENOSPC, "No space left on device")

    monkeypatch.setattr(sexpr, "open", HalfWrite, raising=False)
    with pytest.raises(OSError, match="No space left on device"):
        sexpr.write_file(str(path), f)
    # the target keeps its bytes, and no temporary file is left beside it
    assert path.read_text() == "(+ x1 x2)\n"
    assert [p.name for p in tmp_path.iterdir()] == ["f.frm"]
    monkeypatch.undo()
    sexpr.write_file(str(path), f)
    assert sexpr.parse_file(str(path)) == f
    assert [p.name for p in tmp_path.iterdir()] == ["f.frm"]
    # a link is written through, and a device in place, never replaced
    link = tmp_path / "link.frm"
    link.symlink_to(path)
    sexpr.write_file(str(link), g)
    assert link.is_symlink() and sexpr.parse_file(str(path)) == g

    def refuse(*args):
        raise AssertionError("a device is not replaced")

    monkeypatch.setattr(os, "replace", refuse)
    sexpr.write_file(os.devnull, g)


def test_write_file_keeps_the_targets_mode(tmp_path):
    f = sexpr.parse("(+ x1 x2)")
    path = tmp_path / "out.frm"
    path.write_text("(* x1 x2)\n")
    path.chmod(0o600)
    sexpr.write_file(str(path), f)
    assert sexpr.parse_file(str(path)) == f
    assert path.stat().st_mode & 0o7777 == 0o600
    # a new file gets the mode the umask leaves
    umask = os.umask(0o022)
    os.umask(umask)
    new = tmp_path / "new.frm"
    sexpr.write_file(str(new), f)
    assert new.stat().st_mode & 0o7777 == 0o666 & ~umask


# ---------------------------------------------------------------------------
# parse_program: text straight into the compiled program
# ---------------------------------------------------------------------------

def _assert_same_program(text: str) -> None:
    """parse_program(text) is compile_program(parse(text).root, []) field for
    field, with the same scalar value behind every slot, and the same header."""
    __tracebackhide__ = True
    f, expected_scalars, scalars = sexpr.parse(text), [], []
    expected = ir.compile_program(f.root, expected_scalars)
    got = sexpr.parse_program(text, scalars)
    assert (got.commutative, got.field) == (f.commutative, f.field)
    for name in ("kinds", "args", "slots", "uses", "degree", "size", "variables"):
        assert getattr(got.program, name) == getattr(expected, name), name
    assert scalars == expected_scalars
    assert [type(c) for c in scalars] == [type(c) for c in expected_scalars]


def _in_fp(text: str, p: int) -> str:
    """The text over Fp:p, each rational scalar replaced by its residue."""
    fp = PrimeField(p)
    body = text.split("\n")[-2] if text.endswith("\n") else text.split("\n")[-1]
    mode = "noncommutative" if "mode: noncommutative" in text else "commutative"
    scaled = re.sub(r"\(scale (\S+) ", lambda m: f"(scale {fp.normalize(Fraction(m.group(1)))} ", body)
    return f"mode: {mode}\nfield: Fp:{p}\n{scaled}\n"


def test_parse_program_matches_compile_program(corpus_both, hard_instances, skew_corpus):
    from lowdepth.bench import gen_comb

    from conftest import sum_chain

    formulas = corpus_both + [f for _, f in hard_instances] + skew_corpus
    formulas += [gen_comb(8001), sum_chain(8001)]
    modes = ("mode: commutative", "mode: noncommutative")
    for f in formulas:
        text = sexpr.serialize(f)
        # both modes, over Q and over a prime field with the scalars' residues
        for mode in modes:
            for p in (None, 1_000_003):
                t = text.replace(modes[1] if mode == modes[0] else modes[0], mode)
                _assert_same_program(t if p is None else _in_fp(t, p))
    # repeated and equal scalar texts, unit weights spelled out, x_i_j variables
    for text in ("(+ (scale 2/3 x1) (* (scale 2/3 x2) (scale 4/6 x3)) (scale 3/3 x_1_2))",
                 "field: Fp:7\n(+ (scale 3 x1) (* (scale 10 x2) x3) (scale 8 x4) (scale 3 x5))",
                 "x4", "(* x2)"):
        _assert_same_program(text)


def test_parse_program_compiles_suspect_text():
    # a token 1 or a zero scalar: parse (and ir.validate) and compile_program
    # decide, and the scalars appended before are kept
    for text in ("(+ x1 1)", "(+ (scale 1 x1) x2)", "field: Fp:7\n(+ (scale 2 1) (scale 3 x2))"):
        _assert_same_program(text)
        scalars = ["kept"]
        compiled = sexpr.parse_program(text, scalars)
        assert scalars[0] == "kept"
        assert compiled.program == ir.compile_program(sexpr.parse(text).root, ["kept"])


@pytest.mark.parametrize("text", [t for t, *_ in _SYNTAX_ERRORS + _WELLFORMEDNESS + _AFTER_A_VIOLATION])
def test_parse_program_raises_what_parse_raises(text):
    with pytest.raises((FormulaSyntaxError, WellFormednessError)) as expected:
        sexpr.parse(text)
    with pytest.raises(type(expected.value)) as got:
        sexpr.parse_program(text, [])
    assert str(got.value) == str(expected.value)
    assert getattr(got.value, "position", None) == getattr(expected.value, "position", None)
