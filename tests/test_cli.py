import gc
import importlib
import json
import random
import re
from pathlib import Path

import pytest

import lowdepth
from lowdepth import bench, cli, hardpoly, ir, pit, poly, sexpr, transforms
from lowdepth.ir import ProdGate, SumGate, VarLeaf
from lowdepth.cli import EXIT_BUDGET, EXIT_OK, EXIT_USAGE, EXIT_VERIFY_FAILED

from conftest import sum_chain


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def reports(out: str):
    return [json.loads(line) for line in out.splitlines() if line.strip().startswith("{")]


def test_gen_hard_and_stats(tmp_path, capsys):
    path = tmp_path / "m.frm"
    code, out, err = run_cli(capsys, "gen-hard", "--k", "2", "--r", "3", "-o", str(path))
    assert code == EXIT_OK
    rep = reports(out)[0]
    assert rep["output"]["size"] == 36
    f = sexpr.parse_file(str(path))
    assert ir.metrics(f).size == 36

    code, out, _ = run_cli(capsys, "stats", str(path))
    assert code == EXIT_OK
    rep = reports(out)[0]
    assert rep["input"]["depth"] == 4
    assert rep["extra"]["num_variables"] == 36


def test_validate_ok_and_bad(tmp_path, capsys):
    good = tmp_path / "good.frm"
    good.write_text("(+ x1 (* x2 x3))\n")
    code, _, _ = run_cli(capsys, "validate", str(good))
    assert code == EXIT_OK

    bad = tmp_path / "bad.frm"
    bad.write_text("(* 1 x1)\n")
    code, _, err = run_cli(capsys, "validate", str(bad))
    assert code == EXIT_USAGE
    assert "sum gate" in err


def test_validate_zero_gates(tmp_path, capsys):
    # preorder gate ids: 0 root, 1 the product, 2 x2, 3 the sum that cancels
    for text in ("(+ (* x2 (+ x1 (scale -1 x1))) x3)\n",
                 "field: Fp:7\n(+ (* x2 (+ (scale 3 x1) (scale 4 x1))) x3)\n",
                 "mode: noncommutative\n(+ (* x2 (+ (* x1 x3) (scale -1 (* x1 x3)))) x4)\n"):
        p = tmp_path / "z.frm"
        p.write_text(text)
        code, out, _ = run_cli(capsys, "validate", str(p), "--check-zero-gates")
        assert code == EXIT_VERIFY_FAILED
        rep = reports(out)[0]
        assert rep["extra"]["zero_gates"] == [1, 3]


def test_expand_output(tmp_path, capsys):
    p = tmp_path / "f.frm"
    p.write_text("(+ x1 (scale 2 (* x2 x3)))\n")
    code, out, _ = run_cli(capsys, "expand", str(p))
    assert code == EXIT_OK
    rep = reports(out)[0]
    assert rep["extra"]["num_terms"] == 2


def test_reduce_writes_output_and_report(tmp_path, capsys):
    src = tmp_path / "in.frm"
    src.write_text("(+ x1 x2 x3 (* x4 x5 x6))\n")
    dst = tmp_path / "out.frm"
    code, out, _ = run_cli(
        capsys, "reduce", str(src), "--method", "main", "--delta", "auto", "-o", str(dst)
    )
    assert code == EXIT_OK
    rep = reports(out)[0]
    assert rep["verify"]["verdict"] == "equal"
    f = sexpr.parse_file(str(src))
    g = sexpr.parse_file(str(dst))
    assert poly.equal_expand(f, g)
    # report metrics match recomputation on the serialized output
    m = ir.metrics(g)
    assert rep["output"]["size"] == m.size
    assert rep["output"]["depth"] == m.depth


def test_reduce_no_verify(tmp_path, capsys):
    src = tmp_path / "in.frm"
    src.write_text("(* x1 x2 x3)\n")
    code, out, _ = run_cli(
        capsys, "reduce", str(src), "--method", "bb", "--epsilon", "1",
        "--no-verify", "-o", str(tmp_path / "o.frm"),
    )
    assert code == EXIT_OK
    assert reports(out)[0]["verify"]["verdict"] == "skipped"


def test_reduce_epsilon_out_of_range_is_usage_error(tmp_path, capsys):
    src = tmp_path / "in.frm"
    src.write_text("(* x1 x2 x3)\n")
    for method in ("bb", "nearlinear"):
        for eps, shown in (("0", "0"), ("0/5", "0"), ("2", "2")):
            code, _, err = run_cli(
                capsys, "reduce", str(src), "--method", method, "--epsilon", eps,
                "--no-verify", "-o", str(tmp_path / "o.frm"),
            )
            assert code == EXIT_USAGE
            assert err.strip() == f"error: epsilon must be in (0, 1], got {shown}"


def test_bench_epsilon_out_of_range_fails_rows(capsys):
    for eps in ("0", "2"):
        code, out, _ = run_cli(
            capsys, "bench", "--family", "comb", "--sizes", "16,32", "--pass", "bb",
            "--epsilon", eps, "--verify", "pit",
        )
        assert code == EXIT_VERIFY_FAILED
        rows = [r for r in reports(out) if r["pass"] == "bench/bb"]
        assert len(rows) == 2
        for r in rows:
            assert r["verify"]["verdict"] == "failed"
            assert "epsilon must be in (0, 1]" in r["extra"]["error"]


def test_bench_reps_below_one_is_usage_error(capsys):
    for reps in ("0", "-2"):
        code, out, err = run_cli(capsys, "bench", "--family", "comb", "--pass", "bb",
                                 "--sizes", "10", "--reps", reps)
        assert (code, out) == (EXIT_USAGE, "")
        assert f"must be at least 1, got {reps}" in err


@pytest.mark.parametrize("fault", ["deeper", "higher-degree"])
def test_reduce_rejects_bb_output_outside_contract(tmp_path, capsys, monkeypatch, fault):
    f = bench.gen_comb(200)
    src = tmp_path / "in.frm"
    sexpr.write_file(str(src), f)
    bound = transforms.bb_depth_bound(200, transforms.bb_branch_param(1))
    real, one = transforms.run_recursive, f.field.one()

    def doctored(step, root):  # the root depth_reduce_bb builds, before it checks it
        root = real(step, root)
        if fault == "deeper":  # fan-in-1 sums, one level past the bound
            for _ in range(bound + 1 - root.depth):
                root = SumGate(((one, root),))
        else:  # times a fresh variable, within the depth bound
            assert root.depth + 1 <= bound
            root = ProdGate(((one, root), (one, VarLeaf(999))))
        return root

    monkeypatch.setattr(transforms, "run_recursive", doctored)
    code, _, err = run_cli(
        capsys, "reduce", str(src), "--method", "bb", "--epsilon", "1",
        "-o", str(tmp_path / "o.frm"),
    )
    assert code == EXIT_VERIFY_FAILED
    assert len(err.strip().splitlines()) == 1 and err.startswith("error: bb ")


def test_metrics_walks_per_reduce(tmp_path, capsys, monkeypatch):
    # every node carries its metrics, so no pass, check or report walks the
    # formula to measure it, and no composition walks bb's output to learn
    # its fan-in; the walks left build outputs or check shapes
    wide = bench.gen_random_homogeneous(6, 4, 60, seed=3)
    quadratic = bench.gen_random_homogeneous(6, 2, 60, seed=3)
    assert ir.max_fanin(wide) > 2 and 2**4 < ir.size(quadratic)
    files = {}
    for name, f in (("wide", wide), ("fan2", transforms.binarize(wide)), ("d2", quadratic)):
        files[name] = tmp_path / f"{name}.frm"
        sexpr.write_file(str(files[name]), f)
    walks = []
    real = ir.postorder

    def counting(root):
        walks.append(root)
        return real(root)

    monkeypatch.setattr(ir, "postorder", counting)
    out = str(tmp_path / "o.frm")
    cases = [
        (["reduce", files["wide"], "--method", "homogeneous"], 2),
        (["reduce", files["fan2"], "--method", "main"], 1),
        (["reduce", files["wide"], "--method", "main"], 2),
        (["reduce", files["wide"], "--method", "nearlinear"], 1),  # bb only
        (["reduce", files["d2"], "--method", "nearlinear", "--epsilon", "1"], 2),
        (["reduce", files["wide"], "--method", "pipeline"], 5),
        (["prodfanin2", files["wide"]], 2),
        (["reduce", files["wide"], "--method", "bb"], 1),
    ]
    for argv, most in cases:
        walks.clear()
        extra = ["--no-verify"] if argv[0] == "reduce" else []
        code, _, _ = run_cli(capsys, *map(str, argv), *extra, "-o", out)
        assert code == EXIT_OK
        assert len(walks) <= most, (argv, len(walks))


def test_homogenize_writes_components(tmp_path, capsys):
    src = tmp_path / "in.frm"
    src.write_text("(* (+ x1 1) (+ x2 1))\n")
    prefix = tmp_path / "comp"
    code, out, _ = run_cli(
        capsys, "homogenize", str(src), "--degree", "2", "--out-prefix", str(prefix)
    )
    assert code == EXIT_OK
    rep = reports(out)[0]
    assert set(rep["extra"]["components"]) == {"0", "1", "2"}
    c1 = sexpr.parse_file(str(prefix) + "1.frm")
    assert poly.expand(c1).num_terms() == 2


def test_prodfanin2(tmp_path, capsys):
    src = tmp_path / "in.frm"
    src.write_text("(* x1 x2 x3 x4)\n")
    dst = tmp_path / "out.frm"
    code, _, _ = run_cli(capsys, "prodfanin2", str(src), "-o", str(dst))
    assert code == EXIT_OK
    g = sexpr.parse_file(str(dst))
    assert ir.max_fanin(g) == 2


def test_verify_equal_exit_codes(tmp_path, capsys):
    a = tmp_path / "a.frm"
    b = tmp_path / "b.frm"
    c = tmp_path / "c.frm"
    a.write_text("(+ x1 x2)\n")
    b.write_text("(+ x2 x1)\n")
    c.write_text("(+ x1 (scale 2 x2))\n")
    assert run_cli(capsys, "verify-equal", str(a), str(b), "--method", "expand")[0] == EXIT_OK
    code, out, _ = run_cli(capsys, "verify-equal", str(a), str(c), "--method", "pit")
    assert code == EXIT_VERIFY_FAILED
    rep = reports(out)[0]
    assert rep["extra"]["witness"]["kind"] == "scalar"


def test_reduce_falls_back_to_pit_over_budget(tmp_path, capsys):
    src = tmp_path / "in.frm"
    src.write_text("(+ x1 x2 x3 (* x4 x5 x6))\n")
    code, out, _ = run_cli(
        capsys, "reduce", str(src), "--method", "main", "--budget", "1",
        "-o", str(tmp_path / "out.frm"),
    )
    assert code == EXIT_OK
    rep = reports(out)[0]
    assert rep["verify"] == {"method": "pit", "verdict": "equal-probably"}
    assert "extra" not in rep


def test_verify_equal_budget_policy(tmp_path, capsys):
    a = tmp_path / "a.frm"
    b = tmp_path / "b.frm"
    c = tmp_path / "c.frm"
    a.write_text("(* (+ x1 x2) x3)\n")
    b.write_text("(+ (* x3 x2) (* x1 x3))\n")
    c.write_text("(+ (* x3 x2) (scale 2 (* x1 x3)))\n")
    auto = ("--method", "auto", "--budget", "1")
    code, out, _ = run_cli(capsys, "verify-equal", str(a), str(b), *auto)
    assert code == EXIT_OK
    rep = reports(out)[0]
    assert rep["params"] == {"method": "pit"}
    assert rep["verify"] == {"method": "pit", "verdict": "equal-probably"}
    code, out, _ = run_cli(capsys, "verify-equal", str(a), str(c), *auto)
    assert code == EXIT_VERIFY_FAILED
    rep = reports(out)[0]
    assert rep["verify"] == {"method": "pit", "verdict": "unequal"}
    assert rep["extra"]["witness"]["kind"] == "scalar"
    code, out, _ = run_cli(capsys, "verify-equal", str(a), str(c))
    assert code == EXIT_VERIFY_FAILED
    assert reports(out)[0]["verify"] == {"method": "expand", "verdict": "unequal"}
    code, _, err = run_cli(
        capsys, "verify-equal", str(a), str(b), "--method", "expand", "--budget", "1"
    )
    assert code == EXIT_BUDGET
    assert "budget" in err.lower()


def test_vanishing_denominator_is_usage_error(tmp_path, capsys):
    # 1/p has no residue mod p = 2^61 - 1, the default prime
    f = tmp_path / "f.frm"
    f.write_text("(+ x1 (scale 1/2305843009213693951 (* x2 x3)))\n")
    code, _, err = run_cli(capsys, "verify-equal", str(f), str(f), "--method", "pit")
    assert code == EXIT_USAGE
    assert len(err.strip().splitlines()) == 1
    assert "vanishes mod 2305843009213693951" in err


def test_budget_exit_code(tmp_path, capsys):
    path = tmp_path / "m.frm"
    run_cli(capsys, "gen-hard", "--k", "2", "--r", "3", "-o", str(path))
    code, _, err = run_cli(capsys, "expand", str(path), "--budget", "5")
    assert code == EXIT_BUDGET
    assert "budget" in err.lower()


def test_usage_errors(capsys):
    assert run_cli(capsys, "reduce")[0] == EXIT_USAGE  # missing args
    assert run_cli(capsys, "no-such-command")[0] == EXIT_USAGE
    assert run_cli(capsys, "stats", "/nonexistent/file.frm")[0] == EXIT_USAGE


def test_verify_equal_mode_or_field_mismatch_is_usage_error(tmp_path, capsys):
    # exit 1 means a failed verification; two incomparable files are a usage error
    files = {}
    for name, header in (("c", ""), ("nc", "mode: noncommutative\n"), ("f7", "field: Fp:7\n")):
        files[name] = tmp_path / f"{name}.frm"
        files[name].write_text(header + "(+ x1 (* x2 x3))\n")
    cases = (("nc", "c", "error: cannot compare formulas in different commutativity modes\n"),
             ("c", "f7", "error: field mismatch: Q vs Fp:7\n"))
    for lhs, rhs, message in cases:
        for method in ("expand", "auto", "pit"):
            code, out, err = run_cli(capsys, "verify-equal", str(files[lhs]), str(files[rhs]),
                                     "--method", method)
            assert (code, out, err) == (EXIT_USAGE, "", message)


def _count_nodes_and_compiles(monkeypatch) -> dict:
    """Count VarLeaf and gate constructions, and ir.compile_program calls."""
    counts = {"nodes": 0, "compiles": 0}

    def counting(key, real):
        def wrapper(*args):
            counts[key] += 1
            return real(*args)

        return wrapper

    monkeypatch.setattr(VarLeaf, "__init__", counting("nodes", VarLeaf.__init__))
    monkeypatch.setattr(ir._Gate, "__init__", counting("nodes", ir._Gate.__init__))
    compile_program = counting("compiles", ir.compile_program)
    monkeypatch.setattr(ir, "compile_program", compile_program)
    monkeypatch.setattr(sexpr, "compile_program", compile_program)
    return counts


def test_verify_equal_reads_clean_text_without_nodes(tmp_path, capsys, monkeypatch):
    # both files go straight into programs: no node is built and nothing compiled
    counts = _count_nodes_and_compiles(monkeypatch)
    sexpr.parse("(+ x1 (* x2 x3))")
    ir.compile_program(sexpr.parse("(* x1 x2)").root, [])
    assert counts == {"nodes": 8, "compiles": 1}  # the counters see both
    lhs, rhs = tmp_path / "a.frm", tmp_path / "b.frm"
    cases = [
        ("", "(+ x1 (scale 2/3 (* x2 x3)))", "(+ (* (scale 2/3 x3) x2) x1)", EXIT_OK),
        ("", "(+ x1 (scale 2/3 (* x2 x3)))", "(+ (* (scale 3/2 x3) x2) x1)", EXIT_VERIFY_FAILED),
        ("mode: noncommutative\n", "(* x1 (+ x2 x3))", "(+ (* x1 x2) (* x1 x3))", EXIT_OK),
        ("mode: noncommutative\n", "(* x1 x2)", "(* x2 x1)", EXIT_VERIFY_FAILED),
        ("field: Fp:97\n", "(* (scale 50 x1) (+ x2 x3))", "(+ (scale 50 (* x1 x2)) (* (scale 50 x1) x3))",
         EXIT_OK),
    ]
    for header, a, b, expected in cases:
        lhs.write_text(header + a + "\n")
        rhs.write_text(header + b + "\n")
        for method in ("pit", "expand", "auto"):
            counts.update(nodes=0, compiles=0)
            code, _, err = run_cli(capsys, "verify-equal", str(lhs), str(rhs), "--method", method)
            assert (code, err) == (expected, ""), (a, b, method)
            assert counts == {"nodes": 0, "compiles": 0}, (a, b, method)


@pytest.mark.parametrize("a, b, code, error", [
    ("(* 1 x1)", "(+ x1)", EXIT_USAGE, "error: constant leaf 1 must be the child of a sum gate\n"),
    ("(+ x1 1)", "(+ 1 x1)", EXIT_OK, ""),
    ("(+ (scale 0 x1) x2)", "x2", EXIT_USAGE, "error: edge weight 0 is not allowed\n"),
    ("(+ x1 x2)", "(* x1 (+ 1 1))", EXIT_USAGE,
     "error: sum gate over constant leaves only is allowed at the output gate only\n"),
    ("(+ x1 1)", "(+ x1 (scale 2 1))", EXIT_VERIFY_FAILED, ""),
    ("(+ (* 1 x1) (- x2))", "x1", EXIT_USAGE, "error: unknown gate head '-' (at position 13)\n"),
    ("field: Fp:7\n(+ x1 (scale 7 x2))", "field: Fp:7\nx1", EXIT_USAGE,
     "error: edge weight 0 is not allowed\n"),
    ("mode: noncommutative\n(+ (* x1 x2) 1)", "mode: noncommutative\n(+ 1 (* x2 x1))",
     EXIT_VERIFY_FAILED, ""),
])
def test_verify_equal_on_suspect_text(tmp_path, capsys, a, b, code, error):
    # text with a token 1 or a zero scalar goes through parse, validate and
    # compile_program; exit codes and error lines are those of node parsing
    lhs, rhs = tmp_path / "a.frm", tmp_path / "b.frm"
    lhs.write_text(a + "\n")
    rhs.write_text(b + "\n")
    for method in ("pit", "expand", "auto"):
        assert run_cli(capsys, "verify-equal", str(lhs), str(rhs), "--method", method)[::2] == (code, error)


def test_refused_input_is_a_usage_error(tmp_path, capsys):
    # input no command accepts: exit 2 with one error line, no report, no traceback
    mixed = tmp_path / "mixed.frm"
    mixed.write_text("(+ x1 (* x2 x3))\n")
    bad = tmp_path / "bad.frm"
    bad.write_text("(* x1 (scale 2 (scale 1 1)))\n")
    cases = [
        (("reduce", str(mixed), "--method", "pipeline"), "error: expansion mixes degrees [1, 2]"),
        (("stats", str(tmp_path)), "Is a directory"),
        (("reduce", str(mixed), "--method", "bb", "-o", str(tmp_path)), "Is a directory"),
        (("bench", "--family", "user-file", "--file", str(tmp_path), "--pass", "bb"),
         "Is a directory"),
        (("bench", "--family", "user-file", "--file", str(bad), "--pass", "bb"),
         "error: constant leaf 1 must be the child of a sum gate"),
    ]
    for argv, message in cases:
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (EXIT_USAGE, ""), argv
        assert err.startswith("error: ") and err.count("\n") == 1 and message in err, argv


@pytest.mark.parametrize("argv, module, name", [
    (("bench", "--family", "comb", "--sizes", "64", "--pass", "bb", "--csv", "{dir}"),
     bench, "run"),
    (("homogenize", "{src}", "--degree", "2", "--out-prefix", "{dir}/missing/c"),
     transforms, "homogenize"),
    (("reduce", "{src}", "--method", "bb", "-o", "{dir}/missing/o.frm"), transforms, "run_pass"),
    (("prodfanin2", "{src}", "-o", "{dir}"), transforms, "run_pass"),
    (("gen-hard", "--k", "2", "--r", "2", "-o", "{dir}/missing/g.frm"), hardpoly, "gen_hard"),
], ids=["bench-csv", "homogenize", "reduce", "prodfanin2", "gen-hard"])
def test_bad_output_path_is_refused_before_the_pass(tmp_path, capsys, monkeypatch, argv, module, name):
    # an output that cannot be written exits 2 before any work runs
    src = tmp_path / "in.frm"
    src.write_text("(* (+ x1 1) (+ x2 x3))\n")
    calls = []
    real = getattr(module, name)

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(module, name, counting)
    argv = [a.format(src=src, dir=tmp_path) for a in argv]
    code, out, err = run_cli(capsys, *argv)
    assert (code, out, calls) == (EXIT_USAGE, "", [])
    assert err.startswith("error: ") and err.count("\n") == 1


def test_failed_pass_leaves_no_output_file(tmp_path, capsys):
    # the output check must not leave its probe file behind when the pass
    # then fails, nor touch a file that was there before
    src, out = tmp_path / "comb.frm", tmp_path / "new.frm"
    sexpr.write_file(str(src), bench.gen_comb(300))
    argv = ("reduce", str(src), "--method", "pipeline", "-o", str(out))
    code, _, err = run_cli(capsys, *argv)
    assert code == EXIT_USAGE and "mixes degrees" in err
    assert not out.exists()
    out.write_text("(+ x1 x2)\n")
    assert run_cli(capsys, *argv)[0] == EXIT_USAGE
    assert out.read_text() == "(+ x1 x2)\n"


def test_failed_print_keeps_the_output_file(tmp_path, capsys):
    # the output scalar c^2 has 7,634 digits, more than the interpreter turns
    # into text by default: the pass runs, its print fails, and the file that
    # was there before keeps its bytes
    c = 3**8000
    src, out = tmp_path / "big.frm", tmp_path / "out.frm"
    src.write_text(f"(* (scale {c} (+ x1 x2)) (scale {c} (+ x3 x4)))\n")
    out.write_text("(+ x1 x2)\n")
    code, _, err = run_cli(capsys, "reduce", str(src), "--method", "main", "--no-verify",
                           "-o", str(out))
    assert code == EXIT_USAGE and err.startswith("error: ")
    assert out.read_text() == "(+ x1 x2)\n"


@pytest.mark.parametrize("header, scalar", [("", "7" * 5071), ("field: Fp:7\n", "7" * 5071),
                                           ("", "7" * 3000 + "/0"), ("", "7" * 3000 + "z")],
                         ids=["rational", "field-element", "zero-denominator", "bad-literal"])
def test_long_scalar_is_refused_by_its_length(tmp_path, capsys, header, scalar):
    # the message quotes a prefix and the length, not every digit
    src = tmp_path / "f.frm"
    src.write_text(f"{header}(+ (scale {scalar} x1) x2)\n")
    code, _, err = run_cli(capsys, "stats", str(src))
    assert code == EXIT_USAGE
    assert err.startswith("error: bad ") and f"... ({len(scalar)} characters)" in err
    assert len(err) < 200


def test_pipeline_on_the_6264_leaf_formula(tmp_path, capsys):
    # monotone and homogeneous, so pipeline reads its degree from the syntax;
    # expanding it to learn the degree gave no answer in 30 s
    import time

    f = bench.gen_random_homogeneous(10, 16, 10**4, seed=116)
    assert ir.size(f) == 6264
    src, out = tmp_path / "f.frm", tmp_path / "o.frm"
    sexpr.write_file(str(src), f)
    start = time.perf_counter()
    code, _, err = run_cli(capsys, "reduce", str(src), "--method", "pipeline", "--no-verify",
                           "-o", str(out))
    assert time.perf_counter() - start < 5
    assert code == EXIT_OK, err
    code, stdout, _ = run_cli(capsys, "verify-equal", str(src), str(out), "--method", "pit")
    assert code == EXIT_OK
    assert reports(stdout)[0]["verify"]["verdict"] == "equal-probably"


@pytest.mark.parametrize("row", ["verify-equal", "reduce-main", "reduce-homogeneous"])
def test_auto_tests_what_its_bound_refuses_by_pit(tmp_path, capsys, row):
    # the static bound passes the default budget, so auto runs PIT without
    # expanding first; expanding up to the budget took more than 20 s here.
    # The product of two 3,000-variable sums has 9 * 10^6 parse trees and
    # C(6002, 2) monomials, the 6,264-leaf formula C(26, 16) monomials
    import time

    xs = [f"x{i}" for i in range(1, 6001)]
    src, out = tmp_path / "src.frm", tmp_path / "out.frm"
    if row == "reduce-homogeneous":
        sexpr.write_file(str(src), bench.gen_random_homogeneous(10, 16, 10**4, seed=116))
    else:
        src.write_text(f"(* (+ {' '.join(xs[:3000])}) (+ {' '.join(xs[3000:])}))\n")
    if row == "verify-equal":
        out.write_text(f"(* (+ {' '.join(xs[:3000])}) (+ {' '.join(reversed(xs[3000:]))}))\n")
        argv = ("verify-equal", str(src), str(out))
    else:
        argv = ("reduce", str(src), "--method", row[len("reduce-"):], "-o", str(out))
    start = time.perf_counter()
    code, stdout, err = run_cli(capsys, *argv)
    assert time.perf_counter() - start < 5
    assert code == EXIT_OK, err
    assert reports(stdout)[0]["verify"] == {"method": "pit", "verdict": "equal-probably"}


def test_reduce_main_on_fanin_1_products(tmp_path, capsys):
    p = tmp_path / "p.frm"
    for text in ("(* x3)\n", "(* (* x3) x1)\n"):
        p.write_text(text)
        code, _, err = run_cli(capsys, "reduce", str(p), "--method", "main")
        assert code == EXIT_OK
        assert reports(err)[0]["verify"]["verdict"] == "equal"


def _sweep_expr(rng, depth: int) -> str:
    if depth == 0 or rng.random() < 0.3:
        return rng.choice(["1", "x1", "x2", "x3"])
    children = []
    for _ in range(rng.randint(1, 3)):
        child = _sweep_expr(rng, depth - 1)
        if rng.random() < 0.25:
            child = f"(scale {rng.choice(['2', '-1', '1/2', '3', '0'])} {child})"
        children.append(child)
    return f"({rng.choice('+*')} " + " ".join(children) + ")"


def test_cli_sweep_exit_codes(tmp_path, capsys):
    # small random formulas through every command: each run ends in a
    # documented exit code, never a traceback, and a pass never fails its check
    rng = random.Random(2026)
    f, out_file, prefix = str(tmp_path / "f.frm"), str(tmp_path / "o.frm"), str(tmp_path / "c")
    commands = [("reduce", f, "--method", m, "-o", out_file)
                for m in transforms.PASSES if m != "prodfanin2"] + [
        ("prodfanin2", f, "-o", out_file), ("homogenize", f, "--degree", "3", "--out-prefix", prefix),
        ("stats", f), ("expand", f), ("validate", f, "--check-zero-gates"), ("verify-equal", f, f)]
    # every hand-picked shape runs through every command, a random one through one
    runs = [(text, commands) for text in ("(* x3)", "(* (* x3) x1)", "(+ x1 (* x2 x3))",
                                          "(* x1)", "(* x1 (scale 2 (scale 1 1)))", "(+ 1 1)")]
    for _ in range(1000):
        text = (rng.choice(["", "mode: noncommutative\n"])
                + rng.choice(["", "field: Fp:7\n", "field: Fp:97\n"]) + _sweep_expr(rng, 4))
        runs.append((text, [rng.choice(commands)]))
    for text, argvs in runs:
        Path(f).write_text(text + "\n")
        for argv in argvs:
            try:
                code, out, err = run_cli(capsys, *argv)
            except Exception as exc:  # noqa: BLE001 - report the input that raised
                pytest.fail(f"{argv[:3]} on {text!r} raised {exc!r}")
            assert code in (EXIT_OK, EXIT_VERIFY_FAILED, EXIT_USAGE, EXIT_BUDGET), (text, argv)
            if code == EXIT_VERIFY_FAILED:
                assert argv[0] not in ("reduce", "prodfanin2"), (text, argv, err)
                verdicts = [r["verify"]["verdict"] for r in reports(out)]
                assert verdicts[-1:] in (["unequal"], ["failed"]), (text, argv, err)


@pytest.fixture(scope="module")
def deep_inputs(tmp_path_factory):
    """comb(8001) and the 8,001-leaf sum chain, as formulas and as files."""
    out = {}
    for name, f in (("comb", bench.gen_comb(8001)), ("chain", sum_chain(8001))):
        path = tmp_path_factory.mktemp("deep") / f"{name}.frm"
        sexpr.write_file(str(path), f)
        out[name] = (f, str(path))
    return out


DEEP_CLI = [
    ("stats",), ("validate",), ("prodfanin2", "-o", "{out}"),
    ("homogenize", "--degree", "2", "--out-prefix", "{out}c"),
    ("verify-equal", "{src}", "--method", "pit"),
] + [("reduce", "--method", m, "--no-verify", "-o", "{out}")
     for m in ("bb", "main", "nearlinear", "homogeneous")]

DEEP_LIBRARY = {
    "binarize": transforms.binarize,
    "product_fanin_2": transforms.product_fanin_2,
    "depth_reduce_bb": transforms.depth_reduce_bb,
    "depth_reduce_main": lambda f: transforms.depth_reduce_main(f, "auto"),
    "depth_reduce_nearlinear": transforms.depth_reduce_nearlinear,
    "depth_reduce_homogeneous": transforms.depth_reduce_homogeneous,
    "homogenize": lambda f: transforms.homogenize(f, 2),
    "pit_equal": lambda f: pit.pit_equal(f, f),
    "collapse": transforms.collapse,
    "skew_to_sigma_pi": transforms.skew_to_sigma_pi,
    "pipeline_inhom": transforms.pipeline_inhom,
}

# skew_to_sigma_pi on comb takes longer than 10 s, and comb mixes degrees, so
# pipeline expands it; ROADMAP.md item 3 names every row left out of the
# sweep, with its reason
DEEP_ROWS = [(shape, "cli", argv) for shape in ("comb", "chain") for argv in DEEP_CLI] + [
    ("chain", "cli", ("reduce", "--method", "pipeline", "--no-verify", "-o", "{out}"))] + [
    (shape, "lib", name) for shape in ("comb", "chain") for name in DEEP_LIBRARY
    if (shape, name) not in (("comb", "skew_to_sigma_pi"), ("comb", "pipeline_inhom"))]


@pytest.mark.parametrize("shape, kind, row", DEEP_ROWS,
                         ids=[f"{s}-{' '.join(a for a in r if '{' not in a) if k == 'cli' else r}"
                              for s, k, r in DEEP_ROWS])
def test_deep_sweep(deep_inputs, tmp_path, capsys, shape, kind, row):
    # depth 8000 at the interpreter's default recursion limit: every row ends
    # in a documented exit code, with no traceback, within 10 s
    import sys
    import time

    f, src = deep_inputs[shape]
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    try:
        start = time.perf_counter()
        if kind == "cli":
            argv = [row[0], src] + [a.format(src=src, out=tmp_path / "o") for a in row[1:]]
            code, _, err = run_cli(capsys, *argv)
            assert code in (EXIT_OK, EXIT_VERIFY_FAILED, EXIT_USAGE, EXIT_BUDGET), err
            assert "Traceback" not in err
        else:
            DEEP_LIBRARY[row](f)
        assert time.perf_counter() - start < 10
    finally:
        sys.setrecursionlimit(limit)


def test_check_hard(capsys):
    code, out, _ = run_cli(capsys, "check-hard", "--k", "2", "--r", "2")
    assert code == EXIT_OK
    rep = reports(out)[0]
    assert rep["extra"]["monomial_count"] == 8
    assert rep["extra"]["prefix_property"] is True
    assert rep["extra"]["gate_count_bound"] is True


def _count_expansions(monkeypatch) -> tuple[list, list]:
    """Record every formula that poly compiles for expansion, and every H
    reference built."""
    expanded, references = [], []
    real_compile, real_gen_hard = poly._compile, hardpoly.gen_hard

    def counting_compile(*formulas):
        expanded.extend(formulas)
        return real_compile(*formulas)

    def recording_gen_hard(*args, **kwargs):
        references.append(real_gen_hard(*args, **kwargs))
        return references[-1]

    monkeypatch.setattr(poly, "_compile", counting_compile)
    monkeypatch.setattr(hardpoly, "gen_hard", recording_gen_hard)
    return expanded, references


def test_check_hard_expands_target_once(tmp_path, capsys, monkeypatch):
    path = tmp_path / "h.frm"
    run_cli(capsys, "gen-hard", "--k", "2", "--r", "3", "-o", str(path))
    expanded, references = _count_expansions(monkeypatch)
    code, out, _ = run_cli(capsys, "check-hard", "--k", "2", "--r", "3", "--formula", str(path))
    assert code == EXIT_OK
    assert len(references) == 1
    assert len(expanded) == 2
    assert expanded[0] is not references[0]  # the target, read from the file
    assert expanded[1] is references[0]
    extra = reports(out)[0]["extra"]
    assert extra["monomial_count"] == 3**3
    assert extra["prefix_property"] is True and extra["gate_count_bound"] is True


@pytest.mark.parametrize("commutative", [True, False])
def test_check_hard_decides_from_the_packed_table(tmp_path, capsys, monkeypatch, commutative):
    # a passing reduced H(2, 3) and H(3, 3): no PolyTable, no decoded key, no
    # decoded variable and no prefix verdict; the three fields that follow from
    # the equality with H(k, r) are reported as H's own
    built, decoded, words, verdicts = [], [], [], []
    real_init, real_decoder = poly.PolyTable.__init__, poly._decoder

    def counting_decoder(packing):
        decode = real_decoder(packing)
        return lambda key: decoded.append(key) or decode(key)

    for k, r in ((2, 3), (3, 3)):
        p = hardpoly.HardParams(k=k, r=r)
        fb = transforms.binarize(hardpoly.gen_hard(p, commutative=commutative))
        m = ir.metrics(fb)
        path = tmp_path / f"h{k}{r}.frm"
        sexpr.write_file(str(path), transforms.depth_reduce_main(
            fb, transforms.auto_delta(m.size, m.syn_degree, m.sum_depth)))
        with monkeypatch.context() as patch:
            patch.setattr(poly.PolyTable, "__init__", lambda *a, **kw: built.append(a) or real_init(*a, **kw))
            patch.setattr(poly, "_decoder", counting_decoder)
            patch.setattr(hardpoly, "decode_var", lambda *a: words.append(a))
            patch.setattr(hardpoly, "_prefix_verdict", lambda *a: verdicts.append(a))
            code, out, _ = run_cli(capsys, "check-hard", "--k", str(k), "--r", str(r),
                                   "--formula", str(path))
        assert code == EXIT_OK
        extra = reports(out)[0]["extra"]
        assert extra["monomial_count"] == hardpoly.expected_monomials(p)
        assert extra["monomial_count_ok"] and extra["unit_coefficients"] and extra["prefix_property"]
        assert (built, decoded, words, verdicts) == ([], [], [], [])


def test_check_hard_reports_a_gate_above_its_bound(tmp_path, capsys):
    # H(1, 2) + S*S - S*S with S = x0 + x1 + x2 + x3 computes H(1, 2), but the
    # gate S*S has 10 monomials at degree 2, above r^(2 - 1) = 2
    path = tmp_path / "h.frm"
    run_cli(capsys, "gen-hard", "--k", "1", "--r", "2", "-o", str(path))
    h, s = path.read_text().splitlines()[-1], "(+ x0 x1 x2 x3)"
    path.write_text(f"(+ {h} (* {s} {s}) (scale -1 (* {s} {s})))\n")
    code, out, err = run_cli(capsys, "check-hard", "--k", "1", "--r", "2", "--formula", str(path))
    assert (code, err) == (EXIT_VERIFY_FAILED, "")
    assert re.sub(r'"duration": [0-9.e-]+, ', "", out) == (
        '{"extra": {"gate_count_bound": false, "gate_counterexample": {"bound": 2, "count": 10, '
        '"degree": 2, "gate_id": 8}, "monomial_count": 2, "monomial_count_ok": true, '
        '"prefix_counterexample": null, "prefix_property": true, "unit_coefficients": true}, '
        '"input": {"depth": 3, "product_depth": 1, "size": 20, "sum_depth": 2, "syn_degree": 2}, '
        '"output": {}, "params": {"k": 1, "r": 2}, "pass": "check-hard", '
        '"verify": {"method": "none", "verdict": "failed"}}\n'
    )


def test_check_hard_wrong_formula(tmp_path, capsys, monkeypatch):
    expanded, references = _count_expansions(monkeypatch)
    # the second is H(1, 2) with one monomial doubled: right support, wrong polynomial
    for text in ("(* x1 x2)\n", "(+ (* x0 x2) (scale 2 (* x1 x3)))\n"):
        other = tmp_path / "o.frm"
        other.write_text(text)
        expanded.clear()
        references.clear()
        code, _, err = run_cli(capsys, "check-hard", "--k", "1", "--r", "2",
                               "--formula", str(other))
        assert code == EXIT_VERIFY_FAILED
        assert "does not compute" in err
        assert len(expanded) == 2 and expanded[1] is references[0]


def test_canonical_check_hard_builds_h_once(tmp_path, capsys, monkeypatch):
    # with no --formula the target is H(k, r) by construction: one build, one
    # expansion, no comparison
    expanded, references = _count_expansions(monkeypatch)
    code, _, _ = run_cli(capsys, "check-hard", "--k", "3", "--r", "3")
    assert code == EXIT_OK
    assert len(references) == 1 and expanded == references
    # and it reports what --formula reports on the same formula, in either mode
    strip = lambda out: re.sub(r'"duration": [0-9.e-]+, ', "", out)
    path = tmp_path / "h.frm"
    for k in (1, 2, 3):
        for r in (2, 3, 4):
            canonical = run_cli(capsys, "check-hard", "--k", str(k), "--r", str(r))
            assert canonical[0] == EXIT_OK
            for mode in ((), ("--noncommutative",)):
                run_cli(capsys, "gen-hard", "--k", str(k), "--r", str(r), *mode, "-o", str(path))
                given = run_cli(capsys, "check-hard", "--k", str(k), "--r", str(r),
                                "--formula", str(path))
                assert (given[0], strip(given[1]), given[2]) == (
                    canonical[0], strip(canonical[1]), canonical[2]), (k, r, mode)


def test_bench_csv(tmp_path, capsys):
    csv_path = tmp_path / "rows.csv"
    code, out, _ = run_cli(
        capsys, "bench", "--family", "comb", "--sizes", "32,64", "--pass", "bb",
        "--epsilon", "1", "--seed", "3", "--csv", str(csv_path),
    )
    assert code == EXIT_OK
    lines = csv_path.read_text().splitlines()
    assert lines[0].startswith("s_in,d,depth_in")
    assert len(lines) == 3
    assert any(r["pass"] == "bench/constants" for r in reports(out))


def test_bench_csv_is_all_or_nothing(tmp_path, capsys, monkeypatch):
    # a CSV that cannot be made leaves the old one's bytes
    csv_path = tmp_path / "rows.csv"
    csv_path.write_text("s_in,d\n1,2\n")

    def broken(rows):
        raise ValueError("no rows")

    monkeypatch.setattr(bench, "rows_to_csv", broken)
    code, _, err = run_cli(capsys, "bench", "--family", "comb", "--sizes", "32", "--pass", "bb",
                           "--csv", str(csv_path))
    assert code == EXIT_USAGE and "no rows" in err
    assert csv_path.read_text() == "s_in,d\n1,2\n"
    assert [p.name for p in tmp_path.iterdir()] == ["rows.csv"]


def test_human_reports(tmp_path, capsys):
    p = tmp_path / "f.frm"
    p.write_text("(+ x1 x2)\n")
    code, out, _ = run_cli(capsys, "--human", "stats", str(p))
    assert code == EXIT_OK
    assert "pass: stats" in out


def test_gen_hard_noncommutative_mode(tmp_path, capsys):
    path = tmp_path / "m.frm"
    code, _, _ = run_cli(
        capsys, "gen-hard", "--k", "1", "--r", "2", "--noncommutative", "-o", str(path)
    )
    assert code == EXIT_OK
    f = sexpr.parse_file(str(path))
    assert not f.commutative


def test_env_var_default_prime(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("LOWDEPTH_PRIME", "101")
    a = tmp_path / "a.frm"
    b = tmp_path / "b.frm"
    a.write_text("(+ x1 x2)\n")
    b.write_text("(+ x2 x1)\n")
    code, out, _ = run_cli(capsys, "verify-equal", str(a), str(b), "--method", "pit")
    assert code == EXIT_OK
    # the flag overrides the environment
    code, out, _ = run_cli(
        capsys, "verify-equal", str(a), str(b), "--method", "pit", "--prime", "10007"
    )
    assert code == EXIT_OK


def test_gen_hard_field_flag(tmp_path, capsys):
    path = tmp_path / "m.frm"
    code, _, _ = run_cli(
        capsys, "gen-hard", "--k", "1", "--r", "2", "--field", "Fp:97", "-o", str(path)
    )
    assert code == EXIT_OK
    f = sexpr.parse_file(str(path))
    assert f.field.name == "Fp:97"


def test_outside_input_is_a_usage_error(tmp_path, capsys, monkeypatch):
    f, g = tmp_path / "f.frm", tmp_path / "g.frm"
    f.write_text("(+ x1 x2)\n")
    g.write_text("(+ x2 x1)\n")
    composite = tmp_path / "c.frm"
    composite.write_text("field: Fp:12\n(+ x1 x2)\n")
    pit_pair = ("verify-equal", str(f), str(g), "--method", "pit")
    cases = [
        pit_pair + ("--trials", "-1"),
        pit_pair + ("--trials", "0"),
        ("reduce", str(f), "--method", "main", "--trials", "0"),
        ("bench", "--family", "comb", "--sizes", "8", "--pass", "bb", "--verify", "pit",
         "--trials", "0"),
        ("expand", str(f), "--budget", "-1"),
        ("expand", str(f), "--max-terms", "-1"),
        ("verify-equal", str(f), str(g), "--budget", "-1"),
        ("gen-hard", "--k", "0", "--r", "2"),
        ("check-hard", "--k", "0", "--r", "2"),
        ("gen-hard", "--k", "4", "--r", "20"),  # 40^4 variables: UniverseTooLarge
        ("stats", str(composite)),
        ("gen-hard", "--k", "1", "--r", "2", "--field", "Fp:12"),
        pit_pair + ("--prime", "1000000"),
        ("reduce", str(f), "--method", "main", "--prime", "12"),
    ]
    for argv in cases:
        code, out, err = run_cli(capsys, *argv)
        assert code == EXIT_USAGE, argv
        assert "Traceback" not in err and not reports(out), argv
    # the environment is read only by the commands that need a prime
    for env in ("abc", "12"):
        monkeypatch.setenv("LOWDEPTH_PRIME", env)
        assert run_cli(capsys, "stats", str(f))[0] == EXIT_OK
        assert run_cli(capsys, *pit_pair)[0] == EXIT_USAGE
        assert run_cli(capsys, "gen-hard", "--k", "1", "--r", "2", "--field", "Fp")[0] == EXIT_USAGE
        # a flag or an explicit field prime overrides a bad environment
        assert run_cli(capsys, *pit_pair, "--prime", "1000003")[0] == EXIT_OK
        assert run_cli(capsys, "gen-hard", "--k", "1", "--r", "2", "--field", "Fp:97")[0] == EXIT_OK
    monkeypatch.setenv("LOWDEPTH_PRIME", "101")
    code, out, _ = run_cli(capsys, "gen-hard", "--k", "1", "--r", "2", "--field", "Fp")
    assert code == EXIT_OK and "field: Fp:101" in out
    # the smallest accepted values still run
    assert run_cli(capsys, *pit_pair, "--trials", "1")[0] == EXIT_OK
    assert run_cli(capsys, "expand", str(f), "--max-terms", "0")[0] == EXIT_OK
    assert run_cli(capsys, "expand", str(f), "--budget", "0")[0] == EXIT_BUDGET


def _exit_corpus(tmp_path) -> list[tuple[int, tuple]]:
    """(exit code, argv): every subcommand on a success path, and on exits 1,
    2 and 3 where it has them."""
    h, a, b, c = (str(tmp_path / f"{n}.frm") for n in "habc")
    zero, nc, bad = (str(tmp_path / f"{n}.frm") for n in ("zero", "nc", "bad"))
    missing = str(tmp_path / "missing.frm")
    sexpr.write_file(h, hardpoly.gen_hard(hardpoly.HardParams(k=2, r=3)))
    Path(a).write_text("(+ x1 (* x2 x3))\n")
    Path(b).write_text("(+ (* x3 x2) x1)\n")
    Path(c).write_text("(+ x1 (* x2 x2))\n")
    Path(zero).write_text("(+ x1 (+ x2 (scale -1 x2)))\n")
    Path(nc).write_text("mode: noncommutative\n(+ x1 x2)\n")
    # H(1, 2) plus S*S minus S*S: computes H(1, 2), but S*S passes its gate bound
    s = "(+ x0 x1 x2 x3)"
    Path(bad).write_text(f"(+ (+ (* x0 x2) (* x1 x3)) (* {s} {s}) (scale -1 (* {s} {s})))\n")
    out = str(tmp_path / "out.frm")
    return [
        (EXIT_OK, ("stats", h)),
        (EXIT_OK, ("--human", "stats", h)),
        (EXIT_USAGE, ("stats", missing)),
        (EXIT_OK, ("validate", a, "--check-zero-gates")),
        (EXIT_VERIFY_FAILED, ("validate", zero, "--check-zero-gates")),
        (EXIT_USAGE, ("validate", missing)),
        (EXIT_BUDGET, ("validate", h, "--check-zero-gates", "--budget", "0")),
        (EXIT_OK, ("expand", h)),
        (EXIT_USAGE, ("expand", missing)),
        (EXIT_BUDGET, ("expand", h, "--budget", "1")),
        *[(EXIT_OK, ("reduce", h, "--method", method, "-o", out))
          for method in ("bb", "main", "nearlinear", "homogeneous", "pipeline")],
        (EXIT_OK, ("reduce", h, "--method", "main")),
        (EXIT_OK, ("reduce", h, "--method", "main", "--budget", "0", "-o", out)),  # PIT fallback
        (EXIT_USAGE, ("reduce", missing, "--method", "main")),
        (EXIT_USAGE, ("reduce", h, "--method", "bb", "--epsilon", "2")),
        (EXIT_OK, ("homogenize", c, "--degree", "2", "--out-prefix", str(tmp_path / "comp"))),
        (EXIT_USAGE, ("homogenize", missing, "--degree", "2", "--out-prefix", "comp")),
        (EXIT_OK, ("prodfanin2", h, "-o", out)),
        (EXIT_USAGE, ("prodfanin2", missing)),
        (EXIT_OK, ("gen-hard", "--k", "2", "--r", "2")),
        (EXIT_OK, ("gen-hard", "--k", "1", "--r", "2", "--noncommutative", "-o", out)),
        (EXIT_USAGE, ("gen-hard", "--k", "1", "--r", "2", "--field", "Fp:12")),
        (EXIT_OK, ("check-hard", "--k", "2", "--r", "3")),
        (EXIT_OK, ("check-hard", "--k", "2", "--r", "3", "--formula", h)),
        (EXIT_VERIFY_FAILED, ("check-hard", "--k", "1", "--r", "2", "--formula", bad)),
        (EXIT_VERIFY_FAILED, ("check-hard", "--k", "2", "--r", "3", "--formula", a)),
        (EXIT_USAGE, ("check-hard", "--k", "0", "--r", "2")),
        (EXIT_BUDGET, ("check-hard", "--k", "2", "--r", "3", "--budget", "1")),
        (EXIT_OK, ("verify-equal", a, b)),
        (EXIT_VERIFY_FAILED, ("verify-equal", a, c, "--method", "pit")),
        (EXIT_VERIFY_FAILED, ("verify-equal", a, c, "--method", "expand")),
        (EXIT_USAGE, ("verify-equal", a, nc)),
        (EXIT_BUDGET, ("verify-equal", a, b, "--method", "expand", "--budget", "0")),
        (EXIT_OK, ("bench", "--family", "comb", "--sizes", "64", "--pass", "bb", "--reps", "2")),
        *[(EXIT_OK, ("bench", "--family", family, "--sizes", "60", "--degrees", "4",
                     "--pass", "homogeneous", "--verify", "pit"))
          for family in ("random-homogeneous", "random-skew")],
        (EXIT_OK, ("bench", "--family", "hard", "--pass", "main", "--csv", str(tmp_path / "r.csv"))),
        (EXIT_VERIFY_FAILED, ("bench", "--family", "comb", "--sizes", "8", "--pass", "bb",
                              "--epsilon", "2")),
        (EXIT_USAGE, ("bench", "--family", "comb", "--pass", "bb")),
    ]


def test_commands_leave_no_cyclic_garbage(tmp_path, capsys):
    """main pauses the cyclic collector while a command runs, which holds back
    no memory only if a command leaves no reference cycle behind.  Argparse
    usage errors are left out: argparse's own error path builds a formatter
    that is a small cycle (6 objects), and it exits before any command runs."""
    corpus = _exit_corpus(tmp_path)
    run_cli(capsys, "stats", corpus[0][1][1])  # the first call in a process builds the parser
    enabled = gc.isenabled()
    gc.collect()
    gc.freeze()  # collections then scan only what the commands make, not the whole test session
    gc.disable()  # and no automatic collection frees a command's cycles before they are counted
    try:
        for code, argv in corpus:
            gc.collect()
            assert run_cli(capsys, *argv)[0] == code, argv
            assert gc.collect() == 0, argv
    finally:
        gc.unfreeze()
        if enabled:
            gc.enable()
    # every subcommand the parser has, and every exit code
    assert {argv[0] for _, argv in corpus} - {"--human"} == set(
        cli._shared_parser()._subparsers._group_actions[0].choices)
    assert {code for code, _ in corpus} == {EXIT_OK, EXIT_VERIFY_FAILED, EXIT_USAGE, EXIT_BUDGET}


def test_main_pauses_the_collector_and_gives_back_its_state(tmp_path, capsys, monkeypatch):
    f, g = tmp_path / "f.frm", tmp_path / "g.frm"
    f.write_text("(+ x1 (* x2 x3))\n")
    g.write_text("(+ x1 (* x2 x2))\n")
    cases = [
        (EXIT_OK, ("reduce", str(f), "--method", "main")),
        (EXIT_VERIFY_FAILED, ("verify-equal", str(f), str(g), "--method", "pit")),
        (EXIT_USAGE, ("reduce", str(f), "--method", "bb", "--epsilon", "2")),
        (EXIT_BUDGET, ("expand", str(f), "--budget", "0")),
    ]
    inside, real_run_pass = [], transforms.run_pass

    def recording_run_pass(*args, **kwargs):
        inside.append(gc.isenabled())
        return real_run_pass(*args, **kwargs)

    def failing_run_pass(*args, **kwargs):
        raise RuntimeError("planted")

    enabled = gc.isenabled()
    try:
        for caller_had_it in (True, False):
            gc.enable() if caller_had_it else gc.disable()
            monkeypatch.setattr(transforms, "run_pass", recording_run_pass)
            for code, argv in cases:
                assert run_cli(capsys, *argv)[0] == code, argv
                assert gc.isenabled() is caller_had_it, argv
            monkeypatch.setattr(transforms, "run_pass", failing_run_pass)
            with pytest.raises(RuntimeError, match="planted"):
                cli.main(["reduce", str(f), "--method", "main"])
            assert gc.isenabled() is caller_had_it
        assert inside == [False, False, False, False]
    finally:
        gc.enable() if enabled else gc.disable()


def test_main_builds_one_parser_and_reads_the_prime_per_call(tmp_path, capsys, monkeypatch):
    built, real_build = [], cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda: built.append(1) or real_build())
    cli._shared_parser.cache_clear()
    f, g = tmp_path / "f.frm", tmp_path / "g.frm"
    f.write_text("(+ x1 (* x2 x3))\n")
    g.write_text("(+ x1 (* x2 x2))\n")
    primes = []
    for env in ("1000003", None):
        if env is None:
            monkeypatch.delenv("LOWDEPTH_PRIME")
        else:
            monkeypatch.setenv("LOWDEPTH_PRIME", env)
        code, out, _ = run_cli(capsys, "verify-equal", str(f), str(g), "--method", "pit")
        assert code == EXIT_VERIFY_FAILED
        primes.append(reports(out)[0]["extra"]["witness"]["prime"])
    assert primes == [1000003, 2**61 - 1]
    assert len(built) == 1


def test_benchmark_replay_builds_pit_config_from_parsed_flags(tmp_path, monkeypatch):
    """perfbench's traced replay hands the parsed --prime straight to PITConfig,
    so it must parse to the prime with and without the flag."""
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    replay, workloads = importlib.import_module("replay"), importlib.import_module("workloads")
    f, g = tmp_path / "f.frm", tmp_path / "g.frm"
    f.write_text("(+ x1 (* x2 x3))\n")
    g.write_text("(+ (* x2 x3) x1)\n")
    for verify in (workloads._WIDE_VERIFY, workloads._DEEP_VERIFY):
        argv = ["verify-equal", str(f), str(g), *verify, "--budget", "0", "--seed", "0"]
        assert cli.build_parser().parse_args(argv).prime == cli.MERSENNE61
        assert replay.replay_verify(lowdepth, replay.Tracer(), argv) == "equal-probably"
        assert cli.build_parser().parse_args(argv + ["--prime", "101"]).prime == 101
        monkeypatch.setenv("LOWDEPTH_PRIME", "1000003")
        assert cli.build_parser().parse_args(argv).prime == 1000003
        monkeypatch.delenv("LOWDEPTH_PRIME")
