import json

import pytest

from lowdepth import bench, cli, hardpoly, ir, poly, sexpr, transforms
from lowdepth.ir import ProdGate, SumGate, VarLeaf
from lowdepth.cli import EXIT_BUDGET, EXIT_OK, EXIT_USAGE, EXIT_VERIFY_FAILED


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


@pytest.mark.parametrize("fault", ["deeper", "higher-degree"])
def test_reduce_rejects_bb_output_outside_contract(tmp_path, capsys, monkeypatch, fault):
    f = bench.gen_comb(200)
    src = tmp_path / "in.frm"
    sexpr.write_file(str(src), f)
    bound = transforms.bb_depth_bound(200, transforms.bb_branch_param(1))
    real = transforms.depth_reduce_bb

    def doctored(formula, epsilon):
        out = real(formula, epsilon)
        one, root = out.field.one(), out.root
        if fault == "deeper":  # fan-in-1 sums, one level past the bound
            for _ in range(bound + 1 - ir.metrics(out).depth):
                root = SumGate(((one, root),))
        else:  # times a fresh variable, within the depth bound
            root = ProdGate(((one, root), (one, VarLeaf(999))))
            assert ir.metrics(out).depth + 1 <= bound
        return out.with_root(root)

    monkeypatch.setattr(transforms, "depth_reduce_bb", doctored)
    code, _, err = run_cli(
        capsys, "reduce", str(src), "--method", "bb", "--epsilon", "1",
        "-o", str(tmp_path / "o.frm"),
    )
    assert code == EXIT_VERIFY_FAILED
    assert len(err.strip().splitlines()) == 1 and err.startswith("error: bb ")


def test_metrics_walks_per_reduce(tmp_path, capsys, monkeypatch):
    # every formula's root metrics are measured once and kept; passes that
    # build a per-node map keep its root entry instead of walking again
    wide = bench.gen_random_homogeneous(6, 4, 60, seed=3)
    quadratic = bench.gen_random_homogeneous(6, 2, 60, seed=3)
    assert ir.max_fanin(wide) > 2 and 2**4 < ir.size(quadratic)
    files = {}
    for name, f in (("wide", wide), ("fan2", transforms.binarize(wide)), ("d2", quadratic)):
        files[name] = tmp_path / f"{name}.frm"
        sexpr.write_file(str(files[name]), f)
    walks = []
    real = ir.metrics_map

    def counting(root):
        walks.append(root)
        return real(root)

    monkeypatch.setattr(ir, "metrics_map", counting)
    out = str(tmp_path / "o.frm")
    cases = [
        (["reduce", files["wide"], "--method", "homogeneous"], 4),
        (["reduce", files["fan2"], "--method", "main"], 2),
        (["reduce", files["wide"], "--method", "main"], 3),
        (["reduce", files["wide"], "--method", "nearlinear"], 2),  # bb only
        (["reduce", files["d2"], "--method", "nearlinear", "--epsilon", "1"], 4),
        (["reduce", files["wide"], "--method", "pipeline"], 6),
        (["prodfanin2", files["wide"]], 2),
        (["reduce", files["wide"], "--method", "bb"], 2),
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


def test_check_hard(capsys):
    code, out, _ = run_cli(capsys, "check-hard", "--k", "2", "--r", "2")
    assert code == EXIT_OK
    rep = reports(out)[0]
    assert rep["extra"]["monomial_count"] == 8
    assert rep["extra"]["prefix_property"] is True
    assert rep["extra"]["gate_count_bound"] is True


def _count_expansions(monkeypatch) -> tuple[list, list]:
    """Record the formula of every expansion and every H reference built."""
    expanded, references = [], []
    real_expand, real_gen_hard = poly._expand, hardpoly.gen_hard

    def counting_expand(formula, *args, **kwargs):
        expanded.append(formula)
        return real_expand(formula, *args, **kwargs)

    def recording_gen_hard(*args, **kwargs):
        references.append(real_gen_hard(*args, **kwargs))
        return references[-1]

    monkeypatch.setattr(poly, "_expand", counting_expand)
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
