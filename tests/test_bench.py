import pytest

import reference

from lowdepth import bench, ir, poly, transforms
from lowdepth.errors import InfeasibleShape
from lowdepth.ir import VarLeaf


def test_comb_shape():
    f = bench.gen_comb(5)
    assert ir.metrics(f).size == 5
    assert ir.is_skew(f)
    words = sorted(w for _, w in reference.enumerate_parse_trees(f))
    assert words == [(0,), (1, 2), (1, 3, 4)]


def test_comb_single_leaf():
    assert bench.gen_comb(1).root == VarLeaf(0)


def test_random_homogeneous_degree_one():
    f = bench.gen_random_homogeneous(4, 1, 4, seed=0)
    assert ir.syn_degree(f) == 1
    assert ir.size(f) <= 4


def test_random_homogeneous_shape():
    f = bench.gen_random_homogeneous(8, 4, 50, seed=7)
    assert ir.is_homogeneous(f)
    assert ir.syn_degree(f) == 4
    assert ir.size(f) <= 50
    assert reference.is_monotone(f)


def test_random_homogeneous_infeasible():
    with pytest.raises(InfeasibleShape):
        bench.gen_random_homogeneous(2, 5, 3, seed=0)


def test_random_homogeneous_deterministic():
    a = bench.gen_random_homogeneous(6, 3, 40, seed=42)
    b = bench.gen_random_homogeneous(6, 3, 40, seed=42)
    assert a == b
    c = bench.gen_random_homogeneous(6, 3, 40, seed=43)
    assert a != c


def test_random_skew_shape():
    for seed in range(6):
        f = bench.gen_random_skew(5, seed=seed)
        assert ir.is_skew(f)
        assert ir.max_fanin(f) <= 2
        assert ir.metrics(f).sum_depth <= 5
        leaves = [n.var for n in ir.postorder(f.root) if isinstance(n, VarLeaf)]
        assert len(leaves) == len(set(leaves))


def test_run_hard_main_row():
    e = bench.Experiment(
        family="hard",
        family_params={"k": 2, "r": 2},
        pass_name="main",
        seed=0,
    )
    rows = bench.run(e)
    assert len(rows) == 1
    row = rows[0]
    assert row.verified and not row.failed
    assert row.product_depth_out <= row.phi_delta
    assert row.size_out <= row.bound_size


def test_run_comb_bb_row():
    e = bench.Experiment(
        family="comb",
        family_params={"size": 64},
        pass_name="bb",
        pass_params={"epsilon": 1},
        seed=0,
    )
    row = bench.run(e)[0]
    assert row.verified
    assert row.depth_out < 63


def test_rerun_identical_modulo_duration():
    e = bench.Experiment(
        family="random-homogeneous",
        family_params={"n_vars": 6, "d": 3, "size": 60},
        pass_name="main",
        seed=5,
        repetitions=3,
    )
    first = bench.run(e)
    second = bench.run(e)

    def strip(rows):
        return [
            tuple(getattr(r, c) for c in bench.CSV_COLUMNS if c != "duration")
            for r in rows
        ]

    assert strip(first) == strip(second)
    # CSV bytes identical once the duration column is blanked
    def blank(csv_text):
        lines = csv_text.splitlines()
        idx = bench.CSV_COLUMNS.index("duration")
        out = [lines[0]]
        for line in lines[1:]:
            cells = line.split(",")
            cells[idx] = "_"
            out.append(",".join(cells))
        return "\n".join(out)

    assert blank(bench.rows_to_csv(first)) == blank(bench.rows_to_csv(second))


def test_row_failure_marked_not_raised():
    e = bench.Experiment(
        family="random-homogeneous",
        family_params={"n_vars": 2, "d": 5, "size": 3},  # infeasible shape
        pass_name="main",
        seed=0,
    )
    rows = bench.run(e)
    assert len(rows) == 1
    assert rows[0].failed and not rows[0].verified


def test_unknown_verify_method_fails_row():
    e = bench.Experiment(
        family="comb", family_params={"size": 8}, pass_name="bb", verify="bogus"
    )
    (row,) = bench.run(e)
    assert not row.verified
    assert "unknown verification method" in row.failed


def test_every_pass_name_dispatches():
    f = bench.gen_random_homogeneous(4, 4, 40, seed=7)
    for name in transforms.PASSES:
        out, _, _ = transforms.run_pass(f, name, {})
        assert poly.equal_expand(f, out), name
    with pytest.raises(ValueError, match="unknown pass"):
        transforms.run_pass(f, "bogus", {})


def test_csv_columns_fixed_order():
    header = bench.rows_to_csv([]).splitlines()[0]
    assert header == ",".join(bench.CSV_COLUMNS)
    assert bench.CSV_COLUMNS[:3] == ["s_in", "d", "depth_in"]


def test_fit_constants():
    e = bench.Experiment(
        family="random-homogeneous",
        family_params={"n_vars": 6, "d": 4, "size": 80},
        pass_name="homogeneous",
        seed=1,
        repetitions=2,
    )
    rows = bench.run(e)
    fitted = bench.fit_constants(rows)
    assert fitted["c_depth"] > 0
    assert all(r.verified for r in rows)
