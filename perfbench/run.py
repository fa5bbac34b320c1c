"""Benchmark of verified depth reduction through the `lowdepth` CLI.

Run from the root of a lowdepth checkout:

    python3 perfbench/run.py --workload wide --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --all --seed 1 --seconds 30

One caller drives `lowdepth.cli.main` in-process as a closed loop, one op at a
time.  The run repeats whole passes over the workload's ops until the next
pass would end after `--seconds`; the first pass always runs.  Timings are
medians over the passes.  With `--trace 1` each op is also replayed through
the public functions the CLI calls, with a span around each call, and the
per-layer metrics come from those spans.  `--all` runs every workload, each
in its own process.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`; the metrics are the
`end_to_end` ones of BENCHMARK.json with `--trace 0` and the `per_layer`
ones with `--trace 1`.  See NOTES.md for the workloads and the metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import harness
import replay
import selfcheck
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
#: Set-ups at the start of a run; one more follows each pass, so that the
#: samples of `setup_s` spread over the whole run.
SETUP_REPEATS = 3


def program_id(package: Path) -> str:
    """sha256 over the names and bytes of the program's source files."""
    h = hashlib.sha256()
    for path in sorted(package.rglob("*.py")):
        h.update(path.relative_to(package).as_posix().encode() + b"\0")
        h.update(path.read_bytes() + b"\0")
    return h.hexdigest()


def import_seconds() -> float:
    """Seconds a fresh interpreter takes to import the program's CLI from src/."""
    code = f"import sys; sys.path.insert(0, {str(ROOT / 'src')!r}); import lowdepth.cli"
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", code], check=True)
    return time.perf_counter() - t0


def import_program():
    """Import lowdepth from this checkout's src/, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "lowdepth" / "__init__.py").is_file():
        raise SystemExit(f"error: no lowdepth sources under {src}")
    sys.path.insert(0, str(src))
    import lowdepth
    import lowdepth.cli  # noqa: F401 - the CLI is what the benchmark drives

    if Path(lowdepth.__file__).resolve().parent != (src / "lowdepth").resolve():
        raise SystemExit(f"error: imported lowdepth from {lowdepth.__file__}, not {src}")
    return lowdepth


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--all", action="store_true", help="run every workload, one process each")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.all:
        return run_all(args, spec)
    if args.workload is None:
        ap.error("give --workload NAME or --all")

    if hasattr(os, "sched_setaffinity"):
        # one caller needs one CPU; staying on it keeps the process from
        # migrating between CPUs that run at different speeds
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    L = import_program()

    if args.workload not in workloads.WORKLOADS:
        ap.error(f"unknown workload {args.workload!r}")
    build = ROOT / ".bench_build" / "perfbench"
    build.mkdir(parents=True, exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-{args.seed}-", dir=build))
    try:
        setup_s, gen_s = [], []

        def set_up(directory: Path) -> list[workloads.Input]:
            """Import the program afresh, then generate and write the inputs; timed."""
            directory.mkdir()
            import_s = import_seconds()
            t0 = time.perf_counter()
            inputs, seconds = workloads.generate(L, args.workload, args.seed, directory)
            setup_s.append(import_s + time.perf_counter() - t0)
            gen_s.append(seconds)
            return inputs

        def set_up_again() -> None:
            directory = workdir / f"setup{len(setup_s)}"
            set_up(directory)
            shutil.rmtree(directory)

        directory = workdir / "inputs"
        inputs = set_up(directory)
        for _ in range(SETUP_REPEATS - 1):
            set_up_again()

        program = program_id(Path(L.__file__).parent)
        runner = harness.Runner(L, args.workload, args.seed, directory, build / "hashes.json", program)
        tracer = replay.Tracer() if args.trace else None
        ops = workloads.ops(args.workload, args.seed)
        passes = measure(L, runner, tracer, ops, args.seconds, set_up_again)

        spans_file = None
        if tracer is None:
            metrics, notes = end_to_end(runner, statistics.median(setup_s))
        else:
            metrics, notes = per_layer(tracer.spans, passes, statistics.median(gen_s),
                                       min(i.s_in / i.s_requested for i in inputs))
            spans_file = build / f"spans-{args.workload}-{args.seed}.jsonl"
            with open(spans_file, "w", encoding="utf-8") as fh:
                for rec in tracer.spans:
                    fh.write(json.dumps(rec, sort_keys=True) + "\n")
            notes.append(f"spans: {spans_file.relative_to(ROOT)}")
        notes.append(f"passes: {passes:.2f}, set-ups: {len(setup_s)}")
        notes += [f"input {i.source}: s_in {i.s_in}, s_requested {i.s_requested}" for i in inputs]
        result = {
            "correct": runner.failed == 0,
            "attempted": runner.attempted,
            "failed": runner.failed,
            "metrics": metrics,
        }
        record = build / "runs" / f"{args.workload}-{args.seed}-trace{args.trace}.json"
        record.parent.mkdir(exist_ok=True)
        record.write_text(json.dumps({
            "workload": args.workload, "seed": args.seed, "trace": args.trace, "result": result,
            "spans": str(spans_file.relative_to(ROOT)) if spans_file else None,
        }, sort_keys=True))
        notes.append(f"program: sha256 {program[:16]}, run record: {record.relative_to(ROOT)}")
        problems = selfcheck.check_result(result, spec, args.trace)
        if tracer is not None:
            problems += selfcheck.check_spans(tracer.spans)
        for line in runner.failures:
            print(f"FAILED {line}", file=sys.stderr)
        print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}")
        for name, m in metrics.items():
            print(f"  {name:28s} {m['value']:>14.6g} {m['unit']}")
        for note in notes:
            print(f"  {note}")
        if problems:
            for p in problems:
                print(f"self-check: {p}", file=sys.stderr)
            return 3
        print(json.dumps(result, sort_keys=True))
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def measure(L, runner, tracer, ops, seconds: float, set_up_again) -> float:
    """Run ops in pass order until the next one would end after `seconds`.

    The first pass always runs whole, and only it runs the negative
    controls: they check verdicts, and their times stay out of the metrics.
    In a traced run each op and control is replayed right after its CLI
    calls.  A timed set-up follows each pass.  Returns the passes made.
    """
    start = time.perf_counter()
    spent: dict[str, list[float]] = {}
    done = 0
    while True:
        op = ops[done % len(ops)]
        expected = statistics.median(spent[op.name]) if op.name in spent else 0.0
        if done >= len(ops) and time.perf_counter() - start + expected > seconds:
            return done / len(ops)
        t0 = time.perf_counter()
        ok = runner.run_op(op)
        if tracer is not None and ok:
            ok = replay_checked(L, runner, tracer, op, False, done // len(ops))
        if op.control and ok and done < len(ops):
            ok = runner.run_control(op)
            if tracer is not None and ok:
                replay_checked(L, runner, tracer, op, True, done // len(ops))
        if (done + 1) % len(ops) == 0:
            set_up_again()
        spent.setdefault(op.name, []).append(time.perf_counter() - t0)
        done += 1


def replay_checked(L, runner, tracer, op, control: bool, index: int) -> bool:
    """Replay an op (or its control) traced; it must match the CLI run byte for byte.

    The op's span records `cli_ref_s`, the median untraced time of one call
    of each step, and `speed`, which turns its own seconds into reference
    seconds; the tracing overhead compares the two.
    """
    calls = runner.argv(op)
    kind = "control" if control else "op"
    steps = [s for s in (("control",) if control else ("reduce", "verify", "check"))
             if (op.name, s) in runner.ref_times]
    cli_ref_s = sum(statistics.median(runner.ref_times[(op.name, s)]) for s in steps)
    tracer.op, tracer.pass_index = f"{op.name}/{kind}#{index}", index
    problems = []
    try:
        before = harness.probe()
        with tracer.span(kind, cli_ref_s=cli_ref_s) as attrs:
            if control:
                verdicts = {"control": replay.replay_verify(L, tracer, calls["control"])}
            else:
                text = replay.replay_reduce(L, tracer, calls["reduce"])
                verdicts = {"verify": replay.replay_verify(L, tracer, calls["verify"])}
                if op.hard:
                    verdicts["check"] = replay.replay_check_hard(L, tracer, calls["check"])
        attrs["speed"] = 2 * harness.REFERENCE_PROBE_S / (before + harness.probe())
        tracer.measure_deferred(L)
        if not control and text.encode("utf-8") != Path(calls["reduce"][-1]).read_bytes():
            problems.append("replayed output differs from the CLI output")
        expected = {s: runner.verdicts[(op.name, s)] for s in verdicts}
        if verdicts != expected:
            problems.append(f"replayed verdicts {verdicts} differ from the CLI's {expected}")
    except Exception as exc:  # noqa: BLE001 - a replay that crashes counts as failed
        problems.append(f"replay raised {type(exc).__name__}: {exc}")
    if problems:
        runner.failed += 1
        runner.failures += [f"{runner.workload}/{op.name}/{kind} replay: {p}" for p in problems]
    return not problems


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------

def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(runner, setup_s: float) -> tuple[dict, list[str]]:
    """Per-pass figures from the median time of each CLI step, so every op weighs once.

    `setup_s` is in plain seconds; every other time is in reference seconds
    (see harness.probe).
    """
    med = {key: statistics.median(v) for key, v in runner.ref_times.items()}
    reduce_s = sum(v for (_, step), v in med.items() if step == "reduce")
    verify_s = sum(v for (_, step), v in med.items() if step in ("verify", "check"))
    ops: dict[str, float] = {}
    for (op, step), v in med.items():
        if step != "control":
            ops[op] = ops.get(op, 0.0) + v
    metrics = {
        "setup_s": _metric(setup_s, "s"),
        "wall_s": _metric(reduce_s + verify_s, "ref_s"),
        "op_p50_s": _metric(statistics.median(ops.values()), "ref_s"),
        "reduce_s": _metric(reduce_s, "ref_s"),
        "verify_s": _metric(verify_s, "ref_s"),
        "size_out": _metric(sum(s.size for s in runner.shapes.values()), "count"),
        "depth_out": _metric(sum(s.depth for s in runner.shapes.values()), "count"),
        "peak_rss_mb": _metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "ok_ratio": _metric((runner.attempted - runner.failed) / runner.attempted, "ratio"),
    }
    notes = [f"fail_ratio {runner.failed / runner.attempted:g} ratio: {runner.failed} of "
             f"{runner.attempted} ops and controls failed",
             f"op_p50_s is the median over {len(ops)} ops of their median times"]
    notes += [f"{op} {step}: median {v:.3f} ref_s, {statistics.median(runner.times[(op, step)]):.3f} s "
              f"over {len(runner.times[(op, step)])} calls" for (op, step), v in med.items()]
    return metrics, notes


def per_layer(spans: list[dict], passes: float, gen_s: float, size_ratio: float) -> tuple[dict, list[str]]:
    """Per-pass sums over the spans of whole passes, then the median over passes."""
    passes = range(max(1, int(passes)))
    rows = [_layer_row([s for s in spans if s["pass"] == p]) for p in passes]
    metrics = {name: _metric(statistics.median(r[name][0] for r in rows), rows[0][name][1])
               for name in rows[0]}
    metrics["bench.gen_s"] = _metric(gen_s, "s")
    metrics["bench.size_ratio"] = _metric(size_ratio, "ratio")
    return metrics, [f"per-layer medians over {len(rows)} traced passes"]


def _layer_row(spans: list[dict]) -> dict[str, tuple[float, str]]:
    def dur(s):
        return s["end"] - s["start"]

    def total(name, ok=None):
        return sum((dur(s) for s in spans if s["name"] == name
                    and (ok is None or ("error" not in s["attrs"]) == ok)), 0.0)

    def attr(names, key):
        return sum(s["attrs"].get(key, 0) for s in spans if s["name"] in names)

    ir_spans = [s for s in spans if s["name"].startswith("ir.")]
    ir_s = sum(dur(s) for s in ir_spans)
    expands = [s for s in spans if s["name"] == "poly.expand"]
    useful = [s for s in expands if "error" not in s["attrs"]]
    scalar_trials = attr({"pit.scalar"}, "trials")
    matrix_trials = attr({"pit.matrix"}, "trials")
    mains = [s["attrs"] for s in spans if s["name"] == "transforms.main"]
    worst = max(mains, key=lambda a: a["size_out"] / a["size_in"] / a["degree"] ** a["delta"],
                default=None)
    delta, factor, bound = ((worst["delta"], worst["size_out"] / worst["size_in"],
                             worst["degree"] ** worst["delta"]) if worst else (0, 0.0, 0))
    roots = [s for s in spans if s["parent"] is None]
    cli_ref_s = sum(s["attrs"]["cli_ref_s"] for s in roots)
    return {
        "sexpr.parse_s": (total("sexpr.parse"), "s"),
        "sexpr.serialize_s": (total("sexpr.serialize"), "s"),
        "sexpr.bytes": (attr({"sexpr.parse", "sexpr.serialize"}, "bytes"), "bytes"),
        "ir.metrics_s": (ir_s, "s"),
        "ir.nodes_per_s": (sum(s["attrs"].get("nodes", 0) for s in ir_spans) / ir_s if ir_s else 0.0, "1/s"),
        "transforms.bb_s": (total("transforms.bb"), "s"),
        "transforms.binarize_s": (total("transforms.binarize"), "s"),
        "transforms.main_s": (total("transforms.main"), "s"),
        "transforms.collapse_s": (total("transforms.collapse"), "s"),
        "transforms.homogenize_s": (total("transforms.homogenize"), "s"),
        "transforms.bb.size_out": (attr({"transforms.bb"}, "size_out"), "count"),
        "transforms.main.size_out": (attr({"transforms.main"}, "size_out"), "count"),
        "transforms.main.delta": (delta, "count"),
        "transforms.main.size_factor": (factor, "ratio"),
        "transforms.main.size_factor_bound": (bound, "ratio"),
        "poly.expand_s": (total("poly.expand", ok=True), "s"),
        "poly.terms": (sum(s["attrs"]["terms"] for s in useful), "count"),
        "poly.wasted_s": (total("poly.expand", ok=False), "s"),
        "poly.attempts": (len(expands), "count"),
        "poly.useful_ratio": (len(useful) / len(expands) if expands else 0.0, "ratio"),
        "pit.scalar_s": (total("pit.scalar"), "s"),
        "pit.scalar_trial_ms": (1000 * total("pit.scalar") / scalar_trials if scalar_trials else 0.0, "ms"),
        "pit.matrix_s": (total("pit.matrix"), "s"),
        "pit.matrix_trial_ms": (1000 * total("pit.matrix") / matrix_trials if matrix_trials else 0.0, "ms"),
        "pit.trials": (scalar_trials + matrix_trials, "count"),
        "hardpoly.prefix_s": (total("hardpoly.prefix"), "s"),
        "hardpoly.gate_counts_s": (total("hardpoly.gate_counts"), "s"),
        "hardpoly.monomials": (attr({"hardpoly.monomials"}, "monomials"), "count"),
        "trace.overhead": (sum(dur(s) * s["attrs"]["speed"] for s in roots) / cli_ref_s - 1, "ratio"),
    }


# ---------------------------------------------------------------------------
# Every workload
# ---------------------------------------------------------------------------

def run_all(args, spec: dict) -> int:
    """Each workload in its own fresh process, one after another."""
    status = 0
    for w in spec["workloads"]:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", w["name"],
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1] if proc.returncode == 0 else lines))
        if proc.returncode != 0 or not json.loads(lines[-1])["correct"]:
            status = 1
    return status


if __name__ == "__main__":
    sys.exit(main())
