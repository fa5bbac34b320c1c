"""Self-check of the benchmark's own output.

`run.py` applies `check_result` and `check_spans` to every run and exits 3
when they find a problem.  Each run also leaves a record of its result, and
of its spans file when traced, under `.bench_build/perfbench/runs/`.  Run as
a script, this file checks those records again against the current
`BENCHMARK.json`, all of them or the ones named; it takes seconds:

    python3 perfbench/run.py --all --seed 1 --seconds 40 --trace 1
    python3 perfbench/selfcheck.py [RECORD.json ...]
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: Share of an op's wall time its layer spans must cover.
MIN_COVERAGE = 0.9
#: Slack for float sums of span self times, in seconds per span.
TOLERANCE_S = 1e-6


def check_result(result: dict, spec: dict, trace: int) -> list[str]:
    """The result line has exactly its four keys and every metric with its unit."""
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"result keys {sorted(result)}")
    if not isinstance(result.get("attempted"), int) or result["attempted"] < 1:
        problems.append(f"attempted {result.get('attempted')!r} is not a count >= 1")
    if not isinstance(result.get("failed"), int) or not 0 <= result["failed"] <= result.get("attempted", 0):
        problems.append(f"failed {result.get('failed')!r} is not a count <= attempted")
    wanted = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    got = result.get("metrics", {})
    for name in sorted(set(wanted) | set(got)):
        if name not in got:
            problems.append(f"metric {name} missing")
        elif name not in wanted:
            problems.append(f"metric {name} not in BENCHMARK.json")
        elif set(got[name]) != {"value", "unit"} or got[name]["unit"] != wanted[name]:
            problems.append(f"metric {name} is {got[name]}, unit should be {wanted[name]}")
        elif not isinstance(got[name]["value"], (int, float)) or not math.isfinite(got[name]["value"]):
            problems.append(f"metric {name} value {got[name]['value']!r} is not a finite number")
    return problems


def check_spans(spans: list[dict]) -> list[str]:
    """Spans nest within their op, and self times add up to the op's wall time."""
    problems = []
    by_id = {s["id"]: s for s in spans}
    children: dict[int, list[dict]] = {}
    roots = []
    for s in spans:
        if s["end"] is None or s["end"] < s["start"]:
            problems.append(f"span {s['id']} {s['name']} never ended")
            continue
        if s["parent"] is None:
            roots.append(s)
            continue
        parent = by_id[s["parent"]]
        children.setdefault(parent["id"], []).append(s)
        if parent["op"] != s["op"] or s["start"] < parent["start"] or s["end"] > parent["end"]:
            problems.append(f"span {s['id']} {s['name']} lies outside its parent {parent['name']}")
    for kids in children.values():
        kids.sort(key=lambda s: s["start"])
        for a, b in zip(kids, kids[1:]):
            if b["start"] < a["end"]:
                problems.append(f"sibling spans {a['id']} and {b['id']} overlap")

    def self_time(s) -> float:
        return (s["end"] - s["start"]) - sum(c["end"] - c["start"] for c in children.get(s["id"], ()))

    if len({r["op"] for r in roots}) != len(roots):
        problems.append("an op has more than one root span")
    for root in roots:
        members = [s for s in spans if s["op"] == root["op"]]
        wall = root["end"] - root["start"]
        selves = sum(self_time(s) for s in members)
        if abs(selves - wall) > TOLERANCE_S * len(members):
            problems.append(f"op {root['op']}: self times sum to {selves:.6f} s, wall is {wall:.6f} s")
        if wall > 0 and self_time(root) > (1 - MIN_COVERAGE) * wall:
            problems.append(f"op {root['op']}: layer spans cover {1 - self_time(root) / wall:.1%} of its wall time")
    return problems


def check_record(path: Path, spec: dict) -> list[str]:
    """A run record: its result line, and its spans when the run was traced."""
    record = json.loads(path.read_text())
    problems = check_result(record["result"], spec, record["trace"])
    if not record["result"].get("correct"):
        problems.append("the run was not correct")
    if record["trace"]:
        if record["spans"] is None:
            problems.append("traced run without a spans file")
        else:
            with open(ROOT / record["spans"], encoding="utf-8") as fh:
                problems += check_spans([json.loads(line) for line in fh])
    return problems


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("records", nargs="*", type=Path,
                    help="run records (default: every one under .bench_build/perfbench/runs)")
    args = ap.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    records = args.records or sorted((ROOT / ".bench_build" / "perfbench" / "runs").glob("*.json"))
    if not records:
        print("self-check: no run records; run perfbench/run.py first", file=sys.stderr)
        return 1
    failed = 0
    for path in records:
        problems = check_record(path, spec)
        print(f"{path.name}: {'failed' if problems else 'ok'}")
        for p in problems:
            print(f"self-check: {path.name}: {p}", file=sys.stderr)
        failed += bool(problems)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
