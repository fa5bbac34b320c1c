"""Untraced op runner: drives `lowdepth.cli.main` in-process, one call at a time.

Every op output is checked from outside: it must verify, keep the input's
syntactic degree, meet the exact bounds of `main`, and serialize to the same
bytes on every repetition, and on every run of one program version for one
input (through a hash ledger in the build directory, keyed by the sha256 of
the program's sources).
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import workloads


def call_cli(L, argv: list[str]) -> tuple[int, dict | None]:
    """Run one CLI command; returns its exit code and last JSON report, if any."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = L.cli.main(argv)
    lines = out.getvalue().strip().splitlines()
    return rc, json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None


#: What `probe` takes on the reference machine, in seconds.  A time in
#: reference seconds is what the work would have taken there.
REFERENCE_PROBE_S = 0.04


def probe() -> float:
    """Seconds of a fixed loop of the big-integer and dict work lowdepth does.

    The host's speed drifts by up to 2x within a minute (NOTES.md), and the
    probe run right before and after a call tracks it; the loop allocates
    nothing the garbage collector tracks, so the program's heap cannot slow it.
    """
    t0 = time.perf_counter()
    acc, table = 0, {}
    for i in range(100_000):
        acc = (acc * 31 + i) % 2305843009213693951
        table[i & 1023] = acc
    return time.perf_counter() - t0


def timed(fn, *args):
    """fn(*args) between two runs of the probe: (result, seconds, reference seconds)."""
    before = probe()
    t0 = time.perf_counter()
    result = fn(*args)
    seconds = time.perf_counter() - t0
    return result, seconds, seconds * 2 * REFERENCE_PROBE_S / (before + probe())


def verdict_of(report: dict | None) -> str | None:
    return report["verify"]["verdict"] if report else None


@dataclass
class Shape:
    """Checked facts about one op's output, from its first run."""

    sha256: str
    size: int
    depth: int


@dataclass
class Runner:
    L: object
    workload: str
    seed: int
    directory: Path
    ledger: Path
    program: str  # sha256 of the program's sources; ledger entries are per version
    times: dict[tuple[str, str], list[float]] = field(default_factory=dict)    # (op, step) -> s
    ref_times: dict[tuple[str, str], list[float]] = field(default_factory=dict)  # ... -> ref_s
    verdicts: dict[tuple[str, str], str | None] = field(default_factory=dict)  # (op, step) -> last
    shapes: dict[str, Shape] = field(default_factory=dict)
    failures: list[str] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0

    def path(self, name: str) -> str:
        return str(self.directory / name)

    def call(self, op: workloads.Op, step: str) -> tuple[int, dict | None]:
        """One timed CLI call; the time of a call that succeeds is kept."""
        (rc, report), seconds, ref_seconds = timed(call_cli, self.L, self.argv(op)[step])
        if rc == (1 if step == "control" else 0):
            self.times.setdefault((op.name, step), []).append(seconds)
            self.ref_times.setdefault((op.name, step), []).append(ref_seconds)
        return rc, report

    # -- ops ------------------------------------------------------------------
    def argv(self, op: workloads.Op) -> dict[str, list[str]]:
        """The CLI calls of an op and of its control, by step."""
        src, out = self.path(op.source), self.path(f"{op.name}.out.frm")
        seed = ("--seed", str(op.pit_seed))
        calls = {
            "reduce": ["reduce", src, "--method", op.method, "--no-verify", "-o", out],
            "verify": ["verify-equal", src, out, *op.verify, *seed],
            "control": ["verify-equal", src, self.path(f"{op.name}.mutated.frm"), *op.verify, *seed],
        }
        if op.hard:
            k, r = op.hard
            calls["check"] = ["check-hard", "--k", str(k), "--r", str(r), "--formula", out]
        return calls

    def run_op(self, op: workloads.Op) -> bool:
        """Reduce, verify and check one op; failures are recorded, not raised."""
        calls = self.argv(op)
        problems: list[str] = []
        try:
            rc, report = self.call(op, "reduce")
            if rc != 0:
                problems.append(f"reduce exited {rc}")
            else:
                problems += self.check_output(op, calls["reduce"][-1], report)
            if not problems:
                problems += self.run_step(op, "verify", 0, ("equal", "equal-probably"))
            if op.hard and not problems:
                problems += self.run_step(op, "check", 0, ("equal",))
        except Exception:  # noqa: BLE001 - an op that crashes counts as failed
            problems.append(traceback.format_exc())
        return self.record(op.name, problems)

    def run_control(self, op: workloads.Op) -> bool:
        """verify-equal of the input against the mutated output: must exit 1, unequal."""
        try:
            problems = self.run_step(op, "control", 1, ("unequal",))
        except Exception:  # noqa: BLE001
            problems = [traceback.format_exc()]
        return self.record(f"{op.name}/control", problems)

    def run_step(self, op: workloads.Op, step: str, want_rc: int, want: tuple[str, ...]) -> list[str]:
        rc, rep = self.call(op, step)
        self.verdicts[(op.name, step)] = verdict_of(rep)
        if rc != want_rc or verdict_of(rep) not in want:
            return [f"{step} exited {rc} with verdict {verdict_of(rep)}, expected {want_rc} and {want[0]}"]
        return []

    def record(self, label: str, problems: list[str]) -> bool:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.failures.extend(f"{self.workload}/{label}: {p}" for p in problems)
        return not problems

    # -- checks from outside ----------------------------------------------------
    def check_output(self, op: workloads.Op, out: str, report: dict) -> list[str]:
        data = Path(out).read_bytes()
        digest = hashlib.sha256(data).hexdigest()
        known = self.shapes.get(op.name)
        if known is not None:
            return [] if known.sha256 == digest else [f"output hash {digest} differs from {known.sha256}"]
        L = self.L
        f_in = L.sexpr.parse_file(self.path(op.source))
        f_out = L.sexpr.parse(data.decode("utf-8"))
        m_in, m_out = L.ir.metrics(f_in), L.ir.metrics(f_out)
        problems = []
        if m_out.syn_degree != m_in.syn_degree:
            problems.append(f"syntactic degree {m_in.syn_degree} -> {m_out.syn_degree}")
        if op.method == "main":
            problems += _main_bounds(L, f_in, m_out, report["params"]["delta"])
        shape = Shape(digest, m_out.size, m_out.depth)
        if op.control:
            rng = random.Random(f"control:{self.workload}:{self.seed}:{op.name}")
            L.sexpr.write_file(self.argv(op)["control"][2], workloads.double_one_edge(L, f_out, rng))
        self.shapes[op.name] = shape
        source = hashlib.sha256(Path(self.path(op.source)).read_bytes()).hexdigest()
        problems += self.check_ledger(f"{self.program}/{self.workload}/{op.name}/{source}", digest)
        return problems

    def check_ledger(self, key: str, digest: str) -> list[str]:
        """Outputs are deterministic: one program version and input give one hash."""
        book = json.loads(self.ledger.read_text()) if self.ledger.exists() else {}
        old = book.setdefault(key, digest)
        if old != digest:
            return [f"output hash {digest} differs from {old} of an earlier run"]
        tmp = self.ledger.with_suffix(".tmp")
        tmp.write_text(json.dumps(book, indent=0, sort_keys=True))
        tmp.replace(self.ledger)
        return []


def _main_bounds(L, f_in, m_out, delta: int) -> list[str]:
    """The bounds the paper makes exact for `main`, with the delta it reports.

    `reduce --method main` hands wider inputs to the pass binarized, so s, d
    and the sum depth are those of the binarized formula.
    """
    f2 = f_in if L.ir.max_fanin(f_in) <= 2 else L.transforms.binarize(f_in)
    m = L.ir.metrics(f2)
    depth_bound = (m.syn_degree - 1).bit_length() + -(-m.sum_depth // delta)
    size_bound = m.size * m.syn_degree**delta
    problems = []
    if m_out.product_depth > depth_bound:
        problems.append(f"product depth {m_out.product_depth} > ceil(log2 d) + ceil(sum_depth/delta) = {depth_bound}")
    if m_out.size > size_bound:
        problems.append(f"size {m_out.size} > s * d^delta = {size_bound}")
    return problems
