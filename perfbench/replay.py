"""Traced replay of an op through the public functions the CLI calls.

Spans are recorded from outside the program, around each call into a layer;
the layer is the module name (sexpr, ir, transforms, poly, pit, hardpoly).
Composite reduce methods are replayed step by step, so `binarize`,
`depth_reduce_bb`, `auto_delta`, `depth_reduce_main`, `collapse` and
`homogenize` each get their own span.  The replay must produce the same bytes
and verdicts as the untraced CLI run of the op.  Like the CLI, it hands
`depth_reduce_bb` its input unbinarized; bb's own binarize counts in the bb
span, and `transforms.binarize` spans time only the calls the CLI makes.
"""

from __future__ import annotations

import contextlib
import time
from fractions import Fraction

HALF = Fraction(1, 2)


class Tracer:
    """Spans kept in memory: name, start, end, parent span, op id, pass."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self.op: str | None = None
        self.pass_index = 0
        self._deferred: list[tuple[dict, object, object]] = []

    @contextlib.contextmanager
    def span(self, name: str, **attrs):
        rec = {"id": len(self.spans), "name": name, "op": self.op, "pass": self.pass_index,
               "parent": self._stack[-1] if self._stack else None,
               "start": time.perf_counter(), "end": None, "attrs": attrs}
        self.spans.append(rec)
        self._stack.append(rec["id"])
        try:
            yield attrs
        except Exception as exc:
            attrs["error"] = type(exc).__name__
            raise
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()

    def call(self, name: str, fn, *args, keep=None, **attrs):
        """Run fn(*args) in a span; the `keep` formula is measured after the op."""
        with self.span(name, **attrs) as recorded:
            result = fn(*args)
        if keep is not None:
            self._deferred.append((recorded, keep, result))
        return result

    def measure_deferred(self, L) -> None:
        """Node counts and sizes of kept formulas, outside every span."""
        for attrs, formula, result in self._deferred:
            attrs["nodes"] = _count_nodes(formula.root)
            if hasattr(result, "root"):  # a pass: its input and output sizes
                m_in, m_out = L.ir.metrics(formula), L.ir.metrics(result)
                attrs.update(size_in=m_in.size, size_out=m_out.size, degree=m_in.syn_degree)
        self._deferred.clear()


def _count_nodes(root) -> int:
    seen: set[int] = set()
    stack = [root]
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.extend(child for _, child in getattr(node, "children", ()))
    return len(seen)


# ---------------------------------------------------------------------------
# reduce
# ---------------------------------------------------------------------------

def _args(L, tr: Tracer, argv: list[str]):
    """The CLI's own flags and defaults for this call."""
    with tr.span("cli.args"):
        return L.cli.build_parser().parse_args(argv)


def _parse(L, tr: Tracer, path: str):
    with tr.span("sexpr.parse") as attrs:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
        attrs["bytes"] = len(text.encode("utf-8"))
        return L.sexpr.parse(text)


def _metrics(L, tr: Tracer, f):
    return tr.call("ir.metrics", L.ir.metrics, f, keep=f)


def _bb(L, tr: Tracer, f, eps: Fraction):
    return tr.call("transforms.bb", L.transforms.depth_reduce_bb, f, eps, keep=f)


def _main(L, tr: Tracer, f, delta: int):
    return tr.call("transforms.main", L.transforms.depth_reduce_main, f, delta, keep=f, delta=delta)


def _auto_delta(L, tr: Tracer, size: int, degree: int, sum_depth: int) -> int:
    return tr.call("transforms.auto_delta", L.transforms.auto_delta, size, degree, sum_depth)


def _collapse(L, tr: Tracer, f):
    return tr.call("transforms.collapse", L.transforms.collapse, f)


def reduce_bb(L, tr, f, args):
    return _bb(L, tr, f, Fraction(args.epsilon) if args.epsilon != "auto" else HALF)


def reduce_main(L, tr, f, args):
    """bench.apply_pass for `main`."""
    fan = tr.call("ir.max_fanin", L.ir.max_fanin, f, keep=f)
    f2 = f if fan <= 2 else tr.call("transforms.binarize", L.transforms.binarize, f)
    m = _metrics(L, tr, f2)
    delta = (_auto_delta(L, tr, m.size, m.syn_degree, m.sum_depth) if args.delta == "auto"
             else int(args.delta))
    return _main(L, tr, f2, delta)


def reduce_homogeneous(L, tr, f, args):
    """transforms.depth_reduce_homogeneous."""
    d = tr.call("ir.syn_degree", L.ir.syn_degree, f, keep=f)
    f1 = _bb(L, tr, f, HALF)
    m1 = _metrics(L, tr, f1)
    out = _collapse(L, tr, _main(L, tr, f1, _auto_delta(L, tr, m1.size, d, m1.sum_depth)))
    if d >= 1 and _metrics(L, tr, out).size > m1.size * m1.size * max(d, 1):
        raise AssertionError("size above the s'^2 * d bound")
    return out


def reduce_nearlinear(L, tr, f, args):
    """transforms.depth_reduce_nearlinear."""
    eps = Fraction(args.epsilon) if args.epsilon != "auto" else HALF
    s = tr.call("ir.size", L.ir.size, f, keep=f)
    d = tr.call("ir.syn_degree", L.ir.syn_degree, f, keep=f)
    if d <= 1:
        f1 = _bb(L, tr, f, eps)
        m1 = _metrics(L, tr, f1)
        return _collapse(L, tr, _main(L, tr, f1, _auto_delta(L, tr, m1.size, d, m1.sum_depth)))
    if d ** (4 * eps.denominator) >= s**eps.numerator:
        return _bb(L, tr, f, eps)
    f1 = _bb(L, tr, f, eps / 2)
    delta = 0  # floor(eps * log2 s / (2 log2 d)), exactly
    while d ** (2 * (delta + 1) * eps.denominator) <= s**eps.numerator:
        delta += 1
    return _collapse(L, tr, _main(L, tr, f1, delta))


def reduce_pipeline(L, tr, f, args):
    """transforms.pipeline_inhom at its default budget."""
    table = _expand(L, tr, f, L.poly.DEFAULT_EXPANSION_BUDGET)
    (d,) = table.degrees_present()
    f1 = _bb(L, tr, f, HALF)
    comps = tr.call("transforms.homogenize", L.transforms.homogenize, f1, d)
    comp_b = tr.call("transforms.binarize", L.transforms.binarize, comps[d])
    m = _metrics(L, tr, comp_b)
    out = _collapse(L, tr, _main(L, tr, comp_b, _auto_delta(L, tr, m.size, d, m.sum_depth)))
    if not tr.call("ir.is_homogeneous", L.ir.is_homogeneous, out, keep=out):
        raise AssertionError("pipeline output is not homogeneous")
    return out


REDUCERS = {
    "bb": reduce_bb,
    "main": reduce_main,
    "nearlinear": reduce_nearlinear,
    "homogeneous": reduce_homogeneous,
    "pipeline": reduce_pipeline,
}


def replay_reduce(L, tr: Tracer, argv: list[str]) -> str:
    """cli.cmd_reduce with --no-verify; returns the serialized output."""
    args = _args(L, tr, argv)
    f = _parse(L, tr, args.formula)
    out = REDUCERS[args.method](L, tr, f, args)
    _metrics(L, tr, f)  # the report's input and output metrics
    _metrics(L, tr, out)
    with tr.span("sexpr.serialize") as attrs:
        text = L.sexpr.serialize(out)
        attrs["bytes"] = len(text.encode("utf-8"))
    return text


# ---------------------------------------------------------------------------
# verification
# ---------------------------------------------------------------------------

def _expand(L, tr: Tracer, f, budget):
    with tr.span("poly.expand") as attrs:
        table = L.poly.expand(f, budget=budget)
        attrs["terms"] = table.num_terms()
    return table


def replay_verify(L, tr: Tracer, argv: list[str]) -> str:
    """cli.cmd_verify_equal; returns the verdict."""
    args = _args(L, tr, argv)
    a, b = _parse(L, tr, args.lhs), _parse(L, tr, args.rhs)
    method = args.method
    if method in ("auto", "expand"):
        try:
            with tr.span("poly.equal"):
                equal = _expand(L, tr, a, args.budget) == _expand(L, tr, b, args.budget)
            return "equal" if equal else "unequal"
        except L.errors.BudgetExceeded:
            if method == "expand":
                raise
    cfg = L.pit.PITConfig(trials=args.trials, prime=args.prime, seed=args.seed)
    with tr.span("pit.scalar" if a.commutative else "pit.matrix") as attrs:
        res = L.pit.pit_equal(a, b, cfg)
        attrs["trials"] = res.trials_run
    return res.verdict


def replay_check_hard(L, tr: Tracer, argv: list[str]) -> str:
    """cli.cmd_check_hard on --formula; returns the verdict."""
    args = _args(L, tr, argv)
    p = L.hardpoly.HardParams(k=args.k, r=args.r)
    target = _parse(L, tr, args.formula)
    with tr.span("hardpoly.monomials") as attrs:
        table = _expand(L, tr, target, args.budget)
        attrs["monomials"] = table.num_terms()
        ok = (table.num_terms() == L.hardpoly.expected_monomials(p)
              and all(target.field.is_one(c) for c in table.terms.values()))
    ok &= tr.call("hardpoly.prefix", L.hardpoly.check_prefix_property, p, target, args.budget)[0]
    ok &= tr.call("hardpoly.gate_counts", L.hardpoly.check_gate_counts, target, p, args.budget)[0]
    _metrics(L, tr, target)
    return "equal" if ok else "failed"
