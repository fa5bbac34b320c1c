"""Command-line driver.

Subcommands: stats, validate, expand, reduce, homogenize, prodfanin2,
gen-hard, check-hard, verify-equal, bench.  Reports go to stdout as one JSON
record per line (or human-readable text with --human); formula output goes to
the -o/--out file, or to stdout when no report would collide (otherwise the
formula wins stdout and reports move to stderr).

Exit codes: 0 success, 1 verification failure, 2 usage error (an
errors.InputError, a bad value or an unreadable path), 3 budget exceeded.
The default prime for Fp and identity testing comes from the LOWDEPTH_PRIME
environment variable, read when a command needs it; flags override it.

main builds its argument parser on its first call and reuses it in every later
call in the process.  It runs a command with the cyclic garbage collector
paused, since the node graphs the passes build have no reference cycles, and
gives the caller back the collector state it had.
"""

from __future__ import annotations

import argparse
import gc
import os
import sys
import time
from functools import cache

from .errors import BudgetExceeded, InputError, LowdepthError
from .fields import MERSENNE61, field_from_name
from . import bench, hardpoly, ir, pit, poly, sexpr, transforms
from .report import Report, metrics_dict

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_USAGE = 2
EXIT_BUDGET = 3


def _prime(text: str) -> int:
    """The argparse type of --prime.  argparse converts the default, "", only
    for the command being run: LOWDEPTH_PRIME when set, else 2^61 - 1."""
    name = "--prime"
    if not text:
        name, text = "LOWDEPTH_PRIME", os.environ.get("LOWDEPTH_PRIME", "").strip()
        text = text or str(MERSENNE61)
    if not text.isdecimal():
        raise argparse.ArgumentTypeError(f"{name}={text!r} is not a natural number")
    return int(text)


def _at_least(low: int):
    """An argparse type: an int no smaller than low."""

    def integer(text: str) -> int:
        value = int(text)  # argparse reports a ValueError as an invalid integer value
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        return value

    return integer


def _emit(args, report: Report) -> None:
    stream = sys.stderr if getattr(args, "out", None) is None and args.cmd in (
        "reduce",
        "prodfanin2",
        "gen-hard",
    ) else sys.stdout
    print(report.human() if args.human else report.to_json(), file=stream)


def _refuse_bad_output(path: str | None, prefix: bool = False) -> None:
    """Raise OSError (exit 2) before any work runs when an output cannot be
    written: open a file path without truncating it, removing it again when
    the check created it (so a failed pass leaves no file behind), or open the
    directory an --out-prefix writes into."""
    if prefix:
        os.scandir(os.path.dirname(path) or ".").close()
    elif path:
        created = not os.path.exists(path)
        open(path, "a").close()
        if created:
            os.remove(path)


def _write_formula(args, formula) -> None:
    if getattr(args, "out", None):
        sexpr.write_file(args.out, formula)
    else:
        sys.stdout.write(sexpr.serialize(formula))


# ---------------------------------------------------------------------------
# Subcommand handlers
# ---------------------------------------------------------------------------

def cmd_stats(args) -> int:
    f = sexpr.parse_file(args.formula)
    rep = Report(
        pass_name="stats",
        input_metrics=metrics_dict(ir.metrics(f)),
        extra={
            "mode": "commutative" if f.commutative else "noncommutative",
            "field": f.field.name,
            "max_fanin": ir.max_fanin(f),
            "num_variables": len(ir.variables(f)),
            "parse_trees": ir.count_parse_trees(f),
        },
    )
    _emit(args, rep)
    return EXIT_OK


def cmd_validate(args) -> int:
    f = sexpr.parse_file(args.formula)  # parse already validates shape
    extra = {"well_formed": True}
    if args.check_zero_gates:
        counts = poly.gate_monomial_counts(f, budget=args.budget)
        gates = ir.gates_preorder(f)
        zero_gates = [g for g, c in counts.items() if c == 0 and ir.is_gate(gates[g])]
        extra["zero_gates"] = zero_gates
        if zero_gates:
            _emit(args, Report(pass_name="validate", verdict="failed", extra=extra))
            return EXIT_VERIFY_FAILED
    _emit(args, Report(pass_name="validate", verdict="equal", extra=extra))
    return EXIT_OK


def cmd_expand(args) -> int:
    f = sexpr.parse_file(args.formula)
    table = poly.expand(f, budget=args.budget)
    shown = []
    for key, coeff in sorted(table.terms.items())[: args.max_terms]:
        shown.append({"monomial": list(key), "coeff": f.field.format(coeff)})
    rep = Report(
        pass_name="expand",
        input_metrics=metrics_dict(ir.metrics(f)),
        extra={"num_terms": table.num_terms(), "terms": shown},
    )
    _emit(args, rep)
    return EXIT_OK


def cmd_reduce(args) -> int:
    f = sexpr.parse_file(args.formula)
    _refuse_bad_output(args.out)
    t0 = time.perf_counter()
    params = {"delta": args.delta, "epsilon": args.epsilon}
    out, params, _ = transforms.run_pass(f, args.method, params)
    duration = time.perf_counter() - t0

    verdict, method, witness = "skipped", "none", None
    if not args.no_verify:
        cfg = pit.PITConfig(trials=args.trials, prime=args.prime, seed=args.seed)
        verdict, method, witness = pit.verify(f, out, "auto", args.budget, cfg)
    rep = Report(
        pass_name=f"reduce/{args.method}" if args.cmd == "reduce" else args.cmd,
        params=params,
        input_metrics=metrics_dict(ir.metrics(f)),
        output_metrics=metrics_dict(ir.metrics(out)),
        verify_method=method,
        verdict=verdict,
        duration=duration,
        extra={"witness": witness} if witness else {},
    )
    _write_formula(args, out)
    _emit(args, rep)
    if verdict == "unequal":
        return EXIT_VERIFY_FAILED
    return EXIT_OK


def cmd_homogenize(args) -> int:
    f = sexpr.parse_file(args.formula)
    _refuse_bad_output(args.out_prefix, prefix=True)
    t0 = time.perf_counter()
    comps = transforms.homogenize(f, args.degree)
    duration = time.perf_counter() - t0
    written = {}
    for i, comp in enumerate(comps):
        if comp is None:
            continue
        path = f"{args.out_prefix}{i}.frm"
        sexpr.write_file(path, comp)
        written[str(i)] = path
    rep = Report(
        pass_name="homogenize",
        params={"degree": args.degree},
        input_metrics=metrics_dict(ir.metrics(f)),
        duration=duration,
        extra={"components": written},
    )
    _emit(args, rep)
    return EXIT_OK


def cmd_gen_hard(args) -> int:
    p = hardpoly.HardParams(k=args.k, r=args.r)
    spec = (args.field or "Q").strip()  # only a bare Fp reads LOWDEPTH_PRIME
    field = field_from_name(spec, _prime("")) if spec == "Fp" else field_from_name(spec)
    _refuse_bad_output(args.out)
    f = hardpoly.gen_hard(p, commutative=not args.noncommutative, field=field)
    rep = Report(
        pass_name="gen-hard",
        params={"k": args.k, "r": args.r},
        output_metrics=metrics_dict(ir.metrics(f)),
        extra={"num_vars": p.num_vars, "expected_monomials": hardpoly.expected_monomials(p)},
    )
    _write_formula(args, f)
    _emit(args, rep)
    return EXIT_OK


def cmd_check_hard(args) -> int:
    p = hardpoly.HardParams(k=args.k, r=args.r)
    target = sexpr.parse_file(args.formula) if args.formula else hardpoly.gen_hard(p)
    t0 = time.perf_counter()
    # the target's table is H(k, r)'s: gen_hard builds H, and check_gate_counts
    # raises NotComputingH on any other table.  H's monomials all have
    # coefficient 1 and are prefix-aligned, so only the gate bound can fail
    if args.formula:
        ok, gate_cx = hardpoly.check_gate_counts(target, p, budget=args.budget)
    else:
        counts = poly.gate_monomial_counts(target, budget=args.budget)
        ok, gate_cx = hardpoly._gate_verdict(target, p, counts)
    duration = time.perf_counter() - t0
    rep = Report(
        pass_name="check-hard",
        params={"k": args.k, "r": args.r},
        input_metrics=metrics_dict(ir.metrics(target)),
        verdict="equal" if ok else "failed",
        duration=duration,
        extra={
            "monomial_count": hardpoly.expected_monomials(p),
            "monomial_count_ok": True,
            "unit_coefficients": True,
            "prefix_property": True,
            "prefix_counterexample": None,
            "gate_count_bound": ok,
            "gate_counterexample": gate_cx,
        },
    )
    _emit(args, rep)
    return EXIT_OK if ok else EXIT_VERIFY_FAILED


def cmd_verify_equal(args) -> int:
    scalars: list = []
    a = sexpr.parse_program_file(args.lhs, scalars)
    b = sexpr.parse_program_file(args.rhs, scalars)
    cfg = pit.PITConfig(trials=args.trials, prime=args.prime, seed=args.seed)
    poly._check_comparable(a, b)
    verdict, method, witness = pit.verify_programs(
        [a.program, b.program], scalars, a.commutative, a.field, args.method, args.budget, cfg)
    rep = Report(
        pass_name="verify-equal",
        params={"method": method},
        verdict=verdict,
        verify_method=method,
        extra={"witness": witness} if witness else {},
    )
    _emit(args, rep)
    return EXIT_VERIFY_FAILED if verdict == "unequal" else EXIT_OK


def cmd_bench(args) -> int:
    if args.family == "random-homogeneous" and not (args.sizes and args.degrees):
        raise ValueError("random-homogeneous needs --sizes and --degrees")
    if args.family == "comb" and not args.sizes:
        raise ValueError("comb needs --sizes")
    if args.family == "user-file":
        if not args.file:
            raise ValueError("user-file needs --file")
        sexpr.parse_file(args.file)  # refuse a bad file before any row reads it
    _refuse_bad_output(args.csv)
    sizes = [int(x) for x in args.sizes.split(",")] if args.sizes else [None]
    degrees = [int(x) for x in args.degrees.split(",")] if args.degrees else [None]
    all_rows: list[bench.FrontierRow] = []
    for size in sizes:
        for d in degrees:
            fam_params: dict = {"commutative": not args.noncommutative}
            if size is not None:
                fam_params["size"] = size
            if d is not None:
                fam_params["d"] = d
            if args.family == "random-homogeneous":
                fam_params["n_vars"] = args.n_vars
            if args.family == "random-skew":
                fam_params["sum_depth"] = args.sum_depth
            if args.family == "hard":
                fam_params["k"] = args.k
                fam_params["r"] = args.r
            if args.family == "user-file":
                fam_params["path"] = args.file
            e = bench.Experiment(
                family=args.family,
                family_params=fam_params,
                pass_name=args.pass_name,
                pass_params={"epsilon": args.epsilon, "delta": args.delta},
                seed=args.seed,
                repetitions=args.reps,
                verify=args.verify,
                pit_trials=args.trials,
            )
            rows = bench.run(e)
            all_rows.extend(rows)
            for row in rows:
                rep = Report(
                    pass_name=f"bench/{args.pass_name}",
                    params={"family": args.family, **fam_params},
                    verify_method=args.verify,
                    verdict="equal" if row.verified else ("failed" if row.failed else "unequal"),
                    duration=row.duration,
                    extra={
                        "row": {c: getattr(row, c) for c in bench.CSV_COLUMNS},
                        **({"error": row.failed} if row.failed else {}),
                    },
                )
                _emit(args, rep)
    fitted = bench.fit_constants(all_rows)
    _emit(args, Report(pass_name="bench/constants", extra=fitted))
    if args.csv:
        sexpr.write_text(args.csv, bench.rows_to_csv(all_rows))
    if any(r.failed or not r.verified for r in all_rows):
        return EXIT_VERIFY_FAILED
    return EXIT_OK


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="lowdepth", description=__doc__)
    ap.add_argument("--human", action="store_true", help="human-readable reports")
    sub = ap.add_subparsers(dest="cmd", required=True)

    def add_budget(p):
        p.add_argument("--budget", type=_at_least(0), default=poly.DEFAULT_EXPANSION_BUDGET)

    p = sub.add_parser("stats", help="structural metrics of a formula")
    p.add_argument("formula")
    p.set_defaults(fn=cmd_stats)

    p = sub.add_parser("validate", help="well-formedness (and optional zero-gate) check")
    p.add_argument("formula")
    p.add_argument("--check-zero-gates", action="store_true")
    add_budget(p)
    p.set_defaults(fn=cmd_validate)

    p = sub.add_parser("expand", help="exact expansion")
    p.add_argument("formula")
    p.add_argument("--max-terms", type=_at_least(0), default=64, help="cap on printed terms")
    add_budget(p)
    p.set_defaults(fn=cmd_expand)

    p = sub.add_parser("reduce", help="run a depth-reduction pass")
    p.add_argument("formula")
    # prodfanin2 has its own subcommand
    p.add_argument("--method", required=True,
                   choices=[name for name in transforms.PASSES if name != "prodfanin2"])
    p.add_argument("--delta", default="auto")
    p.add_argument("--epsilon", default="auto")
    p.add_argument("--no-verify", action="store_true")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--trials", type=_at_least(1), default=20)
    p.add_argument("--prime", type=_prime, default="", help="default: LOWDEPTH_PRIME or 2^61 - 1")
    p.add_argument("-o", "--out")
    add_budget(p)
    p.set_defaults(fn=cmd_reduce)

    p = sub.add_parser("homogenize", help="split into degree components")
    p.add_argument("formula")
    p.add_argument("--degree", type=int, required=True)
    p.add_argument("--out-prefix", required=True)
    p.set_defaults(fn=cmd_homogenize)

    p = sub.add_parser("prodfanin2", help="rebalance products to fan-in 2")
    p.add_argument("formula")
    p.add_argument("-o", "--out")
    p.set_defaults(fn=cmd_reduce, method="prodfanin2", delta=None, epsilon=None, no_verify=True)

    p = sub.add_parser("gen-hard", help="emit the canonical hard formula")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--noncommutative", action="store_true")
    p.add_argument("--field", default=None, help="Q (default) or Fp[:prime]")
    p.add_argument("-o", "--out")
    p.set_defaults(fn=cmd_gen_hard)

    p = sub.add_parser("check-hard", help="run the hard-instance checkers")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--formula", default=None,
                   help="check this formula instead of the canonical one")
    add_budget(p)
    p.set_defaults(fn=cmd_check_hard)

    p = sub.add_parser("verify-equal", help="decide whether two formulas agree")
    p.add_argument("lhs")
    p.add_argument("rhs")
    p.add_argument("--method", default="auto", choices=["expand", "pit", "auto"])
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--trials", type=_at_least(1), default=20)
    p.add_argument("--prime", type=_prime, default="", help="default: LOWDEPTH_PRIME or 2^61 - 1")
    add_budget(p)
    p.set_defaults(fn=cmd_verify_equal)

    p = sub.add_parser("bench", help="measure passes over formula families")
    p.add_argument("--family", required=True,
                   choices=["comb", "random-homogeneous", "random-skew", "hard", "user-file"])
    p.add_argument("--pass", dest="pass_name", required=True, choices=transforms.PASSES)
    p.add_argument("--sizes", default=None, help="comma list of sizes")
    p.add_argument("--degrees", default=None, help="comma list of degrees")
    p.add_argument("--n-vars", type=int, default=8)
    p.add_argument("--sum-depth", type=int, default=6)
    p.add_argument("--k", type=int, default=2)
    p.add_argument("--r", type=int, default=2)
    p.add_argument("--file", default=None)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--reps", type=_at_least(1), default=1)
    p.add_argument("--epsilon", default="auto")
    p.add_argument("--delta", default="auto")
    p.add_argument("--trials", type=_at_least(1), default=20)
    p.add_argument("--verify", default="expand", choices=["expand", "pit", "none"])
    p.add_argument("--noncommutative", action="store_true")
    p.add_argument("--csv", default=None)
    p.set_defaults(fn=cmd_bench)

    return ap


@cache
def _shared_parser() -> argparse.ArgumentParser:
    """The parser of every main call in this process, built by the first."""
    return build_parser()


def main(argv: list[str] | None = None) -> int:
    try:
        args = _shared_parser().parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    # the passes build acyclic node graphs that reference counting frees; the
    # cyclic collector would only rescan them as they grow
    enabled = gc.isenabled()
    gc.disable()
    try:
        return args.fn(args)
    except BudgetExceeded as exc:
        print(f"error: budget exceeded: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except (InputError, ValueError, OSError, argparse.ArgumentTypeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except LowdepthError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VERIFY_FAILED
    finally:
        if enabled:
            gc.enable()


if __name__ == "__main__":
    sys.exit(main())
