"""Command-line front end.

Subcommands
-----------
grass EXPR            evaluate an intersection-theory expression
count lines|conics    count curves on a complete intersection
equivalence           bookkeeping weights for families and multiple covers
ledger check [FILE]   verify degeneration ledgers (builtin set by default)
verify --suite NAME   run a self-check suite

Every subcommand takes --json for machine-readable output.  Each _cmd_*
handler returns (payload, lines, ok): its JSON payload without timings, its
plain-text lines, and whether it succeeded (false for an unbalanced ledger or
a failed check); it prints nothing and catches nothing.  main alone times the
handler, appends timings_ms as the last key of the payload, prints, and maps
what the handler raises to an exit code: a dsl.DSLError prints its
diagnostic and a ValueError or OSError (bad input, an unreadable file, an
output that cannot be written) prints "error: ...", both exit 1; a closed
output pipe exits 1 with nothing on stderr; any other exception prints
"internal error: ..." and exits 2.  Otherwise the exit code is 0, or 1 when
ok is false.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

from . import SUITE_NAMES, dsl, recipes


def _int(text: str) -> int:
    """An optional '-' and ASCII digits; int() alone also takes '_', '+', spaces and other scripts' digits."""
    digits = text[1:] if text.startswith("-") else text
    if not (digits.isascii() and digits.isdigit()):
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}")
    try:
        return int(text)
    except ValueError:  # more digits than sys.get_int_max_str_digits()
        raise argparse.ArgumentTypeError("integer too long") from None


def _int_list(text: str) -> tuple:
    try:
        return tuple(_int(part) for part in text.split(","))
    except argparse.ArgumentTypeError as exc:
        raise argparse.ArgumentTypeError(f"expected a comma-separated integer list: {exc}") from None


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="curvecount", description="Exact curve counts via Chern class integrals.")
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")
    json_flag = argparse.ArgumentParser(add_help=False)
    json_flag.add_argument("--json", action="store_true", help="emit JSON instead of text")

    p_grass = sub.add_parser("grass", parents=[json_flag],
                             help="evaluate an expression like 'integrate(sigma[1]^6) in G(2,5)'")
    p_grass.add_argument("expression", help="expression with a context clause")

    p_count = sub.add_parser("count", help="run a counting recipe")
    count_sub = p_count.add_subparsers(dest="recipe", required=True, metavar="recipe")
    intersection = argparse.ArgumentParser(add_help=False)
    intersection.add_argument("--ambient", type=_int, metavar="N",
                              help="dimension of the ambient projective space")
    intersection.add_argument("--degrees", type=_int_list, metavar="d1,d2,...",
                              help="degrees of the defining equations")
    for curve in recipes._CURVES:
        count_sub.add_parser(curve, parents=[json_flag, intersection],
                             help=f"{curve} on a complete intersection")

    p_equiv = sub.add_parser("equivalence", parents=[json_flag],
                             help="contribution of a family or a multiple cover")
    group = p_equiv.add_mutually_exclusive_group(required=True)
    group.add_argument("--family-dim", type=_int, metavar="K",
                       help="dimension of one connected unobstructed family piece")
    group.add_argument("--cover", type=_int, metavar="M",
                       help="weight of degree-M covers of a rigid rational curve")
    p_equiv.add_argument("--chern-integrals", type=_int_list, metavar="v0,v1,...",
                         help="precomputed obstruction-class integrals, indexed by family dimension")

    p_ledger = sub.add_parser("ledger", help="degeneration-ledger operations")
    ledger_sub = p_ledger.add_subparsers(dest="action", required=True, metavar="action")
    p_check = ledger_sub.add_parser("check", parents=[json_flag],
                                    help="verify that ledger components sum to their totals")
    p_check.add_argument("file", nargs="?", default=None,
                         help="ledger JSON file (builtin ledgers when omitted)")

    p_verify = sub.add_parser("verify", parents=[json_flag], help="run a self-check suite")
    p_verify.add_argument("--suite", choices=SUITE_NAMES, required=True,
                          help="which checks to run")
    p_verify.add_argument("--seed", type=_int, default=2026,
                          help="seed for the randomized property checks")

    return parser


def _cmd_grass(args):
    query = dsl.parse(args.expression)
    result = dsl.evaluate(query)
    value = result.value if result.kind == "integer" else result.rendered
    payload = {
        "query": dsl.render(query),
        "context": result.context,
        "result": {"kind": result.kind, "value": value},
    }
    return payload, [result.rendered], True


def _cmd_count(args):
    if args.ambient is None or args.degrees is None:
        raise ValueError(f"count {args.recipe} needs --ambient and --degrees")
    report = recipes._count(args.recipe, args.ambient, args.degrees)
    if report.count is not None:
        outcome = {"count": report.count}
    else:
        outcome = {"family_dimension": report.family_dimension}
    payload = {
        "recipe": report.recipe,
        "ambient_dim": report.ambient_dim,
        "degrees": list(report.degrees),
        "moduli_dim": report.moduli_dim,
        "bundle_rank": report.bundle_rank,
        "query": report.query,
        "outcome": outcome,
        "expected_empty": report.expected_empty,
        "calabi_yau": report.calabi_yau,
    }
    return payload, [report.describe()], True


def _cmd_equivalence(args):
    from .bookkeeping import equivalence_unobstructed, multiple_cover_weight  # only this command and ledger use it

    if args.cover is not None:
        if args.chern_integrals is not None:
            raise ValueError("--chern-integrals only applies to --family-dim")
        weight = multiple_cover_weight(args.cover)
        try:
            text = str(weight)
        except ValueError:  # a denominator past the interpreter's limit on integer string conversion
            raise ValueError(f"the weight's denominator has more than {sys.get_int_max_str_digits()} digits, "
                             "the interpreter's limit for converting an integer to text") from None
        payload = {"recipe": "multiple-cover", "cover_degree": args.cover, "weight": text}
        line = f"degree-{args.cover} covers of a rigid rational curve each weigh {text}"
        return payload, [line], True
    value = equivalence_unobstructed(args.family_dim, args.chern_integrals)
    payload = {
        "recipe": "family-equivalence",
        "family_dim": args.family_dim,
        "equivalence": value,
        "note": "covers one connected unobstructed family piece",
    }
    lines = [f"equivalence of the {args.family_dim}-dimensional family piece: {value}",
             "(one connected unobstructed piece; sum the pieces to count curves)"]
    return payload, lines, True


def _cmd_ledger(args):
    from .bookkeeping import builtin_ledgers, ledger_check, load_ledger_file

    if args.file is None:
        ledgers = [ledger for _, ledger in sorted(builtin_ledgers().items())]
    else:
        ledgers = load_ledger_file(args.file)
    reports = [ledger_check(ledger) for ledger in ledgers]
    failed = sum(1 for rep in reports if not rep.ok)
    payload = {
        "ledgers": [
            {
                "name": rep.name,
                "total": rep.total,
                "computed": rep.computed,
                "residual": rep.residual,
                "ok": rep.ok,
            }
            for rep in reports
        ],
        "ok": not failed,
    }
    lines = [f"PASS {rep.name}: components sum to {rep.total}" if rep.ok
             else f"FAIL {rep.name}: total {rep.total}, components sum to {rep.computed} "
                  f"(residual {rep.residual})"
             for rep in reports]
    lines.append(f"{len(reports)} ledgers, {failed} failed")
    return payload, lines, not failed


def _cmd_verify(args):
    from . import suites  # only this command runs the check suites

    checks = suites.run_suite(args.suite, seed=args.seed)
    failed = sum(1 for c in checks if not c.passed)
    payload = {
        "suite": args.suite,
        "checks": [
            {"name": c.name, "expected": c.expected, "actual": c.actual, "passed": c.passed}
            for c in checks
        ],
        "passed": not failed,
    }
    lines = [f"PASS {c.name}: {c.actual}" if c.passed
             else f"FAIL {c.name}: expected {c.expected}, got {c.actual}"
             for c in checks]
    lines.append(f"{len(checks)} checks, {failed} failed")
    return payload, lines, not failed


_HANDLERS = {
    "grass": _cmd_grass,
    "count": _cmd_count,
    "equivalence": _cmd_equivalence,
    "ledger": _cmd_ledger,
    "verify": _cmd_verify,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # --help exits 0; a usage error exits 1, as 2 means an internal fault
        return 1 if exc.code else 0
    start = time.perf_counter()
    try:
        payload, lines, ok = _HANDLERS[args.command](args)
        if args.json:
            payload["timings_ms"] = round((time.perf_counter() - start) * 1000, 3)
            print(json.dumps(payload, indent=2))
        else:
            print("\n".join(lines))
        sys.stdout.flush()  # a reader that closed the pipe shows up here, not at exit
        return 0 if ok else 1
    except dsl.DSLError as exc:
        print(exc.diagnostic(), file=sys.stderr)
        return 1
    except BrokenPipeError:  # before OSError, its base class
        # no output can reach the reader; send what is left to devnull, quietly
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 1
    except (ValueError, OSError) as exc:  # bad input: arguments, a query's numbers, a ledger file
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # anything a handler did not expect
        print(f"internal error: {exc}", file=sys.stderr)
        return 2


def entry() -> None:
    sys.exit(main(sys.argv[1:]))
