"""Command-line interface.

Subcommands:

* ``dq field eval <expr> [--order N]``       canonicalize a series literal
* ``dq star <obs> <obs> [--d D]``            star product of two observables
* ``dq check --state S --obs E ...``         run the relation checks
* ``dq intelligent --state S --obs E ...``   saturation / witness detection
* ``dq proptest <suite> [--trials] [--seed] [--dims]``  randomized suites

Write ``--obs=EXPR`` when an expression starts with ``-`` (``--obs=-2*q1``);
``--obs -2*q1`` reads ``-2*q1`` as an option.

Exit codes: 0 all good, 1 usage/parse errors, 2 a relation was violated
(a falsified inequality), 3 a defect: IndeterminateAtTruncation from a
sign or zero decision, or InternalConsistencyError from an internal check.
Every input the CLI builds is exact and the checks do not truncate, so
exit 3 never marks a precision the user can raise.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from fractions import Fraction

from .errors import (
    DQError, ExprSyntaxError, IndeterminateAtTruncation, InternalConsistencyError,
)
from .linalg import Relation
from .parsing import parse_observables, parse_series
from .series import ComplexSeries
from .states import GaussianState, correlated, ground, load_state, squeezed
from .uncertainty import RelationChecks, check_relations

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VIOLATED = 2
EXIT_DEFECT = 3

#: the status word of each relation in the output
STATUS = {
    Relation.EQUAL: "saturated",
    Relation.STRICTLY_GREATER: "strictly_above",
    Relation.VIOLATED: "violated",
}


def _resolve_state(spec: str, d: int) -> GaussianState:
    if spec == "ground":
        return ground(d)
    if spec.startswith("squeezed:"):
        return squeezed(Fraction(spec.split(":", 1)[1]), d)
    if spec.startswith("correlated:"):
        return correlated(parse_series(spec.split(":", 1)[1]))
    if os.path.exists(spec):
        return load_state(spec)
    raise DQError(
        f"unknown state {spec!r}: use ground, squeezed:<s>, correlated:<series>,"
        " or a JSON file path"
    )


def _witness_json(witness):
    if witness is None:
        return None
    out = []
    for entry in witness:
        if isinstance(entry, ComplexSeries):
            out.append({"re": entry.re.literal(), "im": entry.im.literal()})
        else:
            out.append({"re": entry.literal(), "im": "0"})
    return out


def _exit_from(checks: RelationChecks) -> int:
    violated = any(r.relation is Relation.VIOLATED for _, r in checks.reports)
    return EXIT_VIOLATED if violated else EXIT_OK


def _cmd_field_eval(args) -> int:
    value = parse_series(args.expr)
    if args.order is not None:
        value = value.truncate(Fraction(args.order))
    if args.json:
        print(json.dumps({"series": value.literal()}, sort_keys=True))
    else:
        print(value.literal())
    return EXIT_OK


def _cmd_star(args) -> int:
    from .observables import star

    f, g = parse_observables((args.left, args.right), args.d)
    result = star(f, g)
    if args.json:
        print(json.dumps({"d": f.d, "star": result.literal()}, sort_keys=True))
    else:
        print(result.literal())
    return EXIT_OK


def _parse_check_inputs(args):
    xs = parse_observables(args.obs)
    d = xs[0].d
    state = _resolve_state(args.state, d)
    if state.d != d:
        raise DQError(f"state has d={state.d} but observables need d={d}")
    return state, xs


def _cmd_relations(args) -> int:
    state, xs = _parse_check_inputs(args)
    checks = check_relations(state, xs)
    args.render(args, checks)
    return _exit_from(checks)


def _pretty(vector) -> str:
    """A kernel vector: complex entries as (re)+i*(im), real ones as they print."""
    items = (f"({x.re})+i*({x.im})" if isinstance(x, ComplexSeries) else str(x) for x in vector)
    return "[" + ", ".join(items) + "]"


def _render_check(args, checks: RelationChecks) -> None:
    flags = {"hr": checks.hr_intelligent, "rs": checks.rs_intelligent}
    if args.json:
        reports = [
            {
                "relation": name,
                "lhs": r.lhs.literal(),
                "rhs": r.rhs.literal(),
                "status": STATUS[r.relation],
                "intelligent": flags,
                "witness": _witness_json(checks.witness if name == "TwoObs" else None),
            }
            for name, r in checks.reports
        ]
        payload = {
            "state": args.state,
            "observables": list(args.obs),
            "reports": reports,
            "ideal_direction": _witness_json(checks.direction),
        }
        print(json.dumps(payload, sort_keys=True))
        return
    for name, r in checks.reports:
        print(f"{name}: {STATUS[r.relation]}  lhs={r.lhs}  rhs={r.rhs}")
    print(f"intelligent: hr={flags['hr']} rs={flags['rs']}")
    if checks.witness is not None:
        print(f"ideal witness: {_pretty(checks.witness)}")
    if checks.direction is not None:
        print(f"ideal direction: {_pretty(checks.direction)}")


def _render_intelligent(args, checks: RelationChecks) -> None:
    if args.json:
        payload = {
            "state": args.state,
            "observables": list(args.obs),
            "intelligent": {"hr": checks.hr_intelligent, "rs": checks.rs_intelligent},
            "witness": _witness_json(checks.witness),
            "ideal_direction": _witness_json(checks.direction),
        }
        print(json.dumps(payload, sort_keys=True))
        return
    print(f"hr-intelligent: {checks.hr_intelligent}")
    print(f"rs-intelligent: {checks.rs_intelligent}")
    if checks.witness is not None:
        print(f"witness: {_pretty(checks.witness)}")
    if checks.direction is not None:
        print(f"ideal direction: {_pretty(checks.direction)}")


def _at_least_one(text: str, what: str) -> tuple[int, ...]:
    """Comma-separated integers, each at least 1; ``what`` names them in the error."""
    try:
        values = tuple(int(x) for x in text.split(","))
    except ValueError:
        values = ()
    if not values or min(values) < 1:
        raise argparse.ArgumentTypeError(f"expected {what}, got {text!r}")
    return values


def _dims(text: str) -> tuple[int, ...]:
    """The --dims value: comma-separated dimensions, each at least 1."""
    return _at_least_one(text, "dimensions >= 1 like 2,3")


def _trials(text: str) -> int:
    """The --trials value: one trial count of at least 1."""
    (trials,) = _at_least_one(text, "a trial count >= 1")
    return trials


def _cmd_proptest(args) -> int:
    # imported here so that no other command compiles the suites
    from .proptests import run_suite

    report = run_suite(args.suite, args.trials, args.seed, args.dims)
    for line in report.lines():
        print(line)
    return EXIT_OK if report.ok else EXIT_VIOLATED


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process on first use."""
    parser = argparse.ArgumentParser(
        prog="dq",
        description="Exact series arithmetic and uncertainty-relation checks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_field = sub.add_parser("field", help="series field utilities")
    fsub = p_field.add_subparsers(dest="field_cmd", required=True)
    p_eval = fsub.add_parser("eval", help="parse and canonicalize a series literal")
    p_eval.add_argument("expr")
    p_eval.add_argument("--order", default=None, help="truncate to this order")
    p_eval.add_argument("--json", action="store_true")
    p_eval.set_defaults(func=_cmd_field_eval)

    p_star = sub.add_parser("star", help="star product of two observables")
    p_star.add_argument("left")
    p_star.add_argument("right")
    p_star.add_argument("--d", type=int, default=None, help="degrees of freedom")
    p_star.add_argument("--json", action="store_true")
    p_star.set_defaults(func=_cmd_star)

    for name, render, doc in (
        ("check", _render_check, "run the uncertainty-relation checks"),
        ("intelligent", _render_intelligent, "detect saturation and witnesses"),
    ):
        p = sub.add_parser(name, help=doc)
        p.add_argument("--state", required=True, help="ground | squeezed:<s> | correlated:<series> | file.json")
        p.add_argument(
            "--obs",
            action="append",
            required=True,
            metavar="EXPR",
            help="observable expression (repeatable); write --obs=EXPR when EXPR starts with '-'",
        )
        # never read: the checks are exact.  Still parsed (a malformed value
        # is a usage error) because the benchmark corpus passes --order on
        # every invocation; the flag goes with the next benchmark change.
        p.add_argument("--order", type=Fraction, help="ignored: the checks are exact")
        p.add_argument("--json", action="store_true")
        p.set_defaults(func=_cmd_relations, render=render)

    p_prop = sub.add_parser("proptest", help="randomized law suites")
    p_prop.add_argument("suite", help="suite name; an unknown name lists the suites")
    p_prop.add_argument("--trials", type=_trials, default=200)
    p_prop.add_argument("--seed", type=int, default=0)
    p_prop.add_argument("--dims", type=_dims, default=None, help="comma-separated sizes")
    p_prop.set_defaults(func=_cmd_proptest)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse exits 2 on usage errors, 0 after --help
        return EXIT_USAGE if exc.code else EXIT_OK
    try:
        return args.func(args)
    except ExprSyntaxError as exc:
        print(f"syntax error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except IndeterminateAtTruncation as exc:
        print(f"indeterminate at truncation: {exc}", file=sys.stderr)
        return EXIT_DEFECT
    except InternalConsistencyError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_DEFECT
    except (DQError, OSError, ValueError, ZeroDivisionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
