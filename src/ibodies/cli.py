"""Command-line front end for the intersection-body pipeline.

Subcommands:
    check     run a polar-zonoid obstruction criterion, emit a JSON report
    field     dump the obstruction field (continuous part + atoms) as CSV
    sweep     margin of a criterion across a one-parameter family, as CSV
    oracle    Monte Carlo section-volume ratios vs quadrature, as JSON
    validate  parse/classify a profile, report convexity, echo canonical JSON

The primary artifact goes to --out when given (with a human summary on
stdout), otherwise to stdout (summary on stderr).  Outputs carry no
timestamps, so identical configuration and seed give byte-identical files.
"""

from __future__ import annotations

import argparse
import io
import json
import sys
from typing import Optional, Sequence

from .calculus import DEFAULT_REL_TOL, Settings
from .criteria import CRITERION_CHOICES, check_for_dimension
from .errors import (DomainError, FlatTopRequired, InsufficientSamples,
                     InvalidBracket, InvalidParam, NoConvergence,
                     ProfileFormatError, SideRequired, SmoothnessError)
from .families import (FAMILY_NAMES, MAX_GRID_POINTS, FamilySpec, instantiate,
                       step_grid, sweep)
from .oracle import section_ratio_report
from .profile import BodyOfRevolution, profile_from_json, validate_convexity
from .transform import obstruction_field

_LIBRARY_ERRORS = (ProfileFormatError, DomainError, SideRequired,
                   SmoothnessError, FlatTopRequired, NoConvergence,
                   InvalidBracket, InvalidParam, InsufficientSamples,
                   ValueError, OverflowError, OSError, json.JSONDecodeError)


def _add_source_args(p: argparse.ArgumentParser) -> None:
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--builtin", choices=FAMILY_NAMES, metavar="NAME",
                     help="builtin family name: " + ", ".join(FAMILY_NAMES))
    src.add_argument("--profile-json", metavar="PATH",
                     help="path to a JSON profile description")
    p.add_argument("--dim", type=int, default=None,
                   help="ambient dimension (defaults per family; required for JSON profiles)")
    p.add_argument("--param", action="append", default=[], metavar="NAME[=VALUE]",
                   help="family parameter; NAME=VALUE fixes it, bare NAME marks "
                        "the swept parameter (sweep only); repeatable")


def _add_common_args(p: argparse.ArgumentParser, tolerances: bool = True) -> None:
    if tolerances:
        p.add_argument("--tol-rel", type=float, default=DEFAULT_REL_TOL,
                       help=f"quadrature relative tolerance (default {DEFAULT_REL_TOL:g})")
    p.add_argument("--out", metavar="PATH", default=None,
                   help="write the primary artifact here instead of stdout")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ibodies",
        description="Decide whether an intersection body of a convex body of "
                    "revolution is provably not a polar zonoid.")
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("check", help="run an obstruction criterion")
    _add_source_args(p)
    p.add_argument("--criterion", default="auto", choices=CRITERION_CHOICES,
                   help="criterion to apply (auto picks by dimension)")
    _add_common_args(p)
    p.set_defaults(func=cmd_check)

    p = subs.add_parser("field", help="dump the obstruction field as CSV")
    _add_source_args(p)
    p.add_argument("--grid-points", type=int, default=2000,
                   help="uniform grid resolution before breakpoint clustering")
    _add_common_args(p)
    p.set_defaults(func=cmd_field)

    p = subs.add_parser("sweep", help="criterion margin across a family parameter")
    _add_source_args(p)
    p.add_argument("--criterion", default="auto", choices=CRITERION_CHOICES)
    p.add_argument("--range", dest="sweep_range", nargs=2, type=float,
                   metavar=("LO", "HI"), required=True)
    p.add_argument("--step", type=float, required=True)
    _add_common_args(p)
    p.set_defaults(func=cmd_sweep)

    p = subs.add_parser("oracle", help="Monte Carlo section-volume cross-check")
    _add_source_args(p)
    p.add_argument("--samples", type=int, default=10 ** 5)
    p.add_argument("--seed", type=int, default=12345)
    _add_common_args(p)
    p.set_defaults(func=cmd_oracle)

    p = subs.add_parser("validate", help="parse, classify and echo a profile")
    _add_source_args(p)
    _add_common_args(p, tolerances=False)  # validate integrates nothing
    p.set_defaults(func=cmd_validate)
    return parser


def _parse_params(items: Sequence[str]) -> tuple:
    """Split --param entries into fixed {name: value} and swept [names]."""
    fixed, swept = {}, []
    for item in items:
        if "=" in item:
            name, _, text = item.partition("=")
            try:
                fixed[name.strip()] = float(text)
            except ValueError:
                raise InvalidParam(f"cannot parse parameter value in {item!r}")
        else:
            swept.append(item.strip())
    return fixed, swept


def _resolve_body(args) -> BodyOfRevolution:
    """The body that --builtin or --profile-json names, with its --param values."""
    fixed, swept = _parse_params(args.param)
    if swept:
        raise InvalidParam("bare --param names are only valid with sweep")
    if args.builtin:
        return instantiate(FamilySpec(args.builtin, fixed, args.dim))
    if fixed:
        raise InvalidParam("--param NAME=VALUE requires --builtin")
    profile = profile_from_json(args.profile_json)
    if args.dim is None:
        raise InvalidParam("--dim is required with --profile-json")
    return BodyOfRevolution(args.dim, profile)


def _emit(args, artifact_text: str, summary_lines: Sequence[str]) -> None:
    """Primary artifact to --out (summary on stdout) or stdout (summary on stderr)."""
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(artifact_text)
        for line in summary_lines:
            print(line)
    else:
        sys.stdout.write(artifact_text)
        for line in summary_lines:
            print(line, file=sys.stderr)


def _report_lines(report) -> list:
    lines = [f"criterion = {report.criterion}",
             f"dimension = {report.dimension}"]
    for key in sorted(report.intermediates):
        lines.append(f"{key} = {report.intermediates[key]:.17g}")
    lines += [f"lhs = {report.lhs:.17g}",
              f"rhs = {report.rhs:.17g}",
              f"margin = {report.margin:.17g}",
              f"verdict = {report.verdict}"]
    return lines


def cmd_check(args, settings: Settings) -> int:
    body = _resolve_body(args)
    report = check_for_dimension(body.profile, body.dimension, args.criterion,
                                 settings)
    payload = report.to_dict()
    payload["body"] = body.describe()
    text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    _emit(args, text, _report_lines(report))
    return 0


def cmd_field(args, settings: Settings) -> int:
    if args.grid_points < 2:
        raise InvalidParam("--grid-points must be at least 2")
    if args.grid_points > MAX_GRID_POINTS:
        raise InvalidParam(f"--grid-points must be at most {MAX_GRID_POINTS}")
    body = _resolve_body(args)
    fld = obstruction_field(body, uniform_points=args.grid_points,
                            settings=settings)
    buf = io.StringIO()
    fld.to_csv(buf)
    _emit(args, buf.getvalue(), [fld.summary()])
    return 0


def cmd_sweep(args, settings: Settings) -> int:
    fixed, swept = _parse_params(args.param)
    if args.builtin is None:
        raise InvalidParam("sweep requires --builtin")
    if len(swept) != 1:
        raise InvalidParam("sweep needs exactly one bare --param NAME to vary")
    lo, hi = args.sweep_range
    result = sweep(FamilySpec(args.builtin, fixed, args.dim), swept[0],
                   step_grid(lo, hi, args.step), criterion=args.criterion,
                   settings=settings)
    buf = io.StringIO()
    result.to_csv(buf)
    _emit(args, buf.getvalue(), [result.summary()])
    return 0


def cmd_oracle(args, settings: Settings) -> int:
    body = _resolve_body(args)
    report = section_ratio_report(body, samples=args.samples, seed=args.seed,
                                  settings=settings)
    text = json.dumps(report, indent=2, sort_keys=True) + "\n"
    status = "ok" if report["all_within_3sigma"] else "MISMATCH"
    comparisons = report["comparisons"]
    outside = sum(not c["within_3sigma"] for c in comparisons)
    lines = [f"oracle {status}: {outside} of {len(comparisons)} ratio(s) outside 3 sigma, "
             f"{args.samples} samples, seed {args.seed}"]
    _emit(args, text, lines)
    return 0 if report["all_within_3sigma"] else 1


def cmd_validate(args) -> int:
    body = _resolve_body(args)
    profile = body.profile
    joints = profile.breakpoints
    convexity = validate_convexity(profile)
    payload = {
        "body": body.describe(),
        "dimension": body.dimension,
        "variable": profile.variable,
        "profile": profile.to_json_dict(),
        "breakpoints": [
            {"location": j.location, "class": j.smoothness_class,
             "first_derivative_jump": j.first_derivative_jump}
            for j in joints
        ],
        "convexity": {
            "convex": convexity.convex,
            "worst_turn": convexity.worst_turn,
            "violations": convexity.violations,
            "samples": convexity.samples,
        },
    }
    text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    kinds = ", ".join(f"{j.smoothness_class}@{j.location:.9g}" for j in joints) or "none"
    lines = [f"valid profile; breakpoints: {kinds}; "
             f"convex: {'yes' if convexity.convex else 'no'}"]
    _emit(args, text, lines)
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.func is cmd_validate:
            return cmd_validate(args)
        return args.func(args, Settings(args.tol_rel))
    except _LIBRARY_ERRORS as e:
        print(f"error: {type(e).__name__}: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
