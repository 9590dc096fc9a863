"""Command-line front end: curve sweeps, surfaces, model comparison, validation.

Exit codes: 0 success, 1 validation failure, 2 input error.
"""

import argparse
import sys

from . import __version__
from .curves import run_compare, run_curve, run_surface, write_compare_csv, write_curve_csv, write_lines, write_surface_csv
from .errors import IrsLinkError
from .scenario import MODELS, load_scenario, step_grid
from .validation import run_criteria

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_INPUT = 2


def _add_common(parser, scenario_required=True):
    parser.add_argument(
        "--scenario",
        required=scenario_required,
        help="scenario JSON file or preset name (fig2a, fig2b, fig2c)",
    )
    parser.add_argument("--trials", type=int, default=100_000, help="Monte-Carlo trials (0 = closed form only)")
    parser.add_argument("--seed", type=int, default=1, help="Monte-Carlo channel seed")
    parser.add_argument("--out", default=None, help="output CSV path")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="irslink",
        description="Outage probability of an IRS-assisted link: closed forms vs Monte Carlo",
    )
    parser.add_argument("--version", action="version", version=f"irslink {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_curve = sub.add_parser("curve", help="sweep outage probability over the target rate")
    _add_common(p_curve)

    p_surface = sub.add_parser("surface", help="outage over a (shape, scale) grid at fixed threshold")
    _add_common(p_surface, scenario_required=False)
    p_surface.add_argument("--z", type=float, default=2.0, help="SNR threshold (linear)")
    p_surface.add_argument("--ka-min", type=float, default=0.25)
    p_surface.add_argument("--ka-max", type=float, default=5.0)
    p_surface.add_argument("--ka-step", type=float, default=0.25)
    p_surface.add_argument("--wa-min", type=float, default=0.25)
    p_surface.add_argument("--wa-max", type=float, default=5.0)
    p_surface.add_argument("--wa-step", type=float, default=0.25)

    p_compare = sub.add_parser("compare", help="one curve per correlation model")
    _add_common(p_compare)
    p_compare.add_argument(
        "--models",
        default=",".join(MODELS),
        help=f"comma-separated subset of {MODELS}",
    )

    p_validate = sub.add_parser("validate", help="run the acceptance matrix and print pass/fail lines")
    _add_common(p_validate, scenario_required=False)
    p_validate.set_defaults(trials=None, seed=None)
    p_validate.add_argument(
        "--only",
        default=None,
        help="comma-separated criterion numbers (default: all ten)",
    )
    return parser


def _cmd_curve(args) -> int:
    scenario = load_scenario(args.scenario)
    curve = run_curve(scenario, trials=args.trials, seed=args.seed)
    out = args.out or f"{scenario.name}_curve.csv"
    write_curve_csv(curve, out)
    print(f"wrote {len(curve.xi)} rows to {out}")
    return EXIT_OK


def _cmd_surface(args) -> int:
    ka = step_grid(args.ka_min, args.ka_max, args.ka_step)
    wa = step_grid(args.wa_min, args.wa_max, args.wa_step)
    values = run_surface(ka, wa, args.z)
    out = args.out or "surface.csv"
    write_surface_csv(ka, wa, values, args.z, out)
    print(f"wrote {values.shape[0]}x{values.shape[1]} surface to {out}")
    return EXIT_OK


def _cmd_compare(args) -> int:
    scenario = load_scenario(args.scenario)
    models = tuple(m.strip() for m in args.models.split(",") if m.strip())
    if not models:
        raise IrsLinkError(f"--models names no model; choose from {MODELS}")
    unknown = [m for m in models if m not in MODELS]
    if unknown:
        raise IrsLinkError(f"unknown model {unknown[0]!r}; choose from {MODELS}")
    curves = run_compare(scenario, models, trials=args.trials, seed=args.seed)
    out = args.out or f"{scenario.name}_compare.csv"
    write_compare_csv(curves, out)
    print(f"wrote {len(models)} curves to {out}")
    return EXIT_OK


def _cmd_validate(args) -> int:
    numbers = None
    if args.only is not None:
        try:
            numbers = sorted({int(tok) for tok in args.only.split(",") if tok.strip()})
        except ValueError:
            raise IrsLinkError(f"--only expects criterion numbers, got {args.only!r}") from None
        if not numbers:
            raise IrsLinkError("--only names no criterion; valid numbers are 1..10")
        bad = [n for n in numbers if n not in range(1, 11)]
        if bad:
            raise IrsLinkError(f"no criterion {bad[0]}; valid numbers are 1..10")
    if args.trials is not None and args.trials <= 0:
        raise IrsLinkError("validate needs a positive trial count")
    results = run_criteria(numbers, trials=args.trials, seed=args.seed)
    lines = [r.line() for r in results]
    for line in lines:
        print(line)
    failed = [r for r in results if not r.passed]
    print(f"{len(results) - len(failed)}/{len(results)} criteria passed")
    if args.out:
        write_lines(args.out, lines)
    return EXIT_VALIDATION if failed else EXIT_OK


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    handlers = {
        "curve": _cmd_curve,
        "surface": _cmd_surface,
        "compare": _cmd_compare,
        "validate": _cmd_validate,
    }
    try:
        return handlers[args.command](args)
    except (IrsLinkError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
