"""Command-line front end: curve sweeps, surfaces, model comparison, validation.

Exit codes: 0 success, 1 validation failure, 2 input error.
"""

import argparse
import sys

from . import __version__
from .curves import check_target, run_compare, run_curve, run_surface, write_compare_csv, write_curve_csv, write_lines, write_surface_csv
from .errors import IrsLinkError
from .montecarlo import engine_threads
from .scenario import MODELS, PRESETS, load_scenario, step_grid
from .validation import CRITERIA, run_criteria

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_INPUT = 2


def _add_run(parser):
    """--scenario, --trials, --seed and --out of a subcommand that writes curves."""
    parser.add_argument("--scenario", required=True, help=f"scenario JSON file or preset name ({', '.join(PRESETS)})")
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
    p_curve.set_defaults(run=_cmd_curve)
    _add_run(p_curve)

    p_surface = sub.add_parser("surface", help="outage over a (shape, scale) grid at fixed threshold")
    p_surface.set_defaults(run=_cmd_surface)
    p_surface.add_argument("--out", default=None, help="output CSV path")
    p_surface.add_argument("--z", type=float, default=2.0, help="SNR threshold (linear)")
    p_surface.add_argument("--ka-min", type=float, default=0.25)
    p_surface.add_argument("--ka-max", type=float, default=5.0)
    p_surface.add_argument("--ka-step", type=float, default=0.25)
    p_surface.add_argument("--wa-min", type=float, default=0.25)
    p_surface.add_argument("--wa-max", type=float, default=5.0)
    p_surface.add_argument("--wa-step", type=float, default=0.25)

    p_compare = sub.add_parser("compare", help="one curve per correlation model")
    p_compare.set_defaults(run=_cmd_compare)
    _add_run(p_compare)
    p_compare.add_argument(
        "--models",
        default=",".join(MODELS),
        help=f"comma-separated subset of {MODELS}",
    )

    p_validate = sub.add_parser("validate", help="run the acceptance matrix and print pass/fail lines")
    p_validate.set_defaults(run=_cmd_validate)
    # None keeps each criterion's own trial count and seed.
    p_validate.add_argument(
        "--trials", type=int, default=None, help="Monte-Carlo trials of every MC criterion, at least 2 (default: each criterion's own)"
    )
    p_validate.add_argument("--seed", type=int, default=None, help="seed of every MC criterion (default: each criterion's own)")
    p_validate.add_argument("--out", default=None, help="also write the report lines (engine plan, one line per criterion) to this text file")
    p_validate.add_argument(
        "--only",
        default=None,
        help=f"comma-separated criterion numbers out of {','.join(map(str, sorted(CRITERIA)))} (default: all)",
    )
    return parser


def _cmd_curve(args) -> int:
    scenario = load_scenario(args.scenario)
    out = args.out or f"{scenario.name}_curve.csv"
    check_target(out)
    curve = run_curve(scenario, trials=args.trials, seed=args.seed)
    write_curve_csv(curve, out)
    print(f"wrote {len(curve.xi)} rows to {out}")
    return EXIT_OK


def _cmd_surface(args) -> int:
    ka = step_grid(args.ka_min, args.ka_max, args.ka_step)
    wa = step_grid(args.wa_min, args.wa_max, args.wa_step)
    out = args.out or "surface.csv"
    check_target(out)
    values = run_surface(ka, wa, args.z)
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
    repeated = [m for i, m in enumerate(models) if m in models[:i]]
    if repeated:
        raise IrsLinkError(f"--models names {repeated[0]!r} more than once")
    out = args.out or f"{scenario.name}_compare.csv"
    check_target(out)
    curves = run_compare(scenario, models, trials=args.trials, seed=args.seed)
    write_compare_csv(curves, out)
    print(f"wrote {len(models)} curves to {out}")
    return EXIT_OK


def _cmd_validate(args) -> int:
    numbers = None
    if args.only is not None:
        valid = ",".join(map(str, sorted(CRITERIA)))
        try:
            numbers = sorted({int(tok) for tok in args.only.split(",") if tok.strip()})
        except ValueError:
            raise IrsLinkError(f"--only expects criterion numbers, got {args.only!r}") from None
        if not numbers:
            raise IrsLinkError(f"--only names no criterion; valid numbers are {valid}")
        bad = [n for n in numbers if n not in CRITERIA]
        if bad:
            raise IrsLinkError(f"no criterion {bad[0]}; valid numbers are {valid}")
    if args.out:
        check_target(args.out)
    results = run_criteria(numbers, trials=args.trials, seed=args.seed)
    lines = [engine_threads().line()] + [r.line() for r in results]
    for line in lines:
        print(line)
    failed = [r for r in results if not r.passed]
    print(f"{len(results) - len(failed)}/{len(results)} criteria passed")
    if args.out:
        write_lines(args.out, lines)
    return EXIT_VALIDATION if failed else EXIT_OK


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.run(args)
    except (IrsLinkError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
