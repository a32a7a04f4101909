"""Command-line driver: calc, validate, generate and bench subcommands.

Exit codes: 0 success, 1 input data problem (parse, schema, validation,
options), 2 solver failure.
"""
from __future__ import annotations

import argparse
import sys

from ._version import __version__
from .bench import EquivalenceGateError, run_benchmark
from .builder import FaultStudyOptions
from .exceptions import GridDataError, SolverError
from .generator import generate_radial_grid
from .gridfile import load_network, save_network, write_result_csv, write_result_json
from .solver import calc_sc

EXIT_OK = 0
EXIT_DATA_ERROR = 1
EXIT_SOLVER_ERROR = 2


def _fault_buses(raw: str):
    if raw == "all":
        return "all"
    try:
        return tuple(int(part) for part in raw.split(",") if part.strip())
    except ValueError:
        raise GridDataError(f"--fault-buses must be 'all' or a comma-separated id list, got {raw!r}") from None


def _cmd_calc(args) -> int:
    net = load_network(args.grid)
    options = FaultStudyOptions(
        case=args.case,
        lv_tolerance_percent=args.lv_tolerance,
        fault_buses=_fault_buses(args.fault_buses),
        consider_converters=not args.no_dg,
        s_base_mva=args.s_base_mva,
    )
    result = calc_sc(net, options)
    write = write_result_json if args.format == "json" else write_result_csv
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="") as f:
            write(result, f)
    else:
        write(result, sys.stdout)
    return EXIT_OK


def _cmd_validate(args) -> int:
    net = load_network(args.grid)
    print(f"{args.grid}: OK ({len(net.buses)} buses)")
    return EXIT_OK


def _cmd_generate(args) -> int:
    net = generate_radial_grid(
        feeders=args.feeders,
        buses_per_feeder=args.buses_per_feeder,
        dg_every=args.dg_every,
        seed=args.seed,
    )
    save_network(net, args.out)
    print(f"wrote {args.out}: {len(net.buses)} buses, {len(net.converter_sources)} converter sources")
    return EXIT_OK


def _cmd_bench(args) -> int:
    sizes = [int(s) for s in args.sizes.split(",") if s.strip()]
    report = run_benchmark(sizes, case=args.case, seed=args.seed)
    print(report)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sccalc",
        description="IEC 60909 initial short-circuit currents at all buses, vectorized.",
    )
    parser.add_argument("--version", action="version", version=f"sccalc {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_calc = sub.add_parser("calc", help="run a short-circuit study on a grid file")
    p_calc.add_argument("grid", help="grid JSON document")
    p_calc.add_argument("--case", choices=("max", "min"), default="max")
    p_calc.add_argument("--lv-tolerance", type=int, choices=(6, 10), default=10)
    p_calc.add_argument("--fault-buses", default="all", help="'all' or comma-separated bus ids")
    p_calc.add_argument("--no-dg", action="store_true", help="ignore converter sources")
    p_calc.add_argument("--s-base-mva", type=float, default=1.0)
    p_calc.add_argument("--out", help="result file path (default: stdout)")
    p_calc.add_argument("--format", choices=("csv", "json"), default="csv")
    p_calc.set_defaults(func=_cmd_calc)

    p_val = sub.add_parser("validate", help="check a grid file against the model invariants")
    p_val.add_argument("grid")
    p_val.set_defaults(func=_cmd_validate)

    p_gen = sub.add_parser("generate", help="write a synthetic radial MV grid")
    p_gen.add_argument("--feeders", type=int, default=4)
    p_gen.add_argument("--buses-per-feeder", type=int, default=25)
    p_gen.add_argument("--dg-every", type=int, default=5)
    p_gen.add_argument("--seed", type=int, default=0)
    p_gen.add_argument("--out", required=True)
    p_gen.set_defaults(func=_cmd_generate)

    p_bench = sub.add_parser("bench", help="time vectorized vs per-bus looped studies")
    p_bench.add_argument("--sizes", default="102,502", help="comma-separated bus counts")
    p_bench.add_argument("--case", choices=("max", "min"), default="max")
    p_bench.add_argument("--seed", type=int, default=0)
    p_bench.set_defaults(func=_cmd_bench)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except GridDataError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_DATA_ERROR
    except (SolverError, EquivalenceGateError) as e:
        print(f"solver error: {e}", file=sys.stderr)
        return EXIT_SOLVER_ERROR


if __name__ == "__main__":
    sys.exit(main())
