"""Command-line driver: calc, validate, generate and bench subcommands.

Exit codes: 0 success, 1 input data problem (parse, schema, validation,
options), 2 solver failure.
"""
from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys

from ._version import __version__
from .bench import EquivalenceGateError, run_benchmark
from .builder import FaultStudyOptions
from .exceptions import GridDataError, GridFileError, SolverError
from .generator import generate_radial_grid
from .gridfile import load_network, save_network, write_result_csv, write_result_json
from .solver import calc_sc

EXIT_OK = 0
EXIT_DATA_ERROR = 1
EXIT_SOLVER_ERROR = 2


def _int_list(raw: str, flag: str, expected: str) -> list[int]:
    try:
        return [int(part) for part in raw.split(",") if part.strip()]
    except ValueError:
        raise GridDataError(f"{flag} must be {expected}, got {raw!r}") from None


def _cmd_calc(args) -> int:
    net = load_network(args.grid)
    fault_buses = args.fault_buses
    if fault_buses != "all":
        fault_buses = _int_list(fault_buses, "--fault-buses", "'all' or a comma-separated id list")
    options = FaultStudyOptions(
        case=args.case,
        lv_tolerance_percent=args.lv_tolerance,
        fault_buses=fault_buses,
        consider_converters=not args.no_dg,
        s_base_mva=args.s_base_mva,
    )
    result = calc_sc(net, options)
    write = write_result_json if args.format == "json" else write_result_csv
    write(result, args.out or sys.stdout)
    return EXIT_OK


def _cmd_validate(args) -> int:
    net = load_network(args.grid)
    print(f"{args.grid}: OK ({len(net.buses)} buses)")
    return EXIT_OK


def _cmd_generate(args) -> int:
    try:
        net = generate_radial_grid(
            feeders=args.feeders,
            buses_per_feeder=args.buses_per_feeder,
            dg_every=args.dg_every,
            seed=args.seed,
        )
    except ValueError as e:
        # the message starts with the parameter name, which names the flag
        name, _, rule = str(e).partition(" ")
        raise GridDataError(f"--{name.replace('_', '-')} {rule}") from None
    save_network(net, args.out)
    print(f"wrote {args.out}: {len(net.buses)} buses, {len(net.converter_sources)} converter sources")
    return EXIT_OK


@contextlib.contextmanager
def _replacing(path: str):
    """A new file next to ``path`` that takes its place once the block is
    done, so that a block that raises or is interrupted leaves ``path`` as
    it was. The file is made first: a folder that cannot be written fails
    before the block runs."""
    part = f"{path}.{os.getpid()}.part"
    try:
        f = open(part, "x", encoding="utf-8", newline="")
    except OSError as e:
        raise GridFileError(f"{path}: {e.strerror}") from e
    try:
        with f:
            yield f
        try:
            os.replace(part, path)
        except OSError as e:
            raise GridFileError(f"{path}: {e.strerror}") from e
    finally:
        with contextlib.suppress(FileNotFoundError):
            os.remove(part)


def _cmd_bench(args) -> int:
    expected = "a non-empty comma-separated list of bus counts > 0"
    sizes = _int_list(args.sizes, "--sizes", expected)
    if not sizes or min(sizes) < 1:
        raise GridDataError(f"--sizes must be {expected}, got {args.sizes!r}")
    with _replacing(args.json) if args.json else contextlib.nullcontext() as f:
        report = run_benchmark(sizes, case=args.case, seed=args.seed, loop_max=args.loop_max)
        print(report)
        if f:
            json.dump(report.to_dict(), f, indent=2)
            f.write("\n")
    if f:
        print(f"wrote {args.json}")
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
    p_bench.add_argument(
        "--loop-max", type=int, metavar="N",
        help="run the looped per-bus reference only up to N buses, above N on a seeded sample (default: all)",
    )
    p_bench.add_argument("--json", metavar="PATH", help="also write the report with stage times as JSON")
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
