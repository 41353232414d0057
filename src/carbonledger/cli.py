"""Command-line surface: validate, run, simulate, oracle-check, report.

Everything is driven by explicit flags (never environment variables) so
invocations are reproducible. Exit codes: 0 success, 1 data problems
(violations, closure failures, missing feeds), 2 unusable inputs or
configuration.
"""

from __future__ import annotations

import argparse
import csv
import functools
import logging
import math
import sys
from datetime import date
from itertools import compress
from pathlib import Path
from typing import Callable

from . import check, simulate, tables
from .carbon import DEFAULT_PUE
from .errors import CarbonLedgerError, InputError, OracleSizeError, ScenarioError
from .model import Bundle, ColumnTable, Violation, day_of
from .tables import validate_bundle


EXIT_OK = 0
EXIT_DATA = 1
EXIT_USAGE = 2

#: The report CSVs ``run`` writes once closure holds; a run that fails leaves none of them.
REPORTS = ("user_energy.csv", "emissions.csv", "footprint_report.csv", "flow_summary.csv")

#: simulate's scenario flags (argparse dests, None when not given) and the ScenarioSpec field each sets.
SCENARIO_FLAGS = {
    "machines": "machine_count",
    "users": "user_count",
    "clusters": "cluster_count",
    "hours": "hours",
    "economy_depth": "economy_depth",
    "cyclic_economy": "cyclic_economy",
    "unbilled_usage": "include_unbilled_usage",
}


def _clip_bundle(bundle: Bundle, start: date | None, end: date | None) -> Bundle:
    """Keep the hourly and daily rows in [start, end); every other table passes whole.

    Each table is narrowed by one mask over its ``hour`` or ``day`` column,
    and each distinct hour or day is tested once.
    """
    if start is None and end is None:
        return bundle

    def keep(day: date) -> bool:
        return (start is None or day >= start) and (end is None or day < end)

    hour_kept = functools.cache(lambda hour: keep(day_of(hour)))
    dated = ((tables.HOUR_UTC, hour_kept), (tables.DAY_UTC, functools.cache(keep)))
    clipped = {}
    for table in tables.TABLES.values():
        records = getattr(bundle, table.field)
        for column, in_range in dated:
            if column in table.columns:
                mask = list(map(in_range, tables._values(records, column.attribute)))
                records = records.where(mask) if isinstance(records, ColumnTable) else list(compress(records, mask))
        clipped[table.field] = records
    return Bundle(**clipped)


def _validated(bundle: Bundle, report_dir: Path | None) -> list[Violation]:
    """The bundle's violations, also written to ``report_dir`` if given."""
    violations = validate_bundle(bundle)
    if report_dir is not None:
        report_dir.mkdir(parents=True, exist_ok=True)
        tables.write_validation_report(violations, report_dir / "validation_report.csv")
    return violations


def cmd_validate(input_dir: Path, output_dir: Path | None) -> int:
    report_dir = output_dir or input_dir
    violations = _validated(tables.read_bundle(input_dir), report_dir)
    if violations:
        for v in violations:
            print(f"violation: {v.code} {v.subject}: {v.detail}")
        print(f"{len(violations)} violation(s); report at {report_dir / 'validation_report.csv'}")
        return EXIT_DATA
    print("bundle is well-formed")
    return EXIT_OK


def _checked_bundle(args: argparse.Namespace) -> Bundle | None:
    """The run flags' bundle, read, clipped and validated; None if it is refused."""
    if args.rounds < 1:
        raise InputError("--rounds must be at least 1")
    if args.start is not None and args.end is not None and args.start >= args.end:
        raise InputError(f"empty date range: {args.start} .. {args.end}")
    bundle = _clip_bundle(tables.read_bundle(args.input), args.start, args.end)
    violations = _validated(bundle, args.output)
    if violations:
        print(f"refusing to run on {len(violations)} validation violation(s)", file=sys.stderr)
        return None
    return bundle


def cmd_run(args: argparse.Namespace) -> int:
    for name in REPORTS:
        (args.output / name).unlink(missing_ok=True)
    bundle = _checked_bundle(args)
    if bundle is None:
        return EXIT_DATA

    artifacts = check.run_end_to_end(
        bundle,
        rounds=args.rounds,
        default_pue=args.default_pue,
        missing_intensity=args.missing_intensity,
    )
    out = args.output
    for notice in (
        artifacts.allocation.notices + artifacts.emissions.notices + artifacts.footprints.notices
    ):
        print(f"notice: {notice.code} {notice.subject}: {notice.detail}")

    failures = check.closure_failures(bundle, artifacts)
    if failures:
        for failure in failures:
            print(f"closure failure: {failure}", file=sys.stderr)
        return EXIT_DATA
    del bundle  # nothing below reads it, so the writers run with only the artifacts alive
    tables.write_user_energy(artifacts.allocation.stages, out / "user_energy.csv", args.round_wh)
    tables.write_emissions(artifacts.emissions, out / "emissions.csv", args.round_wh, args.round_g)
    tables.write_footprints(artifacts.footprints.reports, out / "footprint_report.csv", args.round_g)
    tables.write_flow_summary(artifacts.allocation.stages, out / "flow_summary.csv", args.round_wh)
    total_wh = artifacts.allocation.final.total_wh()
    total_kg = artifacts.footprints.total_kg()  # the reported kg, which closure matched to emitted kg
    print(f"run complete: {total_wh:.0f} Wh allocated, {total_kg:.3f} kgCO2e, reports in {out}")
    return EXIT_OK


def cmd_simulate(spec: simulate.ScenarioSpec, out_dir: Path) -> int:
    bundle = simulate.generate(spec)
    manifest = tables.write_bundle(
        bundle,
        out_dir,
        manifest_extra={
            "generator": simulate.GENERATOR_ID,
            "seed": spec.seed,
            "preset": spec.preset,
        },
    )
    print(f"bundle written to {out_dir} (manifest {manifest.name})")
    return EXIT_OK


def cmd_oracle_check(args: argparse.Namespace) -> int:
    bundle = _checked_bundle(args)
    if bundle is None:
        return EXIT_DATA
    report = check.compare_with_oracle(bundle, rounds=args.rounds, default_pue=args.default_pue)
    for name in sorted(report.table_max):
        print(f"table {name}: max relative deviation {report.table_max[name]:.3e}")
    if report.worst:
        print("worst keys:")
        for diff in report.worst:
            print(
                f"  {diff.table} {diff.key}: pipeline={diff.pipeline!r} oracle={diff.oracle!r} "
                f"deviation={diff.deviation:.3e}"
            )
    if args.output is not None:
        args.output.mkdir(parents=True, exist_ok=True)
        tables.write_oracle_diff(report.worst, args.output / "oracle_diff.csv")
    if report.within():
        print(f"oracle agreement: max deviation {report.max_deviation:.3e} < {check.REL_TOL:.0e}")
        return EXIT_OK
    print(f"oracle disagreement: max deviation {report.max_deviation:.3e}", file=sys.stderr)
    return EXIT_DATA


def cmd_report(output_dir: Path) -> int:
    """Summarize a completed run directory."""
    flow_path = output_dir / "flow_summary.csv"
    if not flow_path.exists():
        raise InputError(f"{flow_path} not found; run the pipeline first")
    with flow_path.open(newline="") as handle:
        rows = list(csv.DictReader(handle))
    stages: dict[str, float] = {}
    for row in rows:
        if row["user"] == "TOTAL":
            stages[row["stage"]] = float(row["energy_wh"])
    print("stage energy totals (Wh):")
    for stage, total in stages.items():
        print(f"  {stage:>24}: {total:.0f}")
    footprint_path = output_dir / "footprint_report.csv"
    if footprint_path.exists():
        with footprint_path.open(newline="") as handle:
            reports = list(csv.DictReader(handle))
        total = sum(float(r["kg_co2e"]) for r in reports)
        accounts = sorted({r["billing_account"] for r in reports})
        print(f"customer footprint rows: {len(reports)} across {len(accounts)} account(s), {total:.3f} kgCO2e")
    return EXIT_OK


def _parse_date(text: str) -> date:
    return date.fromisoformat(text)


def _finite(low: float) -> Callable[[str], float]:
    """An argparse type: a finite float at least ``low``."""

    def parse(text: str) -> float:
        try:
            value = float(text)
        except ValueError:
            value = math.nan
        if not math.isfinite(value) or value < low:
            raise argparse.ArgumentTypeError(f"{text!r} is not a finite number >= {low:g}")
        return value

    return parse


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="carbonledger",
        description="Data-center energy attribution and carbon accounting pipeline",
    )
    parser.add_argument(
        "--log-level", choices=("DEBUG", "INFO", "WARNING", "ERROR"), default="WARNING",
        help="least severe log message to print (default WARNING)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_bundle_flags(p: argparse.ArgumentParser, need_output: bool) -> None:
        p.add_argument("--input", type=Path, required=True, help="bundle directory")
        p.add_argument("--output", type=Path, required=need_output, help="report directory")
        p.add_argument("--start", type=_parse_date, default=None, help="first day (inclusive, UTC)")
        p.add_argument("--end", type=_parse_date, default=None, help="end day (exclusive, UTC)")
        p.add_argument("--rounds", type=int, default=2, help="minor reallocation rounds")
        p.add_argument("--default-pue", type=_finite(1.0), default=DEFAULT_PUE)

    p_validate = sub.add_parser("validate", help="check a bundle for violations")
    p_validate.add_argument("--input", type=Path, required=True)
    p_validate.add_argument("--output", type=Path, default=None)

    p_run = sub.add_parser("run", help="run the full pipeline and write reports")
    add_bundle_flags(p_run, need_output=True)
    p_run.add_argument(
        "--missing-intensity", type=_finite(0.0), default=None, metavar="G",
        help="gCO2e/kWh for a cluster-hour no intensity feed covers (default: exit 1)",
    )
    p_run.add_argument("--round-wh", type=_finite(0.0), default=1.0, help="energy report rounding step (0: none)")
    p_run.add_argument("--round-g", type=_finite(0.0), default=1.0, help="carbon report rounding step in grams (0: none)")

    p_sim = sub.add_parser("simulate", help="generate a synthetic bundle")
    p_sim.add_argument("--output", type=Path, required=True)
    p_sim.add_argument("--preset", choices=simulate.PRESETS, default=None)
    p_sim.add_argument("--seed", type=int, default=0)
    p_sim.add_argument("--machines", type=int, default=None)
    p_sim.add_argument("--users", type=int, default=None)
    p_sim.add_argument("--clusters", type=int, default=None)
    p_sim.add_argument("--hours", type=int, default=None)
    p_sim.add_argument("--economy-depth", type=int, default=None)
    p_sim.add_argument("--cyclic-economy", action="store_true", default=None)
    p_sim.add_argument("--unbilled-usage", action="store_true", default=None)

    p_oracle = sub.add_parser("oracle-check", help="compare pipeline output against the brute-force oracle")
    add_bundle_flags(p_oracle, need_output=False)

    p_report = sub.add_parser("report", help="summarize a completed run directory")
    p_report.add_argument("--input", type=Path, required=True, help="directory written by run")

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(format="%(levelname)s %(name)s: %(message)s")
    # basicConfig acts once per process, but main() may run many times in one.
    logging.getLogger().setLevel(args.log_level)
    try:
        if args.command == "validate":
            return cmd_validate(args.input, args.output)
        if args.command == "run":
            return cmd_run(args)
        if args.command == "simulate":
            overrides = {
                field: getattr(args, flag) for flag, field in SCENARIO_FLAGS.items() if getattr(args, flag) is not None
            }
            if args.preset is not None:
                spec = simulate.preset_spec(args.preset, seed=args.seed, **overrides)
            else:
                spec = simulate.ScenarioSpec(seed=args.seed, **overrides)
            return cmd_simulate(spec, args.output)
        if args.command == "oracle-check":
            return cmd_oracle_check(args)
        if args.command == "report":
            return cmd_report(args.input)
        raise InputError(f"unknown command {args.command!r}")
    except (InputError, ScenarioError, OracleSizeError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except CarbonLedgerError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
