"""Command-line surface: validate, run, simulate, oracle-check, report.

Everything is driven by explicit flags (never environment variables) so
invocations are reproducible. Exit codes: 0 success, 1 data problems
(violations, closure failures, missing feeds), 2 unusable inputs or
configuration.
"""

from __future__ import annotations

import argparse
import csv
import logging
import sys
from dataclasses import dataclass
from datetime import date, datetime
from pathlib import Path

from . import check, simulate, tables
from .carbon import DEFAULT_PUE
from .errors import (
    BetaUndefinedError,
    CarbonLedgerError,
    InputError,
    MissingIntensityError,
    OracleSizeError,
    ScenarioError,
)
from .model import Bundle, day_of, validate_bundle

log = logging.getLogger(__name__)

EXIT_OK = 0
EXIT_DATA = 1
EXIT_USAGE = 2


@dataclass(frozen=True)
class RunConfig:
    """Knobs shared by the run and oracle-check commands."""

    input_dir: Path
    output_dir: Path | None
    start: date | None
    end: date | None
    rounds: int
    default_pue: float
    allow_missing_intensity: bool
    missing_intensity_default: float
    energy_round_wh: float
    carbon_round_g: float

    def validate(self) -> None:
        if self.rounds < 1:
            raise InputError("--rounds must be at least 1")
        if self.start is not None and self.end is not None and self.start >= self.end:
            raise InputError(f"empty date range: {self.start} .. {self.end}")


def _clip_bundle(bundle: Bundle, config: RunConfig) -> Bundle:
    """Restrict hourly and daily records to the configured date range."""
    if config.start is None and config.end is None:
        return bundle

    def keep_day(d: date) -> bool:
        if config.start is not None and d < config.start:
            return False
        if config.end is not None and d >= config.end:
            return False
        return True

    def keep_hour(hour: datetime) -> bool:
        return keep_day(day_of(hour))

    clipped = Bundle(
        machines=bundle.machines,
        power_samples=[r for r in bundle.power_samples if keep_hour(r.hour)],
        resource_allocations=[r for r in bundle.resource_allocations if keep_hour(r.hour)],
        gcu_usage=[r for r in bundle.gcu_usage if keep_hour(r.hour)],
        service_usage=[r for r in bundle.service_usage if keep_hour(r.hour)],
        net_costs=[r for r in bundle.net_costs if keep_day(r.day)],
        non_service_costs=[r for r in bundle.non_service_costs if keep_day(r.day)],
        pue=[r for r in bundle.pue if keep_hour(r.hour)],
        carbon_intensity=[r for r in bundle.carbon_intensity if keep_hour(r.hour)],
        annual_intensity=bundle.annual_intensity,
        zone_map=bundle.zone_map,
        sku_catalog=bundle.sku_catalog,
        billing_usage=bundle.billing_usage,
    )
    return clipped


def _refuses(bundle: Bundle, report_dir: Path | None) -> bool:
    """Validate, report into ``report_dir`` if given; True (and say so) on violations."""
    violations = validate_bundle(bundle)
    if report_dir is not None:
        report_dir.mkdir(parents=True, exist_ok=True)
        tables.write_validation_report(violations, report_dir / "validation_report.csv")
    if violations:
        print(f"refusing to run on {len(violations)} validation violation(s)", file=sys.stderr)
    return bool(violations)


def cmd_validate(input_dir: Path, output_dir: Path | None) -> int:
    bundle = tables.read_bundle(input_dir)
    violations = validate_bundle(bundle)
    report_dir = output_dir or input_dir
    report_dir.mkdir(parents=True, exist_ok=True)
    tables.write_validation_report(violations, report_dir / "validation_report.csv")
    if violations:
        for v in violations:
            print(f"violation: {v.code} {v.subject}: {v.detail}")
        print(f"{len(violations)} violation(s); report at {report_dir / 'validation_report.csv'}")
        return EXIT_DATA
    print("bundle is well-formed")
    return EXIT_OK


def cmd_run(config: RunConfig) -> int:
    config.validate()
    if config.output_dir is None:
        raise InputError("run requires --output")
    bundle = _clip_bundle(tables.read_bundle(config.input_dir), config)
    if _refuses(bundle, config.output_dir):
        return EXIT_DATA

    artifacts = check.run_end_to_end(
        bundle,
        rounds=config.rounds,
        default_pue=config.default_pue,
        allow_missing_intensity=config.allow_missing_intensity,
        missing_intensity_default=config.missing_intensity_default,
    )
    out = config.output_dir
    tables.write_user_energy(artifacts.allocation.stages, out / "user_energy.csv", config.energy_round_wh)
    tables.write_emissions(
        artifacts.emissions.records, out / "emissions.csv", config.energy_round_wh, config.carbon_round_g
    )
    tables.write_footprints(artifacts.footprints.reports, out / "footprint_report.csv", config.carbon_round_g)
    tables.write_flow_summary(artifacts.allocation.stages, out / "flow_summary.csv", config.energy_round_wh)

    for notice in (
        artifacts.allocation.notices + artifacts.emissions.notices + artifacts.footprints.notices
    ):
        print(f"notice: {notice.code} {notice.subject}: {notice.detail}")

    failures = check.closure_failures(bundle, artifacts)
    if failures:
        for failure in failures:
            print(f"closure failure: {failure}", file=sys.stderr)
        return EXIT_DATA
    total_wh = artifacts.allocation.final.total_wh()
    total_kg = artifacts.emissions.total_kg()
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


def cmd_oracle_check(config: RunConfig, tolerance: float = check.REL_TOL) -> int:
    config.validate()
    bundle = _clip_bundle(tables.read_bundle(config.input_dir), config)
    if _refuses(bundle, config.output_dir):
        return EXIT_DATA
    report = check.compare_with_oracle(bundle, rounds=config.rounds, default_pue=config.default_pue)
    for name in sorted(report.table_max):
        print(f"table {name}: max relative deviation {report.table_max[name]:.3e}")
    if report.worst:
        print("worst keys:")
        for diff in report.worst:
            print(
                f"  {diff.table} {diff.key}: pipeline={diff.pipeline!r} oracle={diff.oracle!r} "
                f"deviation={diff.deviation:.3e}"
            )
    if config.output_dir is not None:
        config.output_dir.mkdir(parents=True, exist_ok=True)
        with (config.output_dir / "oracle_diff.csv").open("w", newline="") as handle:
            writer = csv.writer(handle, lineterminator="\n")
            writer.writerow(("table", "key", "pipeline", "oracle", "deviation"))
            for diff in report.worst:
                writer.writerow((diff.table, diff.key, repr(diff.pipeline), repr(diff.oracle), repr(diff.deviation)))
    if report.within(tolerance):
        print(f"oracle agreement: max deviation {report.max_deviation:.3e} < {tolerance:.0e}")
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

    def add_run_flags(p: argparse.ArgumentParser, need_output: bool) -> None:
        p.add_argument("--input", type=Path, required=True, help="bundle directory")
        p.add_argument("--output", type=Path, required=need_output, help="report directory")
        p.add_argument("--start", type=_parse_date, default=None, help="first day (inclusive, UTC)")
        p.add_argument("--end", type=_parse_date, default=None, help="end day (exclusive, UTC)")
        p.add_argument("--rounds", type=int, default=2, help="minor reallocation rounds")
        p.add_argument("--default-pue", type=float, default=DEFAULT_PUE)
        p.add_argument("--allow-missing-intensity", action="store_true")
        p.add_argument("--missing-intensity-default", type=float, default=0.0)
        p.add_argument("--round-wh", type=float, default=1.0, help="energy report rounding step")
        p.add_argument("--round-g", type=float, default=1.0, help="carbon report rounding step in grams")

    p_validate = sub.add_parser("validate", help="check a bundle for violations")
    p_validate.add_argument("--input", type=Path, required=True)
    p_validate.add_argument("--output", type=Path, default=None)

    p_run = sub.add_parser("run", help="run the full pipeline and write reports")
    add_run_flags(p_run, need_output=True)

    p_sim = sub.add_parser("simulate", help="generate a synthetic bundle")
    p_sim.add_argument("--output", type=Path, required=True)
    p_sim.add_argument("--preset", choices=simulate.PRESETS, default=None)
    p_sim.add_argument("--seed", type=int, default=0)
    p_sim.add_argument("--machines", type=int, default=None)
    p_sim.add_argument("--users", type=int, default=None)
    p_sim.add_argument("--clusters", type=int, default=None)
    p_sim.add_argument("--hours", type=int, default=None)
    p_sim.add_argument("--economy-depth", type=int, default=None)
    p_sim.add_argument("--cyclic-economy", action="store_true")
    p_sim.add_argument("--unbilled-usage", action="store_true")

    p_oracle = sub.add_parser("oracle-check", help="compare pipeline output against the brute-force oracle")
    add_run_flags(p_oracle, need_output=False)
    p_oracle.add_argument("--tolerance", type=float, default=check.REL_TOL)

    p_report = sub.add_parser("report", help="summarize a completed run directory")
    p_report.add_argument("--input", type=Path, required=True, help="directory written by run")

    return parser


def _config_from_args(args: argparse.Namespace) -> RunConfig:
    return RunConfig(
        input_dir=args.input,
        output_dir=args.output,
        start=args.start,
        end=args.end,
        rounds=args.rounds,
        default_pue=args.default_pue,
        allow_missing_intensity=args.allow_missing_intensity,
        missing_intensity_default=args.missing_intensity_default,
        energy_round_wh=args.round_wh,
        carbon_round_g=args.round_g,
    )


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(format="%(levelname)s %(name)s: %(message)s")
    # basicConfig acts once per process, but main() may run many times in one.
    logging.getLogger().setLevel(args.log_level)
    try:
        if args.command == "validate":
            return cmd_validate(args.input, args.output)
        if args.command == "run":
            return cmd_run(_config_from_args(args))
        if args.command == "simulate":
            overrides = {}
            if args.machines is not None:
                overrides["machine_count"] = args.machines
            if args.users is not None:
                overrides["user_count"] = args.users
            if args.clusters is not None:
                overrides["cluster_count"] = args.clusters
            if args.hours is not None:
                overrides["hours"] = args.hours
            if args.economy_depth is not None:
                overrides["economy_depth"] = args.economy_depth
            if args.cyclic_economy:
                overrides["cyclic_economy"] = True
            if args.unbilled_usage:
                overrides["include_unbilled_usage"] = True
            if args.preset is not None:
                spec = simulate.preset_spec(args.preset, seed=args.seed, **overrides)
            else:
                spec = simulate.ScenarioSpec(seed=args.seed, **overrides)
            return cmd_simulate(spec, args.output)
        if args.command == "oracle-check":
            return cmd_oracle_check(_config_from_args(args), tolerance=args.tolerance)
        if args.command == "report":
            return cmd_report(args.input)
        raise InputError(f"unknown command {args.command!r}")
    except (MissingIntensityError, BetaUndefinedError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except (InputError, ScenarioError, OracleSizeError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except CarbonLedgerError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
