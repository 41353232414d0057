"""What the benchmark runs and reports: workloads, metrics and what they feed.

Every workload keeps the ROADMAP fleet shape (50 users, 20 clusters) and
its machine count, but covers 12 hours rather than 168. Hours scale power
samples, usage rows and ledger cells by the same factor, so each workload
keeps the bottleneck the 168-hour shape has (power samples per ledger
cell: about 10 at 10k machines, about 1 at 1k), while a full comparison
(22 runs of each workload plus 4 traced runs, each with a tracemalloc pass
that costs several pipeline runs) completes in under an hour on 2 cores.
``BENCHMARK.json`` at the repository root repeats the names, units and
reasons; the benchmark's tests keep the two in step.
"""

from __future__ import annotations

from dataclasses import dataclass

#: The seed the ROADMAP baselines use; report hashes are recorded for it.
DEFAULT_SEED = 7
USERS = 50
CLUSTERS = 20
HOURS = 12
#: Set-up is repeated this many times per invocation; setup_s is the median.
SETUP_REPEATS = 5

#: Oracle-sized fleet checked once per invocation, within the oracle's
#: limits of 200 machines, 20 users and 72 hours.
ORACLE_SHAPE = {"machine_count": 200, "user_count": 20, "cluster_count": 4, "hours": 72}
ORACLE_TOLERANCE = 1e-9


@dataclass(frozen=True)
class Workload:
    name: str
    machines: int
    via_cli: bool
    why: str
    stresses: str
    spares: str

    def shape(self) -> dict:
        """Generator arguments for this workload's fleet, seed aside."""
        return {"machine_count": self.machines, "user_count": USERS, "cluster_count": CLUSTERS, "hours": HOURS}


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "fleet-10k",
            10_000,
            False,
            "10k machines in memory: 10 power samples per ledger cell, so power split and "
            "machine ledger lead; a fused machine stage shows here first",
            "power, allocation: split_fleet and build_machine_ledger take most of wall_s and peak_mib",
            "tables is never called; services, carbon and footprint are a small share",
        ),
        Workload(
            "fleet-1k",
            1_000,
            False,
            "1k machines in memory: one power sample per ledger cell, so services, carbon and "
            "footprint lead; ledger-side changes show here",
            "services, carbon, footprint: major and minor reallocation, emissions and footprints",
            "tables is never called; a machine-stage change shows only a small gain",
        ),
        Workload(
            "cli-1k",
            1_000,
            True,
            "carbonledger run on the 1k bundle written at set-up: reads, validates, runs, writes "
            "four reports and checks closure; the only workload through tables",
            "tables (CSV parsing and report writing), model validation, cli",
            "the in-memory stages cost what they cost on fleet-1k",
        ),
    )
}


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str
    feeds: str


#: Seen by a user of the system; printed with ``--trace 0``.
END_TO_END = (
    Metric("wall_s", "s", "lower",
           "median time from inputs in hand to every output complete and closure-checked"),
    Metric("mh_per_s", "mh/s", "higher", "machine-hours (power samples) per second of wall_s"),
    Metric("peak_mib", "MiB", "lower",
           "peak traced memory above the loaded inputs, from its own untimed tracemalloc pass"),
    Metric("setup_s", "s", "lower",
           "median time to generate the inputs, plus tables.write_bundle for cli-1k"),
)

#: One layer each, named <module>.<metric>; printed with ``--trace 1``.
PER_LAYER = (
    Metric("tables.read_bundle_s", "s", "lower", "wall_s on cli-1k"),
    Metric("tables.write_bundle_s", "s", "lower", "setup_s on cli-1k"),
    Metric("tables.write_user_energy_s", "s", "lower", "wall_s on cli-1k"),
    Metric("tables.write_emissions_s", "s", "lower", "wall_s on cli-1k"),
    Metric("tables.write_footprints_s", "s", "lower", "wall_s on cli-1k"),
    Metric("tables.write_flow_summary_s", "s", "lower", "wall_s on cli-1k"),
    Metric("tables.rows_read", "count", "lower", "wall_s on cli-1k"),
    Metric("tables.rows_written", "count", "lower", "wall_s on cli-1k"),
    Metric("tables.bytes_read", "B", "lower", "wall_s on cli-1k"),
    Metric("tables.bytes_written", "B", "lower", "wall_s on cli-1k"),
    Metric("tables.parse_hour_calls", "count", "lower", "wall_s on cli-1k"),
    Metric("tables.parse_hour_useful", "ratio", "higher", "wall_s on cli-1k"),
    Metric("model.validate_bundle_s", "s", "lower", "wall_s on cli-1k"),
    Metric("model.violations", "count", "lower", "wall_s on cli-1k"),
    Metric("power.split_fleet_s", "s", "lower", "wall_s on fleet-10k"),
    Metric("power.samples_in", "count", "lower", "wall_s on fleet-10k"),
    Metric("power.splits_out", "count", "lower", "wall_s and peak_mib on fleet-10k"),
    Metric("power.split_fleet_peak_mib", "MiB", "lower", "peak_mib on fleet-10k"),
    Metric("allocation.build_machine_ledger_s", "s", "lower", "wall_s on fleet-10k"),
    Metric("allocation.ledger_cells", "count", "lower", "wall_s on fleet-1k"),
    Metric("allocation.idle_share_table_calls", "count", "lower", "wall_s on fleet-10k"),
    Metric("allocation.build_machine_ledger_peak_mib", "MiB", "lower", "peak_mib on fleet-10k"),
    Metric("services.apply_major_realloc_s", "s", "lower", "wall_s on fleet-1k"),
    Metric("services.build_day_plans_s", "s", "lower", "wall_s on fleet-1k"),
    Metric("services.minor_round_1_s", "s", "lower", "wall_s on fleet-1k"),
    Metric("services.minor_round_2_s", "s", "lower", "wall_s on fleet-1k"),
    Metric("services.round_1_moved_wh", "Wh", "lower", "wall_s on fleet-1k"),
    Metric("services.round_2_moved_wh", "Wh", "lower", "wall_s on fleet-1k"),
    Metric("services.transfer_entries", "count", "lower", "wall_s on fleet-1k"),
    Metric("carbon.compute_emissions_s", "s", "lower", "wall_s on fleet-1k"),
    Metric("carbon.resolve_intensity_calls", "count", "lower", "wall_s on fleet-1k"),
    Metric("carbon.resolve_intensity_useful", "ratio", "higher", "wall_s on fleet-1k"),
    Metric("footprint.compute_customer_footprints_s", "s", "lower", "wall_s on fleet-1k"),
    Metric("footprint.regional_intensity_calls", "count", "lower", "wall_s on fleet-1k"),
    Metric("footprint.regional_records_scanned", "visits/record", "lower", "wall_s on fleet-1k"),
    Metric("check.closure_failures_s", "s", "lower", "wall_s on every workload"),
    Metric("check.closure_failures", "count", "lower", "wall_s on every workload"),
    Metric("cli.cmd_run_self_s", "s", "lower", "wall_s on cli-1k"),
    Metric("simulate.generate_s", "s", "lower", "setup_s on every workload"),
    Metric("trace.wall_s", "s", "lower", "nothing: the traced wall time the spans divide"),
    Metric("trace.gap_s", "s", "lower", "nothing: traced wall time outside every program span"),
    Metric("trace.overhead_s", "s", "lower", "nothing: trace.wall_s minus the alternated untraced runs"),
)

#: SHA-256 of the cli-1k report CSVs for DEFAULT_SEED, recorded by this
#: benchmark on the commit that introduced it. The reports must stay
#: byte-identical across performance work.
CLI_REPORTS = ("user_energy.csv", "emissions.csv", "footprint_report.csv", "flow_summary.csv")
CLI_REPORT_SHA256 = {
    "user_energy.csv": "6eadae81a5e8b2a5216d54f830ef59c7780a4951f31c91c005646ab305e587a6",
    "emissions.csv": "bd835a304756aed6553dffc11e004b073a8c84210bc9ee2bd8116821f9eb36dc",
    "footprint_report.csv": "08252fd48b33249da0d48626676e2713784b6b7a9c69d21392b42b4be887c9ba",
    "flow_summary.csv": "2d37be94abd9e31082c3a9b55c6587732bf4d352141b5ddf695df37a6cefe176",
}
