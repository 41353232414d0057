"""End-to-end orchestration, closure checks, and oracle comparison.

The closure checks assert the accounting identities that make the whole
scheme trustworthy: no stage creates or destroys energy, every provider's
energy lands on its SKUs, and every gram of carbon emitted reaches a
customer report.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Mapping

from .carbon import DEFAULT_PUE, EmissionsResult, co2_kg, compute_emissions
from .footprint import FootprintResult, billing_months, compute_customer_footprints
from .model import Bundle
from .oracle import oracle_allocate
from .services import AllocationResult, run_allocation_pipeline

REL_TOL = 1e-9

#: How many of the largest oracle deviations a comparison keeps.
KEEP_WORST = 10


@dataclass(slots=True)
class RunArtifacts:
    allocation: AllocationResult
    emissions: EmissionsResult
    footprints: FootprintResult


def run_end_to_end(
    bundle: Bundle,
    rounds: int = 2,
    default_pue: float = DEFAULT_PUE,
    missing_intensity: float | None = None,
) -> RunArtifacts:
    """Allocation, emissions, and customer footprints in one pass."""
    allocation = run_allocation_pipeline(bundle, rounds=rounds)
    emissions = compute_emissions(allocation.final, bundle, default_pue, missing_intensity)
    footprints = compute_customer_footprints(emissions, bundle)
    return RunArtifacts(allocation=allocation, emissions=emissions, footprints=footprints)


def _relative_gap(a: float, b: float) -> float:
    """Relative difference of two totals; infinite when either is not finite."""
    if not (math.isfinite(a) and math.isfinite(b)):
        return math.inf
    scale = max(abs(a), abs(b))
    if scale == 0.0:
        return 0.0
    return abs(a - b) / scale


def closure_failures(bundle: Bundle, artifacts: RunArtifacts) -> list[str]:
    """Every accounting identity that must hold after a run.

    Cluster-hours are numbered ``c * H + h`` on the run's axes, the only
    numbering used. Measured watts are summed per cluster-hour in sample
    order, and each stage is read in one pass that sums its Wh per
    cluster-hour and in total, the total from 0 in row order like
    ``Ledger.total_wh``. Every cluster-hour of the axes is compared, so
    energy in one that no sample reached is a failure. A sample whose
    cluster or hour is off the axes (the artifacts come from another
    bundle) gives one failure naming it and ends the check. Emitted
    carbon is derived from the final stage's Wh per cluster-hour and the
    PUE and intensity the emissions applied there.
    """
    axes = artifacts.allocation.final.cells.axes
    span, hour_index = axes.span, axes.hour_index
    # machine id -> c * H; a cluster off the axes takes span, so its samples' slots are span or more
    offset_of = {m.machine_id: axes.cluster_offset.get(m.cluster_id, span) for m in bundle.machines}
    samples = bundle.power_samples
    measured = [0.0] * span  # c * H + h -> measured Wh
    try:
        for machine_id, hour, watts in zip(samples.machine_id, samples.hour, samples.measured_power_watts):
            measured[offset_of[machine_id] + hour_index[hour]] += watts
    except (IndexError, KeyError):  # an index of span or more, or an hour off the axes
        cluster = next((m.cluster_id for m in bundle.machines if m.machine_id == machine_id), None)
        return [f"power sample of {machine_id} at {(cluster, hour)} is off the run's cluster-hours"]

    failures: list[str] = []
    grand_totals: list[float] = []
    for ledger in artifacts.allocation.stages:
        totals = [0.0] * span
        total = 0.0
        for cell, wh in zip(ledger.cells.ids, ledger.row_totals()):
            totals[cell % span] += wh
            total += wh
        grand_totals.append(total)
        for ch, (got, expected) in enumerate(zip(totals, measured)):
            if expected == 0.0:
                if not abs(got) <= 1e-6:
                    failures.append(f"{ledger.stage}: energy {got} appeared in powerless {axes.cluster_hour(ch)}")
            elif _relative_gap(got, expected) > REL_TOL:
                failures.append(
                    f"{ledger.stage}: cluster-hour {axes.cluster_hour(ch)} holds {got} Wh, measured {expected} Wh"
                )

    for stage, total in zip(artifacts.allocation.stages, grand_totals):
        if _relative_gap(total, grand_totals[0]) > REL_TOL:
            failures.append(f"stage {stage.stage}: total {total} Wh drifted from {grand_totals[0]} Wh")

    provider_of_sku = {s.sku_id: s.provider_user for s in bundle.sku_catalog if not s.is_commitment}
    billing_by_month = billing_months(bundle.billing_usage)
    for month, allocation in artifacts.footprints.months.items():
        sku_sums: dict[str, list[float]] = {}  # provider -> [SKU Wh, SKU kg]
        for rec in billing_by_month.get(month, ()):
            rate = allocation.rates.get(rec.sku_id)
            if rate is None:
                continue
            wh = rate * rec.usage_units
            sums = sku_sums.setdefault(provider_of_sku[rec.sku_id], [0.0, 0.0])
            sums[0] += wh
            intensity = allocation.adjusted.get((rec.sku_id, rec.region_id))
            if intensity is not None:
                sums[1] += co2_kg(wh, intensity)
        for provider in allocation.alpha:
            wh, kg = sku_sums.get(provider, (0.0, 0.0))
            expected = allocation.provider_wh.get(provider, 0.0)
            if _relative_gap(wh, expected) > REL_TOL:
                failures.append(
                    f"{month}: provider {provider} SKU energy {wh} Wh != ledger energy {expected} Wh"
                )
            expected = allocation.provider_kg.get(provider, 0.0)
            if _relative_gap(kg, expected) > REL_TOL:
                failures.append(f"{month}: provider {provider} SKU carbon {kg} kg != footprint {expected} kg")

        scope_kg = sum(allocation.provider_kg.values())
        reported_kg = sum(r.kg_co2e for r in artifacts.footprints.reports if r.month == month)
        if _relative_gap(reported_kg, scope_kg) > REL_TOL:
            failures.append(f"{month}: customer reports total {reported_kg} kg != scope {scope_kg} kg")

    # ``totals`` holds the final stage's Wh per cluster-hour, the ledger the emissions were derived
    # from; a cluster-hour with no cell holds 0 and has no intensity resolved.
    emissions = artifacts.emissions
    emitted_kg = sum(
        co2_kg(wh * emissions.pue[ch], emissions.resolved[ch][0]) for ch, wh in enumerate(totals) if wh != 0.0
    )
    reported_kg = artifacts.footprints.total_kg()
    if _relative_gap(reported_kg, emitted_kg) > REL_TOL:
        failures.append(f"customer reports total {reported_kg} kg != emitted {emitted_kg} kg")
    return failures


@dataclass(slots=True)
class TableDiff:
    table: str
    key: str
    pipeline: float
    oracle: float
    deviation: float


@dataclass(slots=True)
class ComparisonReport:
    max_deviation: float
    table_max: dict[str, float]
    worst: list[TableDiff] = field(default_factory=list)

    def within(self, tolerance: float = REL_TOL) -> bool:
        return self.max_deviation < tolerance


def _diff_table(name: str, pipeline: Mapping, oracle: Mapping, out: list[TableDiff]) -> float:
    scale = max(
        (abs(v) for v in list(pipeline.values()) + list(oracle.values())),
        default=0.0,
    )
    floor = scale * 1e-15
    worst = 0.0
    for key in set(pipeline) | set(oracle):
        a = pipeline.get(key, 0.0)
        b = oracle.get(key, 0.0)
        if abs(a) <= floor and abs(b) <= floor:
            continue
        deviation = _relative_gap(a, b)
        if deviation > worst:
            worst = deviation
        if deviation > 0.0:
            out.append(TableDiff(name, repr(key), a, b, deviation))
    return worst


def compare_with_oracle(bundle: Bundle, rounds: int = 2, default_pue: float = DEFAULT_PUE) -> ComparisonReport:
    """Run pipeline and oracle on the same bundle and diff every table."""
    artifacts = run_end_to_end(bundle, rounds=rounds, default_pue=default_pue)
    reference = oracle_allocate(bundle, rounds=rounds, default_pue=default_pue)

    diffs: list[TableDiff] = []
    table_max: dict[str, float] = {}

    machine_stage = artifacts.allocation.stages[0]
    for name, column, oracle_wh in (
        ("machine_idle", machine_stage.idle, reference.machine_idle),
        ("machine_dynamic", machine_stage.dynamic, reference.machine_dynamic),
    ):
        keys = map(machine_stage.cells.axes.key, machine_stage.cells.ids)
        pipeline_wh = {k: wh for k, wh in zip(keys, column) if wh != 0.0}
        table_max[name] = _diff_table(name, pipeline_wh, oracle_wh, diffs)
    for ledger in artifacts.allocation.stages:
        # A stage the oracle lacks compares against nothing, so its energy counts as deviation.
        key = ledger.cells.axes.key
        table_max[ledger.stage] = _diff_table(
            ledger.stage,
            {key(cell): wh for cell, wh in zip(ledger.cells.ids, ledger.row_totals()) if wh != 0.0},
            reference.stage_totals.get(ledger.stage, {}),
            diffs,
        )
    table_max["emissions"] = _diff_table(
        "emissions",
        {key: kg for key, _, _, kg, _ in artifacts.emissions.rows() if kg != 0.0},
        reference.emissions_kg,
        diffs,
    )
    table_max["footprints"] = _diff_table(
        "footprints",
        {
            (r.billing_account, r.product_id, r.region_id, r.month): r.kg_co2e
            for r in artifacts.footprints.reports
        },
        reference.footprints_kg,
        diffs,
    )

    # Ties go by table and key, so the kept rows do not follow the set order of _diff_table.
    diffs.sort(key=lambda d: (-d.deviation, d.table, d.key))
    return ComparisonReport(
        max_deviation=max(table_max.values(), default=0.0),
        table_max=table_max,
        worst=diffs[:KEEP_WORST],
    )
