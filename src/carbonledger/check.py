"""End-to-end orchestration, closure checks, and oracle comparison.

The closure checks assert the accounting identities that make the whole
scheme trustworthy: no stage creates or destroys energy, every provider's
energy lands on its SKUs, and every gram of carbon in scope reaches a
customer report.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Mapping

from .carbon import DEFAULT_PUE, EmissionsResult, IntensityFeed, compute_emissions
from .footprint import FootprintResult, compute_customer_footprints
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
    allow_missing_intensity: bool = False,
    missing_intensity_default: float = 0.0,
) -> RunArtifacts:
    """Allocation, emissions, and customer footprints in one pass."""
    topology = bundle.topology()
    allocation = run_allocation_pipeline(bundle, rounds=rounds)
    emissions = compute_emissions(
        allocation.final,
        bundle.pue,
        IntensityFeed(bundle.carbon_intensity, bundle.annual_intensity),
        topology,
        default_pue=default_pue,
        allow_missing_intensity=allow_missing_intensity,
        missing_intensity_default=missing_intensity_default,
    )
    footprints = compute_customer_footprints(
        emissions.records, topology, bundle.sku_catalog, bundle.billing_usage
    )
    return RunArtifacts(allocation=allocation, emissions=emissions, footprints=footprints)


def _relative_gap(a: float, b: float) -> float:
    """Relative difference of two totals; infinite when either is not finite."""
    if not (math.isfinite(a) and math.isfinite(b)):
        return math.inf
    scale = max(abs(a), abs(b))
    if scale == 0.0:
        return 0.0
    return abs(a - b) / scale


def closure_failures(bundle: Bundle, artifacts: RunArtifacts, rel_tol: float = REL_TOL) -> list[str]:
    """Every accounting identity that must hold after a run."""
    failures: list[str] = []

    measured: dict[tuple[str, object], float] = {}
    cluster_of = {m.machine_id: m.cluster_id for m in bundle.machines}
    for sample in bundle.power_samples:
        key = (cluster_of[sample.machine_id], sample.hour)
        measured[key] = measured.get(key, 0.0) + sample.measured_power_watts

    for ledger in artifacts.allocation.stages:
        totals = ledger.totals_by_cluster_hour()
        for key, expected in measured.items():
            got = totals.get(key, 0.0)
            if expected == 0.0:
                if not abs(got) <= 1e-6:
                    failures.append(f"{ledger.stage}: energy {got} appeared in powerless {key}")
            elif _relative_gap(got, expected) > rel_tol:
                failures.append(
                    f"{ledger.stage}: cluster-hour {key} holds {got} Wh, measured {expected} Wh"
                )

    grand_totals = [ledger.total_wh() for ledger in artifacts.allocation.stages]
    for stage, total in zip(artifacts.allocation.stages, grand_totals):
        if _relative_gap(total, grand_totals[0]) > rel_tol:
            failures.append(f"stage {stage.stage}: total {total} Wh drifted from {grand_totals[0]} Wh")

    provider_of_sku = {s.sku_id: s.provider_user for s in bundle.sku_catalog if not s.is_commitment}
    for month, allocation in artifacts.footprints.months.items():
        usage_by_sku: dict[str, float] = {}
        usage_by_sku_region: dict[tuple[str, str], float] = {}
        for rec in bundle.billing_usage:
            if rec.month != month:
                continue
            usage_by_sku[rec.sku_id] = usage_by_sku.get(rec.sku_id, 0.0) + rec.usage_units
            key = (rec.sku_id, rec.region_id)
            usage_by_sku_region[key] = usage_by_sku_region.get(key, 0.0) + rec.usage_units

        allocated_wh: dict[str, float] = {}
        for sku_id, rate in allocation.rates.items():
            provider = provider_of_sku[sku_id]
            allocated_wh[provider] = allocated_wh.get(provider, 0.0) + (
                rate.wh_per_unit * usage_by_sku.get(sku_id, 0.0)
            )
        for provider, wh in allocated_wh.items():
            expected = allocation.provider_wh.get(provider, 0.0)
            if _relative_gap(wh, expected) > rel_tol:
                failures.append(
                    f"{month}: provider {provider} SKU energy {wh} Wh != ledger energy {expected} Wh"
                )

        adjusted: dict[tuple[str, str], float] = {}
        alpha_providers = set()
        for regional in allocation.regional:
            alpha_providers.add(regional.provider_user)
            for sku_id, rate in allocation.rates.items():
                if provider_of_sku[sku_id] == regional.provider_user:
                    adjusted[(sku_id, regional.region_id)] = regional.adjusted_g_per_kwh
        allocated_kg: dict[str, float] = {}
        for (sku_id, region), units in usage_by_sku_region.items():
            intensity = adjusted.get((sku_id, region))
            if intensity is None:
                continue
            provider = provider_of_sku[sku_id]
            allocated_kg[provider] = allocated_kg.get(provider, 0.0) + (
                allocation.rates[sku_id].wh_per_unit * units * intensity / 1e6
            )
        for provider in alpha_providers:
            expected = allocation.provider_kg.get(provider, 0.0)
            if _relative_gap(allocated_kg.get(provider, 0.0), expected) > rel_tol:
                failures.append(
                    f"{month}: provider {provider} SKU carbon {allocated_kg.get(provider, 0.0)} kg "
                    f"!= footprint {expected} kg"
                )

        scope_kg = sum(allocation.provider_kg.values())
        reported_kg = sum(r.kg_co2e for r in artifacts.footprints.reports if r.month == month)
        if _relative_gap(reported_kg, scope_kg) > rel_tol:
            failures.append(f"{month}: customer reports total {reported_kg} kg != scope {scope_kg} kg")
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
    table_max["machine_idle"] = _diff_table(
        "machine_idle",
        {k: c.idle_wh for k, c in machine_stage.cells.items() if c.idle_wh != 0.0},
        reference.machine_idle,
        diffs,
    )
    table_max["machine_dynamic"] = _diff_table(
        "machine_dynamic",
        {k: c.dynamic_wh for k, c in machine_stage.cells.items() if c.dynamic_wh != 0.0},
        reference.machine_dynamic,
        diffs,
    )
    for ledger in artifacts.allocation.stages:
        oracle_table = reference.stage_totals.get(ledger.stage)
        if oracle_table is None:
            continue
        table_max[ledger.stage] = _diff_table(
            ledger.stage,
            {k: c.total_wh for k, c in ledger.cells.items() if c.total_wh != 0.0},
            oracle_table,
            diffs,
        )
    table_max["emissions"] = _diff_table(
        "emissions",
        {
            (r.user, r.cluster_id, r.hour): r.kg_co2e
            for r in artifacts.emissions.records
            if r.kg_co2e != 0.0
        },
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

    diffs.sort(key=lambda d: d.deviation, reverse=True)
    return ComparisonReport(
        max_deviation=max(table_max.values(), default=0.0),
        table_max=table_max,
        worst=diffs[:KEEP_WORST],
    )
