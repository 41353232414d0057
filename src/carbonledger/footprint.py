"""Allocate provider energy and carbon to SKUs, regions, and accounts.

Energy spreads over a provider's SKUs proportional to list price; carbon
intensity is computed per region from the provider's own footprint, then
two balancing factors keep the books closed: alpha reconciles each
provider's SKU-allocated carbon with its measured carbon, and beta spreads
whatever no SKU could absorb (overhead users, unbilled usage) across all
billed usage. Reported monthly.
"""

from __future__ import annotations

import functools
import logging
from dataclasses import dataclass, field
from typing import Mapping, Sequence

from .carbon import EmissionRecord, co2_kg
from .errors import BetaUndefinedError, NoBillableUsageError
from .model import Bundle, Notice, SkuRecord, SkuUsageRecord, month_of

log = logging.getLogger(__name__)


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
) -> dict[str, float]:
    """Price-proportional watt-hours per usage unit of each of a provider's SKUs.

    Commitment SKUs are excluded from the catalog view entirely. The rates
    satisfy sum(U_s * X_s) == total energy and X_s/X_s' == price ratio.
    Keys are in SKU-id order.
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
    return {
        s.sku_id: total_energy_wh * s.list_price_per_unit / denominator
        for s in sorted(catalog, key=lambda s: s.sku_id)
    }


def regional_intensity(
    provider: str,
    emissions: Sequence[EmissionRecord],
    region_of: Mapping[str, str],
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
        region = region_of[rec.cluster_id]
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
    rates: Mapping[str, float],
    intensity_by_region: Mapping[str, float],
    usage_by_sku_region: Mapping[tuple[str, str], float],
) -> float:
    """Factor aligning SKU-allocated carbon with the provider's footprint.

    Solves total_kg == alpha * sum(C_r * X_s * U_{s,r}) over the
    provider's SKU-region usage.
    """
    denominator = 0.0
    for (sku_id, region), units in usage_by_sku_region.items():
        wh_per_unit = rates.get(sku_id)
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
    rates: dict[str, float] = field(default_factory=dict)  # sku -> Wh per unit
    alpha: dict[str, float] = field(default_factory=dict)
    adjusted: dict[tuple[str, str], float] = field(default_factory=dict)  # (sku, region) -> g/kWh
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


def compute_customer_footprints(
    emissions: Sequence[EmissionRecord],
    bundle: Bundle,
) -> FootprintResult:
    """Monthly account footprints with full carbon closure.

    Every user carrying energy in the month is in scope: its emissions
    must end up on customer reports, so overhead users inflate beta
    rather than disappearing.
    """
    month_of_hour = functools.cache(month_of)
    records_by_month: dict[str, dict[str, list[EmissionRecord]]] = {}
    for rec in emissions:
        records_by_month.setdefault(month_of_hour(rec.hour), {}).setdefault(rec.user, []).append(rec)
    billing_by_month: dict[str, list[SkuUsageRecord]] = {}
    for rec in bundle.billing_usage:
        billing_by_month.setdefault(rec.month, []).append(rec)
    skus = bundle.sku_catalog
    region_of = {r.cluster_id: r.region_id for r in bundle.zone_map}
    catalog = [s for s in skus if not s.is_commitment]
    providers = sorted({s.provider_user for s in catalog})
    provider_of_sku = {s.sku_id: s.provider_user for s in catalog}
    product_of_sku = {s.sku_id: s.product_id for s in skus}

    notices: list[Notice] = []
    reports: list[FootprintReport] = []
    months: dict[str, MonthAllocation] = {}
    for month, month_billing in sorted(billing_by_month.items()):
        records_by_user = records_by_month.get(month, {})
        provider_kg: dict[str, float] = {}
        provider_wh: dict[str, float] = {}
        for user, records in records_by_user.items():
            kg = wh = 0.0
            for rec in records:
                kg += rec.kg_co2e
                wh += rec.energy_it_wh
            provider_kg[user] = kg
            provider_wh[user] = wh
        total_scope_kg = sum(sorted(provider_kg.values()))
        if total_scope_kg <= 0.0:
            notices.append(Notice("empty-month", month, "no emissions in scope; month skipped"))
            continue

        usage_by_provider: dict[str, dict[tuple[str, str], float]] = {}
        for rec in month_billing:
            provider = provider_of_sku.get(rec.sku_id)
            if provider is not None:
                usage = usage_by_provider.setdefault(provider, {})
                key = (rec.sku_id, rec.region_id)
                usage[key] = usage.get(key, 0.0) + rec.usage_units

        allocation = MonthAllocation(month=month, provider_kg=provider_kg, provider_wh=provider_wh)
        for provider in providers:
            provider_usage = usage_by_provider.get(provider, {})
            try:
                rates = sku_energy_rates(provider, provider_wh.get(provider, 0.0), skus, month_billing)
                intensity_by_region = regional_intensity(provider, records_by_user.get(provider, []), region_of)
                alpha = alpha_balance(
                    provider, provider_kg.get(provider, 0.0), rates, intensity_by_region, provider_usage
                )
            except NoBillableUsageError as exc:
                notices.append(Notice("unallocatable-provider", provider, f"{exc} in {month}"))
                continue
            allocation.alpha[provider] = alpha
            allocation.rates.update(rates)
            for region, value in sorted(intensity_by_region.items()):
                for sku_id in rates:
                    allocation.adjusted[(sku_id, region)] = alpha * value
            uncovered = {region for _, region in provider_usage if region not in intensity_by_region}
            if uncovered:
                notices.append(
                    Notice("region-mismatch", provider, f"usage in {sorted(uncovered)} carries no energy in {month}")
                )

        billed_allocated_kg = 0.0
        account_kg: list[tuple[tuple[str, str, str], float]] = []
        for rec in month_billing:
            rate = allocation.rates.get(rec.sku_id)
            intensity = allocation.adjusted.get((rec.sku_id, rec.region_id))
            if not rec.billing_account or rate is None or intensity is None:
                continue
            kg = co2_kg(rate * rec.usage_units, intensity)
            billed_allocated_kg += kg
            account_kg.append(((rec.billing_account, product_of_sku[rec.sku_id], rec.region_id), kg))
        allocation.beta = beta = beta_overhead(total_scope_kg, billed_allocated_kg)
        months[month] = allocation
        totals: dict[tuple[str, str, str], float] = {}
        for key, kg in account_kg:
            totals[key] = totals.get(key, 0.0) + beta * kg
        reports.extend(
            FootprintReport(account, product, region, month, kg, beta)
            for (account, product, region), kg in sorted(totals.items())
        )

    return FootprintResult(reports=reports, months=months, notices=notices)
