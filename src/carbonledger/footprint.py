"""Allocate provider energy and carbon to SKUs, regions, and accounts.

Energy spreads over a provider's SKUs proportional to list price; carbon
intensity is computed per region from the provider's own footprint, then
two balancing factors keep the books closed: alpha reconciles each
provider's SKU-allocated carbon with its measured carbon, and beta spreads
whatever no SKU could absorb (overhead users, unbilled usage) across all
billed usage. Reported monthly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence

from .carbon import EmissionsResult, co2_kg
from .errors import BetaUndefinedError, NoBillableUsageError
from .model import Bundle, Notice, SkuRecord, SkuUsageRecord, month_of


@dataclass(frozen=True, slots=True)
class FootprintReport:
    billing_account: str
    product_id: str
    region_id: str
    month: str
    kg_co2e: float
    beta: float


def sku_usage_sums(usage: Iterable[SkuUsageRecord]) -> dict[str, float]:
    """Usage units per SKU id, each summed in record order."""
    sums: dict[str, float] = {}
    for rec in usage:
        sums[rec.sku_id] = sums.get(rec.sku_id, 0.0) + rec.usage_units
    return sums


def sku_energy_rates(
    provider: str,
    total_energy_wh: float,
    skus: Sequence[SkuRecord],
    usage_by_sku: Mapping[str, float],
) -> dict[str, float]:
    """Price-proportional watt-hours per usage unit of each of a provider's SKUs.

    ``usage_by_sku`` is the month's ``sku_usage_sums``. Commitment SKUs
    and other providers' SKUs in ``skus`` are excluded from the catalog
    view entirely. The rates satisfy sum(U_s * X_s) == total energy and
    X_s/X_s' == price ratio. Keys are in SKU-id order.
    """
    catalog = [s for s in skus if s.provider_user == provider and not s.is_commitment]
    if not catalog:
        raise NoBillableUsageError(f"provider {provider!r} has no priced SKUs")
    denominator = sum(usage_by_sku.get(s.sku_id, 0.0) * s.list_price_per_unit for s in catalog)
    if denominator <= 0.0:
        raise NoBillableUsageError(f"provider {provider!r} has no priced usage")
    return {
        s.sku_id: total_energy_wh * s.list_price_per_unit / denominator
        for s in sorted(catalog, key=lambda s: s.sku_id)
    }


def regional_intensity(
    provider: str,
    region_sums: Mapping[str, Mapping[str, Sequence[float]]],
) -> dict[str, float]:
    """Carbon per energy (gCO2e/kWh) of a provider's load in each region.

    ``region_sums`` maps each provider to its ``region -> [kgCO2e, IT Wh]``
    sums. PUE and grid differences are folded in because the numerator is
    the already-grossed-up footprint. Regions with zero energy are absent.
    """
    return {
        region: kg * 1e6 / wh
        for region, (kg, wh) in region_sums.get(provider, {}).items()
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


def _add(sums: dict[str, list[float]], key: str, kg: float, wh: float) -> None:
    acc = sums.get(key)
    if acc is None:
        acc = sums[key] = [0.0, 0.0]
    acc[0] += kg
    acc[1] += wh


def billing_months(billing: Iterable[SkuUsageRecord]) -> dict[str, list[SkuUsageRecord]]:
    """Billing records grouped by month, each month's in record order."""
    by_month: dict[str, list[SkuUsageRecord]] = {}
    for rec in billing:
        by_month.setdefault(rec.month, []).append(rec)
    return by_month


def compute_customer_footprints(
    emissions: EmissionsResult,
    bundle: Bundle,
) -> FootprintResult:
    """Monthly account footprints with full carbon closure.

    Every user carrying energy in the month is in scope: its emissions
    must end up on customer reports, so overhead users inflate beta
    rather than disappearing.
    """
    billing_by_month = billing_months(bundle.billing_usage)
    skus = bundle.sku_catalog
    region_of = {r.cluster_id: r.region_id for r in bundle.zone_map}
    catalog_of: dict[str, list[SkuRecord]] = {}
    for s in skus:
        if not s.is_commitment:
            catalog_of.setdefault(s.provider_user, []).append(s)
    providers = sorted(catalog_of)
    provider_of_sku = {s.sku_id: s.provider_user for s in skus if not s.is_commitment}
    product_of_sku = {s.sku_id: s.product_id for s in skus}

    # One pass in row order: [kg, Wh] per month and user, and per month, provider and region.
    axes = emissions.axes
    hour_count = len(axes.hours)
    months_at = [month_of(hour) for hour in axes.hours]
    is_provider = set(providers)
    user_sums: dict[str, dict[str, list[float]]] = {}
    region_sums: dict[str, dict[str, dict[str, list[float]]]] = {}
    for cell, wh, _, kg, _ in emissions.columns():
        u, ch = divmod(cell, axes.span)
        user, month = axes.users[u], months_at[ch % hour_count]
        _add(user_sums.setdefault(month, {}), user, kg, wh)
        if user in is_provider:
            region = region_of[axes.clusters[ch // hour_count]]
            _add(region_sums.setdefault(month, {}).setdefault(user, {}), region, kg, wh)

    notices: list[Notice] = []
    reports: list[FootprintReport] = []
    months: dict[str, MonthAllocation] = {}
    for month, month_billing in sorted(billing_by_month.items()):
        sums_by_user = user_sums.get(month, {})
        provider_kg = {user: kg for user, (kg, _) in sums_by_user.items()}
        provider_wh = {user: wh for user, (_, wh) in sums_by_user.items()}
        total_scope_kg = sum(sorted(provider_kg.values()))
        if total_scope_kg <= 0.0:
            notices.append(Notice("empty-month", month, "no emissions in scope; month skipped"))
            continue

        usage_by_sku = sku_usage_sums(month_billing)
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
                rates = sku_energy_rates(provider, provider_wh.get(provider, 0.0), catalog_of[provider], usage_by_sku)
                intensity_by_region = regional_intensity(provider, region_sums.get(month, {}))
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
