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
from typing import Iterable, Iterator, Mapping, Sequence

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

    ``region_sums`` maps each provider to its ``region -> (kgCO2e, IT Wh)``
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


def _billed_kg(
    month_billing: Iterable[SkuUsageRecord], allocation: MonthAllocation
) -> Iterator[tuple[SkuUsageRecord, float]]:
    """Each billed record of the month that a SKU rate and intensity cover, with its kgCO2e before beta."""
    for rec in month_billing:
        rate = allocation.rates.get(rec.sku_id)
        intensity = allocation.adjusted.get((rec.sku_id, rec.region_id))
        if rec.billing_account and rate is not None and intensity is not None:
            yield rec, co2_kg(rate * rec.usage_units, intensity)


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

    Emission rows are read once, in ascending cell id, and summed into
    flat lists indexed by position: kg and Wh per (month, user) and per
    (provider, month, region), each sum in row order. A month's users
    therefore come in axis order, the order the walk first meets them.
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

    # One pass in ascending cell id sums kg and Wh per (month, user) at slot m * U + u, and per
    # (provider, month, region) at slot (p * M + m) * R + r: m is a position among the axes'
    # months, u on the users axis, p among the providers on it, r among its clusters' regions.
    axes = emissions.axes
    span, user_count = axes.span, len(axes.users)
    month_pos: dict[str, int] = {}
    month_at = [month_pos.setdefault(month_of(hour), len(month_pos)) for hour in axes.hours]  # h -> m
    month_names = list(month_pos)
    region_pos: dict[str, int] = {}
    cluster_region = [  # c -> r, or -1 for a cluster off the zone map
        region_pos.setdefault(region_of[cluster], len(region_pos)) if cluster in region_of else -1
        for cluster in axes.clusters
    ]
    regions = list(region_pos)
    on_axes = [provider for provider in providers if provider in axes.user_index]
    month_count, region_count = len(month_names), len(regions)
    user_slot = [m * user_count for _ in axes.clusters for m in month_at]  # ch -> m * U
    region_slot = [-1 if r < 0 else m * region_count + r for r in cluster_region for m in month_at]  # ch -> m * R + r
    provider_slot = [-1] * user_count  # u -> p * M * R, or -1 for a user that is not a provider
    for p, provider in enumerate(on_axes):
        provider_slot[axes.user_index[provider]] = p * month_count * region_count
    # Lists rather than arrays: CPython specializes list subscripts, which halves the cost of each sum.
    user_kg = [0.0] * (month_count * user_count)
    user_wh = user_kg.copy()
    user_seen = [False] * len(user_kg)
    region_kg = [0.0] * (len(on_axes) * month_count * region_count)
    region_wh = region_kg.copy()
    for cell, wh, _, kg, _ in emissions.columns():
        u, ch = divmod(cell, span)
        i = user_slot[ch] + u
        user_kg[i] += kg
        user_wh[i] += wh
        user_seen[i] = True
        j = provider_slot[u]
        if j >= 0:
            r = region_slot[ch]
            if r < 0:
                raise KeyError(axes.cluster_hour(ch)[0])
            j += r
            region_kg[j] += kg
            region_wh[j] += wh

    # month -> provider -> region -> (kg, Wh) of every region slot holding energy; every reader
    # sorts the regions or looks them up by name, so their order is not kept.
    region_sums: dict[str, dict[str, dict[str, tuple[float, float]]]] = {}
    for j, wh in enumerate(region_wh):
        if wh > 0.0:
            p, mr = divmod(j, month_count * region_count)
            m, r = divmod(mr, region_count)
            region_sums.setdefault(month_names[m], {}).setdefault(on_axes[p], {})[regions[r]] = region_kg[j], wh

    notices: list[Notice] = []
    reports: list[FootprintReport] = []
    months: dict[str, MonthAllocation] = {}
    for month, month_billing in sorted(billing_by_month.items()):
        # Cells were walked in ascending id, so each month's users were first seen in axis order.
        m = month_pos.get(month)
        sums = [] if m is None else [
            (user, user_kg[i], user_wh[i])
            for user, i in zip(axes.users, range(m * user_count, (m + 1) * user_count))
            if user_seen[i]
        ]
        provider_kg = {user: kg for user, kg, _ in sums}
        provider_wh = {user: wh for user, _, wh in sums}
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

        # Two walks of the month's billed rows, one for beta's denominator and one for the
        # account totals, hold nothing per row between them.
        billed_allocated_kg = 0.0
        for _, kg in _billed_kg(month_billing, allocation):
            billed_allocated_kg += kg
        allocation.beta = beta = beta_overhead(total_scope_kg, billed_allocated_kg)
        months[month] = allocation
        totals: dict[tuple[str, str, str], float] = {}
        for rec, kg in _billed_kg(month_billing, allocation):
            key = (rec.billing_account, product_of_sku[rec.sku_id], rec.region_id)
            totals[key] = totals.get(key, 0.0) + beta * kg
        reports.extend(
            FootprintReport(account, product, region, month, kg, beta)
            for (account, product, region), kg in sorted(totals.items())
        )

    return FootprintResult(reports=reports, months=months, notices=notices)
