"""Brute-force verification oracle, independent of the pipeline modules.

Everything here is recomputed by direct per-entity enumeration over the
raw bundle: dense per-user vectors per cluster-hour, an explicit daily
transfer matrix for the net-cost economy, and spelled-out unit
conversions. It deliberately shares nothing with the pipeline beyond the
core record types, so agreement between the two is meaningful evidence.
Inputs are capped at 200 machines, 20 users, and 72 hours.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from datetime import date, datetime

from .errors import OracleSizeError
from .model import (
    UNALLOCATED_USER,
    Bundle,
    Sharing,
    day_of,
    month_of,
)

MAX_MACHINES = 200
MAX_USERS = 20
MAX_HOURS = 72

# The paper's weights, spelled out here rather than imported:
# 1 compute unit == 20 GiB RAM == 1 TiB SSD == 6 TiB HDD.
GCU_WEIGHT = 1.0
RAM_GIB_WEIGHT = 1.0 / 20.0
SSD_TIB_WEIGHT = 1.0
HDD_TIB_WEIGHT = 1.0 / 6.0

#: PUE assumed for a cluster-hour with no PUE row.
DEFAULT_PUE = 1.10


@dataclass(slots=True)
class OracleResult:
    """Per-stage tables mirroring the pipeline's outputs."""

    stage_totals: dict[str, dict[tuple[str, str, datetime], float]] = field(default_factory=dict)
    machine_idle: dict[tuple[str, str, datetime], float] = field(default_factory=dict)
    machine_dynamic: dict[tuple[str, str, datetime], float] = field(default_factory=dict)
    emissions_kg: dict[tuple[str, str, datetime], float] = field(default_factory=dict)
    footprints_kg: dict[tuple[str, str, str, str], float] = field(default_factory=dict)


def _collect_users(bundle: Bundle) -> list[str]:
    users: set[str] = {UNALLOCATED_USER}
    users.update(m.owner_user for m in bundle.machines if m.owner_user)
    users.update(bundle.resource_allocations.user)
    users.update(bundle.gcu_usage.user)
    users.update(bundle.service_usage.consumer)
    users.update(bundle.service_usage.provider)
    users.update(n.user for n in bundle.net_costs)
    return sorted(users)


def oracle_allocate(
    bundle: Bundle,
    rounds: int = 2,
    default_pue: float = DEFAULT_PUE,
) -> OracleResult:
    """Recompute the whole allocation by exhaustive enumeration.

    The size limits are checked first, on the bundle's columns, so an
    oversized bundle is refused before any record is built.
    """
    if len(bundle.machines) > MAX_MACHINES:
        raise OracleSizeError(f"{len(bundle.machines)} machines exceed the oracle limit of {MAX_MACHINES}")
    users = _collect_users(bundle)
    if len(users) > MAX_USERS + 1:  # the reserved user is always appended
        raise OracleSizeError(f"{len(users)} users exceed the oracle limit of {MAX_USERS}")
    hours = sorted(set(bundle.power_samples.hour))
    if len(hours) > MAX_HOURS:
        raise OracleSizeError(f"{len(hours)} hours exceed the oracle limit of {MAX_HOURS}")
    # The column tables' records, each built once: a column table builds them on every pass.
    power_samples, gcu_usage = list(bundle.power_samples), list(bundle.gcu_usage)
    allocations, service_usage = list(bundle.resource_allocations), list(bundle.service_usage)

    result = OracleResult()
    if not power_samples:
        result.stage_totals["final"] = {}
        return result

    index = {user: i for i, user in enumerate(users)}
    n = len(users)
    clusters = sorted({m.cluster_id for m in bundle.machines})

    # Stage vectors: idle[cluster][hour] and dynamic[cluster][hour], dense per user.
    idle_vec: dict[tuple[str, datetime], list[float]] = {}
    dyn_vec: dict[tuple[str, datetime], list[float]] = {}
    for cluster in clusters:
        for hour in hours:
            idle_vec[(cluster, hour)] = [0.0] * n
            dyn_vec[(cluster, hour)] = [0.0] * n

    machine_by_id = {m.machine_id: m for m in bundle.machines}
    usage_rows_by_mh: dict[tuple[str, datetime], list] = {}
    for u in gcu_usage:
        if u.gcu_used > 0.0:
            usage_rows_by_mh.setdefault((u.machine_id, u.hour), []).append(u)
    for hour in hours:
        samples = [s for s in power_samples if s.hour == hour]
        hour_allocations = [a for a in allocations if a.hour == hour]
        for cluster in clusters:
            # Idle-share weights from this cluster-hour's allocations.
            weight_by_user = [0.0] * n
            for a in hour_allocations:
                if a.cluster_id != cluster:
                    continue
                weight_by_user[index[a.user]] += (
                    GCU_WEIGHT * a.gcu + RAM_GIB_WEIGHT * a.ram_gib
                    + SSD_TIB_WEIGHT * a.ssd_tib + HDD_TIB_WEIGHT * a.hdd_tib
                )
            weight_total = sum(weight_by_user)

            shared_idle = 0.0
            for sample in samples:
                machine = machine_by_id[sample.machine_id]
                if machine.cluster_id != cluster:
                    continue
                idle_w = machine.idle_rating_watts
                if sample.measured_power_watts < idle_w:
                    idle_w = sample.measured_power_watts
                dynamic_w = sample.measured_power_watts - idle_w

                if machine.sharing is Sharing.DEDICATED:
                    idle_vec[(cluster, hour)][index[machine.owner_user or UNALLOCATED_USER]] += idle_w
                else:
                    shared_idle += idle_w

                if dynamic_w > 0.0:
                    usage_rows = usage_rows_by_mh.get((machine.machine_id, hour), [])
                    gcu_total = sum(u.gcu_used for u in usage_rows)
                    if gcu_total > 0.0:
                        for u in usage_rows:
                            dyn_vec[(cluster, hour)][index[u.user]] += dynamic_w * u.gcu_used / gcu_total
                    elif machine.sharing is Sharing.DEDICATED and machine.owner_user:
                        dyn_vec[(cluster, hour)][index[machine.owner_user]] += dynamic_w
                    elif weight_total > 0.0:
                        for i in range(n):
                            dyn_vec[(cluster, hour)][i] += dynamic_w * weight_by_user[i] / weight_total
                    else:
                        dyn_vec[(cluster, hour)][index[UNALLOCATED_USER]] += dynamic_w

            if shared_idle > 0.0:
                if weight_total > 0.0:
                    for i in range(n):
                        idle_vec[(cluster, hour)][i] += shared_idle * weight_by_user[i] / weight_total
                else:
                    idle_vec[(cluster, hour)][index[UNALLOCATED_USER]] += shared_idle

    def snapshot(
        idle: dict[tuple[str, datetime], list[float]],
        dyn: dict[tuple[str, datetime], list[float]],
    ) -> dict[tuple[str, str, datetime], float]:
        table: dict[tuple[str, str, datetime], float] = {}
        for (cluster, hour), vector in idle.items():
            for i, value in enumerate(vector):
                total = value + dyn[(cluster, hour)][i]
                if total != 0.0:
                    table[(users[i], cluster, hour)] = total
        return table

    for (cluster, hour), vector in idle_vec.items():
        for i, value in enumerate(vector):
            if value != 0.0:
                result.machine_idle[(users[i], cluster, hour)] = value
            d = dyn_vec[(cluster, hour)][i]
            if d != 0.0:
                result.machine_dynamic[(users[i], cluster, hour)] = d
    result.stage_totals["machine"] = snapshot(idle_vec, dyn_vec)

    # Major reallocation: per provider/cluster/hour, gamma per consumer.
    for cluster in clusters:
        cluster_usage = [u for u in service_usage if u.cluster_id == cluster]
        for hour in hours:
            rows = [u for u in cluster_usage if u.hour == hour]
            providers = sorted({r.provider for r in rows})
            vector = dyn_vec[(cluster, hour)]
            moves: list[tuple[int, int, float]] = []
            for provider in providers:
                provider_rows = [r for r in rows if r.provider == provider]
                storage = any(r.colossus_style for r in provider_rows)
                amounts: dict[str, float] = {}
                for r in provider_rows:
                    if storage:
                        blended = (
                            GCU_WEIGHT * r.gcu + SSD_TIB_WEIGHT * r.ssd_tib
                            + HDD_TIB_WEIGHT * r.hdd_tib
                        )
                    else:
                        blended = r.gcu
                    if blended > 0.0:
                        amounts[r.consumer] = amounts.get(r.consumer, 0.0) + blended
                denominator = sum(amounts.values())
                if denominator <= 0.0:
                    continue
                provider_dyn = vector[index[provider]]
                if provider_dyn == 0.0:
                    continue
                for consumer, amount in amounts.items():
                    moves.append((index[provider], index[consumer], provider_dyn * amount / denominator))
            for p_i, c_i, amount in moves:
                vector[p_i] -= amount
                vector[c_i] += amount
                if vector[p_i] < 0.0:
                    vector[p_i] = 0.0
    result.stage_totals["after_major_realloc"] = snapshot(idle_vec, dyn_vec)

    # Minor reallocation: one dense transfer matrix per day, applied per round.
    matrices: dict[date, list[list[float]]] = {}
    for day in sorted({r.day for r in bundle.net_costs}):
        day_rows = [r for r in bundle.net_costs if r.day == day]
        base_cost: dict[str, float] = {}
        for r in bundle.non_service_costs:
            if r.day == day:
                base_cost[r.user] = base_cost.get(r.user, 0.0) + r.cost
        net: dict[tuple[str, str], float] = {}
        for r in day_rows:
            net[(r.user, r.service)] = net.get((r.user, r.service), 0.0) + r.net_cost
        total_cost: dict[str, float] = dict(base_cost)
        for (user, _), value in net.items():
            total_cost[user] = total_cost.get(user, 0.0) + value

        matrix = [[1.0 if i == j else 0.0 for j in range(n)] for i in range(n)]
        outflow: dict[int, dict[int, float]] = {}
        for service in sorted({r.service for r in day_rows}):
            by_user = {u: v for (u, s), v in net.items() if s == service}
            minimum = min(by_user.values())
            if minimum >= 0.0:
                continue
            provider = sorted(u for u, v in by_user.items() if v == minimum)[0]
            denominator = max(abs(by_user[provider]), total_cost.get(provider, 0.0))
            if denominator <= 0.0:
                continue
            for consumer, value in by_user.items():
                if consumer == provider or value <= 0.0:
                    continue
                row = outflow.setdefault(index[provider], {})
                row[index[consumer]] = row.get(index[consumer], 0.0) + value / denominator
        for p_i, row in outflow.items():
            total = sum(row.values())
            scale = 1.0 / total if total > 1.0 + 1e-12 else 1.0
            for c_i, fraction in row.items():
                matrix[p_i][c_i] = fraction * scale
            matrix[p_i][p_i] = max(0.0, 1.0 - total * scale)
        matrices[day] = matrix

    for round_number in range(1, rounds + 1):
        for (cluster, hour) in idle_vec:
            matrix = matrices.get(day_of(hour))
            if matrix is None:
                continue
            for component in (idle_vec, dyn_vec):
                vector = component[(cluster, hour)]
                fresh = [0.0] * n
                for i in range(n):
                    value = vector[i]
                    if value == 0.0:
                        continue
                    row = matrix[i]
                    for j in range(n):
                        if row[j] != 0.0:
                            fresh[j] += value * row[j]
                component[(cluster, hour)] = fresh
        result.stage_totals[f"after_minor_round_{round_number}"] = snapshot(idle_vec, dyn_vec)
    result.stage_totals["final"] = result.stage_totals[
        f"after_minor_round_{rounds}" if rounds else "after_major_realloc"
    ]

    # Emissions: energy * PUE * zone intensity, grams to kilograms.
    zone_of: dict[str, str] = {}
    region_of: dict[str, str] = {}
    for row in bundle.zone_map:
        if row.zone_id:
            zone_of[row.cluster_id] = row.zone_id
        region_of[row.cluster_id] = row.region_id
    pue_of = {(p.cluster_id, p.hour): p.pue for p in bundle.pue}
    hourly_ci = {(c.zone_id, c.hour): c.intensity_g_per_kwh for c in bundle.carbon_intensity}
    annual_ci = {(a.zone_id, a.year): a.intensity_g_per_kwh for a in bundle.annual_intensity}

    for (user, cluster, hour), wh in sorted(result.stage_totals["final"].items()):
        pue = pue_of.get((cluster, hour), default_pue)
        zone = zone_of.get(cluster)
        intensity = None
        if zone is not None:
            intensity = hourly_ci.get((zone, hour))
            if intensity is None:
                intensity = annual_ci.get((zone, hour.year))
        if intensity is None:
            continue  # pipeline would abort; comparison never reaches this
        result.emissions_kg[(user, cluster, hour)] = wh * pue * intensity / 1_000_000.0

    # Customer footprints, month by month.
    catalog = [s for s in bundle.sku_catalog if not s.is_commitment]
    months = sorted({b.month for b in bundle.billing_usage})
    for month in months:
        billing = [b for b in bundle.billing_usage if b.month == month]
        kg_of_user: dict[str, float] = {}
        wh_of_user: dict[str, float] = {}
        for (user, cluster, hour), kg in result.emissions_kg.items():
            if month_of(hour) != month:
                continue
            kg_of_user[user] = kg_of_user.get(user, 0.0) + kg
            wh_of_user[user] = wh_of_user.get(user, 0.0) + result.stage_totals["final"][(user, cluster, hour)]
        total_scope_kg = sum(kg_of_user.values())
        if total_scope_kg <= 0.0:
            continue

        usage_total: dict[tuple[str, str], float] = {}
        for b in billing:
            usage_total[(b.sku_id, b.region_id)] = usage_total.get((b.sku_id, b.region_id), 0.0) + b.usage_units

        adjusted: dict[tuple[str, str], float] = {}
        rate_of: dict[str, float] = {}
        for provider in sorted({s.provider_user for s in catalog}):
            provider_skus = [s for s in catalog if s.provider_user == provider]
            price_of = {s.sku_id: s.list_price_per_unit for s in provider_skus}
            usage_of_sku: dict[str, float] = {}
            for (sku_id, _), units in usage_total.items():
                if sku_id in price_of:
                    usage_of_sku[sku_id] = usage_of_sku.get(sku_id, 0.0) + units
            price_weighted = sum(usage_of_sku.get(s, 0.0) * price_of[s] for s in price_of)
            if price_weighted <= 0.0:
                continue
            energy = wh_of_user.get(provider, 0.0)
            rates = {s: energy * price_of[s] / price_weighted for s in price_of}

            kg_by_region: dict[str, float] = {}
            wh_by_region: dict[str, float] = {}
            for (user, cluster, hour), kg in result.emissions_kg.items():
                if user != provider or month_of(hour) != month:
                    continue
                region = region_of[cluster]
                kg_by_region[region] = kg_by_region.get(region, 0.0) + kg
                wh_by_region[region] = wh_by_region.get(region, 0.0) + result.stage_totals["final"][
                    (user, cluster, hour)
                ]
            intensity_region = {
                region: kg_by_region[region] * 1_000_000.0 / wh
                for region, wh in wh_by_region.items()
                if wh > 0.0
            }

            balance = 0.0
            for (sku_id, region), units in usage_total.items():
                if sku_id in rates and region in intensity_region:
                    balance += rates[sku_id] * units * intensity_region[region] / 1_000_000.0
            if balance <= 0.0:
                continue
            alpha = kg_of_user.get(provider, 0.0) / balance
            for sku_id in rates:
                rate_of[sku_id] = rates[sku_id]
                for region, value in intensity_region.items():
                    adjusted[(sku_id, region)] = alpha * value

        billed_kg = 0.0
        for b in billing:
            if not b.billing_account:
                continue
            if b.sku_id in rate_of and (b.sku_id, b.region_id) in adjusted:
                billed_kg += rate_of[b.sku_id] * b.usage_units * adjusted[(b.sku_id, b.region_id)] / 1_000_000.0
        if billed_kg <= 0.0:
            continue
        beta = total_scope_kg / billed_kg

        product_of = {s.sku_id: s.product_id for s in catalog}
        for b in billing:
            if not b.billing_account or b.sku_id not in rate_of:
                continue
            intensity = adjusted.get((b.sku_id, b.region_id))
            if intensity is None:
                continue
            key = (b.billing_account, product_of[b.sku_id], b.region_id, month)
            result.footprints_kg[key] = result.footprints_kg.get(key, 0.0) + (
                beta * rate_of[b.sku_id] * b.usage_units * intensity / 1_000_000.0
            )
    return result
