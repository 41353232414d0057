"""Deterministic synthetic fleets, service economies, and feeds.

The generator is seeded and single-threaded: one (seed, spec) pair always
produces the same bundle, byte for byte once serialized. Named presets
reproduce small hand-built scenarios used throughout the test suite; the
random generator exercises every pipeline path at configurable scale.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, fields
from datetime import datetime, timezone
from typing import Any, Callable, NamedTuple

from .errors import ScenarioError
from .model import (
    AnnualIntensityRecord,
    Bundle,
    CarbonIntensityRecord,
    GcuUsageRecord,
    MachineRecord,
    NetCostRecord,
    NonServiceCostRecord,
    PowerSample,
    PueRecord,
    ResourceAllocationRecord,
    ResourceVector,
    ServiceUsageRecord,
    Sharing,
    SkuRecord,
    SkuUsageRecord,
    ZoneMapRow,
    day_of,
    hour_range,
    month_of,
)

GENERATOR_ID = "carbonledger-fleetsim-v1"

#: First hour of every generated bundle.
START = datetime(2023, 6, 5, 0, 0, tzinfo=timezone.utc)

#: Servers draw roughly this share of peak power while idle.
IDLE_FRACTION = 0.45

#: Amplitude of the random fleet's daily utilization cycle around its 0.55 mean.
DIURNAL_AMPLITUDE = 0.3

#: SKUs per billing provider, and billing accounts, of the random fleet.
SKUS_PER_PROVIDER = 2
ACCOUNT_COUNT = 2

#: Default hourly grid-intensity distribution (2022 global statistics).
DEFAULT_INTENSITY_MEAN = 320.8
DEFAULT_INTENSITY_STD = 227.5


@dataclass(frozen=True)
class ScenarioSpec:
    """Everything the generator needs; the seed pins all randomness."""

    seed: int = 0
    preset: str | None = None
    machine_count: int = 20
    user_count: int = 5
    cluster_count: int = 2
    hours: int = 24
    economy_depth: int = 2
    cyclic_economy: bool = False
    include_unbilled_usage: bool = False

    def validate(self) -> None:
        if self.preset is not None:
            if self.preset not in PRESETS:
                raise ScenarioError(f"unknown preset {self.preset!r}")
            # A field left at its default is not a setting.
            ignored = [
                f.name for f in fields(self)
                if f.name not in ("seed", "preset", *PRESETS[self.preset].reads)
                and getattr(self, f.name) != f.default
            ]
            if ignored:
                raise ScenarioError(f"preset {self.preset!r} does not read {', '.join(ignored)}")
        if self.machine_count < 1 or self.user_count < 1 or self.cluster_count < 1:
            raise ScenarioError("machine, user, and cluster counts must be positive")
        if self.hours < 1:
            raise ScenarioError("hours must be positive")
        if self.economy_depth < 0:
            raise ScenarioError("economy depth must be non-negative")


def preset_spec(name: str, seed: int = 0, **overrides) -> ScenarioSpec:
    """A validated ScenarioSpec for a named preset; ``overrides`` may set only fields it reads."""
    reads = PRESETS[name].reads if name in PRESETS else {}
    spec = ScenarioSpec(seed=seed, preset=name, **{**reads, **overrides})
    spec.validate()
    return spec


def generate(spec: ScenarioSpec) -> Bundle:
    """Build the full input bundle for a scenario."""
    spec.validate()
    if spec.preset is None:
        return _random_fleet(spec)
    return PRESETS[spec.preset].build(spec)


def intensity_feed(
    seed: int,
    zones: list[str],
    hours: list[datetime],
    mean: float = DEFAULT_INTENSITY_MEAN,
    std: float = DEFAULT_INTENSITY_STD,
) -> tuple[list[CarbonIntensityRecord], list[AnnualIntensityRecord]]:
    """Seeded hourly intensity series per zone plus the annual table.

    Values follow a lognormal shape matched to ``mean`` and ``std``,
    clamped at zero. A zero std yields a flat series and draws nothing.
    """
    rng = random.Random(f"{seed}-intensity")
    hourly: list[CarbonIntensityRecord] = []
    for zone in zones:
        for hour in hours:
            if mean == 0.0:
                value = 0.0
            elif std == 0.0:
                value = mean
            else:
                sigma2 = math.log(1.0 + (std / mean) ** 2)
                mu = math.log(mean) - sigma2 / 2.0
                value = rng.lognormvariate(mu, math.sqrt(sigma2))
            hourly.append(CarbonIntensityRecord(zone, hour, max(0.0, value)))
    years = sorted({h.year for h in hours})
    annual = [AnnualIntensityRecord(zone, year, mean) for zone in zones for year in years]
    return hourly, annual


#: The one-cluster presets' cluster, zone and region, and every preset's billing month.
CLUSTER, ZONE, REGION = "cluster-01", "zone-01", "region-01"
MONTH = month_of(START)


def _one_cluster(spec: ScenarioSpec, intensity: float) -> tuple[Bundle, list[datetime]]:
    """The one-cluster presets' scaffold: CLUSTER in ZONE and REGION, 24 h at a flat intensity."""
    hours = hour_range(START, 24)
    hourly, annual = intensity_feed(spec.seed, [ZONE], hours, mean=intensity, std=0.0)
    bundle = Bundle(zone_map=[ZoneMapRow(CLUSTER, ZONE, REGION)], carbon_intensity=hourly, annual_intensity=annual)
    return bundle, hours


def _preset_figure1(spec: ScenarioSpec) -> Bundle:
    """One aggregate cluster with a diurnal prod/non-prod pattern.

    The cluster idles at 6 MW and draws 14 MW for the 12 daytime hours
    (prod holds 75% of usage) and 12 MW at night (50/50). The prod user
    owns all resource allocation. ``machine_count`` > 1 splits the
    aggregate into identical machines with unchanged totals.
    """
    n = spec.machine_count
    bundle, hours = _one_cluster(spec, DEFAULT_INTENSITY_MEAN)
    daytime = {h for h in hours if 8 <= h.hour < 20}
    for i in range(n):
        bundle.machines.append(
            MachineRecord(f"figure1-m{i:03d}", CLUSTER, Sharing.SHARED, None, 6e6 / n)
        )
    for hour in hours:
        measured = 14e6 if hour in daytime else 12e6
        prod_share = 0.75 if hour in daytime else 0.50
        utilization = 80.0 if hour in daytime else 60.0
        for i in range(n):
            mid = f"figure1-m{i:03d}"
            bundle.power_samples.append(PowerSample(mid, hour, measured / n))
            bundle.gcu_usage.append(GcuUsageRecord("prod", mid, hour, utilization * prod_share / n))
            bundle.gcu_usage.append(
                GcuUsageRecord("non-prod", mid, hour, utilization * (1.0 - prod_share) / n)
            )
        bundle.resource_allocations.append(
            ResourceAllocationRecord("prod", CLUSTER, hour, ResourceVector(gcu=100.0))
        )
        bundle.pue.append(PueRecord(CLUSTER, hour, 1.0))

    bundle.sku_catalog.append(SkuRecord("sku-prod", "product-prod", "prod", 1.0, "unit-hour"))
    bundle.sku_catalog.append(SkuRecord("sku-batch", "product-batch", "non-prod", 1.0, "unit-hour"))
    for sku in ("sku-prod", "sku-batch"):
        bundle.billing_usage.append(SkuUsageRecord(sku, REGION, "acct-01", MONTH, 100.0))
    return bundle


def _shared_machine_block(
    bundle: Bundle,
    cluster: str,
    machine_id: str,
    hours: list[datetime],
    idle_watts: float,
    measured_watts: float,
    usage_shares: dict[str, float],
) -> None:
    bundle.machines.append(MachineRecord(machine_id, cluster, Sharing.SHARED, None, idle_watts))
    for hour in hours:
        bundle.power_samples.append(PowerSample(machine_id, hour, measured_watts))
        for user, share in usage_shares.items():
            bundle.gcu_usage.append(GcuUsageRecord(user, machine_id, hour, share))


def _preset_balanced_service(spec: ScenarioSpec) -> Bundle:
    """A provider whose internal revenue exactly covers its costs.

    The net-cost round must then hand the provider's entire footprint to
    its two consumers (60/40) and leave it with nothing.
    """
    bundle, hours = _one_cluster(spec, DEFAULT_INTENSITY_MEAN)
    _shared_machine_block(
        bundle, CLUSTER, "bal-m000", hours, 4e5, 1e6,
        {"svc": 50.0, "user-a": 25.0, "user-b": 25.0},
    )
    for hour in hours:
        for user, gcu in (("svc", 40.0), ("user-a", 30.0), ("user-b", 30.0)):
            bundle.resource_allocations.append(
                ResourceAllocationRecord(user, CLUSTER, hour, ResourceVector(gcu=gcu))
            )
        bundle.pue.append(PueRecord(CLUSTER, hour, 1.1))
    for day in sorted({day_of(h) for h in hours}):
        bundle.net_costs.append(NetCostRecord("svc", "svc-api", day, -1000.0))
        bundle.net_costs.append(NetCostRecord("user-a", "svc-api", day, 600.0))
        bundle.net_costs.append(NetCostRecord("user-b", "svc-api", day, 400.0))
        bundle.non_service_costs.append(NonServiceCostRecord("svc", day, 2000.0))
    bundle.sku_catalog.append(SkuRecord("sku-a", "product-a", "user-a", 2.0, "unit"))
    bundle.sku_catalog.append(SkuRecord("sku-b", "product-b", "user-b", 1.0, "unit"))
    bundle.billing_usage.append(SkuUsageRecord("sku-a", REGION, "acct-01", MONTH, 50.0))
    bundle.billing_usage.append(SkuUsageRecord("sku-b", REGION, "acct-01", MONTH, 80.0))
    return bundle


def _preset_sankey_small(spec: ScenarioSpec) -> Bundle:
    """Two clusters with one major service and a two-hop net-cost chain.

    The chain encodes the canonical worked example: one consumer pays
    1000 of the storage provider's 10000 daily revenue and must receive
    exactly 10% of its footprint; the rest flows onward to an
    intermediate service and resolves to end users within two rounds.
    """
    hours = hour_range(START, 24)
    clusters = (("cluster-01", "zone-01", "region-01"), ("cluster-02", "zone-02", "region-02"))

    bundle = Bundle()
    for cluster, zone, region in clusters:
        bundle.zone_map.append(ZoneMapRow(cluster, zone, region))

    for index, (cluster, _, _) in enumerate(clusters):
        _shared_machine_block(
            bundle, cluster, f"sky-shared-{index}", hours, 3e5, 8e5,
            {"colossus": 30.0, "blobstore": 20.0, "ads": 10.0, "user-one": 20.0, "user-two": 20.0},
        )
        dedicated = MachineRecord(f"sky-dedic-{index}", cluster, Sharing.DEDICATED, "colossus", 1e5)
        bundle.machines.append(dedicated)
        for hour in hours:
            bundle.power_samples.append(PowerSample(dedicated.machine_id, hour, 2e5))
            bundle.gcu_usage.append(GcuUsageRecord("colossus", dedicated.machine_id, hour, 10.0))
        for hour in hours:
            for user, gcu in (
                ("colossus", 20.0),
                ("blobstore", 15.0),
                ("cloud-storage", 15.0),
                ("ads", 10.0),
                ("user-one", 20.0),
                ("user-two", 20.0),
            ):
                bundle.resource_allocations.append(
                    ResourceAllocationRecord(user, cluster, hour, ResourceVector(gcu=gcu, ram_gib=gcu * 4))
                )
            bundle.pue.append(PueRecord(cluster, hour, 1.08 + 0.02 * index))
            for consumer, usage in (
                ("blobstore", ResourceVector(gcu=5.0, hdd_tib=60.0)),
                ("user-one", ResourceVector(gcu=5.0, ssd_tib=10.0)),
            ):
                bundle.service_usage.append(
                    ServiceUsageRecord(consumer, "colossus", cluster, hour, usage, colossus_style=True)
                )

    for day in sorted({day_of(h) for h in hours}):
        bundle.net_costs.append(NetCostRecord("blobstore", "blob-api", day, -10000.0))
        bundle.net_costs.append(NetCostRecord("ads", "blob-api", day, 1000.0))
        bundle.net_costs.append(NetCostRecord("cloud-storage", "blob-api", day, 9000.0))
        bundle.non_service_costs.append(NonServiceCostRecord("blobstore", day, 10000.0))
        bundle.net_costs.append(NetCostRecord("cloud-storage", "cs-api", day, -12000.0))
        bundle.net_costs.append(NetCostRecord("user-one", "cs-api", day, 6000.0))
        bundle.net_costs.append(NetCostRecord("user-two", "cs-api", day, 6000.0))
        bundle.non_service_costs.append(NonServiceCostRecord("cloud-storage", day, 3000.0))

    zones = [zone for _, zone, _ in clusters]
    hourly, annual = intensity_feed(spec.seed, zones, hours)
    bundle.carbon_intensity.extend(hourly)
    bundle.annual_intensity.extend(annual)

    for user, price in (("ads", 1.5), ("user-one", 1.0), ("user-two", 2.5)):
        bundle.sku_catalog.append(SkuRecord(f"sku-{user}", f"product-{user}", user, price, "unit"))
        for _, _, region in clusters:
            bundle.billing_usage.append(SkuUsageRecord(f"sku-{user}", region, "acct-01", MONTH, 40.0))
            bundle.billing_usage.append(SkuUsageRecord(f"sku-{user}", region, "acct-02", MONTH, 60.0))
    return bundle


def _preset_overhead_pool(spec: ScenarioSpec) -> Bundle:
    """A catalog provider next to an overhead user with no SKUs at all.

    The overhead user's emissions can only reach customers through the
    global overhead factor, which must exceed 1.
    """
    bundle, hours = _one_cluster(spec, 400.0)
    _shared_machine_block(bundle, CLUSTER, "ovh-shared", hours, 2e5, 6e5, {"svc-a": 40.0})
    pool = MachineRecord("ovh-pool", CLUSTER, Sharing.DEDICATED, "overhead-pool", 1e5)
    bundle.machines.append(pool)
    for hour in hours:
        bundle.power_samples.append(PowerSample(pool.machine_id, hour, 1.5e5))
        bundle.resource_allocations.append(
            ResourceAllocationRecord("svc-a", CLUSTER, hour, ResourceVector(gcu=50.0))
        )
        bundle.pue.append(PueRecord(CLUSTER, hour, 1.2))
    bundle.sku_catalog.append(SkuRecord("sku-a1", "product-a", "svc-a", 2.0, "unit"))
    bundle.sku_catalog.append(SkuRecord("sku-a2", "product-a", "svc-a", 1.0, "unit"))
    bundle.billing_usage.append(SkuUsageRecord("sku-a1", REGION, "acct-01", MONTH, 30.0))
    bundle.billing_usage.append(SkuUsageRecord("sku-a2", REGION, "acct-01", MONTH, 90.0))
    return bundle


def _preset_two_accounts(spec: ScenarioSpec) -> Bundle:
    """Two providers fully billed to two accounts with identical usage."""
    bundle, hours = _one_cluster(spec, 250.0)
    _shared_machine_block(
        bundle, CLUSTER, "two-shared", hours, 3e5, 7e5, {"svc-a": 30.0, "svc-b": 10.0}
    )
    for hour in hours:
        for user, gcu in (("svc-a", 60.0), ("svc-b", 20.0)):
            bundle.resource_allocations.append(
                ResourceAllocationRecord(user, CLUSTER, hour, ResourceVector(gcu=gcu))
            )
        bundle.pue.append(PueRecord(CLUSTER, hour, 1.15))
    for user, price in (("svc-a", 1.75), ("svc-b", 1.0)):
        bundle.sku_catalog.append(SkuRecord(f"sku-{user}", f"product-{user}", user, price, "unit"))
        for account in ("acct-01", "acct-02"):
            bundle.billing_usage.append(SkuUsageRecord(f"sku-{user}", REGION, account, MONTH, 50.0))
    return bundle


class Preset(NamedTuple):
    """How to build a named scenario."""

    build: Callable[[ScenarioSpec], Bundle]
    reads: dict[str, Any]  # the spec fields ``build`` reads, with the preset's defaults


#: Every named preset. Presets read ``seed`` and the fields in ``reads``;
#: ``ScenarioSpec.validate`` refuses any other field a preset spec sets.
PRESETS: dict[str, Preset] = {
    "figure1": Preset(_preset_figure1, {"machine_count": 1}),
    "sankey-small": Preset(_preset_sankey_small, {}),
    "overhead-pool": Preset(_preset_overhead_pool, {}),
    "two-accounts": Preset(_preset_two_accounts, {}),
    "balanced-service": Preset(_preset_balanced_service, {}),
}


def _random_fleet(spec: ScenarioSpec) -> Bundle:
    rng = random.Random(spec.seed)
    hours = hour_range(START, spec.hours)
    month_list = sorted({month_of(h) for h in hours})
    clusters = [f"cluster-{i:02d}" for i in range(spec.cluster_count)]
    zones = {c: f"zone-{i:02d}" for i, c in enumerate(clusters)}
    regions = {c: f"region-{i // 2:02d}" for i, c in enumerate(clusters)}
    users = [f"user-{i:02d}" for i in range(spec.user_count)]

    bundle = Bundle()
    for c in clusters:
        bundle.zone_map.append(ZoneMapRow(c, zones[c], regions[c]))

    # Machines, samples, and per-machine usage. The first machine is always
    # shared so the anchor user below is guaranteed some idle energy.
    # Samples and usage go straight into their columns: no record per row.
    samples, usage = bundle.power_samples, bundle.gcu_usage
    sample_machine, sample_hour, sample_watts = (
        samples.machine_id.append, samples.hour.append, samples.measured_power_watts.append,
    )
    usage_user, usage_machine, usage_hour, usage_gcu = (
        usage.user.append, usage.machine_id.append, usage.hour.append, usage.gcu_used.append,
    )
    for i in range(spec.machine_count):
        cluster = rng.choice(clusters)
        dedicated = i > 0 and rng.random() < 0.25
        owner = rng.choice(users) if dedicated else None
        peak = rng.uniform(300.0, 900.0)
        idle_rating = IDLE_FRACTION * peak
        machine = MachineRecord(
            f"rand-m{i:04d}",
            cluster,
            Sharing.DEDICATED if dedicated else Sharing.SHARED,
            owner,
            idle_rating,
        )
        bundle.machines.append(machine)
        phase = rng.uniform(0.0, 24.0)
        for index, hour in enumerate(hours):
            if rng.random() < 0.02:
                continue  # telemetry gap: machine treated as powered off
            swing = DIURNAL_AMPLITUDE * math.sin(2.0 * math.pi * (index + phase) / 24.0)
            utilization = min(1.0, max(0.0, 0.55 + swing + rng.uniform(-0.08, 0.08)))
            measured = idle_rating + utilization * (peak - idle_rating)
            sample_machine(machine.machine_id)
            sample_hour(hour)
            sample_watts(measured)
            if rng.random() < 0.03:
                continue  # busy machine with no attributed usage
            for user in rng.sample(users, k=min(len(users), rng.randint(1, 3))):
                usage_user(user)
                usage_machine(machine.machine_id)
                usage_hour(hour)
                usage_gcu(rng.uniform(0.5, 40.0))

    # Resource allocations: hour-constant per (user, cluster), plus a
    # guaranteed anchor user per cluster so shared idle is always claimable.
    # These rows and the service-usage rows below go into their columns as
    # tuples of cells, one block at a time.
    for cluster in clusters:
        holders = {users[0]} | {u for u in users if rng.random() < 0.6}
        vectors = {  # gcu, ram_gib, ssd_tib, hdd_tib
            u: (rng.uniform(5.0, 80.0), rng.uniform(0.0, 600.0), rng.uniform(0.0, 8.0), rng.uniform(0.0, 30.0))
            for u in sorted(holders)
        }
        bundle.resource_allocations.extend(
            (user, cluster, hour, *vector) for hour in hours for user, vector in vectors.items()
        )

    # Major shared services with per-cluster-hour usage rows.
    major_count = min(2, max(0, spec.user_count - 2))
    major_providers = users[:major_count]
    for p_index, provider in enumerate(major_providers):
        storage_style = p_index == 0
        consumers = [u for u in users if u != provider][: max(2, spec.user_count // 2)]
        for cluster in clusters:
            if rng.random() < 0.3:
                continue
            rows = []
            for hour in hours:
                for consumer in consumers:
                    gcu = rng.uniform(0.0, 20.0)
                    ssd_tib = rng.uniform(0.0, 5.0) if storage_style else 0.0
                    hdd_tib = rng.uniform(0.0, 40.0) if storage_style else 0.0
                    if gcu == 0.0 and ssd_tib == 0.0 and hdd_tib == 0.0:
                        continue
                    rows.append((consumer, provider, cluster, hour, gcu, 0.0, ssd_tib, hdd_tib, storage_style))
            bundle.service_usage.extend(rows)

    # Minor-service economy: chained levels of providers over the plain
    # users. Providers mostly recover their full costs through internal
    # revenue (the balanced case), so reallocation settles within two
    # rounds; a minority retain a small sliver.
    depth = min(spec.economy_depth, max(0, spec.user_count - 1))
    level_providers = list(reversed(users[-depth:])) if depth else []
    days = sorted({day_of(h) for h in hours})
    for day in days:
        payments: dict[str, dict[str, float]] = {}
        for level, provider in enumerate(level_providers):
            if level == 0:
                consumers = [u for u in users if u not in level_providers]
            else:
                consumers = [level_providers[level - 1]]
            if consumers:
                payments[provider] = {c: rng.uniform(200.0, 2000.0) for c in consumers}
        paid_by: dict[str, float] = {}
        for per_consumer in payments.values():
            for consumer, paid in per_consumer.items():
                paid_by[consumer] = paid_by.get(consumer, 0.0) + paid
        for provider in level_providers:
            per_consumer = payments.get(provider)
            if not per_consumer:
                continue
            service = f"svc-{provider}"
            revenue = sum(per_consumer.values())
            for consumer, paid in sorted(per_consumer.items()):
                bundle.net_costs.append(NetCostRecord(consumer, service, day, paid))
            bundle.net_costs.append(NetCostRecord(provider, service, day, -revenue))
            push_fraction = 1.0 if rng.random() < 0.7 else rng.uniform(0.95, 1.0)
            base_cost = max(0.0, revenue / push_fraction + revenue - paid_by.get(provider, 0.0))
            bundle.non_service_costs.append(NonServiceCostRecord(provider, day, base_cost))
    if spec.cyclic_economy and level_providers:
        top = level_providers[-1]
        payer_pool = [u for u in users if u not in level_providers] or users
        for day in days:
            bundle.net_costs.append(NetCostRecord(top, f"svc-{payer_pool[0]}", day, 300.0))
            bundle.net_costs.append(NetCostRecord(payer_pool[0], f"svc-{payer_pool[0]}", day, -300.0))
            bundle.non_service_costs.append(NonServiceCostRecord(payer_pool[0], day, 300.0))

    # Environmental feeds: drop a tenth of hourly intensity rows so the
    # annual fallback stays exercised.
    for cluster in clusters:
        for hour in hours:
            bundle.pue.append(PueRecord(cluster, hour, rng.uniform(1.05, 1.6)))
    hourly, annual = intensity_feed(spec.seed, sorted(set(zones.values())), hours)
    bundle.carbon_intensity.extend(r for r in hourly if rng.random() >= 0.1)
    bundle.annual_intensity.extend(annual)

    # SKU catalog and billed usage for a subset of users. The anchor user
    # always has one fully billed SKU so at least one provider can absorb
    # emissions and the customer overhead factor stays defined.
    accounts = [f"acct-{i:02d}" for i in range(ACCOUNT_COUNT)]
    region_list = sorted(set(regions.values()))
    for user in users:
        anchor = user == users[0]
        if not anchor and rng.random() < 0.3:
            continue
        for s in range(SKUS_PER_PROVIDER):
            sku_id = f"sku-{user}-{s}"
            bundle.sku_catalog.append(
                SkuRecord(sku_id, f"product-{user}", user, rng.uniform(0.5, 3.0), "unit")
            )
            guaranteed = anchor and s == 0
            for month in month_list:
                for region in region_list:
                    for account in accounts:
                        if not guaranteed and rng.random() < 0.4:
                            continue
                        bundle.billing_usage.append(
                            SkuUsageRecord(sku_id, region, account, month, rng.uniform(1.0, 120.0))
                        )
                    if spec.include_unbilled_usage and rng.random() < 0.5:
                        bundle.billing_usage.append(
                            SkuUsageRecord(sku_id, region, None, month, rng.uniform(1.0, 40.0))
                        )
    return bundle
