"""Core domain model: fleet entities, feeds, topology, and input validation.

Canonical units, used everywhere without exception:

* power in watts; hourly energy in watt-hours (numerically equal to the
  mean watts over the hour),
* carbon intensity in gCO2e/kWh,
* emissions in kgCO2e.

Unit conversions happen at module boundaries, never inside formulas.
Identifiers are opaque strings. Hours are closed-open UTC intervals
identified by their start timestamp.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from datetime import date, datetime, timedelta, timezone
from enum import Enum
from operator import attrgetter
from typing import Iterable, Mapping, Sequence

#: Reserved user receiving shared energy that no real user can claim.
UNALLOCATED_USER = "unallocated-overhead"

HOUR_FORMAT = "%Y-%m-%dT%H:%MZ"


def parse_hour(text: str) -> datetime:
    """Parse an ISO-8601 hour timestamp like ``2023-09-18T14:00Z`` (UTC only)."""
    dt = datetime.strptime(text, HOUR_FORMAT).replace(tzinfo=timezone.utc)
    if dt.minute or dt.second or dt.microsecond:
        raise ValueError(f"timestamp {text!r} is not aligned to an hour")
    return dt


def format_hour(hour: datetime) -> str:
    return hour.astimezone(timezone.utc).strftime(HOUR_FORMAT)


def hour_range(start: datetime, count: int) -> list[datetime]:
    """``count`` consecutive hours starting at ``start``."""
    return [start + timedelta(hours=i) for i in range(count)]


def day_of(hour: datetime) -> date:
    return hour.astimezone(timezone.utc).date()


def month_of(hour: datetime) -> str:
    return hour.astimezone(timezone.utc).strftime("%Y-%m")


class Sharing(str, Enum):
    DEDICATED = "Dedicated"
    SHARED = "Shared"


@dataclass(frozen=True, slots=True)
class MachineRecord:
    """A machine's identity, sharing class, and recorded idle rating.

    The idle rating is modeled as a per-machine constant; hourly variation
    enters only through the clamp against measured power.
    """

    machine_id: str
    cluster_id: str
    sharing: Sharing
    owner_user: str | None = None
    idle_rating_watts: float = 0.0


@dataclass(frozen=True, slots=True)
class PowerSample:
    """Hourly mean measured power of one machine."""

    machine_id: str
    hour: datetime
    measured_power_watts: float


@dataclass(frozen=True, slots=True)
class ResourceVector:
    """Quantities of the four allocatable resource types."""

    gcu: float = 0.0
    ram_gib: float = 0.0
    ssd_tib: float = 0.0
    hdd_tib: float = 0.0

    def is_zero(self) -> bool:
        return self.gcu == 0.0 and self.ram_gib == 0.0 and self.ssd_tib == 0.0 and self.hdd_tib == 0.0


@dataclass(frozen=True, slots=True)
class ResourceAllocationRecord:
    """Resources reserved by a user in a cluster-hour.

    Major shared-service allocations are assumed to be already attributed
    to end users in this input, so idle allocation needs no reallocation
    pass of its own.
    """

    user: str
    cluster_id: str
    hour: datetime
    allocation: ResourceVector


@dataclass(frozen=True, slots=True)
class GcuUsageRecord:
    """Compute-unit usage of one user on one machine in one hour."""

    user: str
    machine_id: str
    hour: datetime
    gcu_used: float


@dataclass(frozen=True, slots=True)
class ResourceWeights:
    """Per-resource factors converting quantities to a common power scale.

    One set serves both uses: idle shares weigh resource allocations by
    it, and storage-style service reallocation blends usage by it, since
    no separate usage-power calibration ships with the artifact.
    """

    gcu: float
    ram_gib: float
    ssd_tib: float
    hdd_tib: float


#: The paper's equivalent-busy-power convention:
#: 1 compute unit == 20 GiB RAM == 1 TiB SSD == 6 TiB HDD.
RESOURCE_WEIGHTS = ResourceWeights(gcu=1.0, ram_gib=1.0 / 20.0, ssd_tib=1.0, hdd_tib=1.0 / 6.0)


@dataclass(frozen=True, slots=True)
class ZoneMapRow:
    """One cluster's grid zone (optional) and customer-facing region."""

    cluster_id: str
    zone_id: str | None
    region_id: str


@dataclass(frozen=True)
class ClusterTopology:
    """Cluster membership in grid zones and report regions.

    Every cluster sits in at most one zone and exactly one region.
    """

    clusters: frozenset[str]
    cluster_to_zone: Mapping[str, str]
    cluster_to_region: Mapping[str, str]

    @classmethod
    def from_rows(cls, rows: Iterable[ZoneMapRow]) -> "ClusterTopology":
        clusters: set[str] = set()
        zones: dict[str, str] = {}
        regions: dict[str, str] = {}
        for row in rows:
            clusters.add(row.cluster_id)
            if row.zone_id:
                zones[row.cluster_id] = row.zone_id
            regions[row.cluster_id] = row.region_id
        return cls(frozenset(clusters), zones, regions)


@dataclass(frozen=True, slots=True)
class ServiceUsageRecord:
    """A consumer's resource usage on a provider's shared service."""

    consumer: str
    provider: str
    cluster_id: str
    hour: datetime
    usage: ResourceVector
    colossus_style: bool = False


@dataclass(frozen=True, slots=True)
class NetCostRecord:
    """Signed daily internal charge of a user for a shared service.

    Positive for consumers of the service, negative for the provider
    (revenue).
    """

    user: str
    service: str
    day: date
    net_cost: float


@dataclass(frozen=True, slots=True)
class NonServiceCostRecord:
    """A user's daily costs outside the shared-service economy."""

    user: str
    day: date
    cost: float


@dataclass(frozen=True, slots=True)
class PueRecord:
    cluster_id: str
    hour: datetime
    pue: float


@dataclass(frozen=True, slots=True)
class CarbonIntensityRecord:
    zone_id: str
    hour: datetime
    intensity_g_per_kwh: float


@dataclass(frozen=True, slots=True)
class AnnualIntensityRecord:
    """Annual-average grid intensity of one zone."""

    zone_id: str
    year: int
    intensity_g_per_kwh: float


@dataclass(frozen=True, slots=True)
class SkuRecord:
    """A billable unit of a product with a list price per usage unit."""

    sku_id: str
    product_id: str
    provider_user: str
    list_price_per_unit: float
    usage_unit: str = "unit"
    is_commitment: bool = False


@dataclass(frozen=True, slots=True)
class SkuUsageRecord:
    """Monthly SKU usage in a region; empty billing account means unbilled."""

    sku_id: str
    region_id: str
    billing_account: str | None
    month: str
    usage_units: float


@dataclass(slots=True)
class Bundle:
    """Every input table a pipeline run consumes."""

    machines: list[MachineRecord] = field(default_factory=list)
    power_samples: list[PowerSample] = field(default_factory=list)
    resource_allocations: list[ResourceAllocationRecord] = field(default_factory=list)
    gcu_usage: list[GcuUsageRecord] = field(default_factory=list)
    service_usage: list[ServiceUsageRecord] = field(default_factory=list)
    net_costs: list[NetCostRecord] = field(default_factory=list)
    non_service_costs: list[NonServiceCostRecord] = field(default_factory=list)
    pue: list[PueRecord] = field(default_factory=list)
    carbon_intensity: list[CarbonIntensityRecord] = field(default_factory=list)
    annual_intensity: list[AnnualIntensityRecord] = field(default_factory=list)
    zone_map: list[ZoneMapRow] = field(default_factory=list)
    sku_catalog: list[SkuRecord] = field(default_factory=list)
    billing_usage: list[SkuUsageRecord] = field(default_factory=list)

    def topology(self) -> ClusterTopology:
        return ClusterTopology.from_rows(self.zone_map)


@dataclass(frozen=True, slots=True)
class Violation:
    """One well-formedness violation found during validation."""

    code: str
    subject: str
    detail: str


@dataclass(frozen=True, slots=True)
class Notice:
    """A non-fatal, data-dependent event surfaced alongside results."""

    code: str
    subject: str
    detail: str


def validate_fleet(
    machines: Sequence[MachineRecord],
    samples: Sequence[PowerSample],
    topology: ClusterTopology,
    usage: Sequence[GcuUsageRecord] = (),
) -> list[Violation]:
    """Check fleet well-formedness; violations are data, not failures.

    Idempotent and insensitive to input record order (the report is sorted).
    """
    violations: list[Violation] = []
    machine_ids: set[str] = set()
    for m in machines:
        if m.machine_id in machine_ids:
            violations.append(Violation("duplicate-machine", m.machine_id, "machine id appears more than once"))
        machine_ids.add(m.machine_id)
        if m.cluster_id not in topology.clusters:
            violations.append(Violation("unknown-cluster", m.machine_id, f"cluster {m.cluster_id!r} not in topology"))
        if m.sharing is Sharing.DEDICATED and not m.owner_user:
            violations.append(Violation("missing-owner", m.machine_id, "dedicated machine has no owner"))
        if m.sharing is Sharing.SHARED and m.owner_user:
            violations.append(Violation("owner-on-shared", m.machine_id, f"shared machine names owner {m.owner_user!r}"))
        if m.idle_rating_watts < 0:
            violations.append(Violation("negative-value", m.machine_id, f"idle rating {m.idle_rating_watts}"))

    seen_sample_keys: set[tuple[str, datetime]] = set()
    for s in samples:
        key = (s.machine_id, s.hour)
        if key in seen_sample_keys:
            violations.append(
                Violation("duplicate-sample", s.machine_id, f"second sample for hour {format_hour(s.hour)}")
            )
        seen_sample_keys.add(key)
        if s.machine_id not in machine_ids:
            violations.append(Violation("unknown-machine", s.machine_id, "power sample for unknown machine"))
        if s.measured_power_watts < 0:
            violations.append(Violation("negative-value", s.machine_id, f"measured power {s.measured_power_watts}"))

    for u in usage:
        if u.machine_id not in machine_ids:
            violations.append(Violation("unknown-machine", u.machine_id, f"usage by {u.user!r} on unknown machine"))
        if u.gcu_used < 0:
            violations.append(Violation("negative-value", u.machine_id, f"gcu usage {u.gcu_used} by {u.user!r}"))

    violations.sort(key=lambda v: (v.code, v.subject, v.detail))
    return violations


def _non_finite(bundle: Bundle) -> list[Violation]:
    """A ``non-finite-value`` violation for every NaN or infinite number.

    Each record is named by its first field, its identifier.
    """
    violations: list[Violation] = []
    for table in fields(bundle):
        records = getattr(bundle, table.name)
        if not records:
            continue
        columns = fields(records[0])
        numbers = [c.name for c in columns if c.type == "float"]
        numbers += [f"{c.name}.{part.name}" for c in columns if c.type == "ResourceVector"
                    for part in fields(ResourceVector)]
        for attribute in numbers:
            get = attrgetter(attribute)
            if all(map(math.isfinite, map(get, records))):
                continue
            violations.extend(
                Violation("non-finite-value", getattr(r, columns[0].name), f"{table.name} {attribute} is {get(r)}")
                for r in records
                if not math.isfinite(get(r))
            )
    return violations


def validate_bundle(bundle: Bundle) -> list[Violation]:
    """Fleet checks plus cross-table checks over all remaining inputs."""
    topology = bundle.topology()
    violations = validate_fleet(bundle.machines, bundle.power_samples, topology, bundle.gcu_usage)
    violations.extend(_non_finite(bundle))

    region_by_cluster: dict[str, str] = {}
    zone_by_cluster: dict[str, str] = {}
    for row in bundle.zone_map:
        if row.cluster_id in region_by_cluster and region_by_cluster[row.cluster_id] != row.region_id:
            violations.append(Violation("conflicting-region", row.cluster_id, "cluster mapped to two regions"))
        region_by_cluster.setdefault(row.cluster_id, row.region_id)
        if row.zone_id:
            if row.cluster_id in zone_by_cluster and zone_by_cluster[row.cluster_id] != row.zone_id:
                violations.append(Violation("conflicting-zone", row.cluster_id, "cluster mapped to two zones"))
            zone_by_cluster.setdefault(row.cluster_id, row.zone_id)

    for a in bundle.resource_allocations:
        v = a.allocation
        if min(v.gcu, v.ram_gib, v.ssd_tib, v.hdd_tib) < 0:
            violations.append(Violation("negative-value", a.user, f"resource allocation in {a.cluster_id!r}"))
        if a.cluster_id not in topology.clusters:
            violations.append(Violation("unknown-cluster", a.user, f"allocation in cluster {a.cluster_id!r}"))

    for su in bundle.service_usage:
        if su.consumer == su.provider:
            violations.append(Violation("self-service-usage", su.provider, "consumer equals provider"))
        v = su.usage
        if min(v.gcu, v.ram_gib, v.ssd_tib, v.hdd_tib) < 0:
            violations.append(Violation("negative-value", su.consumer, f"service usage of {su.provider!r}"))

    flags_by_provider: dict[str, set[bool]] = {}
    for su in bundle.service_usage:
        flags_by_provider.setdefault(su.provider, set()).add(su.colossus_style)
    for provider, flags in flags_by_provider.items():
        if len(flags) > 1:
            violations.append(Violation("mixed-service-style", provider, "provider flagged both storage-style and not"))

    # A second feed row for a key would silently replace the first.
    seen_pue: set[tuple[str, datetime]] = set()
    for p in bundle.pue:
        if (p.cluster_id, p.hour) in seen_pue:
            violations.append(
                Violation("duplicate-pue", p.cluster_id, f"second pue row for hour {format_hour(p.hour)}")
            )
        seen_pue.add((p.cluster_id, p.hour))
        if p.pue < 1.0:
            violations.append(Violation("pue-below-one", p.cluster_id, f"pue {p.pue} at {format_hour(p.hour)}"))
    seen_hourly: set[tuple[str, datetime]] = set()
    for ci in bundle.carbon_intensity:
        if (ci.zone_id, ci.hour) in seen_hourly:
            violations.append(
                Violation("duplicate-intensity", ci.zone_id, f"second hourly row for hour {format_hour(ci.hour)}")
            )
        seen_hourly.add((ci.zone_id, ci.hour))
        if ci.intensity_g_per_kwh < 0:
            violations.append(Violation("negative-value", ci.zone_id, f"hourly intensity {ci.intensity_g_per_kwh}"))
    seen_annual: set[tuple[str, int]] = set()
    for ai in bundle.annual_intensity:
        if (ai.zone_id, ai.year) in seen_annual:
            violations.append(Violation("duplicate-intensity", ai.zone_id, f"second annual row for year {ai.year}"))
        seen_annual.add((ai.zone_id, ai.year))
        if ai.intensity_g_per_kwh < 0:
            violations.append(Violation("negative-value", ai.zone_id, f"annual intensity {ai.intensity_g_per_kwh}"))
    for sku in bundle.sku_catalog:
        if sku.list_price_per_unit <= 0:
            violations.append(Violation("nonpositive-price", sku.sku_id, f"list price {sku.list_price_per_unit}"))
    sku_ids = {sku.sku_id for sku in bundle.sku_catalog}
    for bu in bundle.billing_usage:
        if bu.usage_units < 0:
            violations.append(Violation("negative-value", bu.sku_id, f"usage {bu.usage_units}"))
        if bu.sku_id not in sku_ids:
            violations.append(Violation("unknown-sku", bu.sku_id, "billing usage for SKU missing from catalog"))

    violations.sort(key=lambda v: (v.code, v.subject, v.detail))
    return violations
