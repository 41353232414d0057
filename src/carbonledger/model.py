"""Core domain model: fleet entities, feeds, zone map, violations and notices.

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

from array import array
from collections.abc import Sequence
from dataclasses import dataclass, field, fields
from datetime import date, datetime, timedelta, timezone
from enum import Enum
from itertools import compress
from operator import attrgetter, index
from typing import Any, Callable, ClassVar, Iterable, Iterator

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
class ResourceAllocationRecord:
    """Resources reserved by a user in a cluster-hour, one field per resource type.

    Major shared-service allocations are assumed to be already attributed
    to end users in this input, so idle allocation needs no reallocation
    pass of its own.
    """

    user: str
    cluster_id: str
    hour: datetime
    gcu: float = 0.0
    ram_gib: float = 0.0
    ssd_tib: float = 0.0
    hdd_tib: float = 0.0


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


@dataclass(frozen=True, slots=True)
class ServiceUsageRecord:
    """A consumer's resource usage on a provider's shared service, one field per resource type."""

    consumer: str
    provider: str
    cluster_id: str
    hour: datetime
    gcu: float = 0.0
    ram_gib: float = 0.0
    ssd_tib: float = 0.0
    hdd_tib: float = 0.0
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


def column_names(record: type) -> tuple[str, ...]:
    """A column table's slots: the record's field names, in order."""
    return tuple(f.name for f in fields(record))


class ColumnTable(Sequence):
    """Records of one type, stored one column per record field.

    A subclass names its ``record`` type and takes ``column_names(record)``
    as its slots, so each column is an attribute named after its field:
    an ``array("d")`` for a ``float`` field and a list otherwise. A row
    then costs a few pointers and doubles instead of an object. The table
    reads as a sequence of records, each built on access; hot paths zip
    the columns instead. It grows by ``append`` (a record) or
    ``extend`` (rows of cells) and narrows by ``where``, which copies the
    kept rows into a new table. It equals only a table of its own type.
    """

    __slots__ = ()
    record: ClassVar[type]
    #: A record's cells in column order.
    cells: ClassVar[Callable[[Any], tuple]]

    def __init_subclass__(cls) -> None:
        super().__init_subclass__()
        cls.cells = staticmethod(attrgetter(*cls.__slots__))

    def __init__(self, records: Iterable = ()) -> None:
        floats = {f.name for f in fields(self.record) if f.type in ("float", float)}
        for name in self.__slots__:
            setattr(self, name, array("d") if name in floats else [])
        self.extend(map(self.cells, records))

    def columns(self) -> list:
        return [getattr(self, name) for name in self.__slots__]

    def __len__(self) -> int:
        return len(getattr(self, self.__slots__[0]))

    def __iter__(self) -> Iterator:
        return map(self.record, *self.columns())

    def __getitem__(self, row: int):
        row = index(row)  # a slice is no row
        return self.record(*[column[row] for column in self.columns()])

    def append(self, record) -> None:
        self.extend([self.cells(record)])

    def extend(self, rows: Iterable[tuple]) -> None:
        """Append rows, each given as its cells in column order; no record is built.

        A batch whose shortest row has fewer cells than the table has
        columns raises ``ValueError`` and leaves the table unchanged.
        """
        rows = tuple(rows)  # what ``zip(*rows)`` would build anyway
        columns, before = self.columns(), len(self)
        filled = 0
        for column, cells in zip(columns, zip(*rows)):
            column.extend(cells)
            filled += 1
        if rows and filled < len(columns):
            for column in columns[:filled]:
                del column[before:]
            raise ValueError(f"{type(self).__name__} rows need {len(columns)} cells; one has {filled}")

    def where(self, keep: Sequence[bool]) -> ColumnTable:
        """The rows whose ``keep`` entry is true, in order, in a new table of this type."""
        part = type(self)()
        for column, kept in zip(self.columns(), part.columns()):
            kept.extend(compress(column, keep))
        return part

    def __eq__(self, other: object) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return self.columns() == other.columns()

    def __repr__(self) -> str:
        return f"{type(self).__name__}({list(self)!r})"


class PowerSampleTable(ColumnTable):
    record = PowerSample
    __slots__ = column_names(PowerSample)


class ResourceAllocationTable(ColumnTable):
    record = ResourceAllocationRecord
    __slots__ = column_names(ResourceAllocationRecord)


class GcuUsageTable(ColumnTable):
    record = GcuUsageRecord
    __slots__ = column_names(GcuUsageRecord)


class ServiceUsageTable(ColumnTable):
    record = ServiceUsageRecord
    __slots__ = column_names(ServiceUsageRecord)


@dataclass(slots=True)
class Bundle:
    """Every input table a pipeline run consumes.

    ``power_samples``, ``resource_allocations``, ``gcu_usage`` and
    ``service_usage`` are column tables; records given for any of them, at
    construction or by assignment, are stored as columns.
    """

    machines: list[MachineRecord] = field(default_factory=list)
    power_samples: PowerSampleTable = field(default_factory=PowerSampleTable)
    resource_allocations: ResourceAllocationTable = field(default_factory=ResourceAllocationTable)
    gcu_usage: GcuUsageTable = field(default_factory=GcuUsageTable)
    service_usage: ServiceUsageTable = field(default_factory=ServiceUsageTable)
    net_costs: list[NetCostRecord] = field(default_factory=list)
    non_service_costs: list[NonServiceCostRecord] = field(default_factory=list)
    pue: list[PueRecord] = field(default_factory=list)
    carbon_intensity: list[CarbonIntensityRecord] = field(default_factory=list)
    annual_intensity: list[AnnualIntensityRecord] = field(default_factory=list)
    zone_map: list[ZoneMapRow] = field(default_factory=list)
    sku_catalog: list[SkuRecord] = field(default_factory=list)
    billing_usage: list[SkuUsageRecord] = field(default_factory=list)

    def __setattr__(self, name: str, value: Any) -> None:
        table = _COLUMN_TABLES.get(name)
        if table is not None and type(value) is not table:
            value = table(value)
        object.__setattr__(self, name, value)


_COLUMN_TABLES = {
    "power_samples": PowerSampleTable,
    "resource_allocations": ResourceAllocationTable,
    "gcu_usage": GcuUsageTable,
    "service_usage": ServiceUsageTable,
}


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
