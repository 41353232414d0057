"""CSV schemas for input bundles and report outputs.

CSV was chosen for diff-ability and language neutrality. Bundle I/O is
driven by one codec table, ``TABLES``: each input table maps to its
``Bundle`` field, its record type, and one column per record attribute,
each with the codec that formats and parses it. ``SCHEMAS`` (the headers)
is derived from that table, so headers cannot drift from the codecs.
Writers sort rows by their key columns and format numbers with shortest
round-trip precision, so identical data always serializes to identical
bytes. Readers reject any cell a codec cannot parse, NaN and infinities
included, with an ``InputError`` naming the file, line and column, and
any file that no longer matches its SHA-256 in ``manifest.json`` or
that the manifest does not list. Each entry also declares its table's
checks (key, bounds, references), which ``validate_bundle`` walks.

Caches live for one call only, so their memory goes with the call or
with the bundle it returns. ``read_bundle`` parses each file a chunk of
rows at a time, column by column, straight into the columns of the four
column tables (``power_samples``, ``resource_allocations``,
``gcu_usage`` and ``service_usage``, each CSV column one column of
its table) and into records for the other tables, and drops each chunk
before it reads the next; no row of a column table becomes a record on
read, write or validation. One call
parses each distinct hour string once, so equal hours are one object,
and stores equal ``TEXT`` and ``OPTIONAL`` cells once: a machine id
repeated on every power sample and usage row is one string shared by
every column and record that holds it.
``write_bundle`` formats each column, then sorts the rows, and formats
each distinct hour once. The two large report writers,
``write_user_energy`` and ``write_emissions``, stream their rows to the
file in ascending cell id, which is (user, cluster, hour) order, so
neither sorts: the first walks the final ledger's cells and reads every
stage's columns at each cell's row, and the second writes the emission
rows as ``EmissionsResult.rows`` derives them from the final ledger and
the per-cluster-hour PUE and intensity. Each decodes a row's id through
the run's axes and formats each distinct hour once. Report rounding
happens here at serialization time only.
"""

from __future__ import annotations

import csv
import functools
import hashlib
import json
import math
import sys
from array import array
from dataclasses import dataclass
from datetime import date
from itertools import islice
from operator import attrgetter
from pathlib import Path
from typing import Any, Callable, Iterable, Iterator, Sequence

from .errors import InputError
from .model import (
    AnnualIntensityRecord,
    Bundle,
    CarbonIntensityRecord,
    ColumnTable,
    GcuUsageRecord,
    MachineRecord,
    NetCostRecord,
    NonServiceCostRecord,
    PowerSample,
    PueRecord,
    ResourceAllocationRecord,
    ServiceUsageRecord,
    Sharing,
    SkuRecord,
    SkuUsageRecord,
    Violation,
    ZoneMapRow,
    format_hour,
    parse_hour,
)


SCHEMA_VERSION = 1
MANIFEST_NAME = "manifest.json"


def _fmt(value: float) -> str:
    return repr(float(value))


def _parse_float(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"non-finite number {text!r}")
    return value


def _parse_floats(cells: Sequence[str]) -> list[float]:
    """A column of numbers, parsed at once; a non-finite one raises as in ``_parse_float``."""
    values = list(map(float, cells))
    if not math.isfinite(sum(values)):  # a NaN or an infinity, or only an overflowing sum
        values = list(map(_parse_float, cells))
    return values


def _parse_bool(text: str) -> bool:
    if text in ("true", "True", "1"):
        return True
    if text in ("false", "False", "0", ""):
        return False
    raise ValueError(f"cannot parse boolean {text!r}")


@dataclass(frozen=True, slots=True)
class Codec:
    """How one kind of cell becomes text and back."""

    format: Callable[[Any], str]
    parse: Callable[[str], Any]


TEXT = Codec(str, str)
OPTIONAL = Codec(lambda value: value or "", lambda text: text or None)
FLOAT = Codec(_fmt, _parse_float)
INT = Codec(str, int)
BOOL = Codec(lambda value: "true" if value else "false", _parse_bool)
DAY = Codec(date.isoformat, date.fromisoformat)
SHARING = Codec(attrgetter("value"), Sharing)
HOUR = Codec(format_hour, parse_hour)  # memoized per read or write call


@dataclass(frozen=True, slots=True)
class Column:
    name: str
    codec: Codec = TEXT
    attribute: str = ""  # the record field and column-table slot it holds; the column name if empty
    #: The least a number may be, and the code a value below it raises (NaN is only non-finite).
    low: float | None = None
    below: str = "negative-value"
    #: (table, code): the ids of the table's first column are the valid values; any other raises the code.
    refers: tuple[str, str] | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "attribute", self.attribute or self.name)


@dataclass(frozen=True, slots=True)
class Table:
    """One bundle table: its ``Bundle`` field, record type, columns and checks.

    Columns follow the record's field order, one column per field.
    ``validate_bundle`` reads the checks: no two records may share the
    ``key`` columns (a repeat raises ``repeats``), and a violation names
    its record by the ``subject`` attribute, the first column's if empty.
    """

    field: str
    record: type
    columns: tuple[Column, ...]
    key: tuple[str, ...] = ()  # none, one or two column names
    repeats: str = ""
    subject: str = ""


HOUR_UTC = Column("hour_utc", HOUR, "hour")
DAY_UTC = Column("day_utc", DAY, "day")
G_PER_KWH = Column("g_per_kwh", FLOAT, "intensity_g_per_kwh", low=0.0)


#: A user's compute, RAM, SSD and HDD, as the resource records hold them.
RESOURCES = tuple(Column(name, FLOAT, low=0.0) for name in ("gcu", "ram_gib", "ssd_tib", "hdd_tib"))


TABLES: dict[str, Table] = {
    "machines": Table("machines", MachineRecord, (
        Column("machine_id"), Column("cluster_id", refers=("zone_map", "unknown-cluster")),
        Column("sharing", SHARING), Column("owner_user", OPTIONAL), Column("idle_rating_watts", FLOAT, low=0.0),
    ), key=("machine_id",), repeats="duplicate-machine"),
    "power_samples": Table("power_samples", PowerSample, (
        Column("machine_id", refers=("machines", "unknown-machine")), HOUR_UTC,
        Column("measured_power_watts", FLOAT, low=0.0),
    ), key=("machine_id", "hour_utc"), repeats="duplicate-sample"),
    "resource_allocations": Table("resource_allocations", ResourceAllocationRecord, (
        Column("user"), Column("cluster_id", refers=("zone_map", "unknown-cluster")), HOUR_UTC, *RESOURCES,
    )),
    "gcu_usage": Table("gcu_usage", GcuUsageRecord, (
        Column("user"), Column("machine_id", refers=("machines", "unknown-machine")), HOUR_UTC,
        Column("gcu_used", FLOAT, low=0.0),
    ), subject="machine_id"),
    "service_usage": Table("service_usage", ServiceUsageRecord, (
        Column("consumer"), Column("provider"), Column("cluster_id", refers=("zone_map", "unknown-cluster")), HOUR_UTC,
        *RESOURCES, Column("colossus_style", BOOL),
    )),
    "net_cost": Table("net_costs", NetCostRecord, (
        Column("user"), Column("service"), DAY_UTC, Column("net_cost", FLOAT),
    )),
    "non_service_cost": Table("non_service_costs", NonServiceCostRecord, (
        Column("user"), DAY_UTC, Column("cost", FLOAT),
    )),
    "pue": Table("pue", PueRecord, (
        Column("cluster_id"), HOUR_UTC, Column("pue", FLOAT, low=1.0, below="pue-below-one"),
    ), key=("cluster_id", "hour_utc"), repeats="duplicate-pue"),
    "carbon_intensity": Table("carbon_intensity", CarbonIntensityRecord, (
        Column("zone_id"), HOUR_UTC, G_PER_KWH,
    ), key=("zone_id", "hour_utc"), repeats="duplicate-intensity"),
    "annual_intensity": Table("annual_intensity", AnnualIntensityRecord, (
        Column("zone_id"), Column("year", INT), G_PER_KWH,
    ), key=("zone_id", "year"), repeats="duplicate-intensity"),
    "zone_map": Table("zone_map", ZoneMapRow, (Column("cluster_id"), Column("zone_id", OPTIONAL), Column("region_id"))),
    "sku_catalog": Table("sku_catalog", SkuRecord, (
        Column("sku_id"), Column("product_id"), Column("provider_user"),
        Column("list_price_per_unit", FLOAT, low=math.ulp(0.0), below="nonpositive-price"),  # least positive float
        Column("usage_unit"), Column("is_commitment", BOOL),
    ), key=("sku_id",), repeats="duplicate-sku"),
    "billing_usage": Table("billing_usage", SkuUsageRecord, (
        Column("sku_id", refers=("sku_catalog", "unknown-sku")), Column("region_id"),
        Column("billing_account", OPTIONAL), Column("month"), Column("usage_units", FLOAT, low=0.0),
    )),
}

SCHEMAS: dict[str, tuple[str, ...]] = {
    name: tuple(column.name for column in table.columns) for name, table in TABLES.items()
}

REQUIRED_TABLES = ("machines", "power_samples", "zone_map")


def _values(records: Sequence, attribute: str) -> Iterable:
    """One column of a table in row order: a column table's own, or read off each record."""
    if isinstance(records, ColumnTable):
        return getattr(records, attribute)
    return map(attrgetter(attribute), records)


def _repeated_keys(records: Sequence, attributes: Sequence[str]) -> Iterator[tuple[int, tuple]]:
    """Each row whose key values an earlier row holds, with those values, in key column order.

    A one-column key is checked against one set of its values. A
    two-column key buckets row numbers by its second column, 4 bytes a row
    in an ``array("I")``, and checks one bucket at a time against one set
    of the first column's values. A bucket's rows ascend, so the first row
    of each key is never the one flagged, and no tuple is made per row.
    """
    if len(attributes) == 1:
        seen = set()
        for row, value in enumerate(_values(records, attributes[0])):
            if value in seen:
                yield row, (value,)
            seen.add(value)
        return
    first, second = attributes
    buckets: dict[Any, array] = {}
    for row, value in enumerate(_values(records, second)):
        bucket = buckets.get(value)
        if bucket is None:
            bucket = buckets[value] = array("I")
        bucket.append(row)
    column = _values(records, first)
    if not isinstance(records, ColumnTable):  # a record table's column, made indexable by row
        column = list(column)
    for value, rows in buckets.items():
        seen = set()
        for row, other in zip(rows, map(column.__getitem__, rows)):
            if other in seen:
                yield row, (other, value)
            seen.add(other)


def validate_bundle(bundle: Bundle) -> list[Violation]:
    """Every violation in a bundle: violations are data, not failures.

    Each table's declared key, bounds and references are checked, and
    every ``FLOAT`` cell must be finite. Only the rules that span two
    fields or two records are written out below. The list is sorted, so
    it does not depend on record order.
    """
    violations: list[Violation] = []

    @functools.cache
    def ids(name: str) -> set:
        table = TABLES[name]
        return set(_values(getattr(bundle, table.field), table.columns[0].attribute))

    for table in TABLES.values():
        records = getattr(bundle, table.field)
        subject = attrgetter(table.subject or table.columns[0].attribute)

        def flag(code: str, row: int, detail: str) -> None:
            violations.append(Violation(code, subject(records[row]), f"{table.field} {detail}"))

        if table.key:
            key_columns = [column for column in table.columns if column.name in table.key]
            for row, value in _repeated_keys(records, [column.attribute for column in key_columns]):
                shown = ", ".join(column.codec.format(v) for column, v in zip(key_columns, value))
                flag(table.repeats, row, f"repeats key ({shown})")
        for column in table.columns:
            if column.codec is FLOAT:
                low = -sys.float_info.max if column.low is None else column.low
                for row, value in enumerate(_values(records, column.attribute)):
                    if low <= value < math.inf:  # nearly every value: one comparison clears it
                        continue
                    if not math.isfinite(value):
                        flag("non-finite-value", row, f"{column.attribute} is {value}")
                    if column.low is not None and value < low:
                        flag(column.below, row, f"{column.attribute} is {value}")
            if column.refers:
                target, code = column.refers
                known = ids(target)
                for row, value in enumerate(_values(records, column.attribute)):
                    if value not in known:
                        flag(code, row, f"{column.attribute} {value!r} not in {target}")

    for m in bundle.machines:
        if m.sharing is Sharing.DEDICATED and not m.owner_user:
            violations.append(Violation("missing-owner", m.machine_id, "dedicated machine has no owner"))
        if m.sharing is Sharing.SHARED and m.owner_user:
            detail = f"shared machine names owner {m.owner_user!r}"
            violations.append(Violation("owner-on-shared", m.machine_id, detail))

    def conflicts(code: str, pairs: Iterable[tuple[str, Any]], detail: str) -> None:
        """Flag once each subject paired with more than one value."""
        values: dict[str, set] = {}
        for subject, value in pairs:
            values.setdefault(subject, set()).add(value)
        violations.extend(Violation(code, subject, detail) for subject, found in values.items() if len(found) > 1)

    zones = bundle.zone_map
    conflicts("conflicting-region", ((r.cluster_id, r.region_id) for r in zones), "cluster mapped to two regions")
    conflicts(
        "conflicting-zone", ((r.cluster_id, r.zone_id) for r in zones if r.zone_id), "cluster mapped to two zones",
    )
    usage = bundle.service_usage
    conflicts(
        "mixed-service-style", zip(usage.provider, usage.colossus_style), "provider flagged both storage-style and not",
    )
    violations.extend(
        Violation("self-service-usage", provider, "consumer equals provider")
        for consumer, provider in zip(usage.consumer, usage.provider)
        if consumer == provider
    )

    violations.sort(key=attrgetter("code", "subject", "detail"))
    return violations


def quantize(value: float, step: float) -> float:
    """Round to a multiple of ``step``; a step of 0 disables rounding."""
    if step <= 0.0:
        return value
    return round(value / step) * step


def _write_csv(path: Path, header: Sequence[str], rows: Iterable[Sequence[str]]) -> None:
    with path.open("w", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def _sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with path.open("rb") as handle:
        for chunk in iter(lambda: handle.read(1 << 16), b""):
            digest.update(chunk)
    return digest.hexdigest()


def write_bundle(bundle: Bundle, directory: Path, manifest_extra: dict | None = None) -> Path:
    """Serialize every input table plus a manifest with content hashes."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    hour = functools.cache(format_hour)
    for name, table in TABLES.items():
        records = getattr(bundle, table.field)
        formatted = [map(hour if c.codec is HOUR else c.codec.format, _values(records, c.attribute))
                     for c in table.columns]
        _write_csv(directory / f"{name}.csv", SCHEMAS[name], sorted(zip(*formatted)))

    hashes = {f"{table}.csv": _sha256(directory / f"{table}.csv") for table in sorted(SCHEMAS)}
    manifest = {"schema_version": SCHEMA_VERSION, "files": hashes}
    manifest.update(manifest_extra or {})
    manifest_path = directory / MANIFEST_NAME
    manifest_path.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    return manifest_path


#: Rows parsed at a time: each chunk is parsed column by column, and only one chunk of text is held.
CHUNK_ROWS = 1024


def _read_table(
    path: Path, table: Table, header: tuple[str, ...], per_read: dict[Codec, Callable], into: list | ColumnTable,
) -> None:
    """Parse ``path`` into ``into``: a column table's columns, or a list of records.

    ``per_read`` maps a codec to a parser of a whole chunk of one column's
    cells; any other codec parses cell by cell.
    """
    parsers = [per_read.get(c.codec) or functools.partial(map, c.codec.parse) for c in table.columns]
    width = len(parsers)
    if isinstance(into, ColumnTable):
        columns = [_values(into, c.attribute) for c in table.columns]

        def add(parsed: list) -> None:
            for column, values in zip(columns, parsed):
                column.extend(values)
    else:
        def add(parsed: list) -> None:
            into.extend(map(table.record, *parsed))

    with path.open(newline="") as handle:
        reader = csv.reader(handle)
        found = next(reader, [])
        if tuple(found) != header:
            raise InputError(f"{path.name}: header {found} does not match schema {list(header)}")
        try:
            while chunk := list(islice(reader, CHUNK_ROWS)):
                if not {0, width}.issuperset(map(len, chunk)):  # blank lines are skipped
                    raise ValueError("a row has the wrong number of cells")
                if parsed := [parse(cells) for parse, cells in zip(parsers, zip(*filter(None, chunk)))]:
                    add(parsed)
                del chunk, parsed  # before the next chunk is read, so only one is alive
        except ValueError as exc:
            _raise_at_first_bad_row(path, table)
            raise InputError(f"{path.name}: {exc}") from None


def _raise_at_first_bad_row(path: Path, table: Table) -> None:
    """Re-read ``path`` cell by cell and raise an ``InputError`` naming the first bad line and column."""
    with path.open(newline="") as handle:
        reader = csv.reader(handle)
        next(reader, None)
        for row in reader:
            where = f"{path.name} line {reader.line_num}"
            for column, text in zip(table.columns, row):
                try:
                    column.codec.parse(text)
                except ValueError as exc:
                    raise InputError(f"{where}, column {column.name}: {exc}") from None
            if row and len(row) != len(table.columns):
                raise InputError(f"{where}: {len(row)} cells where the schema has {len(table.columns)}")


def _check_manifest(directory: Path) -> None:
    """Every file ``manifest.json`` lists must exist and match its SHA-256, and every table file must be listed.

    A bundle without a manifest passes.
    """
    path = directory / MANIFEST_NAME
    if not path.exists():
        return
    try:
        listed = dict(json.loads(path.read_text())["files"])
    except (ValueError, TypeError, KeyError) as exc:
        raise InputError(f"{MANIFEST_NAME} in {directory} is unreadable: {exc!r}") from None
    for name, digest in sorted(listed.items()):
        if not (directory / name).is_file():
            raise InputError(f"{name}, listed in {MANIFEST_NAME}, is missing from {directory}")
        if _sha256(directory / name) != digest:
            raise InputError(f"{name} does not match its SHA-256 in {MANIFEST_NAME}")
    for name in TABLES:
        if f"{name}.csv" not in listed and (directory / f"{name}.csv").is_file():
            raise InputError(f"{name}.csv is in {directory} but not listed in {MANIFEST_NAME}")


def read_bundle(directory: Path) -> Bundle:
    """Load a bundle directory; non-required tables may be absent.

    If the directory holds a ``manifest.json``, every file it lists is
    checked against its SHA-256 first, and a table file it does not list
    is refused, since no hash vouches for it.
    """
    directory = Path(directory)
    for name in REQUIRED_TABLES:
        if not (directory / f"{name}.csv").exists():
            raise InputError(f"required input file {name}.csv missing from {directory}")
    _check_manifest(directory)
    # Equal text cells, across all tables, become one string object.
    share = {}.setdefault
    hour = functools.cache(parse_hour)
    per_read = {
        HOUR: functools.partial(map, hour),
        TEXT: lambda cells: map(share, cells, cells),
        OPTIONAL: lambda cells: [share(text, text) or None for text in cells],
        FLOAT: _parse_floats,
    }
    bundle = Bundle()
    for name, table in TABLES.items():
        path = directory / f"{name}.csv"
        if path.exists():
            _read_table(path, table, SCHEMAS[name], per_read, getattr(bundle, table.field))
    return bundle


def write_validation_report(violations: Sequence[Violation], path: Path) -> None:
    _write_csv(Path(path), ("code", "subject", "detail"), [(v.code, v.subject, v.detail) for v in violations])


def write_oracle_diff(diffs, path: Path) -> None:
    rows = [(d.table, d.key, repr(d.pipeline), repr(d.oracle), repr(d.deviation)) for d in diffs]
    _write_csv(Path(path), ("table", "key", "pipeline", "oracle", "deviation"), rows)


def write_user_energy(stages, path: Path, energy_step: float = 1.0) -> None:
    """Final ledger with one total column per pipeline stage, in ascending cell id.

    The stages share one cell index and each holds a prefix of its rows,
    so the final stage's cells are every stage's cells. A stage's column
    is its ``total``, or ``idle + dynamic`` where it keeps the two apart.
    """
    final = stages[-1]
    columns = [(s.total, None) if s.total is not None else (s.idle, s.dynamic) for s in stages]
    key = final.cells.axes.key
    header = ["user", "cluster_id", "hour_utc", "idle_wh", "dynamic_wh"]
    header.extend(f"{ledger.stage}_wh" for ledger in stages)
    hour = functools.cache(format_hour)

    def wh(value: float) -> str:
        return _fmt(quantize(value, energy_step))

    def rows():
        for cell, row in final.cells.in_id_order(len(final.idle)):
            user, cluster, at = key(cell)
            yield (
                user, cluster, hour(at), wh(final.idle[row]), wh(final.dynamic[row]),
                *(wh(0.0 if row >= len(a) else a[row] if b is None else a[row] + b[row]) for a, b in columns),
            )

    _write_csv(Path(path), header, rows())


def write_emissions(emissions, path: Path, energy_step: float = 1.0, carbon_step_g: float = 1.0) -> None:
    """Every emission row, in the ascending-id, (user, cluster, hour) order the result derives them in."""
    hour = functools.cache(format_hour)
    rows = (
        (
            user, cluster, hour(at),
            _fmt(quantize(it_wh, energy_step)),
            _fmt(quantize(total_wh, energy_step)),
            _fmt(quantize(kg, carbon_step_g / 1000.0)),
            source.value,
        )
        for (user, cluster, at), it_wh, total_wh, kg, source in emissions.rows()
    )
    _write_csv(
        Path(path),
        ("user", "cluster_id", "hour_utc", "energy_it_wh", "energy_total_wh", "kg_co2e", "intensity_source"),
        rows,
    )


def write_footprints(reports, path: Path, carbon_step_g: float = 1.0) -> None:
    rows = [
        (
            r.billing_account, r.product_id, r.region_id, r.month,
            _fmt(quantize(r.kg_co2e, carbon_step_g / 1000.0)), _fmt(r.beta),
        )
        for r in sorted(reports, key=lambda r: (r.billing_account, r.product_id, r.region_id, r.month))
    ]
    _write_csv(
        Path(path),
        ("billing_account", "product_id", "region_id", "month", "kg_co2e", "beta"),
        rows,
    )


def write_flow_summary(stages, path: Path, energy_step: float = 1.0) -> None:
    """Per-stage per-user totals plus one TOTAL row per stage.

    The TOTAL rows carry the same energy at every stage: reallocation
    moves energy between users, never in or out of the system.
    """
    rows: list[tuple[str, str, str]] = []
    for ledger in stages:
        totals = ledger.totals_by_user()
        for user in sorted(totals):
            rows.append((ledger.stage, user, _fmt(quantize(totals[user], energy_step))))
        rows.append((ledger.stage, "TOTAL", _fmt(quantize(sum(totals.values()), energy_step))))
    _write_csv(Path(path), ("stage", "user", "energy_wh"), rows)
