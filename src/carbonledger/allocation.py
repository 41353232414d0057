"""Allocate machine idle and dynamic energy to users.

Idle energy of dedicated machines goes to the machine owner. Idle energy
of shared machines is split within each cluster-hour proportional to each
user's busy-power-weighted resource allocation. Dynamic energy is split
per machine-hour proportional to compute-unit usage.

The idle and the dynamic walk read the idle shares as flat arrays per
cluster-hour of the run's axes, and nothing the machine stage builds
keeps a Python object per allocation or usage row.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass, field
from datetime import datetime
from itertools import chain
from operator import add
from typing import Iterable, Iterator, Sequence

from .model import (
    RESOURCE_WEIGHTS,
    UNALLOCATED_USER,
    GcuUsageTable,
    MachineRecord,
    Notice,
    ResourceAllocationTable,
    Sharing,
    format_hour,
)
from .power import FleetSplit


LedgerKey = tuple[str, str, datetime]  # (user, cluster_id, hour)

STAGE_MACHINE = "machine"
STAGE_AFTER_MAJOR = "after_major_realloc"


def minor_round_stage(round_number: int) -> str:
    return f"after_minor_round_{round_number}"


class UserIndex(dict):
    """Axis position of each user; subscripting a user off the axis raises ``ValueError``."""

    __slots__ = ()

    def __missing__(self, user: str) -> int:
        raise ValueError(f"user {user!r} is not on the ledger's users axis")


class Axes:
    """The sorted users, clusters and hours of one run, and the cell ids they span.

    A cell ``(user, cluster, hour)`` is the int ``(u * C + c) * H + h``,
    where ``u``, ``c`` and ``h`` are positions on the axes and ``C`` and
    ``H`` their lengths. Ascending ids are therefore ascending
    ``(user, cluster, hour)`` keys, and ``cell % (C * H)`` is the cell's
    cluster-hour, ``c * H + h``. ``cluster_offset`` maps each cluster to
    its ``c * H``.
    """

    __slots__ = ("users", "clusters", "hours", "user_index", "cluster_offset", "hour_index", "span")

    def __init__(self, users: Iterable[str], clusters: Iterable[str], hours: Iterable[datetime]) -> None:
        self.users = sorted(set(users))
        self.clusters = sorted(set(clusters))
        self.hours = sorted(set(hours))
        self.user_index = UserIndex((user, u) for u, user in enumerate(self.users))
        hour_count = len(self.hours)
        self.cluster_offset = {cluster: c * hour_count for c, cluster in enumerate(self.clusters)}
        self.hour_index = {hour: h for h, hour in enumerate(self.hours)}
        #: Cells per user: every cluster-hour.
        self.span = len(self.clusters) * hour_count

    @property
    def size(self) -> int:
        """How many cell ids the axes span."""
        return len(self.users) * self.span

    def user_base(self, user: str) -> int:
        """Id of the user's first cell; adding a cluster-hour gives any of its cells."""
        return self.user_index[user] * self.span

    def cell(self, user: str, cluster: str, hour: datetime) -> int:
        return self.user_base(user) + self.cluster_offset[cluster] + self.hour_index[hour]

    def cluster_hour(self, ch: int) -> tuple[str, datetime]:
        """The (cluster, hour) of cluster-hour ``c * H + h``."""
        c, h = divmod(ch, len(self.hours))
        return self.clusters[c], self.hours[h]

    def key(self, cell: int) -> LedgerKey:
        u, ch = divmod(cell, self.span)
        cluster, hour = self.cluster_hour(ch)
        return self.users[u], cluster, hour


def machine_axes(split: FleetSplit, machines: Sequence[MachineRecord], *users: Iterable[str]) -> Axes:
    """Axes over the split's hours, the machines' clusters and every user a stage can credit.

    The users are the machine owners, the overhead user and every user
    named in ``users``.
    """
    owners = (m.owner_user for m in machines if m.owner_user)
    return Axes(
        chain((UNALLOCATED_USER,), owners, *users),
        (m.cluster_id for m in machines),
        (part.hour for part in split),
    )


#: Cell ids a run's axes may span: each id and row is a 4-byte signed int.
MAX_CELLS = 2**31


class CellIndex:
    """Row of every cell id of a run, and id of every row, in first-credited order.

    ``rows[cell]`` is the cell's row or -1 for a cell the index does not
    hold, and ``rows[cell] = row`` sets it. ``rows`` is one 4-byte
    ``array("i")`` slot per id the axes span, so a cell's row is found by
    one subscript however full the ledger is. ``ids`` is an ``array("i")``
    too: axes spanning ``MAX_CELLS`` ids or more are refused before
    anything is allocated, so every id and every row fits in 4 bytes.
    """

    __slots__ = ("axes", "ids", "rows")

    def __init__(self, axes: Axes) -> None:
        if axes.size >= MAX_CELLS:
            raise ValueError(f"axes span {axes.size} cell ids; a run holds fewer than {MAX_CELLS}")
        self.axes = axes
        self.ids = array("i")
        self.rows = array("i", [-1]) * axes.size

    def __len__(self) -> int:
        return len(self.ids)

    def in_id_order(self, count: int) -> Iterator[tuple[int, int]]:
        """(cell id, row) of the first ``count`` rows, in ascending id."""
        return ((cell, row) for cell, row in enumerate(self.rows) if 0 <= row < count)


@dataclass(slots=True)
class Ledger:
    """Idle and dynamic watt-hours per (user, cluster, hour) cell at one pipeline stage.

    The stages of a run share one append-only ``CellIndex``; a stage's
    cells are its first rows, as many as its columns hold, and row ``r``
    of its columns belongs to cell ``cells.ids[r]``. Stages credit the
    columns in place. Only the latest stage, the one no ``successor`` has
    ``superseded`` and whose rows end where the index does, may be
    credited or append cells.

    A superseded stage whose idle and dynamic Wh no reader needs apart may
    ``collapse``: ``total`` then holds ``idle + dynamic`` per row,
    ``user_totals`` what ``totals_by_user`` gave, and ``idle`` and
    ``dynamic`` are ``None``.
    """

    stage: str
    cells: CellIndex
    idle: array | None = field(default_factory=lambda: array("d"))
    dynamic: array | None = field(default_factory=lambda: array("d"))
    superseded: bool = field(default=False, init=False)
    total: array | None = field(default=None, init=False)
    user_totals: dict[str, float] | None = field(default=None, init=False)

    def rows(self) -> Iterator[tuple[LedgerKey, float, float]]:
        """(key, idle Wh, dynamic Wh) of every cell of this stage, in row order."""
        self._require_columns()
        return zip(map(self.cells.axes.key, self.cells.ids), self.idle, self.dynamic)

    def successor(self, stage: str, keep_idle: bool = False) -> Ledger:
        """The next stage over this one's cells; only the latest stage may start one.

        Its columns hold 0.0 per row, for the stage to credit its gains
        into, except that ``keep_idle`` starts its idle column as a copy of
        this one's.
        """
        self._require_latest()
        self.superseded = True
        rows = len(self.idle)
        idle = array("d", self.idle) if keep_idle else array("d", [0.0]) * rows
        return Ledger(stage, self.cells, idle, array("d", [0.0]) * rows)

    def add(self, cell: int) -> int:
        """Append a cell new to the index as a zero row of this stage; returns its row.

        Tests what ``_require_latest`` tests without calling it, since the
        stages call this once for every cell they append.
        """
        cells = self.cells
        if self.superseded or len(self.idle) != len(cells.ids):
            raise ValueError(f"{self.stage!r} is not the latest stage of its run")
        row = len(cells.ids)
        cells.rows[cell] = row
        cells.ids.append(cell)
        self.idle.append(0.0)
        self.dynamic.append(0.0)
        return row

    def row(self, cell: int) -> int:
        """Row of a cell, appending it as a zero row of this stage if it is new."""
        self._require_columns()
        row = self.cells.rows[cell]
        return row if row >= 0 else self.add(cell)

    def _require_latest(self) -> None:
        if self.superseded or len(self.idle) != len(self.cells):
            raise ValueError(f"{self.stage!r} is not the latest stage of its run")

    def _require_columns(self) -> None:
        if self.total is not None:
            raise ValueError(f"{self.stage!r} holds only its total Wh per cell")

    def row_totals(self) -> Iterable[float]:
        """``idle + dynamic`` Wh of every row of this stage, in row order."""
        return self.total if self.total is not None else map(add, self.idle, self.dynamic)

    def total_wh(self) -> float:
        return sum(self.row_totals())

    def totals_by_user(self) -> dict[str, float]:
        """Each user's Wh, summed as ``(sum + idle) + dynamic`` in row order; users in order of their first row."""
        if self.total is not None:
            return dict(self.user_totals)
        span, users = self.cells.axes.span, self.cells.axes.users
        sums: list[float | None] = [None] * len(users)
        first: list[int] = []
        for cell, idle, dynamic in zip(self.cells.ids, self.idle, self.dynamic):
            u = cell // span
            wh = sums[u]
            if wh is None:
                first.append(u)
                wh = 0.0
            sums[u] = wh + idle + dynamic
        return {users[u]: sums[u] for u in first}

    def collapse(self) -> None:
        """Keep one column of ``idle + dynamic`` per row instead of the two; only a superseded stage collapses.

        The per-user totals are summed first, from the two columns, since
        summing the total column would round them differently. The idle
        column then becomes the total column in place, so no third column
        is ever alive beside the two.
        """
        if not self.superseded:
            raise ValueError(f"{self.stage!r} is the latest stage of its run")
        self._require_columns()
        self.user_totals = self.totals_by_user()
        total = self.idle
        for row, dynamic_wh in enumerate(self.dynamic):
            total[row] += dynamic_wh
        self.total, self.idle, self.dynamic = total, None, None


def weighted_allocation(gcu: float, ram_gib: float, ssd_tib: float, hdd_tib: float) -> float:
    """Collapse the four quantities of a resource vector to a single busy-power-equivalent number."""
    return (
        RESOURCE_WEIGHTS.gcu * gcu
        + RESOURCE_WEIGHTS.ram_gib * ram_gib
        + RESOURCE_WEIGHTS.ssd_tib * ssd_tib
        + RESOURCE_WEIGHTS.hdd_tib * hdd_tib
    )


def idle_share_table(allocations: ResourceAllocationTable, axes: Axes) -> list[tuple[array, array] | None]:
    """Per cluster-hour ``c * H + h`` of ``axes``, its sharing users and their fractions.

    Entry ``ch`` is ``None`` when no allocation row there has a non-zero
    weight. Otherwise it is two flat sequences: an ``array("i")`` of the
    axis positions ``u`` of the users with a non-zero weight there, in the
    order of each user's first such row, and an ``array("d")`` of their
    fractions of the weighted allocation, which sum to 1; user ``u``'s
    cell is ``u * span + ch``. Weights are summed per user in row order.
    Rows whose cluster or hour is off the axes are skipped; a weighted row
    whose user is off them raises ``ValueError``.
    """
    span, user_index, cluster_offset, hour_index = axes.span, axes.user_index, axes.cluster_offset, axes.hour_index
    shares: list[tuple[array, array] | None] = [None] * span
    at = array("i", [-1]) * axes.size  # cell -> the user's position in its cluster-hour's entry, or -1
    weights = map(weighted_allocation, allocations.gcu, allocations.ram_gib, allocations.ssd_tib, allocations.hdd_tib)
    for user, cluster, hour, w in zip(allocations.user, allocations.cluster_id, allocations.hour, weights):
        if w == 0.0:
            continue
        offset, h = cluster_offset.get(cluster), hour_index.get(hour)
        if offset is None or h is None:
            continue
        ch = offset + h
        u = user_index[user]
        cell = u * span + ch
        entry = shares[ch]
        if entry is None:
            entry = shares[ch] = array("i"), array("d")
        i = at[cell]
        if i >= 0:
            entry[1][i] += w
        else:
            at[cell] = len(entry[0])
            entry[0].append(u)
            entry[1].append(w)
    for ch, entry in enumerate(shares):
        if entry is not None:
            users, sums = entry
            denom = sum(sums)
            shares[ch] = users, array("d", map(denom.__rtruediv__, sums))  # w / denom
    return shares


def allocate_idle(
    ledger: Ledger,
    split: FleetSplit,
    machines: Sequence[MachineRecord],
    allocations: ResourceAllocationTable,
) -> list[Notice]:
    """Credit idle watt-hours to the ledger's (user, cluster, hour) cells; returns the notices.

    Dedicated idle is credited as the split is walked; shared idle is
    summed per cluster-hour and then credited by the idle-share fractions.
    Shared idle in a cluster-hour with no weighted allocations anywhere
    falls back to the reserved unallocated-overhead user; dropping it
    would break conservation. Both credit loops look their cells up in the
    index themselves and call ``Ledger.add`` only for a cell new to it.
    """
    axes = ledger.cells.axes
    span = axes.span
    # machine id -> (c * H, the id of the idle owner's (cluster, first hour) cell or -1 when
    # shared, the idle rating)
    placed: dict[str, tuple[int, int, float]] = {}
    for m in machines:
        offset = axes.cluster_offset[m.cluster_id]
        owner = axes.user_base(m.owner_user or UNALLOCATED_USER) + offset if m.sharing is Sharing.DEDICATED else -1
        placed[m.machine_id] = offset, owner, m.idle_rating_watts
    shares = idle_share_table(allocations, axes)
    rows_of, idle = ledger.cells.rows, ledger.idle
    machine_ids, measured_watts = split.samples.machine_id, split.samples.measured_power_watts
    shared_totals: dict[int, float] = {}  # c * H + h -> shared idle Wh
    notices: list[Notice] = []

    for part in split:
        h = axes.hour_index[part.hour]
        for row in part.rows:
            offset, owner, rating = placed[machine_ids[row]]
            measured = measured_watts[row]
            watts = measured if measured < rating else rating  # power.idle_watts
            if owner >= 0:
                cell = owner + h
                at = rows_of[cell]
                if at < 0:
                    at = ledger.add(cell)
                idle[at] += watts
            else:
                ch = offset + h
                shared_totals[ch] = shared_totals.get(ch, 0.0) + watts

    for ch, total in shared_totals.items():
        if total == 0.0:
            continue
        entry = shares[ch]
        if entry is None:
            cluster, hour = axes.cluster_hour(ch)
            notices.append(Notice("unallocated-idle", cluster, f"no weighted allocations at {format_hour(hour)}"))
            idle[ledger.row(axes.user_base(UNALLOCATED_USER) + ch)] += total
            continue
        for u, fraction in zip(*entry):
            cell = u * span + ch
            at = rows_of[cell]
            if at < 0:
                at = ledger.add(cell)
            idle[at] += fraction * total
    return notices


def allocate_dynamic(
    ledger: Ledger,
    split: FleetSplit,
    machines: Sequence[MachineRecord],
    usage: GcuUsageTable,
    allocations: ResourceAllocationTable,
) -> list[Notice]:
    """Credit dynamic watt-hours to the ledger's (user, cluster, hour) cells; returns the notices.

    Per machine-hour, dynamic energy is split by each user's share of the
    machine's compute-unit usage. A machine-hour with dynamic energy but
    zero recorded usage keeps conservation intact: a dedicated machine's
    owner takes it, a shared machine falls back to the idle-allocation
    fractions (and then to the unallocated-overhead user).

    Usage rows are bucketed by hour once, as ``array("I")`` row numbers
    into the usage columns, and threaded by machine position one hour at a
    time through two 4-byte ``array("i")`` chains, so only one hour's
    threading is alive at any point and no row is an object. Usage rows
    naming a machine not in ``machines`` are never threaded.
    """
    axes = ledger.cells.axes
    position = {m.machine_id: p for p, m in enumerate(machines)}  # the last record of an id wins
    machine_ids, measured_watts = split.samples.machine_id, split.samples.measured_power_watts
    usage_users, usage_machines, gcu_used = usage.user, usage.machine_id, usage.gcu_used
    usage_by_hour: dict[datetime, array] = {}
    for row, (hour, gcu) in enumerate(zip(usage.hour, gcu_used)):
        if gcu <= 0.0:
            continue
        rows = usage_by_hour.get(hour)
        if rows is None:
            rows = usage_by_hour[hour] = array("I")
        rows.append(row)

    shares = idle_share_table(allocations, axes)
    span, cluster_offset = axes.span, axes.cluster_offset
    base_of = {user: u * span for user, u in axes.user_index.items()}
    rows_of, dynamic = ledger.cells.rows, ledger.dynamic
    notices: list[Notice] = []

    for part in split:
        hour = part.hour
        h = axes.hour_index[hour]
        rows = usage_by_hour.pop(hour, array("I"))
        # first[p] is the position in ``rows`` of machine p's first row this
        # hour, and after[i] that of the row after position i, or -1.
        first = array("i", [-1]) * len(machines)
        after = array("i", [-1]) * len(rows)
        for i in reversed(range(len(rows))):
            p = position.get(usage_machines[rows[i]])
            if p is not None:
                after[i] = first[p]
                first[p] = i
        for sample in part.rows:
            p = position[machine_ids[sample]]
            machine = machines[p]
            measured, rating = measured_watts[sample], machine.idle_rating_watts
            watts = measured - (measured if measured < rating else rating)  # measured - power.idle_watts
            if watts == 0.0:
                continue
            ch = cluster_offset[machine.cluster_id] + h
            i = first[p]
            if i >= 0:
                total, j = 0.0, i
                while j >= 0:
                    total += gcu_used[rows[j]]
                    j = after[j]
                while i >= 0:
                    row = rows[i]
                    cell = base_of[usage_users[row]] + ch
                    at = rows_of[cell]
                    if at < 0:
                        at = ledger.add(cell)
                    dynamic[at] += watts * (gcu_used[row] / total)
                    i = after[i]
                continue
            if machine.sharing is Sharing.DEDICATED and machine.owner_user:
                dynamic[ledger.row(base_of[machine.owner_user] + ch)] += watts
                continue
            entry = shares[ch]
            if entry is not None:
                for u, fraction in zip(*entry):
                    dynamic[ledger.row(u * span + ch)] += fraction * watts
            else:
                notices.append(
                    Notice("unallocated-dynamic", machine.machine_id, f"no usage or allocations at {format_hour(hour)}")
                )
                dynamic[ledger.row(base_of[UNALLOCATED_USER] + ch)] += watts
    return notices


def build_machine_ledger(
    split: FleetSplit,
    machines: Sequence[MachineRecord],
    allocations: ResourceAllocationTable,
    usage: GcuUsageTable,
    axes: Axes,
) -> tuple[Ledger, list[Notice]]:
    """Machine-stage ledger on the run's axes: idle plus dynamic, before any reallocation."""
    ledger = Ledger(STAGE_MACHINE, CellIndex(axes))
    notices = allocate_idle(ledger, split, machines, allocations)
    notices += allocate_dynamic(ledger, split, machines, usage, allocations)
    return ledger, notices
