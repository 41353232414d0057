"""Allocate machine idle and dynamic energy to users.

Idle energy of dedicated machines goes to the machine owner. Idle energy
of shared machines is split within each cluster-hour proportional to each
user's busy-power-weighted resource allocation. Dynamic energy is split
per machine-hour proportional to compute-unit usage.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass, field
from datetime import datetime
from typing import Iterator, Sequence

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


@dataclass(slots=True)
class Ledger:
    """Idle and dynamic watt-hours per (user, cluster, hour) at one pipeline stage.

    The stages of a run share one append-only key index, ``cells`` (key →
    row); a stage's cells are the first ``len(idle)`` keys. Only the latest
    stage, the one no ``copy`` has ``superseded``, may append keys.
    """

    stage: str
    cells: dict[LedgerKey, int] = field(default_factory=dict)
    idle: array = field(default_factory=lambda: array("d"))
    dynamic: array = field(default_factory=lambda: array("d"))
    superseded: bool = field(default=False, init=False)

    def rows(self) -> Iterator[tuple[LedgerKey, float, float]]:
        """(key, idle Wh, dynamic Wh) of every cell of this stage, in row order."""
        return zip(self.cells, self.idle, self.dynamic)

    def copy(self, stage: str) -> Ledger:
        """The next stage, starting from this one's cells; only the latest stage may start one."""
        self._require_latest()
        self.superseded = True
        return Ledger(stage, self.cells, array("d", self.idle), array("d", self.dynamic))

    def credit(self, key: LedgerKey, idle_wh: float, dynamic_wh: float) -> None:
        """Add to a cell, appending it to the key index if it is new."""
        row = self.cells.get(key)
        if row is not None and row < len(self.idle):
            self.idle[row] += idle_wh
            self.dynamic[row] += dynamic_wh
            return
        self._require_latest()
        self.cells[key] = len(self.idle)
        self.idle.append(idle_wh)
        self.dynamic.append(dynamic_wh)

    def _require_latest(self) -> None:
        if self.superseded or len(self.idle) != len(self.cells):
            raise ValueError(f"{self.stage!r} is not the latest stage of its run")

    def total_wh(self) -> float:
        return sum(idle + dynamic for idle, dynamic in zip(self.idle, self.dynamic))

    def totals_by_user(self) -> dict[str, float]:
        out: dict[str, float] = {}
        for (user, _, _), idle, dynamic in self.rows():
            out[user] = out.get(user, 0.0) + idle + dynamic
        return out


def weighted_allocation(gcu: float, ram_gib: float, ssd_tib: float, hdd_tib: float) -> float:
    """Collapse the four quantities of a resource vector to a single busy-power-equivalent number."""
    return (
        RESOURCE_WEIGHTS.gcu * gcu
        + RESOURCE_WEIGHTS.ram_gib * ram_gib
        + RESOURCE_WEIGHTS.ssd_tib * ssd_tib
        + RESOURCE_WEIGHTS.hdd_tib * hdd_tib
    )


def idle_share_table(allocations: ResourceAllocationTable) -> dict[tuple[str, datetime], dict[str, float]]:
    """Per cluster-hour, each user's fraction of the weighted allocation.

    Cluster-hours whose weighted total is zero are absent from the result.
    Fractions over the present users sum to 1.
    """
    weights = map(weighted_allocation, allocations.gcu, allocations.ram_gib, allocations.ssd_tib, allocations.hdd_tib)
    sums: dict[tuple[str, datetime], dict[str, float]] = {}
    for key, user, w in zip(zip(allocations.cluster_id, allocations.hour), allocations.user, weights):
        if w == 0.0:
            continue
        per_user = sums.setdefault(key, {})
        per_user[user] = per_user.get(user, 0.0) + w
    fractions: dict[tuple[str, datetime], dict[str, float]] = {}
    for key, per_user in sums.items():
        denom = sum(per_user.values())
        fractions[key] = {user: w / denom for user, w in per_user.items()}
    return fractions


def allocate_idle(
    split: FleetSplit,
    machines: Sequence[MachineRecord],
    allocations: ResourceAllocationTable,
) -> tuple[dict[LedgerKey, float], list[Notice]]:
    """Idle watt-hours per (user, cluster, hour).

    Shared idle in a cluster-hour with no weighted allocations anywhere
    falls back to the reserved unallocated-overhead user; dropping it
    would break conservation.
    """
    by_id = {m.machine_id: m for m in machines}
    fractions = idle_share_table(allocations)
    idle: dict[LedgerKey, float] = {}
    shared_totals: dict[tuple[str, datetime], float] = {}
    notices: list[Notice] = []

    for part in split:
        hour = part.hour
        for machine_id, watts in zip(part.machine_ids, part.idle_watts):
            machine = by_id[machine_id]
            if machine.sharing is Sharing.DEDICATED:
                key = (machine.owner_user or UNALLOCATED_USER, machine.cluster_id, hour)
                idle[key] = idle.get(key, 0.0) + watts
            else:
                ch = (machine.cluster_id, hour)
                shared_totals[ch] = shared_totals.get(ch, 0.0) + watts

    for (cluster, hour), total in shared_totals.items():
        if total == 0.0:
            continue
        per_user = fractions.get((cluster, hour))
        if not per_user:
            notices.append(
                Notice("unallocated-idle", cluster, f"no weighted allocations at {format_hour(hour)}")
            )
            key = (UNALLOCATED_USER, cluster, hour)
            idle[key] = idle.get(key, 0.0) + total
            continue
        for user, fraction in per_user.items():
            key = (user, cluster, hour)
            idle[key] = idle.get(key, 0.0) + fraction * total
    return idle, notices


def allocate_dynamic(
    split: FleetSplit,
    machines: Sequence[MachineRecord],
    usage: GcuUsageTable,
    allocations: ResourceAllocationTable,
) -> tuple[dict[LedgerKey, float], list[Notice]]:
    """Dynamic watt-hours per (user, cluster, hour).

    Per machine-hour, dynamic energy is split by each user's share of the
    machine's compute-unit usage. A machine-hour with dynamic energy but
    zero recorded usage keeps conservation intact: a dedicated machine's
    owner takes it, a shared machine falls back to the idle-allocation
    fractions (and then to the unallocated-overhead user).

    Usage rows are bucketed by hour once, as ``array("q")`` row numbers
    into the usage columns, and threaded by machine one hour at a time, so
    only one hour's threading is alive at any point and no row is an object.
    """
    by_id = {m.machine_id: m for m in machines}
    usage_users, usage_machines, gcu_used = usage.user, usage.machine_id, usage.gcu_used
    usage_by_hour: dict[datetime, array] = {}
    for row, (hour, gcu) in enumerate(zip(usage.hour, gcu_used)):
        if gcu <= 0.0:
            continue
        rows = usage_by_hour.get(hour)
        if rows is None:
            rows = usage_by_hour[hour] = array("q")
        rows.append(row)

    fractions = idle_share_table(allocations)
    dynamic: dict[LedgerKey, float] = {}
    notices: list[Notice] = []

    for part in split:
        hour = part.hour
        rows = usage_by_hour.pop(hour, array("q"))
        # first[machine] is the position in ``rows`` of the machine's first
        # row this hour, and after[i] that of the row after position i, or -1.
        first: dict[str, int] = {}
        after = array("q", rows)
        for i in reversed(range(len(rows))):
            machine_id = usage_machines[rows[i]]
            after[i] = first.get(machine_id, -1)
            first[machine_id] = i
        for machine_id, watts in zip(part.machine_ids, part.dynamic_watts):
            if watts == 0.0:
                continue
            machine = by_id[machine_id]
            cluster = machine.cluster_id
            i = first.get(machine_id, -1)
            if i >= 0:
                total, j = 0.0, i
                while j >= 0:
                    total += gcu_used[rows[j]]
                    j = after[j]
                while i >= 0:
                    row = rows[i]
                    key = (usage_users[row], cluster, hour)
                    dynamic[key] = dynamic.get(key, 0.0) + watts * (gcu_used[row] / total)
                    i = after[i]
                continue
            if machine.sharing is Sharing.DEDICATED and machine.owner_user:
                key = (machine.owner_user, cluster, hour)
                dynamic[key] = dynamic.get(key, 0.0) + watts
                continue
            per_user = fractions.get((cluster, hour))
            if per_user:
                for user, fraction in per_user.items():
                    key = (user, cluster, hour)
                    dynamic[key] = dynamic.get(key, 0.0) + fraction * watts
            else:
                notices.append(
                    Notice("unallocated-dynamic", machine_id, f"no usage or allocations at {format_hour(hour)}")
                )
                key = (UNALLOCATED_USER, cluster, hour)
                dynamic[key] = dynamic.get(key, 0.0) + watts
    return dynamic, notices


def build_machine_ledger(
    split: FleetSplit,
    machines: Sequence[MachineRecord],
    allocations: ResourceAllocationTable,
    usage: GcuUsageTable,
) -> tuple[Ledger, list[Notice]]:
    """Machine-stage ledger: idle plus dynamic, before any reallocation."""
    idle, idle_notices = allocate_idle(split, machines, allocations)
    dynamic, dyn_notices = allocate_dynamic(split, machines, usage, allocations)
    ledger = Ledger(STAGE_MACHINE)
    for key, wh in idle.items():
        ledger.credit(key, wh, 0.0)
    for key, wh in dynamic.items():
        ledger.credit(key, 0.0, wh)
    return ledger, [*idle_notices, *dyn_notices]
