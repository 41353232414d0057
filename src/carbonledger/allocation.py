"""Allocate machine idle and dynamic energy to users.

Idle energy of dedicated machines goes to the machine owner. Idle energy
of shared machines is split within each cluster-hour proportional to each
user's busy-power-weighted resource allocation. Dynamic energy is split
per machine-hour proportional to compute-unit usage.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from datetime import datetime
from typing import Sequence

from .model import (
    RESOURCE_WEIGHTS,
    UNALLOCATED_USER,
    GcuUsageRecord,
    MachineRecord,
    Notice,
    ResourceAllocationRecord,
    ResourceVector,
    Sharing,
    format_hour,
)
from .power import FleetSplit

log = logging.getLogger(__name__)

LedgerKey = tuple[str, str, datetime]  # (user, cluster_id, hour)

STAGE_MACHINE = "machine"
STAGE_AFTER_MAJOR = "after_major_realloc"


def minor_round_stage(round_number: int) -> str:
    return f"after_minor_round_{round_number}"


@dataclass(frozen=True, slots=True)
class EnergyCell:
    """Idle and dynamic watt-hours of one (user, cluster, hour)."""

    idle_wh: float = 0.0
    dynamic_wh: float = 0.0

    @property
    def total_wh(self) -> float:
        return self.idle_wh + self.dynamic_wh


@dataclass(slots=True)
class Ledger:
    """Per-(user, cluster, hour) energy at one pipeline stage."""

    stage: str
    cells: dict[LedgerKey, EnergyCell] = field(default_factory=dict)

    def total_wh(self) -> float:
        return sum(c.idle_wh + c.dynamic_wh for c in self.cells.values())

    def totals_by_user(self) -> dict[str, float]:
        out: dict[str, float] = {}
        for (user, _, _), cell in self.cells.items():
            out[user] = out.get(user, 0.0) + cell.idle_wh + cell.dynamic_wh
        return out

    def totals_by_cluster_hour(self) -> dict[tuple[str, datetime], float]:
        out: dict[tuple[str, datetime], float] = {}
        for (_, cluster, hour), cell in self.cells.items():
            key = (cluster, hour)
            out[key] = out.get(key, 0.0) + cell.idle_wh + cell.dynamic_wh
        return out


def weighted_allocation(vector: ResourceVector) -> float:
    """Collapse a resource vector to a single busy-power-equivalent number."""
    return (
        RESOURCE_WEIGHTS.gcu * vector.gcu
        + RESOURCE_WEIGHTS.ram_gib * vector.ram_gib
        + RESOURCE_WEIGHTS.ssd_tib * vector.ssd_tib
        + RESOURCE_WEIGHTS.hdd_tib * vector.hdd_tib
    )


def idle_share_table(
    allocations: Sequence[ResourceAllocationRecord],
) -> dict[tuple[str, datetime], dict[str, float]]:
    """Per cluster-hour, each user's fraction of the weighted allocation.

    Cluster-hours whose weighted total is zero are absent from the result.
    Fractions over the present users sum to 1.
    """
    sums: dict[tuple[str, datetime], dict[str, float]] = {}
    for rec in allocations:
        w = weighted_allocation(rec.allocation)
        if w == 0.0:
            continue
        per_user = sums.setdefault((rec.cluster_id, rec.hour), {})
        per_user[rec.user] = per_user.get(rec.user, 0.0) + w
    fractions: dict[tuple[str, datetime], dict[str, float]] = {}
    for key, per_user in sums.items():
        denom = sum(per_user.values())
        fractions[key] = {user: w / denom for user, w in per_user.items()}
    return fractions


def allocate_idle(
    split: FleetSplit,
    machines: Sequence[MachineRecord],
    allocations: Sequence[ResourceAllocationRecord],
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
    usage: Sequence[GcuUsageRecord],
    allocations: Sequence[ResourceAllocationRecord] = (),
) -> tuple[dict[LedgerKey, float], list[Notice]]:
    """Dynamic watt-hours per (user, cluster, hour).

    Per machine-hour, dynamic energy is split by each user's share of the
    machine's compute-unit usage. A machine-hour with dynamic energy but
    zero recorded usage keeps conservation intact: a dedicated machine's
    owner takes it, a shared machine falls back to the idle-allocation
    fractions (and then to the unallocated-overhead user).

    Usage is bucketed by hour once and grouped by machine one hour at a
    time, so only one hour's grouping is alive at any point.
    """
    by_id = {m.machine_id: m for m in machines}
    usage_by_hour: dict[datetime, list[GcuUsageRecord]] = {}
    for rec in usage:
        if rec.gcu_used <= 0.0:
            continue
        usage_by_hour.setdefault(rec.hour, []).append(rec)

    fractions = idle_share_table(allocations) if allocations else {}
    dynamic: dict[LedgerKey, float] = {}
    notices: list[Notice] = []

    for part in split:
        hour = part.hour
        usage_by_machine: dict[str, list[GcuUsageRecord]] = {}
        for rec in usage_by_hour.pop(hour, ()):
            usage_by_machine.setdefault(rec.machine_id, []).append(rec)
        for machine_id, watts in zip(part.machine_ids, part.dynamic_watts):
            if watts == 0.0:
                continue
            machine = by_id[machine_id]
            cluster = machine.cluster_id
            users = usage_by_machine.get(machine_id)
            if users:
                total = sum(rec.gcu_used for rec in users)
                for rec in users:
                    key = (rec.user, cluster, hour)
                    dynamic[key] = dynamic.get(key, 0.0) + watts * (rec.gcu_used / total)
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
    allocations: Sequence[ResourceAllocationRecord],
    usage: Sequence[GcuUsageRecord],
) -> tuple[Ledger, list[Notice]]:
    """Machine-stage ledger: idle plus dynamic, before any reallocation."""
    idle, idle_notices = allocate_idle(split, machines, allocations)
    dynamic, dyn_notices = allocate_dynamic(split, machines, usage, allocations)
    cells: dict[LedgerKey, EnergyCell] = {}
    for key, wh in idle.items():
        cells[key] = EnergyCell(idle_wh=wh)
    for key, wh in dynamic.items():
        prior = cells.get(key)
        if prior is None:
            cells[key] = EnergyCell(dynamic_wh=wh)
        else:
            cells[key] = EnergyCell(idle_wh=prior.idle_wh, dynamic_wh=prior.dynamic_wh + wh)
    return Ledger(stage=STAGE_MACHINE, cells=cells), [*idle_notices, *dyn_notices]
