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
from typing import Iterable, Sequence

from .model import (
    UNALLOCATED_USER,
    GcuUsageRecord,
    MachineRecord,
    Notice,
    PowerWeighting,
    ResourceAllocationRecord,
    ResourceVector,
    ResourceWeights,
    Sharing,
    format_hour,
)
from .power import MachinePowerSplit

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


def weighted_allocation(vector: ResourceVector, weights: ResourceWeights) -> float:
    """Collapse a resource vector to a single busy-power-equivalent number."""
    return (
        weights.gcu * vector.gcu
        + weights.ram_gib * vector.ram_gib
        + weights.ssd_tib * vector.ssd_tib
        + weights.hdd_tib * vector.hdd_tib
    )


def idle_share_table(
    allocations: Sequence[ResourceAllocationRecord],
    weighting: PowerWeighting,
) -> dict[tuple[str, datetime], dict[str, float]]:
    """Per cluster-hour, each user's fraction of the weighted allocation.

    Cluster-hours whose weighted total is zero are absent from the result.
    Fractions over the present users sum to 1.
    """
    weights = weighting.busy
    sums: dict[tuple[str, datetime], dict[str, float]] = {}
    for rec in allocations:
        w = weighted_allocation(rec.allocation, weights)
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
    splits: Iterable[MachinePowerSplit],
    machines: Sequence[MachineRecord],
    allocations: Sequence[ResourceAllocationRecord],
    weighting: PowerWeighting = PowerWeighting(),
) -> tuple[dict[LedgerKey, float], list[Notice]]:
    """Idle watt-hours per (user, cluster, hour).

    Shared idle in a cluster-hour with no weighted allocations anywhere
    falls back to the reserved unallocated-overhead user; dropping it
    would break conservation.
    """
    by_id = {m.machine_id: m for m in machines}
    fractions = idle_share_table(allocations, weighting)
    idle: dict[LedgerKey, float] = {}
    shared_totals: dict[tuple[str, datetime], float] = {}
    notices: list[Notice] = []

    for s in splits:
        machine = by_id[s.machine_id]
        if machine.sharing is Sharing.DEDICATED:
            key = (machine.owner_user or UNALLOCATED_USER, machine.cluster_id, s.hour)
            idle[key] = idle.get(key, 0.0) + s.idle_watts
        else:
            ch = (machine.cluster_id, s.hour)
            shared_totals[ch] = shared_totals.get(ch, 0.0) + s.idle_watts

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
    splits: Iterable[MachinePowerSplit],
    machines: Sequence[MachineRecord],
    usage: Sequence[GcuUsageRecord],
    allocations: Sequence[ResourceAllocationRecord] = (),
    weighting: PowerWeighting = PowerWeighting(),
) -> tuple[dict[LedgerKey, float], list[Notice]]:
    """Dynamic watt-hours per (user, cluster, hour).

    Per machine-hour, dynamic energy is split by each user's share of the
    machine's compute-unit usage. A machine-hour with dynamic energy but
    zero recorded usage keeps conservation intact: a dedicated machine's
    owner takes it, a shared machine falls back to the idle-allocation
    fractions (and then to the unallocated-overhead user).
    """
    by_id = {m.machine_id: m for m in machines}
    usage_by_mh: dict[tuple[str, datetime], list[tuple[str, float]]] = {}
    for rec in usage:
        if rec.gcu_used <= 0.0:
            continue
        usage_by_mh.setdefault((rec.machine_id, rec.hour), []).append((rec.user, rec.gcu_used))

    fractions = idle_share_table(allocations, weighting) if allocations else {}
    dynamic: dict[LedgerKey, float] = {}
    notices: list[Notice] = []

    for s in splits:
        if s.dynamic_watts == 0.0:
            continue
        machine = by_id[s.machine_id]
        cluster = machine.cluster_id
        users = usage_by_mh.get((s.machine_id, s.hour))
        if users:
            total = sum(g for _, g in users)
            for user, gcu in users:
                key = (user, cluster, s.hour)
                dynamic[key] = dynamic.get(key, 0.0) + s.dynamic_watts * (gcu / total)
            continue
        if machine.sharing is Sharing.DEDICATED and machine.owner_user:
            key = (machine.owner_user, cluster, s.hour)
            dynamic[key] = dynamic.get(key, 0.0) + s.dynamic_watts
            continue
        per_user = fractions.get((cluster, s.hour))
        if per_user:
            for user, fraction in per_user.items():
                key = (user, cluster, s.hour)
                dynamic[key] = dynamic.get(key, 0.0) + fraction * s.dynamic_watts
        else:
            notices.append(
                Notice("unallocated-dynamic", s.machine_id, f"no usage or allocations at {format_hour(s.hour)}")
            )
            key = (UNALLOCATED_USER, cluster, s.hour)
            dynamic[key] = dynamic.get(key, 0.0) + s.dynamic_watts
    return dynamic, notices


def build_machine_ledger(
    splits: Sequence[MachinePowerSplit],
    machines: Sequence[MachineRecord],
    allocations: Sequence[ResourceAllocationRecord],
    usage: Sequence[GcuUsageRecord],
    weighting: PowerWeighting = PowerWeighting(),
) -> tuple[Ledger, list[Notice]]:
    """Machine-stage ledger: idle plus dynamic, before any reallocation."""
    idle, idle_notices = allocate_idle(splits, machines, allocations, weighting)
    dynamic, dyn_notices = allocate_dynamic(splits, machines, usage, allocations, weighting)
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
