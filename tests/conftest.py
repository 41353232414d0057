from datetime import datetime, timedelta, timezone

from carbonledger.allocation import STAGE_MACHINE, Axes, CellIndex, Ledger, build_machine_ledger, machine_axes
from carbonledger.model import (
    MachineRecord,
    PowerSample,
    ResourceAllocationRecord,
    Sharing,
)

HOUR0 = datetime(2023, 6, 5, 0, 0, tzinfo=timezone.utc)


def H(index: int) -> datetime:
    """The index-th hour of the shared test day."""
    return HOUR0 + timedelta(hours=index)


def ledger_of(cells: dict, stage: str = STAGE_MACHINE, users=()) -> Ledger:
    """A ledger holding ``{(user, cluster, hour): (idle_wh, dynamic_wh)}``.

    Its axes span the cells' keys plus ``users``, the users a later stage
    may credit.
    """
    axes = Axes([*users, *(u for u, _, _ in cells)], (c for _, c, _ in cells), (h for _, _, h in cells))
    ledger = Ledger(stage, CellIndex(axes))
    credit(ledger, cells)
    return ledger


def machine_ledger(split, machines, allocations, usage, axes=None):
    """``build_machine_ledger`` on ``axes``, by default the machine stage's own.

    Those hold the split's hours, the machines' clusters, and the owners,
    the allocation and usage users and the overhead user.
    """
    if axes is None:
        axes = machine_axes(split, machines, allocations.user, usage.user)
    return build_machine_ledger(split, machines, allocations, usage, axes)


def credit(ledger: Ledger, cells: dict) -> None:
    """Add ``{(user, cluster, hour): (idle_wh, dynamic_wh)}`` to the ledger's cells, appending new ones."""
    for key, (idle_wh, dynamic_wh) in cells.items():
        row = ledger.row(ledger.cells.axes.cell(*key))
        ledger.idle[row] += idle_wh
        ledger.dynamic[row] += dynamic_wh


def cells_of(ledger: Ledger) -> dict:
    """``{(user, cluster, hour): (idle_wh, dynamic_wh)}`` over the ledger's own rows."""
    return {key: (idle_wh, dynamic_wh) for key, idle_wh, dynamic_wh in ledger.rows()}


def shared_machine(machine_id="m0", cluster="c0", idle=100.0) -> MachineRecord:
    return MachineRecord(machine_id, cluster, Sharing.SHARED, None, idle)


def dedicated_machine(machine_id="m0", cluster="c0", owner="alice", idle=100.0) -> MachineRecord:
    return MachineRecord(machine_id, cluster, Sharing.DEDICATED, owner, idle)


def sample(machine_id="m0", hour_index=0, watts=100.0) -> PowerSample:
    return PowerSample(machine_id, H(hour_index), watts)


def alloc(user, cluster="c0", hour_index=0, **resources) -> ResourceAllocationRecord:
    return ResourceAllocationRecord(user, cluster, H(hour_index), **resources)

