"""Split measured machine power into clamped idle and dynamic components."""

from __future__ import annotations

import logging
from dataclasses import dataclass
from datetime import datetime
from typing import Sequence

from .errors import InputError
from .model import MachineRecord, PowerSample

log = logging.getLogger(__name__)


@dataclass(frozen=True, slots=True)
class MachinePowerSplit:
    """Idle/dynamic decomposition of one machine-hour.

    idle + dynamic reproduces the measured power exactly because dynamic
    is computed as measured minus idle.
    """

    machine_id: str
    hour: datetime
    idle_watts: float
    dynamic_watts: float

    @property
    def total_watts(self) -> float:
        return self.idle_watts + self.dynamic_watts


def split_power(machine: MachineRecord, sample: PowerSample) -> MachinePowerSplit:
    """Clamp idle to measured power and attribute the remainder as dynamic.

    The clamp absorbs mis-configured idle ratings, guaranteeing
    0 <= idle <= measured and dynamic >= 0.
    """
    if machine.machine_id != sample.machine_id:
        raise InputError(f"sample for {sample.machine_id!r} paired with machine {machine.machine_id!r}")
    if sample.measured_power_watts < 0:
        raise InputError(f"negative measured power {sample.measured_power_watts} on {machine.machine_id!r}")
    idle = min(machine.idle_rating_watts, sample.measured_power_watts)
    return MachinePowerSplit(
        machine_id=machine.machine_id,
        hour=sample.hour,
        idle_watts=idle,
        dynamic_watts=sample.measured_power_watts - idle,
    )


def split_fleet(
    machines: Sequence[MachineRecord], samples: Sequence[PowerSample]
) -> list[MachinePowerSplit]:
    """Split every sampled machine-hour.

    A machine with no sample for some hour simply contributes no split
    (treated as powered off); the gap is logged once per machine.
    """
    by_id = {m.machine_id: m for m in machines}
    splits: list[MachinePowerSplit] = []
    for sample in samples:
        machine = by_id.get(sample.machine_id)
        if machine is None:
            raise InputError(f"power sample references unknown machine {sample.machine_id!r}")
        splits.append(split_power(machine, sample))

    hours = {s.hour for s in samples}
    if hours:
        sampled: dict[str, int] = {}
        for s in samples:
            sampled[s.machine_id] = sampled.get(s.machine_id, 0) + 1
        for machine_id in by_id:
            missing = len(hours) - sampled.get(machine_id, 0)
            if missing > 0:
                log.debug("machine %s has no sample for %d hour(s); treated as powered off", machine_id, missing)
    return splits

