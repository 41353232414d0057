"""Split measured machine power into clamped idle and dynamic components.

The split is columnar and bucketed by hour: each hour holds the sampled
machines in sample order plus one idle and one dynamic column of watts.
Every ledger key contains its hour, so walking the split hour by hour
sums each ledger cell in the same order as walking the samples would.
"""

from __future__ import annotations

import logging
from array import array
from collections import Counter
from dataclasses import dataclass, field
from datetime import datetime
from typing import Iterator, Sequence

from .errors import InputError
from .model import MachineRecord, PowerSampleTable

log = logging.getLogger(__name__)


@dataclass(slots=True)
class HourSplit:
    """Idle/dynamic decomposition of every sampled machine in one hour.

    Row ``i`` belongs to ``machine_ids[i]``. Idle is the recorded rating
    clamped to measured power, and dynamic is measured minus idle, so
    ``0 <= idle <= measured`` and ``dynamic >= 0``.
    """

    hour: datetime
    machine_ids: list[str] = field(default_factory=list)
    idle_watts: array = field(default_factory=lambda: array("d"))
    dynamic_watts: array = field(default_factory=lambda: array("d"))

    def __len__(self) -> int:
        return len(self.machine_ids)


@dataclass(slots=True)
class FleetSplit:
    """Every sampled machine-hour, one ``HourSplit`` per hour.

    Hours come in the order they first appear in the samples; ``len()``
    is the number of machine-hours.
    """

    hours: list[HourSplit] = field(default_factory=list)

    def __iter__(self) -> Iterator[HourSplit]:
        return iter(self.hours)

    def __len__(self) -> int:
        return sum(len(part) for part in self.hours)


def split_fleet(machines: Sequence[MachineRecord], samples: PowerSampleTable) -> FleetSplit:
    """Split every sampled machine-hour, walking the sample columns.

    A machine with no sample for some hour simply contributes no row
    (treated as powered off); at DEBUG level the gap is logged once per
    machine.
    """
    by_id = {m.machine_id: m for m in machines}
    buckets: dict[datetime, HourSplit] = {}
    for machine_id, hour, measured in zip(samples.machine_id, samples.hour, samples.measured_power_watts):
        machine = by_id.get(machine_id)
        if machine is None:
            raise InputError(f"power sample references unknown machine {machine_id!r}")
        if measured < 0:
            raise InputError(f"negative measured power {measured} on {machine_id!r}")
        part = buckets.get(hour)
        if part is None:
            part = buckets[hour] = HourSplit(hour)
        # The clamp absorbs mis-configured idle ratings.
        idle = min(machine.idle_rating_watts, measured)
        part.machine_ids.append(machine_id)
        part.idle_watts.append(idle)
        part.dynamic_watts.append(measured - idle)

    if buckets and log.isEnabledFor(logging.DEBUG):
        sampled = Counter(machine_id for part in buckets.values() for machine_id in part.machine_ids)
        for machine_id in by_id:
            missing = len(buckets) - sampled[machine_id]
            if missing > 0:
                log.debug("machine %s has no sample for %d hour(s); treated as powered off", machine_id, missing)
    return FleetSplit(list(buckets.values()))
