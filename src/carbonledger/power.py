"""Split measured machine power into clamped idle and dynamic components.

The split buckets the power samples by hour: each hour holds the 4-byte
row numbers of its samples, in sample order, into the sample table the
split was made from. It copies no machine id and no watts. Where the
allocation stages walk it, they read a row's machine id and measured
watts through the row and split them there: idle is the machine's
recorded rating clamped to measured power, ``idle_watts(rating,
measured)``, and dynamic is measured minus idle, so ``0 <= idle <=
measured`` and ``dynamic >= 0``. Every ledger key contains its hour, so
walking the split hour by hour sums each ledger cell in the same order as
walking the samples would.
"""

from __future__ import annotations

import logging
from array import array
from collections import Counter
from dataclasses import dataclass
from datetime import datetime
from typing import Iterator, Sequence

from .errors import InputError
from .model import MachineRecord, PowerSampleTable

log = logging.getLogger(__name__)


def idle_watts(rating: float, measured: float) -> float:
    """Idle watts of a machine-hour: the rating clamped to measured power.

    The clamp absorbs mis-configured idle ratings. It is
    ``min(rating, measured)`` for every float, NaN and signed zeros
    included; the allocation stages inline this expression on their hot
    walks, so a change here is a change there.
    """
    return measured if measured < rating else rating


@dataclass(slots=True)
class HourSplit:
    """The sampled machines of one hour, as row numbers in sample order.

    ``rows`` is an ``array("I")`` of rows of the split's sample table;
    past 2**32 rows it raises ``OverflowError`` rather than wrap.
    """

    hour: datetime
    rows: array

    def __len__(self) -> int:
        return len(self.rows)


@dataclass(slots=True)
class FleetSplit:
    """Every sampled machine-hour of ``samples``, one ``HourSplit`` per hour.

    Hours come in the order they first appear in the samples; ``len()``
    is the number of machine-hours.
    """

    samples: PowerSampleTable
    hours: list[HourSplit]

    def __iter__(self) -> Iterator[HourSplit]:
        return iter(self.hours)

    def __len__(self) -> int:
        return sum(len(part) for part in self.hours)


def split_fleet(machines: Sequence[MachineRecord], samples: PowerSampleTable) -> FleetSplit:
    """Bucket every sampled machine-hour by hour, walking the sample columns.

    Every sample must name a known machine and carry non-negative power.
    A machine with no sample for some hour simply contributes no row
    (treated as powered off); at DEBUG level the gap is logged once per
    machine.
    """
    known = dict.fromkeys(m.machine_id for m in machines)
    buckets: dict[datetime, array] = {}
    for row, (machine_id, hour, measured) in enumerate(
        zip(samples.machine_id, samples.hour, samples.measured_power_watts)
    ):
        if machine_id not in known:
            raise InputError(f"power sample references unknown machine {machine_id!r}")
        if measured < 0:
            raise InputError(f"negative measured power {measured} on {machine_id!r}")
        rows = buckets.get(hour)
        if rows is None:
            rows = buckets[hour] = array("I")
        rows.append(row)

    if buckets and log.isEnabledFor(logging.DEBUG):
        machine_ids = samples.machine_id
        sampled = Counter(machine_ids[row] for rows in buckets.values() for row in rows)
        for machine_id in known:
            missing = len(buckets) - sampled[machine_id]
            if missing > 0:
                log.debug("machine %s has no sample for %d hour(s); treated as powered off", machine_id, missing)
    return FleetSplit(samples, [HourSplit(hour, rows) for hour, rows in buckets.items()])
