"""Convert allocated IT energy into location-based carbon emissions.

Each (user, cluster, hour) ledger entry is grossed up by the cluster's
hourly PUE and multiplied by the grid carbon intensity of the cluster's
zone, falling back to the zone's annual average where hourly data is
missing. A cluster without a zone has no intensity. Market-based
accounting (clean-energy purchases) is out of scope.

The result keeps the final ledger and one PUE and one resolved intensity
per cluster-hour, and derives each entry's energy and emissions from
them when a report or check reads it, so no column per cell is stored.
"""

from __future__ import annotations

from dataclasses import dataclass
from datetime import datetime
from enum import Enum
from itertools import product
from typing import Iterator, Mapping

from .allocation import Axes, Ledger, LedgerKey
from .errors import MissingIntensityError
from .model import Bundle, Notice, format_hour


DEFAULT_PUE = 1.10


class IntensitySource(str, Enum):
    HOURLY = "Hourly"
    ANNUAL_FALLBACK = "AnnualFallback"
    DEFAULT = "Default"


def co2_kg(energy_wh: float, intensity_g_per_kwh: float) -> float:
    """kgCO2e from watt-hours and gCO2e/kWh (the only unit conversion here)."""
    return energy_wh * intensity_g_per_kwh / 1e6


def resolve_intensity(
    cluster_id: str,
    hour: datetime,
    zone_of: Mapping[str, str],
    hourly: Mapping[tuple[str, datetime], float],
    annual: Mapping[tuple[str, int], float],
) -> tuple[float, IntensitySource]:
    """Hourly zone intensity if present, else the zone's annual average.

    Raises when the cluster has no zone or neither feed covers the hour.
    """
    zone = zone_of.get(cluster_id)
    if zone is not None:
        value = hourly.get((zone, hour))
        if value is not None:
            return value, IntensitySource.HOURLY
        value = annual.get((zone, hour.year))
        if value is not None:
            return value, IntensitySource.ANNUAL_FALLBACK
    raise MissingIntensityError(cluster_id, format_hour(hour))


@dataclass(slots=True)
class EmissionsResult:
    """Emissions of every final-ledger cell, derived on demand in ascending cell id.

    Stores nothing per cell: only the final ledger, whose every cell is a
    row (no stage appends to it once emissions are computed), and per
    cluster-hour ``c * H + h`` the PUE applied there (the default where
    the feed has none) and the resolved ``(intensity, source)`` (``None``
    where no cell lies). A row's IT Wh is the cell's idle plus dynamic Wh,
    its total Wh is IT Wh times the PUE, and its kgCO2e is
    ``co2_kg(total Wh, intensity)``. Ascending ids are (user, cluster,
    hour) order.
    """

    ledger: Ledger
    pue: list[float]
    resolved: list[tuple[float, IntensitySource] | None]
    notices: list[Notice]

    @property
    def axes(self) -> Axes:
        return self.ledger.cells.axes

    def __len__(self) -> int:
        return len(self.ledger.idle)

    def columns(self) -> Iterator[tuple[int, float, float, float, IntensitySource]]:
        """(cell id, IT Wh, total Wh, kgCO2e, intensity source) of every row, in id order."""
        idle, dynamic = self.ledger.idle, self.ledger.dynamic
        span, pue, resolved = self.axes.span, self.pue, self.resolved
        for cell, row in self.ledger.cells.in_id_order(len(idle)):
            ch = cell % span
            it_wh = idle[row] + dynamic[row]
            total_wh = it_wh * pue[ch]
            intensity, source = resolved[ch]
            yield cell, it_wh, total_wh, co2_kg(total_wh, intensity), source

    def rows(self) -> Iterator[tuple[LedgerKey, float, float, float, IntensitySource]]:
        """(key, IT Wh, total Wh, kgCO2e, intensity source) of every row, in id order."""
        key = self.axes.key
        return (
            (key(cell), it_wh, total_wh, kg, source) for cell, it_wh, total_wh, kg, source in self.columns()
        )


def compute_emissions(
    ledger: Ledger,
    bundle: Bundle,
    default_pue: float = DEFAULT_PUE,
    missing_intensity: float | None = None,
) -> EmissionsResult:
    """Emissions per ledger entry: IT energy x PUE x zone intensity.

    One PUE per cluster-hour is read from the feed up front, the default
    where the feed has none. Cells are then walked once in ascending id,
    and intensity is resolved once per cluster-hour, in the order the walk
    first reaches it. A default PUE is flagged once per cluster-hour, where
    the walk first reaches a cell there holding energy. A cluster-hour
    that no feed covers aborts the run unless ``missing_intensity`` gives
    the gCO2e/kWh to use there, which is flagged once per cluster-hour.
    """
    pue_by_key = {(p.cluster_id, p.hour): p.pue for p in bundle.pue}
    zone_of = {r.cluster_id: r.zone_id for r in bundle.zone_map if r.zone_id}
    hourly = {(r.zone_id, r.hour): r.intensity_g_per_kwh for r in bundle.carbon_intensity}
    annual = {(r.zone_id, r.year): r.intensity_g_per_kwh for r in bundle.annual_intensity}
    axes = ledger.cells.axes
    notices: list[Notice] = []
    # Per cluster-hour c * H + h: the PUE, whether it needs no notice (the feed has it, or the
    # default was noticed there), and the resolved (intensity, source).
    pue = [pue_by_key.get(key, default_pue) for key in product(axes.clusters, axes.hours)]
    pue_noticed = bytearray(key in pue_by_key for key in product(axes.clusters, axes.hours))
    resolved: list[tuple[float, IntensitySource] | None] = [None] * axes.span
    idle, dynamic = ledger.idle, ledger.dynamic

    for cell, row in ledger.cells.in_id_order(len(idle)):
        ch = cell % axes.span
        if not pue_noticed[ch] and idle[row] + dynamic[row] > 0.0:
            pue_noticed[ch] = 1
            cluster, hour = axes.cluster_hour(ch)
            notices.append(Notice("missing-pue", cluster, f"default {default_pue} used at {format_hour(hour)}"))
        if resolved[ch] is None:
            cluster, hour = axes.cluster_hour(ch)
            try:
                resolved[ch] = resolve_intensity(cluster, hour, zone_of, hourly, annual)
            except MissingIntensityError:
                if missing_intensity is None:
                    raise
                resolved[ch] = (missing_intensity, IntensitySource.DEFAULT)
                notices.append(
                    Notice("missing-intensity", cluster, f"default {missing_intensity} g/kWh at {format_hour(hour)}")
                )
    return EmissionsResult(ledger, pue, resolved, notices)
