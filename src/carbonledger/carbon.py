"""Convert allocated IT energy into location-based carbon emissions.

Each (user, cluster, hour) ledger entry is grossed up by the cluster's
hourly PUE and multiplied by the grid carbon intensity of the cluster's
zone, falling back to the zone's annual average where hourly data is
missing. A cluster without a zone has no intensity. Market-based
accounting (clean-energy purchases) is out of scope.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass, field
from datetime import datetime
from enum import Enum
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
    """Emissions of every final-ledger cell, as columns in ascending cell id.

    Ascending ids are (user, cluster, hour) order; ``cells`` holds the ids
    and ``axes`` decodes them.
    """

    axes: Axes
    cells: array = field(default_factory=lambda: array("q"))
    it_wh: array = field(default_factory=lambda: array("d"))
    total_wh: array = field(default_factory=lambda: array("d"))
    kg: array = field(default_factory=lambda: array("d"))
    sources: list[IntensitySource] = field(default_factory=list)
    notices: list[Notice] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.cells)

    def keys(self) -> Iterator[LedgerKey]:
        """The (user, cluster, hour) key of every row, in id order."""
        return map(self.axes.key, self.cells)

    def rows(self) -> Iterator[tuple[LedgerKey, float, float, float, IntensitySource]]:
        """(key, IT Wh, total Wh, kgCO2e, intensity source) of every row, in id order."""
        return zip(self.keys(), self.it_wh, self.total_wh, self.kg, self.sources)

    def total_kg(self) -> float:
        return sum(self.kg)


def compute_emissions(
    ledger: Ledger,
    bundle: Bundle,
    default_pue: float = DEFAULT_PUE,
    missing_intensity: float | None = None,
) -> EmissionsResult:
    """Emissions per ledger entry: IT energy x PUE x zone intensity.

    Cells are walked in ascending id. PUE and intensity are looked up once
    per cluster-hour, in the order the walk first reaches it. A missing
    PUE falls back to the default and is flagged. A cluster-hour that no
    feed covers aborts the run unless ``missing_intensity`` gives the
    gCO2e/kWh to use there, which is flagged once per cluster-hour.
    """
    pue_by_key = {(p.cluster_id, p.hour): p.pue for p in bundle.pue}
    zone_of = {r.cluster_id: r.zone_id for r in bundle.zone_map if r.zone_id}
    hourly = {(r.zone_id, r.hour): r.intensity_g_per_kwh for r in bundle.carbon_intensity}
    annual = {(r.zone_id, r.year): r.intensity_g_per_kwh for r in bundle.annual_intensity}
    axes = ledger.cells.axes
    result = EmissionsResult(axes)
    notices = result.notices
    hour_count = len(axes.hours)
    # Per cluster-hour c * H + h: PUE (None when missing), whether a missing
    # PUE was noticed, and the resolved (intensity, source).
    pue_at: list[float | None] = [pue_by_key.get((c, h)) for c in axes.clusters for h in axes.hours]
    pue_noticed = bytearray(axes.span)
    resolved: list[tuple[float, IntensitySource] | None] = [None] * axes.span
    idle, dynamic = ledger.idle, ledger.dynamic

    for cell, row in ledger.cells.in_id_order(len(idle)):
        ch = cell % axes.span
        it_wh = idle[row] + dynamic[row]
        pue = pue_at[ch]
        if pue is None:
            pue = default_pue
            if it_wh > 0.0 and not pue_noticed[ch]:
                pue_noticed[ch] = 1
                cluster, hour = axes.clusters[ch // hour_count], axes.hours[ch % hour_count]
                notices.append(
                    Notice("missing-pue", cluster, f"default {pue} used at {format_hour(hour)}")
                )
        found = resolved[ch]
        if found is None:
            cluster, hour = axes.clusters[ch // hour_count], axes.hours[ch % hour_count]
            try:
                found = resolve_intensity(cluster, hour, zone_of, hourly, annual)
            except MissingIntensityError:
                if missing_intensity is None:
                    raise
                found = (missing_intensity, IntensitySource.DEFAULT)
                notices.append(
                    Notice("missing-intensity", cluster, f"default {missing_intensity} g/kWh at {format_hour(hour)}")
                )
            resolved[ch] = found
        intensity, source = found
        total_wh = it_wh * pue
        result.cells.append(cell)
        result.it_wh.append(it_wh)
        result.total_wh.append(total_wh)
        result.kg.append(co2_kg(total_wh, intensity))
        result.sources.append(source)
    return result
