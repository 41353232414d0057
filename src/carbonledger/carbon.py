"""Convert allocated IT energy into location-based carbon emissions.

Each (user, cluster, hour) ledger entry is grossed up by the cluster's
hourly PUE and multiplied by the grid carbon intensity of the cluster's
zone, falling back to the zone's annual average where hourly data is
missing. A cluster without a zone has no intensity. Market-based
accounting (clean-energy purchases) is out of scope.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from datetime import datetime
from enum import Enum
from typing import Sequence

from .allocation import Ledger
from .errors import MissingIntensityError
from .model import (
    AnnualIntensityRecord,
    CarbonIntensityRecord,
    ClusterTopology,
    Notice,
    PueRecord,
    format_hour,
)

log = logging.getLogger(__name__)

DEFAULT_PUE = 1.10


class IntensitySource(str, Enum):
    HOURLY = "Hourly"
    ANNUAL_FALLBACK = "AnnualFallback"
    DEFAULT = "Default"


@dataclass(frozen=True, slots=True)
class EmissionRecord:
    user: str
    cluster_id: str
    hour: datetime
    energy_it_wh: float
    energy_total_wh: float
    kg_co2e: float
    intensity_source: IntensitySource


def co2_kg(energy_wh: float, intensity_g_per_kwh: float) -> float:
    """kgCO2e from watt-hours and gCO2e/kWh (the only unit conversion here)."""
    return energy_wh * intensity_g_per_kwh / 1e6


class IntensityFeed:
    """Immutable lookup over the hourly and annual intensity tables."""

    def __init__(
        self,
        hourly: Sequence[CarbonIntensityRecord],
        annual: Sequence[AnnualIntensityRecord] = (),
    ) -> None:
        self._hourly = {(r.zone_id, r.hour): r.intensity_g_per_kwh for r in hourly}
        self._annual = {(r.zone_id, r.year): r.intensity_g_per_kwh for r in annual}

    def hourly(self, zone_id: str, hour: datetime) -> float | None:
        return self._hourly.get((zone_id, hour))

    def annual(self, zone_id: str, year: int) -> float | None:
        return self._annual.get((zone_id, year))


def resolve_intensity(
    cluster_id: str,
    hour: datetime,
    topology: ClusterTopology,
    feed: IntensityFeed,
) -> tuple[float, IntensitySource]:
    """Hourly zone intensity if present, else the zone's annual average.

    Raises when the cluster has no zone or neither feed covers the hour.
    """
    zone = topology.cluster_to_zone.get(cluster_id)
    if zone is not None:
        value = feed.hourly(zone, hour)
        if value is not None:
            return value, IntensitySource.HOURLY
        annual = feed.annual(zone, hour.year)
        if annual is not None:
            return annual, IntensitySource.ANNUAL_FALLBACK
    raise MissingIntensityError(cluster_id, format_hour(hour))


@dataclass(slots=True)
class EmissionsResult:
    records: list[EmissionRecord]
    notices: list[Notice] = field(default_factory=list)

    def total_kg(self) -> float:
        return sum(r.kg_co2e for r in self.records)


def compute_emissions(
    ledger: Ledger,
    pue_records: Sequence[PueRecord],
    feed: IntensityFeed,
    topology: ClusterTopology,
    default_pue: float = DEFAULT_PUE,
    allow_missing_intensity: bool = False,
    missing_intensity_default: float = 0.0,
) -> EmissionsResult:
    """Emissions per ledger entry: IT energy x PUE x zone intensity.

    A missing PUE falls back to the default and is flagged. Missing
    intensity aborts the run unless explicitly allowed, in which case the
    configured default is substituted and flagged.
    """
    pue_by_key = {(p.cluster_id, p.hour): p.pue for p in pue_records}
    records: list[EmissionRecord] = []
    notices: list[Notice] = []
    missing_pue: set[tuple[str, datetime]] = set()
    # Intensity depends only on the cluster-hour; None marks a missing one.
    resolved: dict[tuple[str, datetime], tuple[float, IntensitySource] | None] = {}

    for (user, cluster, hour), cell in sorted(ledger.cells.items()):
        it_wh = cell.idle_wh + cell.dynamic_wh
        pue = pue_by_key.get((cluster, hour))
        if pue is None:
            pue = default_pue
            if it_wh > 0.0 and (cluster, hour) not in missing_pue:
                missing_pue.add((cluster, hour))
                notices.append(
                    Notice("missing-pue", cluster, f"default {pue} used at {format_hour(hour)}")
                )
        if (cluster, hour) not in resolved:
            try:
                resolved[cluster, hour] = resolve_intensity(cluster, hour, topology, feed)
            except MissingIntensityError:
                if not allow_missing_intensity:
                    raise
                resolved[cluster, hour] = None
        found = resolved[cluster, hour]
        if found is not None:
            intensity, source = found
        else:
            intensity, source = missing_intensity_default, IntensitySource.DEFAULT
            notices.append(
                Notice("missing-intensity", cluster, f"default {intensity} g/kWh at {format_hour(hour)}")
            )
        total_wh = it_wh * pue
        records.append(
            EmissionRecord(
                user=user,
                cluster_id=cluster,
                hour=hour,
                energy_it_wh=it_wh,
                energy_total_wh=total_wh,
                kg_co2e=co2_kg(total_wh, intensity),
                intensity_source=source,
            )
        )
    return EmissionsResult(records=records, notices=notices)
