"""Data-center energy attribution and location-based carbon accounting.

Pipeline order: split measured machine power into idle and dynamic parts,
allocate both to users, reallocate shared-service energy (major services
by usage, minor services by net cost over two rounds), convert to
emissions via PUE and grid intensity, and finally spread provider
footprints over SKUs, regions, and billing accounts.
"""

from .allocation import EnergyCell, Ledger, weighted_allocation
from .carbon import EmissionRecord, IntensityFeed, IntensitySource, compute_emissions
from .check import closure_failures, compare_with_oracle, run_end_to_end
from .footprint import FootprintReport, compute_customer_footprints
from .model import (
    Bundle,
    ClusterTopology,
    MachineRecord,
    PowerSample,
    ResourceVector,
    Sharing,
    validate_bundle,
    validate_fleet,
)
from .oracle import oracle_allocate
from .power import FleetSplit, split_fleet
from .services import AllocationResult, run_allocation_pipeline
from .simulate import PRESETS, ScenarioSpec, generate, preset_spec

__all__ = [
    "AllocationResult",
    "Bundle",
    "ClusterTopology",
    "EmissionRecord",
    "EnergyCell",
    "FleetSplit",
    "FootprintReport",
    "IntensityFeed",
    "IntensitySource",
    "Ledger",
    "MachineRecord",
    "PRESETS",
    "PowerSample",
    "ResourceVector",
    "ScenarioSpec",
    "Sharing",
    "closure_failures",
    "compare_with_oracle",
    "compute_customer_footprints",
    "compute_emissions",
    "generate",
    "oracle_allocate",
    "preset_spec",
    "run_allocation_pipeline",
    "run_end_to_end",
    "split_fleet",
    "validate_bundle",
    "validate_fleet",
    "weighted_allocation",
]
