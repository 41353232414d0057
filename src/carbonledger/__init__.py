"""Data-center energy attribution and location-based carbon accounting.

Pipeline order: split measured machine power into idle and dynamic parts,
allocate both to users, reallocate shared-service energy (major services
by usage, minor services by net cost over two rounds), convert to
emissions via PUE and grid intensity, and finally spread provider
footprints over SKUs, regions, and billing accounts.
"""

from .allocation import Ledger, weighted_allocation
from .carbon import IntensitySource, compute_emissions
from .check import closure_failures, compare_with_oracle, run_end_to_end
from .footprint import FootprintReport, compute_customer_footprints
from .model import Bundle, MachineRecord, PowerSample, Sharing
from .oracle import oracle_allocate
from .power import FleetSplit, split_fleet
from .services import AllocationResult, run_allocation_pipeline
from .simulate import PRESETS, ScenarioSpec, generate, preset_spec
from .tables import validate_bundle

__all__ = [
    "AllocationResult",
    "Bundle",
    "FleetSplit",
    "FootprintReport",
    "IntensitySource",
    "Ledger",
    "MachineRecord",
    "PRESETS",
    "PowerSample",
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
    "weighted_allocation",
]
