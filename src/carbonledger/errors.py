"""Exception types raised across the allocation and reporting stages."""


class CarbonLedgerError(Exception):
    """Base class for all package errors."""


class InputError(CarbonLedgerError):
    """Malformed or mismatched input handed to an operation."""


class MissingIntensityError(CarbonLedgerError):
    """No hourly or annual carbon intensity is available for a cluster-hour."""

    def __init__(self, cluster_id: str, hour) -> None:
        super().__init__(f"no carbon intensity available for cluster {cluster_id!r} at {hour}")
        self.cluster_id = cluster_id
        self.hour = hour


class NoBillableUsageError(CarbonLedgerError):
    """A provider has no priced SKU usage to absorb its energy."""


class BetaUndefinedError(CarbonLedgerError):
    """Customer overhead factor cannot be computed (zero billed denominator)."""


class OracleSizeError(CarbonLedgerError):
    """Input bundle exceeds the brute-force oracle's enumeration limits."""


class ScenarioError(CarbonLedgerError):
    """Contradictory or out-of-range scenario specification."""
