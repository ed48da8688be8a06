"""Exception types shared across the package."""


class PhcaError(Exception):
    """Base class for all errors raised by this package."""


# ---- feeder document / topology ----

class SchemaError(PhcaError):
    """Malformed input document (bad token, missing section, invalid value)."""


class CycleError(PhcaError):
    """Line graph contains a cycle; the feeder must be a tree."""


class DisconnectedError(PhcaError):
    """Some bus is not reachable from the substation."""


class DuplicateRegulatorError(PhcaError):
    """More than one regulator assigned to the same line."""


class SingularIncidenceError(PhcaError):
    """Branch-bus incidence unexpectedly singular; internal consistency failure."""


class DimensionError(PhcaError):
    """Vector or matrix argument has the wrong shape."""


# ---- problem assembly ----

class ConfigError(PhcaError, ValueError):
    """Dispatch or engine configuration rejected (bad weight, singular cost,
    bad override, inconsistent tolerances); also a ValueError, as for any
    rejected argument value."""


class ModelError(PhcaError):
    """Problem assembly referenced a bus or line that does not exist."""


class HeadroomError(PhcaError):
    """Scaled generation exceeds inverter capacity; reactive headroom undefined."""


class AllInfeasibleError(PhcaError):
    """Every calibration sample was infeasible; no multiplier information."""


# ---- scenario ingestion ----

class MissingBusError(SchemaError):
    """Scenario table references a bus absent from the feeder."""


class NegativeValueError(SchemaError):
    """Scenario table holds a negative load or generation value."""


# ---- region algebra / batch engine ----

class RankDeficientKError(PhcaError):
    """Stacked active rows are rank deficient; no region for this active set."""


class AbortError(PhcaError):
    """Batch run aborted before completion."""


# ---- statistics ----

class EmptyGroupError(PhcaError):
    """Aggregation requested over an empty record group."""


# ---- power flow oracle ----

class NonConvergenceError(PhcaError):
    """Sweep iteration failed to reach the voltage tolerance within the cap."""
