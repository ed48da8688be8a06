"""Exception types shared across the package.

InputError and its subclasses say that what the caller passed in is
wrong (phca exits 2 for them); every other PhcaError is a failure at
run time (exit 3).
"""


class PhcaError(Exception):
    """Base class for all errors raised by this package."""


class InputError(PhcaError):
    """Base class for errors in the caller's inputs: documents, settings
    and argument values."""


class DimensionError(InputError):
    """Vector or matrix argument has the wrong shape."""


# ---- feeder document / topology ----

class SchemaError(InputError):
    """Malformed input document (bad token, missing section, invalid value)."""


class CycleError(InputError):
    """Line graph contains a cycle; the feeder must be a tree."""


class DisconnectedError(InputError):
    """Some bus is not reachable from the substation."""


class DuplicateRegulatorError(InputError):
    """More than one regulator assigned to the same line."""


# ---- problem assembly ----

class ConfigError(InputError, ValueError):
    """Dispatch or engine configuration rejected (bad weight, singular cost,
    bad override, unknown section); also a ValueError, as for any rejected
    argument value."""


class ModelError(PhcaError):
    """Problem object used out of order or assembled wrong: eta set after
    scaling, a problem scaled twice, or a block of zero scale."""


class HeadroomError(InputError):
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
