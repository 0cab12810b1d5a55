"""Error types raised by the simulator."""


class SimulationError(Exception):
    """Base class for all simulator errors."""


class AmplitudeBelowThreshold(SimulationError):
    """Programming pulse amplitude is too small to switch the cell."""


class InvalidDimension(SimulationError):
    """Requested array dimension is not supported."""


class DimensionMismatch(SimulationError):
    """Pattern or vector length does not match the array dimension."""


class EmptyStimulus(SimulationError):
    """A read or probe was requested with no neurons firing."""


class DegeneratePattern(SimulationError):
    """Pattern has no ON bits or no OFF bits, so a contrast is undefined."""


class NoSnapshots(SimulationError):
    """Distribution history was requested from a run that kept no snapshots."""


class CorruptArrayFile(SimulationError):
    """A stored resistance array file holds a cell that is not a resistance in the device range."""


class ConfigParseError(SimulationError):
    """Configuration file is missing, malformed, or fails validation."""
