"""Error types raised by the simulator."""


class SimulationError(Exception):
    """Base class for all simulator errors."""


class AmplitudeBelowThreshold(SimulationError):
    """Programming pulse amplitude is too small to switch the cell."""


class DimensionMismatch(SimulationError):
    """A config pattern's length is not n, or a stored array is not square or not n x n."""


class NoSnapshots(SimulationError):
    """Distribution history was requested from a run that kept no snapshots."""


class CorruptArrayFile(SimulationError):
    """A stored resistance array file holds a cell that is not a resistance in the device range."""


class ConfigParseError(SimulationError):
    """Configuration file is missing, malformed, or fails validation."""
