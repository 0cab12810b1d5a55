"""The errors the command line maps to exit codes; the model raises ValueError."""


class SimulationError(Exception):
    """Base class of the CLI's errors; raised itself for a result that is not finite (exit 4)."""


class CorruptArrayFile(SimulationError):
    """A stored array recall cannot use (exit 4).

    Not UTF-8 numbers, not square, a cell outside [r_min, r_max], or not the config's n x n.
    """


class ConfigParseError(SimulationError):
    """Configuration file is missing, malformed, or fails validation (exit 2)."""
