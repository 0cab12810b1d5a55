"""1T1R crossbar of PCM cells with ideal selection transistors.

Cell (i, j) sits at the crossing of bitline i and wordline j. The transistor
gated by wordline j is ideal (zero off-leak, zero on-resistance), so a read
on bitline i sums current only over the gated wordlines and sneak paths do
not exist. Programming drives a Cartesian block: every driven bitline paired
with every gated wordline.
"""
from __future__ import annotations

import csv
import enum
import math
import warnings
from collections.abc import Iterable, Iterator
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .device import (
    DeviceParams,
    PulseRole,
    PulseSpec,
    apply_reset_pulse,
    apply_set_pulse,
    check_read_voltage,
    pulse_energy,
)
from .errors import CorruptArrayFile, DimensionMismatch, IndexOutOfRange, InvalidDimension

# Read waveform: a 100 us rectangle at the read voltage. Reads given only a
# voltage use this shape at that amplitude.
DEFAULT_READ_PULSE = PulseSpec(0.1, 0.0, 1.0e-4, 0.0, PulseRole.READ)

# RESET waveform used to form arrays when none is configured: 1.5 V, 20/50/5 ns.
DEFAULT_RESET_PULSE = PulseSpec(1.5, 20e-9, 50e-9, 5e-9, PulseRole.RESET)


class InitVariant(enum.Enum):
    # One identical pulse for the whole array leaves wide cell-to-cell spread.
    UNIFORM_PARTIAL_RESET = "uniform_partial_reset"
    # Per-cell tuned pulses reach the fully amorphized state with tight spread.
    TUNED_FULL_RESET = "tuned_full_reset"


@dataclass(frozen=True)
class InitScheme:
    """How the array is prepared before learning: variant, spread, and median."""

    variant: InitVariant
    cv: float
    median: float

    def __post_init__(self) -> None:
        if not (0 <= self.cv < 2):
            raise ValueError("cv must lie in [0, 2)")
        # negated, so that NaN fails the check
        if not self.median > 0:
            raise ValueError("median must be positive")


@dataclass(frozen=True)
class ArrayStats:
    """Summary of the resistance matrix; std is the population value."""

    mean: float
    std: float
    cv: float
    min: float
    max: float
    median: float


@dataclass
class CrossbarArray:
    """n x n grid of cells. Treated as immutable: operations return copies."""

    resistance: np.ndarray  # ohms, shape (n, n), row = bitline
    params: DeviceParams

    @property
    def n(self) -> int:
        return len(self.resistance)

    def copy(self) -> "CrossbarArray":
        return CrossbarArray(self.resistance.copy(), self.params)

    def _sorted_indices(self, indices) -> list[int]:
        """The bitline or wordline indices in ascending order; raises if one lies outside."""
        ordered = sorted(indices)
        for idx in ordered[:1] + ordered[-1:]:
            if not (0 <= idx < self.n):
                raise IndexOutOfRange(f"index {idx} outside array of dimension {self.n}")
        return ordered


def init_array(
    n: int,
    scheme: InitScheme,
    params: DeviceParams,
    rng: np.random.Generator,
    reset_pulse: PulseSpec = DEFAULT_RESET_PULSE,
) -> CrossbarArray:
    """Form a fresh array by applying one RESET to every cell, row-major.

    device.apply_reset_pulse draws the whole array from the scheme's
    (median, cv) distribution; the cells' state before does not enter. The
    formation energy is not tracked; it is array preparation, not learning.
    """
    if n < 2:
        raise InvalidDimension(f"array dimension must be >= 2, got {n}")
    resistance = apply_reset_pulse((n, n), reset_pulse, params, scheme.median, scheme.cv, rng)
    return CrossbarArray(resistance, params)


def read_bitlines(
    array: CrossbarArray,
    bls: list[int],
    gated_wls: list[int],
    v_read: float,
    read_pulse: PulseSpec,
) -> tuple[np.ndarray, np.ndarray]:
    """Currents and read energies of several bitlines under one gated wordline set.

    bls and gated_wls must be ascending and inside the array. Returns per
    bitline (current in amperes, read energy in joules). Every bitline adds
    its cells in ascending wordline order, so each sum has the bits of a
    cell-by-cell loop.
    """
    check_read_voltage(v_read, array.params)
    if not gated_wls:
        return np.zeros(len(bls)), np.zeros(len(bls))
    r = array.resistance.T[np.asarray(gated_wls)[:, None], bls]  # a copy, row = wordline
    energies = pulse_energy(read_pulse, r)
    currents = np.divide(v_read, r, out=r)
    # accumulate adds down each column in order. np.sum and np.add.reduce sum
    # pairwise where a column is contiguous (one bitline), which changes bits.
    np.add.accumulate(currents, axis=0, out=currents)
    np.add.accumulate(energies, axis=0, out=energies)
    return currents[-1].copy(), energies[-1].copy()


def read_bitline(
    array: CrossbarArray,
    bl: int,
    gated_wls: frozenset[int] | set[int],
    v_read: float,
    read_pulse: PulseSpec | None = None,
) -> tuple[float, float]:
    """Sum of ohmic currents on one bitline over the gated wordlines.

    Returns (current in amperes, read energy in joules). Ungated cells
    contribute nothing: their selection transistors are ideal. The gated set
    is traversed in sorted order so the float sum is reproducible. v_read
    must stay below the SET threshold so a read never disturbs state.
    Without read_pulse the read uses DEFAULT_READ_PULSE at amplitude v_read.
    """
    bls = array._sorted_indices((bl,))
    wls = array._sorted_indices(gated_wls)
    if read_pulse is None:
        read_pulse = replace(DEFAULT_READ_PULSE, amplitude=v_read)
    currents, energies = read_bitlines(array, bls, wls, v_read, read_pulse)
    return float(currents[0]), float(energies[0])


def program_cells(
    array: CrossbarArray,
    driven_bls: frozenset[int] | set[int],
    gated_wls: frozenset[int] | set[int],
    pulse: PulseSpec,
    rng: np.random.Generator,
) -> tuple[CrossbarArray, float, int]:
    """Apply one SET pulse to every (driven bitline, gated wordline) cell.

    Cells are updated in row-major order (bitlines ascending, wordlines
    ascending within a bitline) so the noise stream is reproducible. Returns
    (new array, total programming energy in joules, number of cells pulsed).
    Cells outside the block are byte-identical to the input array.
    """
    bls = array._sorted_indices(driven_bls)
    wls = array._sorted_indices(gated_wls)
    out = array.copy()
    count = len(bls) * len(wls)
    if count == 0:
        return out, 0.0, 0
    block = (np.asarray(bls)[:, None], np.asarray(wls))
    before = out.resistance[block]
    out.resistance[block] = apply_set_pulse(before, pulse, array.params, rng)
    # Running sum in row-major order, as a per-cell loop adds it.
    energy = float(np.add.accumulate(pulse_energy(pulse, before).ravel())[-1])
    return out, energy, count


def array_stats(resistance: np.ndarray) -> ArrayStats:
    """Population statistics of a resistance matrix.

    For a matrix without NaN every value has the bits of np.mean, np.std
    (ddof=0), np.min, np.max and np.median; the same ufuncs are called
    directly, which skips those functions' Python wrappers.
    """
    values = resistance.ravel()
    mean = flat_mean(values)
    deviation = values - mean
    np.multiply(deviation, deviation, out=deviation)
    std = math.sqrt(flat_mean(deviation))
    half = values.size // 2
    ordered = np.partition(values, (half - 1, half))
    upper = float(ordered[half])
    return ArrayStats(
        mean=mean,
        std=std,
        cv=std / mean,
        min=float(np.minimum.reduce(values)),
        max=float(np.maximum.reduce(values)),
        median=upper if values.size % 2 else (float(ordered[half - 1]) + upper) / 2,
    )


def flat_mean(values: np.ndarray) -> float:
    """np.mean of a 1-D float array, bit for bit: numpy's pairwise sum over the count."""
    return float(np.add.reduce(values)) / values.size


def save_resistance_csv(files: Iterable[tuple[np.ndarray, str | Path]]) -> None:
    """Write each (matrix, path) pair as bare CSV, in the order given: rows x columns, ohms.

    A row is the reprs of its values joined by commas with a CRLF line end
    (what csv.writer writes for them). A cell is formatted only where its
    float64 bits differ from the same cell of the matrix written just
    before; elsewhere its text is reused, so an equal matrix costs no repr.
    """
    bits = cells = None
    for matrix, path in files:
        values = np.array(matrix, dtype=np.float64)  # a copy: the reference for the next matrix
        if cells is None or cells.shape != values.shape:
            # a float64 repr is at most 24 characters: sign, 17 digits, point, e-308
            cells = np.empty(values.shape, dtype="S24")
            changed = np.ones(values.shape, dtype=bool)
        else:
            changed = values.view(np.uint64) != bits
        bits = values.view(np.uint64)
        with open(path, "wb") as fh:
            for row, row_values, row_changed in zip(cells, values, changed):
                row[row_changed] = list(map(repr, row_values[row_changed].tolist()))
                fh.write(b",".join(row.tolist()) + b"\r\n")


def load_resistance_csv(path: str | Path, params: DeviceParams) -> CrossbarArray:
    """Read a resistance matrix CSV back into an array.

    Rejects a file that is not UTF-8 text holding a square matrix of at
    least 2 x 2 numbers in [r_min, r_max]; every error names the file.
    numpy's C reader parses a well-formed file; the csv loop parses the rest,
    so every file loads, or fails, as the csv loop alone would have it.
    """
    resistance = _parse_with_numpy(path)
    if resistance is None or not _is_square_in_range(resistance, params):
        # raises the documented error, or reads what only csv and float() take:
        # quoted cells, underscores, non-ASCII digits
        resistance = _parse_with_csv(path, params)
    return CrossbarArray(resistance, params)


# Characters numpy's reader strips around a number as spaces but float() rejects.
_NUMPY_ONLY_SPACES = ("\x1c", "\x1d", "\x1e", "\x1f")


def _lines_read_alike(fh: Iterable[str]) -> Iterator[str]:
    """Yield the lines, raising ValueError at one the csv loop may read differently.

    Such a line holds a character of _NUMPY_ONLY_SPACES, or is longer than
    the csv module's field size limit, past which csv raises and numpy reads on.
    """
    limit = csv.field_size_limit()
    for line in fh:
        if len(line) > limit or any(c in line for c in _NUMPY_ONLY_SPACES):
            raise ValueError("line left to the csv loop")
        yield line


def _parse_with_numpy(path: str | Path) -> np.ndarray | None:
    """Matrix numpy's C reader parses from path, or None where it declines the file."""
    with open(path, newline="", encoding="utf-8") as fh, warnings.catch_warnings(record=True) as caught:
        # an empty file only warns; it declines like any other fault
        warnings.simplefilter("always")
        try:
            matrix = np.loadtxt(
                _lines_read_alike(fh), delimiter=",", comments=None, dtype=np.float64, ndmin=2
            )
        except ValueError:  # UnicodeDecodeError included: the csv loop reports it
            return None
    return None if caught else matrix


def _parse_with_csv(path: str | Path, params: DeviceParams) -> np.ndarray:
    """Matrix the csv module and float() parse from path; raises if it is no valid array."""
    rows: list[list[float]] = []
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            for record in reader:
                if record:
                    rows.append([float(v) for v in record])
        except UnicodeDecodeError as exc:
            # text decodes in chunks, so the reader's line count does not locate the byte
            raise CorruptArrayFile(f"{path} is not UTF-8 text: {exc}") from exc
        except (ValueError, csv.Error) as exc:
            raise CorruptArrayFile(f"{path}, line {reader.line_num}: {exc}") from exc
    n = len(rows)
    if n < 2:
        raise InvalidDimension(f"{path}: array dimension must be >= 2, got {n}")
    if any(len(r) != n for r in rows):
        raise DimensionMismatch(f"{path}: resistance CSV is not square")
    resistance = np.array(rows, dtype=np.float64)
    outside = _outside_range(resistance, params)
    if outside.any():
        bl, wl = np.argwhere(outside)[0]
        raise CorruptArrayFile(
            f"{path}: cell (bitline {bl}, wordline {wl}) holds {float(resistance[bl, wl])!r} ohm, "
            f"outside [r_min, r_max] = [{params.r_min!r}, {params.r_max!r}]"
        )
    return resistance


def _outside_range(resistance: np.ndarray, params: DeviceParams) -> np.ndarray:
    # written as a negation so that NaN counts as outside
    return ~((resistance >= params.r_min) & (resistance <= params.r_max))


def _is_square_in_range(resistance: np.ndarray, params: DeviceParams) -> bool:
    n = len(resistance)
    return n >= 2 and resistance.shape == (n, n) and not _outside_range(resistance, params).any()
