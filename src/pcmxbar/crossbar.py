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
import warnings
from collections.abc import Iterable, Iterator
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .device import (
    DeviceParams,
    PulseSpec,
    apply_reset_pulse,
    apply_set_pulse,
    check_read_voltage,
    pulse_energy,
)
from .errors import CorruptArrayFile, DimensionMismatch, IndexOutOfRange, InvalidDimension


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


def ascending_indices(n: int, indices) -> np.ndarray:
    """Indices into range(n) as an ascending np.intp array; raises if one lies outside or is no integer."""
    ordered = sorted(indices)
    if ordered and not (0 <= ordered[0] and ordered[-1] < n):
        idx = ordered[0] if not 0 <= ordered[0] < n else ordered[-1]
        raise IndexOutOfRange(f"index {idx} outside array of dimension {n}")
    index = np.array(ordered, dtype=None if ordered else np.intp)
    if index.dtype != np.intp:
        # a float or bool would pass as an index once cast to np.intp
        if index.dtype.kind not in "iu":
            raise TypeError(f"indices must be integers, got {index.dtype} values")
        index = index.astype(np.intp)
    return index


def init_array(
    n: int,
    scheme: InitScheme,
    params: DeviceParams,
    rng: np.random.Generator,
    reset_pulse: PulseSpec,
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
    bls: list[int] | np.ndarray,
    gated_wls: list[int] | np.ndarray,
    read_pulse: PulseSpec,
) -> tuple[np.ndarray, np.ndarray]:
    """Currents and read energies of several bitlines under one gated wordline set.

    bls and gated_wls are lists or integer arrays, ascending, without repeats
    and inside the array. They are not checked: a negative index reads from
    the end, and a repeated wordline adds twice. ascending_indices(n, indices)
    or a Pattern's on_idx and off_idx give checked arrays. The read voltage
    is read_pulse.amplitude, below the SET threshold so a read never disturbs
    state. Returns per bitline (current in amperes, read energy in joules).
    Every bitline adds its cells in ascending wordline order, so each sum
    has the bits of a cell-by-cell loop.
    """
    check_read_voltage(read_pulse.amplitude, array.params)
    if len(gated_wls) == 0:
        return np.zeros(len(bls)), np.zeros(len(bls))
    r = array.resistance.take(bls, axis=0).take(gated_wls, axis=1)  # row = bitline
    sums = np.empty((2,) + r.shape)  # currents, energies
    np.divide(read_pulse.amplitude, r, out=sums[0])
    pulse_energy(read_pulse, r, out=sums[1])
    # accumulate is a running sum: it adds along the last axis in order, one
    # wordline after another, whatever the layout, so one call serves both
    # quantities of every bitline. np.sum and np.add.reduce sum pairwise along
    # a contiguous axis, which changes bits.
    np.add.accumulate(sums, axis=2, out=sums)
    # Copy the last column so that the block is freed on return. Views would
    # keep it alive into the caller's next read, which measured slower on
    # 256-wide arrays than the copy. Indexed, not unpacked: iterating an
    # array costs more than two index calls.
    last = sums[:, :, -1].copy()
    return last[0], last[1]


def read_bitline(
    array: CrossbarArray,
    bl: int,
    gated_wls: frozenset[int] | set[int],
    read_pulse: PulseSpec,
) -> tuple[float, float]:
    """Sum of ohmic currents on one bitline over the gated wordlines.

    Returns (current in amperes, read energy in joules). Ungated cells
    contribute nothing: their selection transistors are ideal. The gated set
    is traversed in sorted order so the float sum is reproducible. The read
    voltage is read_pulse.amplitude.

    No run calls it: runs read through read_bitlines. It stays as the
    benchmark tracer's crossbar.read_bitline hook and as a one-bitline test
    helper, until the tracer hooks read_bitlines (ROADMAP item 2).
    """
    bls = ascending_indices(array.n, (bl,))
    wls = ascending_indices(array.n, gated_wls)
    currents, energies = read_bitlines(array, bls, wls, read_pulse)
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
    n = len(array.resistance)
    bls = ascending_indices(n, driven_bls)
    # training_epoch drives and gates one set; sort it once
    wls = bls if gated_wls is driven_bls else ascending_indices(n, gated_wls)
    out = array.copy()
    count = bls.size * wls.size
    if count == 0:
        return out, 0.0, 0
    before = array.resistance.take(bls, axis=0).take(wls, axis=1)
    out.resistance[bls[:, None], wls] = apply_set_pulse(before, pulse, array.params, rng)
    # Running sum in row-major order, as a per-cell loop adds it; the
    # energies overwrite the gathered block, which nothing reads after.
    energies = pulse_energy(pulse, before, out=before).ravel()
    energy = float(np.add.accumulate(energies, out=energies)[-1])
    return out, energy, count


def array_stats(resistance: np.ndarray) -> ArrayStats:
    """Population statistics of a resistance matrix, in row-major order."""
    values = resistance.ravel()
    mean = float(np.mean(values))
    std = float(np.std(values))
    # np.median has these bits too, but it also partitions at the last element
    # to look for NaN; that measured about 1 MB more peak RSS at n = 256.
    half = values.size // 2
    ordered = np.partition(values, (half - 1, half))
    upper = float(ordered[half])
    return ArrayStats(
        mean=mean,
        std=std,
        cv=std / mean,
        min=float(np.min(values)),
        max=float(np.max(values)),
        median=upper if values.size % 2 else (float(ordered[half - 1]) + upper) / 2,
    )


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
