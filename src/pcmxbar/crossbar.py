"""1T1R crossbar of PCM cells with ideal selection transistors.

Cell (i, j) sits at the crossing of bitline i and wordline j. The transistor
gated by wordline j is ideal (zero off-leak, zero on-resistance), so a read
on bitline i sums current only over the gated wordlines and sneak paths do
not exist. Programming drives a Cartesian block: every driven bitline paired
with every gated wordline.
"""
from __future__ import annotations

import contextlib
import csv
import enum
import os
import shutil
from collections.abc import Iterable
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
    gated_wls: list[int] | np.ndarray,
    read_pulse: PulseSpec,
) -> tuple[float, float]:
    """read_bitlines(array, [bl], gated_wls, read_pulse) as (amperes, joules) floats.

    gated_wls is taken unchecked, as read_bitlines takes it. No run calls
    this: it stays only as the name of the benchmark tracer's
    crossbar.read_bitline hook, until the tracer hooks read_bitlines
    (ROADMAP item 11).
    """
    currents, energies = read_bitlines(array, [bl], gated_wls, read_pulse)
    return float(currents[0]), float(energies[0])


def program_cells(
    array: CrossbarArray,
    driven_bls: np.ndarray,
    gated_wls: np.ndarray,
    pulse: PulseSpec,
    rng: np.random.Generator,
) -> tuple[CrossbarArray, float, int]:
    """Apply one SET pulse to every (driven bitline, gated wordline) cell.

    driven_bls and gated_wls are integer arrays under read_bitlines'
    unchecked contract. Cells are updated in row-major order (bitlines
    ascending, wordlines ascending within a bitline) so the noise stream is
    reproducible. Returns (new array, total programming energy in joules,
    number of cells pulsed). Cells outside the block are byte-identical to
    the input array.
    """
    out = array.copy()
    count = driven_bls.size * gated_wls.size
    if count == 0:
        return out, 0.0, 0
    before = array.resistance.take(driven_bls, axis=0).take(gated_wls, axis=1)
    out.resistance[driven_bls[:, None], gated_wls] = apply_set_pulse(before, pulse, array.params, rng)
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
    before; elsewhere its text is reused. A matrix equal to that one is a
    copy of the file just written. The texts live in a byte grid laid out
    as the file (_file_grid), written a block of rows at a time without its
    NUL padding.
    """
    bits = grid = cells = last = None
    for matrix, path in files:
        values = np.asarray(matrix, dtype=np.float64)
        if cells is None or cells.shape != values.shape:
            grid, cells = _file_grid(*values.shape)
            changed = np.arange(values.size)
            last = None
        else:
            changed = np.flatnonzero(values.view(np.uint64) != bits)
        if last is not None and changed.size == 0:
            with contextlib.suppress(shutil.SameFileError):  # that file holds these bytes already
                shutil.copyfile(last, path)
            continue
        bits = values.view(np.uint64).copy()  # the reference for the next matrix
        last = path
        flat_values = values.reshape(-1)
        for start in range(0, changed.size, _CHUNK):
            at = changed[start : start + _CHUNK]
            _write_reprs(cells, at, flat_values[at])
        rows = max(_WRITE_BYTES // grid.shape[1], 1)
        with open(path, "wb") as fh:
            for start in range(0, len(grid), rows):
                block = grid[start : start + rows]
                fh.write(block[block != 0])


# Cells formatted per call: few enough that no temporary grows with the
# matrix, enough that numpy's per-call overhead stays small.
_CHUNK = 4096
# Grid bytes compacted per write, in whole rows: as _CHUNK, a bound that
# does not grow with the matrix.
_WRITE_BYTES = 1 << 18
_POW10 = 10 ** np.arange(18, dtype=np.int64)


def _file_grid(rows: int, cols: int) -> tuple[np.ndarray, np.ndarray]:
    """A uint8 grid laid out as a rows x cols file, and its text slots as an S24 view.

    A grid row is each cell's 24-byte slot followed by a comma, a CR in
    place of the last comma, then an LF; a row of no cells is CR LF alone.
    A float64 repr is at most 24 characters (sign, 17 digits, point,
    e-308), so NULs pad each text, and the file is the grid without them.
    """
    width = 25 * cols + 1 if cols else 2
    grid = np.zeros((rows, width), dtype=np.uint8)
    grid[:, 24::25] = ord(",")
    grid[:, -2:] = ord("\r"), ord("\n")
    return grid, np.ndarray((rows, cols), dtype="S24", buffer=grid, strides=(width, 25))


def _write_reprs(cells: np.ndarray, at: np.ndarray, values: np.ndarray) -> None:
    """Set the cells at flat (row-major) indices at to repr(v).encode() of each v in values.

    Values 1 <= v < 2**53 are formatted here; repr writes the others, and the
    exact midpoints, which it breaks by its own rule.
    """
    bits = values.view(np.int64)
    fast = (bits >= 0x3FF0000000000000) & (bits < 0x4340000000000000)  # 1.0 <= v < 2.0**53
    integer, digits, frac, j, tied = _shortest_decimals(bits[fast])
    cells[np.unravel_index(at[fast], cells.shape)] = _point_texts(integer, digits, frac, j)
    rest = np.concatenate([np.flatnonzero(~fast), np.flatnonzero(fast)[tied]])
    cells[np.unravel_index(at[rest], cells.shape)] = list(map(repr, values[rest].tolist()))


def _shortest_decimals(bits: np.ndarray) -> tuple[np.ndarray, ...]:
    """The shortest decimal that reads back as each float64 1 <= v < 2**53, the nearest among those.

    Takes the values' bits as int64. Returns the integer part, its digit
    count, the fraction digits frac, their count j, and the indices of exact
    midpoints, where two decimals qualify. It is exact in int64; Ryu (Adams,
    PLDI 2018) solves the general case. Write v = integer + rem / 2**s with
    s = 52 - exponent. At j fraction digits the nearest decimal is
    frac / 10**j, frac = rem * 10**j // 2**s, or the one above when the rest
    rem_j = rem * 10**j % 2**s is over half of 2**s. It reads back as v when
    twice its distance, in units of 2**-s * 10**-j, is at most 10**j. How a
    reader rounds a decimal exactly half an ulp away never matters: such a
    decimal has s + 1 fraction digits, and v itself has s at most. The test
    is monotone in j and passes at 17 significant digits, so a cell moves to
    17, then down one digit at a time while the test still passes. Integers
    take j = 0 at once.

    The 17 digits come in closed form: the float64 product rem * (10**j /
    2**s) < 10**16 is rounded once, by at most 1, so its integer part is
    frac or one off. rem_j taken from it in wrapping int64 is exact, as the
    true value lies within 2**s of [0, 2**s), and its high bits mend frac.
    The first step down runs on the whole array; only the cells it
    shortened walk on, by index.
    """
    biased = bits >> 52
    s = 1075 - biased
    mantissa = (bits & (2**52 - 1)) | 2**52
    full = 1 << s
    mask = full - 1
    integer, rem = mantissa >> s, mantissa & mask
    log10 = ((biased - 1022) * 1233) >> 12  # digits of integer, or one fewer
    digits = log10 + (integer >= _POW10.take(log10))
    j = np.where(rem == 0, 0, 17 - digits)
    limit = _POW10.take(j)
    frac = (rem * (limit / full)).astype(np.int64)
    rem = rem * limit - (frac << s)
    frac += rem >> s
    rem &= mask
    fewer, fewer_rem, fewer_limit, passes = _one_digit_fewer(frac, rem, limit, s, full)
    passes &= j > 0
    for array, shorter in ((frac, fewer), (rem, fewer_rem), (limit, fewer_limit)):
        np.copyto(array, shorter, where=passes)
    j -= passes
    down = np.flatnonzero(passes)
    while down.size:
        cut = _one_digit_fewer(frac[down], rem[down], limit[down], s[down], full[down])
        fewer, fewer_rem, fewer_limit, passes = cut
        down = down[passes]
        frac[down], rem[down], limit[down] = fewer[passes], fewer_rem[passes], fewer_limit[passes]
        j[down] -= 1
    frac += 2 * rem > full
    return integer, digits, frac, j, np.flatnonzero(2 * rem == full)


def _one_digit_fewer(frac, rem, limit, s, full) -> tuple[np.ndarray, ...]:
    """frac, rem_j and 10**j at one fraction digit fewer, and whether that decimal still reads back.

    frac // 10 drops the last digit, which goes back into the rest.
    """
    fewer = frac // 10
    fewer_rem = ((frac - fewer * 10) << s | rem) // 10
    fewer_limit = limit // 10
    twice = fewer_rem << 1
    return fewer, fewer_rem, fewer_limit, (twice <= fewer_limit) | (twice >= 2 * full - fewer_limit)


def _point_texts(integer, digits, frac, j) -> np.ndarray:
    """The texts integer.frac as an S24 array, with "0" for j = 0 fraction digits.

    Each cell gets a 40-byte row: 16 integer digits, the point, 16 fraction
    digits (j <= 16, as integer has one at least) and NULs. The fraction
    digits past j are NULs too, so a text is the S24 window that starts at
    the cell's first integer digit.
    """
    parts = np.stack([integer, frac * _POW10.take(16 - j)]).view(np.uint64)  # fraction left-aligned
    high = parts // np.uint64(10**8)
    int_high, frac_high, int_low, frac_low = _ascii8(np.concatenate([high, parts - high * 10**8]))
    bits_kept = np.maximum(j, 1) * 8
    frac_high &= ~np.uint64(0) >> np.maximum(64 - bits_kept, 0).view(np.uint64)
    frac_low &= ~np.uint64(0) >> np.minimum(128 - bits_kept, 64).view(np.uint64)
    rows = np.empty((len(j), 5), dtype="<u8")
    rows[:, 0], rows[:, 1], rows[:, 4] = int_high, int_low, frac_low >> np.uint64(56)
    rows[:, 2] = frac_high << np.uint64(8) | np.uint64(ord("."))
    rows[:, 3] = frac_high >> np.uint64(56) | frac_low << np.uint64(8)
    row_bytes = rows.view(np.uint8).reshape(-1)
    starts = max(row_bytes.size - 23, 0)  # every byte a window of 24 can start at
    windows = np.ndarray((starts,), dtype="S24", buffer=row_bytes, strides=(1,))
    return windows[np.arange(16, row_bytes.size, 40) - digits]


def _ascii8(x: np.ndarray) -> np.ndarray:
    """The 8 ASCII digits of each x < 10**8 in a uint64, first digit in the lowest byte.

    Splits x into two 4-digit lanes, each lane into two 2-digit lanes and
    those into digits, dividing by 100 and 10 as a multiply and a shift that
    are exact at these sizes.
    """
    hi = x // np.uint64(10**4)
    x = (x - hi * 10**4) << np.uint64(32) | hi
    hi = x * np.uint64(5243) >> np.uint64(19) & np.uint64(0x0000007F0000007F)
    x = (x - hi * 100) << np.uint64(16) | hi
    hi = x * np.uint64(103) >> np.uint64(10) & np.uint64(0x000F000F000F000F)
    x = (x - hi * 10) << np.uint64(8) | hi
    return x | np.uint64(0x3030303030303030)


def load_resistance_csv(path: str | Path, params: DeviceParams) -> CrossbarArray:
    """Read a resistance matrix CSV back into an array.

    Rejects a file that is not UTF-8 text holding a square matrix of at
    least 2 x 2 numbers in [r_min, r_max]; every error names the file.
    pcmxbar's exact reader reads the writer's own format and the csv loop
    every other file, so every file loads, or fails, as the csv loop alone
    would have it. The rows are checked here, once, whichever of the two
    read them.
    """
    rows = _parse_own_format(path)
    if rows is None:
        rows = _parse_with_csv(path)
    n = len(rows)
    if n < 2:
        raise InvalidDimension(f"{path}: array dimension must be >= 2, got {n}")
    if any(len(r) != n for r in rows):
        raise DimensionMismatch(f"{path}: resistance CSV is not square")
    resistance = np.asarray(rows, dtype=np.float64)
    # written as a negation so that NaN counts as outside
    outside = ~((resistance >= params.r_min) & (resistance <= params.r_max))
    if outside.any():
        bl, wl = np.argwhere(outside)[0]
        raise CorruptArrayFile(
            f"{path}: cell (bitline {bl}, wordline {wl}) holds {float(resistance[bl, wl])!r} ohm, "
            f"outside [r_min, r_max] = [{params.r_min!r}, {params.r_max!r}]"
        )
    return CrossbarArray(resistance, params)


# Bytes read per block, plus the rest of the line the block ends in.
_BLOCK = 65536


def _parse_own_format(path: str | Path) -> np.ndarray | None:
    """The matrix in path if it is exactly in the writer's format, else None.

    That format is rows of fields [0-9]+ "." [0-9]+ joined by commas, each
    row ending in CRLF, every row of one width. A file that breaks it, or
    has more rows than columns, is declined whole. The file is read in
    blocks of whole lines, each checked and converted in whole-array steps.
    A field with integer part I < 10**8 and k <= 16 fraction digits F < 2**53
    is c = I + F / 10**k: the quotient is rounded once, by at most 2**-54,
    and Fast2Sum gives the addition's error e exactly, so c is float()'s
    value when |e| is below half the smaller gap beside c less 2**-54
    (after Clinger, PLDI 1990). Other fields go to float().
    """
    out = None
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        while block := fh.read(_BLOCK) + fh.readline():
            parsed = _parse_block(block)
            if parsed is None:
                return None
            values, width = parsed
            if out is None:
                # a square file fills width**2 cells; a field takes 4 bytes at
                # least (digit, point, digit, comma), so no file holds more than size // 4
                out, filled, cols = np.empty(min(width * width, size // 4)), 0, width
            if width != cols or filled + values.size > out.size:
                return None
            out[filled : filled + values.size] = values
            filled += values.size
    return None if out is None else out[:filled].reshape(-1, cols)


def _parse_block(block: bytes) -> tuple[np.ndarray, int] | None:
    """The values of a block of whole rows and the row width, or None if a byte breaks the format."""
    text = np.frombuffer(b"0" * 16 + block, dtype=np.uint8)  # every window below starts inside
    if text[-1] != ord("\n") or (text > ord("9")).any():
        return None
    at = np.flatnonzero(text < ord("0"))
    marks = text[at]
    lf = marks == ord("\n")
    if not np.array_equal(at[marks == ord("\r")] + 1, at[lf]):
        return None
    at, marks = at[~lf], marks[~lf]
    dots, ends, row_end = at[0::2], at[1::2], marks[1::2] == ord("\r")
    if dots.size != ends.size or (marks[0::2] != ord(".")).any() or ((marks[1::2] != ord(",")) & ~row_end).any():
        return None
    starts = np.concatenate([[16], ends[:-1] + 1 + row_end[:-1]])
    integer_digits, fraction_digits = dots - starts, ends - dots - 1
    row_ends = np.flatnonzero(row_end)
    width = row_ends[0] + 1
    if (
        min(integer_digits.min(), fraction_digits.min()) < 1
        or (ends - starts).max() > csv.field_size_limit()  # csv rejects such a field
        or (np.diff(row_ends) != width).any()
    ):
        return None
    integer = _read_digits(_windows(text, 8)[dots - 8].view("<u8"), integer_digits)
    # the last 16 bytes of each field: fraction digits 9-16 from its end, then 1-8
    keep = np.empty((ends.size, 2), dtype=np.intp)  # two column writes: a broadcast loops per row
    keep[:, 0], keep[:, 1] = fraction_digits - 8, fraction_digits
    lanes = _read_digits(_windows(text, 16)[ends - 16].view("<u8").reshape(-1, 2), keep)
    fraction = lanes[:, 0] * np.uint64(10**8) + lanes[:, 1]
    quotient = fraction / _POW10.take(fraction_digits, mode="clip")  # as float64: both exact below 2**53
    values = integer + quotient
    error = quotient - (values - integer)
    below = (values.view(np.int64) - 1).view(np.float64)  # the float below, for values > 0
    bound = (values - below) / 2 - 2.0**-54
    exact = (np.abs(error) < bound) & (integer_digits <= 8) & (fraction_digits <= 16) & (fraction < 2**53)
    for i in np.flatnonzero(~exact).tolist():
        values[i] = float(block[starts[i] - 16 : ends[i] - 16])
    return values, int(width)


def _windows(text: np.ndarray, size: int) -> np.ndarray:
    """Every size-byte window of text, one starting at each byte, as a view."""
    return np.ndarray((text.size - size + 1,), dtype=f"S{size}", buffer=text, strides=(1,))


# _DIGIT_MASKS[keep] keeps the low 4 bits of the last keep bytes of a uint64.
_DIGIT_MASKS = np.uint64(0x0F0F0F0F0F0F0F0F) << np.arange(64, -1, -8, dtype=np.uint64)


def _read_digits(lanes: np.ndarray, keep: np.ndarray) -> np.ndarray:
    """The number the last keep (clipped to 0..8) ASCII digits of each uint64 lane spell.

    The inverse of _ascii8: digit pairs, then 4-digit lanes, then the whole,
    each a multiply and a shift (Lemire's eight-digit parse).
    """
    x = lanes & _DIGIT_MASKS.take(keep, mode="clip")
    x = (x * np.uint64(10 << 8 | 1)) >> np.uint64(8)
    x = ((x & np.uint64(0x00FF00FF00FF00FF)) * np.uint64(100 << 16 | 1)) >> np.uint64(16)
    return ((x & np.uint64(0x0000FFFF0000FFFF)) * np.uint64(10000 << 32 | 1)) >> np.uint64(32)


def _parse_with_csv(path: str | Path) -> list[np.ndarray]:
    """Rows the csv module and float() parse from path; raises where a line is no numbers.

    Each row is a float64 array: 8 bytes a cell, and numpy's message if memory runs out.
    """
    rows: list[np.ndarray] = []
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            for record in reader:
                if record:
                    rows.append(np.fromiter(map(float, record), np.float64, len(record)))
        except UnicodeDecodeError as exc:
            # text decodes in chunks, so the reader's line count does not locate the byte
            raise CorruptArrayFile(f"{path} is not UTF-8 text: {exc}") from exc
        except (ValueError, csv.Error) as exc:
            raise CorruptArrayFile(f"{path}, line {reader.line_num}: {exc}") from exc
    return rows
