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
import functools
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
from .errors import CorruptArrayFile, DimensionMismatch


class InitVariant(enum.Enum):
    # One identical pulse for the whole array leaves wide cell-to-cell spread.
    UNIFORM_PARTIAL_RESET = "uniform_partial_reset"
    # Per-cell tuned pulses reach the fully amorphized state with tight spread.
    TUNED_FULL_RESET = "tuned_full_reset"


@dataclass(frozen=True)
class InitScheme:
    """How the array is prepared before learning: variant, spread, and median.

    cv is checked here; ExperimentConfig ranges the median against the device.
    """

    variant: InitVariant
    cv: float
    median: float

    def __post_init__(self) -> None:
        if not (0 <= self.cv < 2):
            raise ValueError("cv must lie in [0, 2)")


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
    """n x n grid of cells, a value: operations build new arrays and write into none."""

    resistance: np.ndarray  # ohms, shape (n, n), row = bitline
    params: DeviceParams

    @property
    def n(self) -> int:
        return len(self.resistance)


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
    n >= 2 is not checked here; ExperimentConfig checks it.
    """
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
    the end, and a repeated wordline adds twice. A Pattern's on_idx and
    off_idx are the checked arrays. The read voltage is read_pulse.amplitude,
    below the SET threshold so a read never disturbs state. Returns per
    bitline (current in amperes, read energy in joules).
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
    unchecked contract, such as a Pattern's on_idx. Cells are updated in
    row-major order (bitlines ascending, wordlines ascending within a
    bitline) so the noise stream is reproducible. Returns (new array, total programming energy in joules,
    number of cells pulsed). The new array wraps a programmed copy of the
    input's matrix, so cells outside the block keep the input's bytes.
    """
    resistance = array.resistance.copy()
    energy = 0.0
    count = driven_bls.size * gated_wls.size
    if count:
        before = array.resistance.take(driven_bls, axis=0).take(gated_wls, axis=1)
        resistance[driven_bls[:, None], gated_wls] = apply_set_pulse(before, pulse, array.params, rng)
        # Running sum in row-major order, as a per-cell loop adds it; the
        # energies overwrite the gathered block, which nothing reads after.
        energies = pulse_energy(pulse, before, out=before).ravel()
        energy = float(np.add.accumulate(energies, out=energies)[-1])
    return CrossbarArray(resistance, array.params), energy, count


def array_stats(resistance: np.ndarray) -> ArrayStats:
    """Population statistics of a resistance matrix, in row-major order."""
    values = resistance.ravel()
    mean = float(np.mean(values))
    std = float(np.std(values))
    # np.median has these bits too, but it also partitions at the last element
    # to look for NaN; that measured about 1 MB more peak RSS at n = 256. One
    # kth puts the upper middle value in place and every smaller one below
    # it, which measured 7x faster than partitioning at both middle values.
    half = values.size // 2
    ordered = np.partition(values, half)
    upper = float(ordered[half])
    return ArrayStats(
        mean=mean,
        std=std,
        cv=std / mean,
        min=float(np.min(values)),
        max=float(np.max(values)),
        median=upper if values.size % 2 else (float(ordered[:half].max()) + upper) / 2,
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
        if bits is None or bits.shape != values.shape:
            grid, cells = _file_grid(*values.shape)
            changed = np.arange(values.size)
            last = None
        else:
            changed = np.flatnonzero(values.view(np.uint64) != bits)
        if last is None or changed.size:
            bits = values.view(np.uint64).copy()  # the reference for the next matrix
            last = path
            _write_grid(grid, cells, values.reshape(-1), changed, path)
        else:
            with contextlib.suppress(shutil.SameFileError):  # that file holds these bytes already
                shutil.copyfile(last, path)
        # files may make its next matrix while the loop waits for it (learn
        # runs the next epoch then), so only the bits and the grid stay alive
        del matrix, values, changed


def _write_grid(grid: np.ndarray, cells: np.ndarray, values: np.ndarray, changed: np.ndarray, path) -> None:
    """Format the cells at flat indices changed from the flat values, then write the grid to path without its NULs."""
    cols = grid.shape[1] // 25
    for start in range(0, changed.size, _CHUNK):
        at = changed[start : start + _CHUNK]
        _write_reprs(cells, at * 25 + at // cols, values[at])  # each row's LF adds a byte to the slots after it
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
# Integer parts of at most this many digits take the own format's fast path both
# ways: the writer formats [1, 10**8) itself, and the reader converts such fields.
_INTEGER_DIGITS = 8


def _file_grid(rows: int, cols: int) -> tuple[np.ndarray, np.ndarray]:
    """A uint8 grid laid out as a rows x cols file, and an S24 window at each of its bytes.

    A grid row is each cell's 24-byte slot followed by a comma, a CR in
    place of the last comma, then an LF; a row of no cells is CR LF alone.
    A float64 repr is at most 24 characters (sign, 17 digits, point,
    e-308), so NULs pad each text, and the file is the grid without them.
    The slot of flat cell i is the window at byte 25 * i + i // cols.
    """
    width = 25 * cols + 1 if cols else 2
    grid = np.zeros((rows, width), dtype=np.uint8)
    grid[:, 24::25] = ord(",")
    grid[:, -2:] = ord("\r"), ord("\n")
    return grid, _windows(grid.reshape(-1), "S24")


def _write_reprs(cells: np.ndarray, at: np.ndarray, values: np.ndarray) -> None:
    """Set cells[at] to repr(v).encode() of each v in values.

    Values 1 <= v < 10**8 are formatted here; repr writes the others, and the
    exact midpoints, which it breaks by its own rule.
    """
    bits = values.view(np.int64)
    slow = ~((values >= 1) & (values < 10.0**_INTEGER_DIGITS))  # NaN too
    fast = np.flatnonzero(~slow) if slow.any() else slice(None)
    integer, digits, fraction, kept, slow[fast] = _shortest_decimals(bits[fast])  # midpoints go to repr too
    cells[at[fast]] = _point_texts(integer, digits, fraction, kept)
    if slow.any():
        cells[at[slow]] = list(map(repr, values[slow].tolist()))


def _shortest_decimals(bits: np.ndarray) -> tuple[np.ndarray, ...]:
    """The shortest decimal that reads back as each float64 1 <= v < 2**53, the nearest among those.

    Takes the values' bits as int64. Returns the integer part, its digit
    count, the fraction digits left-aligned to 16 places, how many of them
    to write (one at least), and whether the decimal is an exact midpoint,
    where two qualify. It is exact in int64; Ryu (Adams, PLDI 2018) solves
    the general case. Write v = integer + rem / 2**s with s = 52 - exponent.
    At j fraction digits the nearest decimal is frac / 10**j, frac = rem *
    10**j // 2**s, or the one above when the rest rem_j = rem * 10**j % 2**s
    is over half of 2**s. It reads back as v when twice its distance, in
    units of 2**-s * 10**-j, is below 10**j. It is never exactly 10**j: a
    decimal half an ulp away has s + 1 fraction digits, and v itself has s
    at most. The test is monotone in j and passes at 17 significant digits,
    so a cell starts at 17 and drops digits while it passes (_drop_digits).
    Integers take j = 0 at once, and limit 0, so they drop none.

    The 17 digits come in closed form: the float64 product (v - integer) *
    10**j < 10**16, v - integer = rem / 2**s exactly, is rounded once, by at
    most 1, so its integer part is frac or one off. rem_j taken from it in
    wrapping int64 is exact, as the true value lies within 2**s of
    [0, 2**s), and its high bits mend frac.
    """
    s = 1075 - (bits >> 52)
    mantissa = (bits & (2**52 - 1)) | 2**52
    integer = mantissa >> s
    rem = mantissa - (integer << s)
    digits_at, tens, limits = _decimal_tables()
    digits = digits_at.take(s) + (integer >= tens.take(s))
    j = np.where(rem == 0, 0, 17 - digits)
    limit = limits.take(j)
    frac = ((bits.view(np.float64) - integer) * limit).astype(np.int64)
    rem = rem * limit - (frac << s)
    carry = rem >> s
    frac += carry
    rem -= carry << s
    frac, dropped, tied = _drop_digits(frac, rem, limit, s)
    return integer, digits, frac * _POW10.take(16 - j), np.maximum(j - dropped, 1), tied


def _drop_digits(frac, rem, limit, s) -> tuple[np.ndarray, ...]:
    """Round the j digits frac + rem / 2**s (limit is 10**j, or 0 for an integer) to the fewest that read back.

    Returns frac rounded at the last digit kept (the digits past it are
    left as they fall), how many digits it dropped, and whether it lay
    exactly halfway between the two decimals nearest at that length.

    With k digits dropped and r = frac % 10**k, the decimals either side
    lie r + rem / 2**s and 10**k - r - rem / 2**s last digits away. Solved
    for r, the test of _shortest_decimals passes for the one below when
    r <= (10**j - 1 - 2 * rem) >> (s + 1) = below, for the one above when
    10**k - r <= (10**j - 1 + 2 * rem) >> (s + 1) = above, and so for either
    when (frac + above) % 10**k <= below + above (for limit 0 both are -1,
    and it never does). Every cell is tested at one and two digits fewer,
    and the few that drop both at every length left. The decimal nearest
    at k digits fewer is the kept digits of frac + 10**k / 2, or of
    frac + 1 when twice the rest reaches 2**s.
    """
    twice, s1, reach = rem << 1, s + 1, limit - 1
    above = (reach + twice) >> s1
    span = ((reach - twice) >> s1) + above
    shifted = frac + above
    reads = [shifted - shifted // power * power <= span for power in (10, 100)]
    dropped = np.add(*reads, dtype=np.int64)
    deeper, power = np.flatnonzero(reads[1]), 1000
    while deeper.size:
        deeper = deeper[shifted[deeper] % power <= span[deeper]]
        dropped[deeper] += 1
        power *= 10
    unit = _POW10.take(dropped)
    up = twice >> s
    exact = np.flatnonzero(twice == up << s)  # a rest of 0 or exactly half, as a midpoint has
    tied = np.zeros(frac.shape, dtype=bool)
    tied[exact] = 2 * (frac[exact] % unit[exact]) + up[exact] == unit[exact]
    return frac + ((unit + up) >> 1), dropped, tied


def _point_texts(integer, digits, fraction, kept) -> np.ndarray:
    """The texts integer.fraction as an S24 array, writing the first kept of the 16 fraction digits.

    Each cell gets a row of four 8-byte words: its integer part's 8 digits,
    then the point, the 16 fraction digits and NULs. The digits come four at
    a time from quads. The fraction digits past kept are NULs too, so a text
    is the S24 window that starts at the cell's first integer digit.
    """
    fours = np.empty((2, 3, len(kept)), dtype=np.int64)
    eights = fours[1]  # 8-digit lanes, one a row: the integer part, then the fraction
    eights[0] = integer
    _split(fraction, 10**8, eights[1:])
    _split(eights, 10**4, fours)  # eights is fours[1]: split in place
    masks, quads = _text_tables()
    ascii8, low = quads.take(fours)
    del fours, eights  # freed before the rows: they bound the writer's memory peak
    ascii8 |= low << 32
    ascii8[1:] &= masks.take(kept, axis=1)
    rows = np.empty((len(kept), 4), dtype=np.uint64)
    rows[:, 0] = ascii8[0]
    high, low = ascii8[1:]  # the fraction, one byte on for the point
    rows[:, 1] = high << 8 | ord(".")
    rows[:, 2] = high >> 56 | low << 8
    rows[:, 3] = low >> 56
    row_bytes = rows.view(np.uint8).reshape(-1)
    return _windows(row_bytes, "S24")[np.arange(8, row_bytes.size, 32) - digits]


def _split(x: np.ndarray, unit: int, out: np.ndarray) -> None:
    """Set out[0] to x // unit, then out[1] to x % unit; x may be out[1]."""
    np.floor_divide(x, unit, out=out[0])
    np.subtract(x, out[0] * unit, out=out[1])


# The two table builders below run on the writer's first call: built at
# import, the tables raised the peak RSS of runs that write no array
# (perfbench's sweep10x10 by about 0.4 MB).


@functools.cache
def _decimal_tables() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """digits, tens and limits for _shortest_decimals.

    A value 2**(52 - s) <= v < 2**(53 - s) has an integer part of digits[s]
    digits, or one more from tens[s] on. limits[j] is 10**j, but 0 for
    j = 0: an integer has no fraction digit to drop.
    """
    digits = [len(str(2 ** (52 - s))) for s in range(53)]
    return np.array(digits), np.array([10**d for d in digits]), np.array([0] + [10**j for j in range(1, 17)])


@functools.cache
def _text_tables() -> tuple[np.ndarray, np.ndarray]:
    """masks and quads for _point_texts.

    masks[:, k] keeps the first k bytes of two 8-byte words. quads[x] is the
    4 ASCII digits of x < 10**4, first digit in the lowest byte.
    """
    masks = [[2 ** (8 * min(max(k - lane, 0), 8)) - 1 for k in range(17)] for lane in (0, 8)]
    pairs = np.array([int.from_bytes(b"%02d" % x, "little") for x in range(100)], dtype=np.uint64)
    return np.array(masks, dtype=np.uint64), (pairs[:, None] | pairs << 16).reshape(-1)


def load_resistance_csv(path: str | Path, params: DeviceParams) -> CrossbarArray:
    """Read a resistance matrix CSV back into an array.

    Checks only what the file alone tells: it is UTF-8 text holding a
    square matrix of numbers in [r_min, r_max]; every error names the file.
    Any square matrix loads as an (n, n) array, 0 x 0 and 1 x 1 included;
    the caller that knows the n it needs checks it (pcmxbar recall does).
    pcmxbar's exact reader reads the writer's own format and the csv loop
    every other file, so every file loads, or fails, as the csv loop alone
    would have it. The rows are checked here, once, whichever of the two
    read them.
    """
    rows = _parse_own_format(path)
    if rows is None:
        rows = _parse_with_csv(path)
    n = len(rows)
    if any(len(r) != n for r in rows):
        raise DimensionMismatch(f"{path}: resistance CSV is not square")
    resistance = np.asarray(rows, dtype=np.float64).reshape(n, n)
    # written as a negation so that NaN counts as outside
    outside = ~((resistance >= params.r_min) & (resistance <= params.r_max))
    if outside.any():
        bl, wl = np.argwhere(outside)[0]
        raise CorruptArrayFile(
            f"{path}: cell (bitline {bl}, wordline {wl}) holds {float(resistance[bl, wl])!r} ohm, "
            f"outside [r_min, r_max] = [{params.r_min!r}, {params.r_max!r}]"
        )
    return CrossbarArray(resistance, params)


# Bytes read per block, plus the rest of the line the block ends in. On a
# 256 x 256 file 128 KiB measured 3-8% faster than 64 KiB and about 30%
# faster than 256 KiB; its traced peak is 0.7 MB above 64 KiB's and 1.3 MB
# below 256 KiB's.
_BLOCK = 131072
# Put before each block: digits, so that every window below starts inside the
# text, then an LF, so that every field starts right after a mark.
_LEAD = b"0" * 15 + b"\n"


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
    text = np.frombuffer(_LEAD + block, dtype=np.uint8)
    if text[-1] != ord("\n"):
        return None
    at = np.flatnonzero(text - np.uint8(ord("0")) > 9)  # every byte but a digit; those below "0" wrap
    marks = text[at]
    # after the lead's LF, each row's marks must spell the first row's: a
    # point and a comma per field, a CR in place of the last comma, then LF
    width = (int(np.argmax(marks[1:] == ord("\n"))) + 1) // 2
    row = np.frombuffer(b".," * (width - 1) + b".\r\n", dtype=np.uint8)
    if (marks.size - 1) % row.size or (marks[1:].reshape(-1, row.size) != row).any():
        return None
    before, at = at[:-1].reshape(-1, row.size), at[1:].reshape(-1, row.size)
    dots, ends, starts = at[:, :-1:2], at[:, 1::2], before[:, :-1:2] + 1  # rows x width
    integer_digits, fraction_digits = dots - starts, ends - dots - 1
    if (
        min(integer_digits.min(), fraction_digits.min()) < 1
        or (ends - starts).max() > csv.field_size_limit()  # csv rejects such a field
        or (at[:, -1] - at[:, -2] != 1).any()  # a digit between CR and LF
    ):
        return None
    integer = _read_digits(_windows(text, "V8")[dots - 8].view("<u8"), integer_digits)
    # the last 16 bytes of each field: fraction digits 9-16 from its end, then 1-8
    keep = np.empty(ends.shape + (2,), dtype=np.intp)  # two lane writes: a broadcast loops per field
    keep[..., 0], keep[..., 1] = fraction_digits - 8, fraction_digits
    lanes = _read_digits(_windows(text, "V16")[ends - 16].view("<u8").reshape(keep.shape), keep)
    fraction = lanes[..., 0] * np.uint64(10**8) + lanes[..., 1]
    quotient = fraction / _POW10.take(fraction_digits, mode="clip")  # as float64: both exact below 2**53
    values = integer + quotient
    error = quotient - (values - integer)
    below = (values.view(np.int64) - 1).view(np.float64)  # the float below, for values > 0
    bound = (values - below) / 2 - 2.0**-54
    exact = np.abs(error) < bound
    exact &= (integer_digits <= _INTEGER_DIGITS) & (fraction_digits <= 16) & (fraction < 2**53)
    for i in np.flatnonzero(~exact).tolist():
        values.flat[i] = float(block[starts.flat[i] - 16 : ends.flat[i] - 16])
    return values.reshape(-1), width


def _windows(text: np.ndarray, dtype: str) -> np.ndarray:
    """Every window of text as one item of dtype, one starting at each byte, as a view (none if text is shorter).

    Void windows of 8 and 16 bytes gather about a third faster than bytes
    windows of the same size.
    """
    size = np.dtype(dtype).itemsize
    return np.ndarray((max(text.size - size + 1, 0),), dtype=dtype, buffer=text, strides=(1,))


# _DIGIT_MASKS[keep] keeps the low 4 bits of the last keep bytes of a uint64.
_DIGIT_MASKS = np.uint64(0x0F0F0F0F0F0F0F0F) << np.arange(64, -1, -8, dtype=np.uint64)


def _read_digits(lanes: np.ndarray, keep: np.ndarray) -> np.ndarray:
    """The number the last keep (clipped to 0..8) ASCII digits of each uint64 lane spell.

    The inverse of the writer's digits: digit pairs, then 4-digit lanes, then the whole,
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
