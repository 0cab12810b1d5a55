"""The whole-array crossbar paths against per-cell loop references.

program_cells, the bitline reads, init_array and training_epoch work on
blocks of cells at once. The loops below do the same work one cell at a time, in the documented
order, through scalar SET and RESET laws and Ohm's law written here from the
README's Model formulas, so the package is not tested against itself. Since
the arithmetic per cell is the same, the two must agree exactly: the
matrices, the SET counts, the energies (bit for bit, so summation order
matters) and the state the generator is left in. apply_set_pulse, which
works in one scratch array, is also held to the SET law written as one
numpy expression.

Two reductions are held bit for bit to the numpy functions they stand in
for: add_in_order, the in-order energy sum over Python floats, to np.cumsum,
and array_stats, whose median comes from np.partition, to np.mean, np.std,
np.min, np.max and np.median. weight_contrast is held to a reference that
builds its block mask from the sorted ON set.

load_resistance_csv reads the writer's own format with pcmxbar's exact
reader and every other file with a csv loop; that loop alone, written here,
is the reference. For any text the two must load the same bits, or raise
the same error with the same message. The exact reader is also held to
float() of each field, bit for bit, on the texts it accepts; a text it
declines is left whole to the csv loop.

save_resistance_csv writes a series of matrices and formats a cell only
where its bits changed since the matrix before. The reference formats every
cell of one matrix; each file of a series must equal it byte for byte. The
changed cells are formatted in chunks by pcmxbar's own shortest-digit
writer, which hands the values outside [1, 10**8) to repr; CPython's repr is
its reference, byte for byte, on any float64 bits, on fixed hard cases and
across chunk boundaries.

variation_sweep computes only each run's epochs and energy; learn_and_recall,
which builds the full report, is its reference, run for run and bit for bit.
"""
from __future__ import annotations

import csv
import json
import math
import re
from dataclasses import replace
from decimal import ROUND_DOWN, ROUND_HALF_EVEN, ROUND_UP, Context, Decimal

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from pcmxbar import (
    DeviceParams,
    ExperimentConfig,
    InitScheme,
    InitVariant,
    ProtocolParams,
    PulseRole,
    PulseSpec,
    learn_and_recall,
    variation_sweep,
)
from pcmxbar import experiments
from pcmxbar.cli import EXIT_OK, main
from pcmxbar.configio import bundled_config_path, config_to_dict, load_config
from pcmxbar.crossbar import (
    CrossbarArray,
    array_stats,
    init_array,
    load_resistance_csv,
    program_cells,
    read_bitlines,
    save_resistance_csv,
)
from pcmxbar.crossbar import _BLOCK, _CHUNK, _parse_own_format, _write_reprs
from pcmxbar.device import apply_set_pulse, pulse_energy
from pcmxbar.errors import CorruptArrayFile, DimensionMismatch, InvalidDimension
from pcmxbar.experiments import SweepRow, _sweep_run, scheme_for_cv, weight_contrast
from pcmxbar.network import DEFAULT_RESET_PULSE, add_in_order, training_epoch

from conftest import index, make_rng, on_pattern, sweep_rng

SET_PULSE = PulseSpec(1.0, 50e-9, 300e-9, 1.0e-6, PulseRole.SET)
READ_PULSE = PulseSpec(0.1, 0.0, 1.0e-4, 0.0, PulseRole.READ)

# Index sets of every kind a caller passes: none, one, all, or any subset.
INDEX_KINDS = ("empty", "single", "full", "any")


def scalar_set(resistance, params, rng):
    """One SET pulse on one cell: R' = clamp(r_min + (R - r_min)(1 - alpha_set)(1 + eps))."""
    eps = rng.normal(0.0, params.sigma_c2c) if params.sigma_c2c > 0 else 0.0
    updated = params.r_min + (resistance - params.r_min) * (1.0 - params.alpha_set) * (1.0 + eps)
    return min(max(updated, params.r_min), params.r_max)


def scalar_reset(median, cv, params, rng):
    """One RESET on one cell: a lognormal draw of this median and CV, clamped."""
    if cv == 0:
        drawn = median
    else:
        drawn = median * math.exp(math.sqrt(math.log1p(cv * cv)) * rng.standard_normal())
    return min(max(drawn, params.r_min), params.r_max)


def loop_program_cells(array, driven_bls, gated_wls, pulse, rng):
    out = CrossbarArray(array.resistance.copy(), array.params)
    energy = 0.0
    count = 0
    for bl in sorted(driven_bls):
        for wl in sorted(gated_wls):
            r = float(out.resistance[bl, wl])
            out.resistance[bl, wl] = scalar_set(r, array.params, rng)
            energy += pulse_energy(pulse, r)
            count += 1
    return out, energy, count


def loop_read_bitline(array, bl, gated_wls, read_pulse):
    current = 0.0
    energy = 0.0
    for wl in sorted(gated_wls):
        r = float(array.resistance[bl, wl])
        current += read_pulse.amplitude / r
        energy += pulse_energy(read_pulse, r)
    return current, energy


def loop_training_epoch(array, pattern, pp, rng):
    """One presentation cell by cell: (array, currents, program energy, read energy).

    Each pulse programs the ON block, or without the diagonal each ON
    bitline against the other ON wordlines; each block's energy is its own
    sum. Then every OFF bitline reads the ON wordlines, in ascending order.
    """
    on = sorted(pattern.on_set())
    out, program_energy = array, 0.0
    for _ in range(pp.pulses_per_coactivation):
        if pp.include_diagonal:
            blocks = [(on, on)]
        else:
            blocks = [([bl], [wl for wl in on if wl != bl]) for bl in on]
        for bls, wls in blocks:
            out, energy, _ = loop_program_cells(out, bls, wls, pp.program_pulse, rng)
            program_energy += energy
    currents = np.full(array.n, math.nan)
    read_energy = 0.0
    for bl in range(array.n):
        if bl not in pattern.on_set():
            currents[bl], energy = loop_read_bitline(out, bl, on, pp.read_pulse)
            read_energy += energy
    return out, currents, program_energy, read_energy


def loop_init_array(n, scheme, params, rng):
    resistance = np.empty((n, n), dtype=np.float64)
    for i in range(n):
        for j in range(n):
            resistance[i, j] = scalar_reset(scheme.median, scheme.cv, params, rng)
    return resistance


def loop_load_resistance_csv(path, params):
    rows = []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            for record in reader:
                if record:
                    rows.append([float(v) for v in record])
        except (ValueError, csv.Error) as exc:
            raise CorruptArrayFile(f"{path}, line {reader.line_num}: {exc}") from exc
    n = len(rows)
    if n < 2:
        raise InvalidDimension(f"{path}: array dimension must be >= 2, got {n}")
    if any(len(r) != n for r in rows):
        raise DimensionMismatch(f"{path}: resistance CSV is not square")
    resistance = np.array(rows, dtype=np.float64)
    outside = ~((resistance >= params.r_min) & (resistance <= params.r_max))
    if outside.any():
        bl, wl = np.argwhere(outside)[0]
        raise CorruptArrayFile(
            f"{path}: cell (bitline {bl}, wordline {wl}) holds {float(resistance[bl, wl])!r} ohm, "
            f"outside [r_min, r_max] = [{params.r_min!r}, {params.r_max!r}]"
        )
    return CrossbarArray(resistance, params)


def loop_save_resistance_csv(resistance, path):
    with open(path, "w", newline="") as fh:
        for row in resistance:
            fh.write(",".join(map(repr, row.tolist())) + "\r\n")


def fresh_mask_weight_contrast(array, pattern):
    on = sorted(pattern.on_set())
    conductance = 1.0 / array.resistance
    block_mask = np.zeros((array.n, array.n), dtype=bool)
    block_mask[np.ix_(on, on)] = True
    return float(conductance[block_mask].mean() / conductance[~block_mask].mean())


@st.composite
def index_sets(draw, n: int, kind: str) -> frozenset[int]:
    if kind == "empty":
        return frozenset()
    if kind == "single":
        return frozenset({draw(st.integers(0, n - 1))})
    if kind == "full":
        return frozenset(range(n))
    return draw(st.frozensets(st.integers(0, n - 1)))


def random_array(seed: int, n: int, params: DeviceParams) -> CrossbarArray:
    rng = make_rng(seed)
    return CrossbarArray(rng.uniform(params.r_min, params.r_max, size=(n, n)), params)


sigmas = st.one_of(st.just(0.0), st.floats(min_value=1e-3, max_value=0.5))


@pytest.mark.parametrize("kind", INDEX_KINDS)
@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 40), sigma=sigmas, data=st.data())
def test_program_cells_equals_cell_loop(kind, seed, n, sigma, data):
    params = DeviceParams(sigma_c2c=sigma)
    array = random_array(seed, n, params)
    before = array.resistance.copy()
    driven = data.draw(index_sets(n, kind))
    gated = data.draw(index_sets(n, data.draw(st.sampled_from(INDEX_KINDS))))
    rng_block, rng_loop = make_rng(seed + 1), make_rng(seed + 1)
    bls, wls = index(*driven), index(*gated)
    out, energy, count = program_cells(array, bls, wls, SET_PULSE, rng_block)
    ref, ref_energy, ref_count = loop_program_cells(array, driven, gated, SET_PULSE, rng_loop)
    assert np.array_equal(out.resistance, ref.resistance)
    # the loop adds pulse_energy of each cell's pre-pulse resistance, in order
    assert energy == ref_energy and type(energy) is float
    assert count == ref_count
    assert rng_block.bit_generator.state == rng_loop.bit_generator.state
    assert np.array_equal(array.resistance, before)


@pytest.mark.parametrize("include_diagonal", [True, False])
@pytest.mark.parametrize("kind", ("empty", "single", "any"))
@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 32), sigma=sigmas, pulses=st.integers(1, 3), data=st.data())
def test_training_epoch_equals_cell_loop(include_diagonal, kind, seed, n, sigma, pulses, data):
    # a single ON neuron without the diagonal programs an empty block
    array = random_array(seed, n, DeviceParams(sigma_c2c=sigma))
    before = array.resistance.copy()
    pattern = on_pattern(n, data.draw(index_sets(n, kind)))
    pp = ProtocolParams(include_diagonal=include_diagonal, pulses_per_coactivation=pulses)
    rng_block, rng_loop = make_rng(seed + 1), make_rng(seed + 1)
    out, trace = training_epoch(array, pattern, pp, rng_block, 3)
    ref, ref_currents, ref_program, ref_read = loop_training_epoch(array, pattern, pp, rng_loop)
    assert (trace.epoch, trace.phase) == (3, "train")
    assert out.resistance.tobytes() == ref.resistance.tobytes()
    assert trace.program_energy.hex() == ref_program.hex()
    assert trace.read_energy.hex() == ref_read.hex()
    assert np.array_equal(np.isnan(trace.currents), np.isnan(ref_currents))
    assert np.array_equal(trace.currents, ref_currents, equal_nan=True)
    assert trace.firing_set == pattern.on_set()
    assert rng_block.bit_generator.state == rng_loop.bit_generator.state
    assert np.array_equal(array.resistance, before)


def one_expression_set(resistance, params, rng):
    """The SET law as one numpy expression over the block, then the clamp."""
    noise = rng.normal(0.0, params.sigma_c2c, size=resistance.shape) if params.sigma_c2c > 0 else 0.0
    updated = params.r_min + (resistance - params.r_min) * (1.0 - params.alpha_set) * (1.0 + noise)
    return np.minimum(np.maximum(updated, params.r_min), params.r_max)


@settings(max_examples=100, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    shape=st.one_of(st.tuples(st.integers(0, 12)), st.tuples(st.integers(0, 12), st.integers(0, 12))),
    sigma=sigmas,
    alpha=st.floats(min_value=0.01, max_value=0.99),
)
def test_set_law_in_place_equals_one_expression(seed, shape, sigma, alpha):
    # apply_set_pulse evaluates the law step by step in one scratch array
    params = DeviceParams(alpha_set=alpha, sigma_c2c=sigma)
    # cells outside [r_min, r_max] too, so that both sides of the clamp act
    resistance = make_rng(seed).uniform(params.r_min / 2, 2 * params.r_max, size=shape)
    before = resistance.copy()
    rng_law, rng_ref = make_rng(seed + 1), make_rng(seed + 1)
    out = apply_set_pulse(resistance, SET_PULSE, params, rng_law)
    ref = one_expression_set(before, params, rng_ref)
    assert out.dtype == ref.dtype and out.shape == ref.shape
    assert out.tobytes() == ref.tobytes()
    assert resistance.tobytes() == before.tobytes()
    assert rng_law.bit_generator.state == rng_ref.bit_generator.state


@pytest.mark.parametrize("kind", INDEX_KINDS)
@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 40), data=st.data())
def test_reads_equal_cell_loop(kind, seed, n, data):
    array = random_array(seed, n, DeviceParams())
    gated = data.draw(index_sets(n, kind))
    bl = data.draw(st.integers(0, n - 1))
    # the current and the energy both come from the pulse's one amplitude
    v_read = data.draw(st.floats(0.0, array.params.v_set_threshold, exclude_max=True))
    pulse = replace(READ_PULSE, amplitude=v_read)
    currents, energies = read_bitlines(array, index(bl), index(*gated), pulse)
    assert (currents.item(), energies.item()) == loop_read_bitline(array, bl, gated, pulse)
    # several bitlines in one call give each bitline's loop sums
    bls = sorted(data.draw(index_sets(n, data.draw(st.sampled_from(INDEX_KINDS)))))
    currents, energies = read_bitlines(array, bls, sorted(gated), pulse)
    expected = [loop_read_bitline(array, b, gated, pulse) for b in bls]
    assert list(zip(currents.tolist(), energies.tolist())) == expected
    # ascending np.intp arrays, as the network passes them, give the same bits
    as_arrays = (np.array(bls, dtype=np.intp), np.array(sorted(gated), dtype=np.intp))
    currents, energies = read_bitlines(array, *as_arrays, pulse)
    assert list(zip(currents.tolist(), energies.tolist())) == expected


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    # 4,096, 4,225 and 8,281 cells: one whole chunk of math.exp in
    # apply_reset_pulse, one cell past it, and a third chunk cut short
    n=st.one_of(st.integers(2, 24), st.sampled_from((64, 65, 91))),
    cv=st.one_of(st.just(0.0), st.floats(min_value=1e-3, max_value=1.99)),
    median=st.floats(min_value=1.0e4, max_value=1.0e7),
)
@example(seed=3, n=64, cv=0.6, median=2.2e4)
@example(seed=3, n=65, cv=0.6, median=2.2e4)
@example(seed=3, n=91, cv=0.6, median=2.2e4)
def test_init_array_equals_cell_loop(seed, n, cv, median):
    params = DeviceParams()
    scheme = InitScheme(InitVariant.UNIFORM_PARTIAL_RESET, cv, median)
    rng_block, rng_loop = make_rng(seed), make_rng(seed)
    array = init_array(n, scheme, params, rng_block, DEFAULT_RESET_PULSE)
    assert np.array_equal(array.resistance, loop_init_array(n, scheme, params, rng_loop))
    assert rng_block.bit_generator.state == rng_loop.bit_generator.state


@settings(max_examples=200, deadline=None)
@given(
    total=st.floats(min_value=0.0, max_value=1.0e-3),
    values=st.lists(st.floats(min_value=0.0, max_value=1.0e-3), max_size=300),
)
def test_add_in_order_equals_running_cumsum(total, values):
    # read energies arrive as numpy arrays and are added as Python floats
    expected = float(np.cumsum(np.append(total, values))[-1])
    got = add_in_order(total, np.array(values, dtype=np.float64).tolist())
    assert got == expected and type(got) is float


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 40), data=st.data())
def test_weight_contrast_equals_fresh_masks(seed, n, data):
    on = data.draw(st.frozensets(st.integers(0, n - 1), min_size=1, max_size=n - 1))
    pattern = on_pattern(n, on)
    array = random_array(seed, n, DeviceParams())
    assert weight_contrast(array, pattern) == fresh_mask_weight_contrast(array, pattern)


@settings(max_examples=200, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    rows=st.integers(1, 40),
    cols=st.integers(1, 40),
    levels=st.one_of(st.none(), st.integers(1, 5)),
    transpose=st.booleans(),
)
def test_array_stats_equals_numpy(seed, rows, cols, levels, transpose):
    params = DeviceParams()
    rng = make_rng(seed)
    if levels is None:
        matrix = rng.uniform(params.r_min, params.r_max, size=(rows, cols))
    else:
        # few distinct values, so the middle order statistics tie
        matrix = rng.choice(rng.uniform(params.r_min, params.r_max, size=levels), size=(rows, cols))
    if transpose:
        matrix = matrix.T  # not C-contiguous
    stats = array_stats(matrix)
    values = matrix.ravel()
    mean, std = float(np.mean(values)), float(np.std(values))
    assert (stats.mean, stats.std, stats.cv) == (mean, std, std / mean)
    assert (stats.min, stats.max) == (float(np.min(values)), float(np.max(values)))
    assert stats.median == float(np.median(values))


# Wide enough that most numbers the texts below spell lie inside.
WIDE_DEVICE = DeviceParams(r_min=1.0e-300, r_max=1.0e300)

CSV_TOKENS = (
    *"0123456789", ".", "e", "+", "-", ",", " ", "\t", "\r", "\n", '"', "_", "#", "nan", "inf", "\uff15"
)

# Cells as the writer spells them or as other writers may (exponents,
# integers), and forms of a cell that only csv and float() read (quotes,
# underscores, padding, non-ASCII digits) or that the csv loop rejects.
plain_cells = st.one_of(st.floats(min_value=1.0e-3, max_value=1.0e12).map(repr), st.integers(0, 10**6).map(str))
odd_cells = st.one_of(
    st.sampled_from(['"2.5e4"', "1_0000.0", " 7e5\t", "\uff15e5", "", "nan", "-3", "\x1c4e4"]),
    st.lists(st.sampled_from(CSV_TOKENS), min_size=1, max_size=6).map("".join),
)
LINE_ENDS = ("\n", "\r\n", "\r", "\n\n", "\r\n \r\n")


@st.composite
def matrix_texts(draw) -> str:
    n = draw(st.integers(1, 4))
    rows = [draw(st.lists(plain_cells, min_size=n, max_size=n)) for _ in range(n)]
    for _ in range(draw(st.sampled_from((0, 0, 1, 2)))):
        row = rows[draw(st.integers(0, n - 1))]
        row[draw(st.integers(0, n - 1))] = draw(odd_cells)
    if draw(st.integers(0, 4)) == 0:  # one ragged row
        row = rows[draw(st.integers(0, n - 1))]
        if draw(st.booleans()):
            row.pop()
        else:
            row.append(draw(plain_cells))
    ends = draw(st.lists(st.sampled_from(LINE_ENDS), min_size=n, max_size=n))
    return draw(st.sampled_from(("", "\n"))) + "".join(",".join(r) + e for r, e in zip(rows, ends))


def load_outcome(loader, path):
    try:
        array = loader(path, WIDE_DEVICE)
    except Exception as exc:  # the outcome is the error class and message
        return type(exc), str(exc)
    return array.resistance.shape, array.resistance.tobytes()


def assert_loads_as_loop(path, text):
    path.write_text(text, newline="")
    assert load_outcome(load_resistance_csv, path) == load_outcome(loop_load_resistance_csv, path)


@pytest.fixture(scope="module")
def csv_path(tmp_path_factory):
    return tmp_path_factory.mktemp("loader") / "array.csv"


@settings(max_examples=500, deadline=None)
@given(text=st.lists(st.sampled_from(CSV_TOKENS), max_size=60).map("".join))
def test_loader_equals_csv_loop_on_any_text(csv_path, text):
    assert_loads_as_loop(csv_path, text)


@settings(max_examples=500, deadline=None)
@given(text=matrix_texts())
def test_loader_equals_csv_loop_on_matrix_texts(csv_path, text):
    assert_loads_as_loop(csv_path, text)


@pytest.mark.parametrize(
    "text, expected",
    [
        ('"2.5e4",3e4\n4e4,5e4\n', [[2.5e4, 3e4], [4e4, 5e4]]),
        ("1_0000.0,3e4\n4e4,5e4\n", [[1.0e4, 3e4], [4e4, 5e4]]),
        ("2e4,3e4\r4e4,5e4\r", [[2e4, 3e4], [4e4, 5e4]]),
        ("2e4,3e4\n\n\r\n4e4,5e4\n", [[2e4, 3e4], [4e4, 5e4]]),
        ("\uff12e4,3e4\n4e4,5e4\n", [[2e4, 3e4], [4e4, 5e4]]),
    ],
    ids=["quoted-cell", "underscore", "cr-line-ends", "blank-lines", "fullwidth-digit"],
)
def test_loader_keeps_what_only_the_csv_loop_reads(csv_path, text, expected):
    assert_loads_as_loop(csv_path, text)
    assert load_resistance_csv(csv_path, DeviceParams()).resistance.tolist() == expected


@pytest.mark.parametrize(
    "text",
    [
        # \x1c-\x1f are spaces to str.isspace() but not to float(), so the csv loop rejects them
        "2e4\x1c,3e4\n4e4,5e4\n",
        "\x1f2e4,3e4\n4e4,5e4\n",
        # csv rejects a field longer than its size limit, though float() reads the number in it
        "0" * (csv.field_size_limit() + 1) + "2e4,3e4\n4e4,5e4\n",
        " " * (csv.field_size_limit() + 1) + "2e4,3e4\n4e4,5e4\n",
    ],
    ids=["x1c", "x1f", "long-zero-padding", "long-space-padding"],
)
def test_loader_rejects_what_the_csv_loop_rejects(csv_path, text):
    assert_loads_as_loop(csv_path, text)
    with pytest.raises(CorruptArrayFile, match="line 1"):
        load_resistance_csv(csv_path, DeviceParams())


# ---------------------------------------------------------------- own-format reader


def own_format(rows) -> str:
    return "".join(",".join(row) + "\r\n" for row in rows)


def read_own_format(path, text):
    path.write_text(text, newline="")
    return _parse_own_format(path)


def assert_read_as_float(path, rows):
    values = read_own_format(path, own_format(rows))
    assert values is not None
    assert values.tobytes() == np.array([[float(t) for t in row] for row in rows]).tobytes()


def plain(decimal: Decimal) -> str:
    text = format(decimal, "f")
    return text if "." in text else text + ".0"


def near_texts(value: float) -> list[str]:
    """Decimals at and near value: trailing zeros, and the midpoint above, exact or cut or rounded to 17-20 digits."""
    exact = Decimal(value)
    midpoint = (exact + Decimal(math.nextafter(value, math.inf))) / 2
    texts = [repr(value) + "0" * zeros for zeros in (1, 5)] + [plain(midpoint)]
    for anchor in (exact, midpoint):
        for digits in range(17, 21):
            for rounding in (ROUND_DOWN, ROUND_HALF_EVEN, ROUND_UP):
                texts.append(plain(Context(prec=digits, rounding=rounding).plus(anchor)))
    return texts


stored_values = st.floats(1.0, 1e7)


@st.composite
def square_reprs(draw) -> list[list[str]]:
    n = draw(st.integers(1, 5))
    return [[repr(v) for v in draw(st.lists(stored_values, min_size=n, max_size=n))] for _ in range(n)]


@settings(max_examples=300, deadline=None)
@given(rows=square_reprs())
def test_own_format_reader_gives_float_of_reprs(csv_path, rows):
    assert_read_as_float(csv_path, rows)


@settings(max_examples=300, deadline=None)
@given(values=st.lists(stored_values, min_size=1, max_size=8))
def test_own_format_reader_gives_float_or_declines_near_decimals(csv_path, values):
    texts = [text for value in values for text in near_texts(value)]
    read = read_own_format(csv_path, own_format([texts]))
    assert read is None or read.tobytes() == np.array([[float(t) for t in texts]]).tobytes()


@pytest.mark.parametrize(
    "field",
    [
        "10000.0",
        "10000000.0",
        "4503599627370496.5",  # a tie that rounds to even: float() reads it
        "123456789.125",  # 9 integer digits
        "1.0000000000000002",  # 16 fraction digits
        "1.00000000000000011",  # 17 fraction digits
        "262143.9999999999854481",  # 16 fraction digits, but >= 2**53 of them
        "00012.5",
        "0.0",
        "0.5",
    ],
)
def test_own_format_reader_gives_float_of_fixed_fields(csv_path, field):
    assert_read_as_float(csv_path, [[field, "12345.678"], ["2.5", field]])


def test_own_format_reader_reads_a_row_longer_than_a_block(csv_path):
    # a field here takes about 18 bytes with its comma
    row = [repr(v) for v in make_rng(8).uniform(1e4, 1e7, _BLOCK // 16).tolist()]
    assert len(",".join(row)) > _BLOCK
    assert_read_as_float(csv_path, [row, row[::-1]])


@pytest.mark.parametrize(
    "pair", [r"\d\d", "\r\n", r",\d", r"\n\d"], ids=["in-field", "in-crlf", "after-comma", "after-row"]
)
def test_own_format_reader_reads_across_a_block_cut(csv_path, pair):
    side = math.isqrt(_BLOCK // 16) + 1  # fields of about 18 bytes: the text runs past the first block
    rows = [[repr(v) for v in row] for row in make_rng(9).uniform(1e4, 1e7, (side, side)).tolist()]
    rows[0][0] = "12.5"
    text = own_format(rows)
    assert len(text) > _BLOCK + 1
    cut = _BLOCK - 1  # the last byte of the first block
    while not re.fullmatch(pair, text[cut : cut + 2]):
        cut -= 1
    rows[0][0] += "0" * (_BLOCK - 1 - cut)  # moves that pair onto the block's edge
    assert re.fullmatch(pair, own_format(rows)[_BLOCK - 1 : _BLOCK + 1])
    assert_read_as_float(csv_path, rows)


@pytest.mark.parametrize(
    "text",
    [
        "12.5,13.5\r\n14.5,15.5",  # no final CRLF
        "12.5,13.5\n14.5,15.5\n",
        "12.5,13.5\r14.5,15.5\r\n",
        "12.5,13.5\r7\n14.5,15.5\r\n",
        "12.5,13.5\r\n\r\n14.5,15.5\r\n",
        "\r\n12.5,13.5\r\n14.5,15.5\r\n",
        "+12.5,13.5\r\n14.5,15.5\r\n",
        "12.5, 13.5\r\n14.5,15.5\r\n",
        "1e6,13.5\r\n14.5,15.5\r\n",
        "\ufeff12.5,13.5\r\n14.5,15.5\r\n",
        "12.5,13.5\r\n14.5\r\n",
        "12.5\r\n14.5,15.5\r\n",
        "12.5,,13.5\r\n14.5,15.5\r\n",
        "12,13.5\r\n14.5,15.5\r\n",
        "12.,13.5\r\n14.5,15.5\r\n",
        ".5,13.5\r\n14.5,15.5\r\n",
        "12.5.5,13.5\r\n14.5,15.5\r\n",
        "-12.5,13.5\r\n14.5,15.5\r\n",
        "",
        "1." + "0" * (csv.field_size_limit() + 1) + ",13.5\r\n14.5,15.5\r\n",  # csv rejects the field
        "12.5,13.5\r\n14.5,15.5\r\n16.5,17.5\r\n",  # more rows than columns
        ("12.5," * 299 + "12.5\r\n") * 299 + "12.5," * 299 + "1e6\r\n",  # the last of several blocks breaks the format
    ],
    ids=["no-final-crlf", "lf-only", "bare-cr", "digit-in-crlf", "blank-line", "leading-blank-line", "plus", "space",
         "exponent", "bom", "ragged-short", "ragged-first", "empty-field", "no-point", "no-fraction", "no-integer",
         "two-points", "minus", "empty-file", "field-over-csv-limit", "more-rows", "bad-last-block"],
)
def test_own_format_reader_declines_other_texts(csv_path, text):
    assert read_own_format(csv_path, text) is None
    assert_loads_as_loop(csv_path, text)


# ---------------------------------------------------------------- CSV writer

# Cells whose text or bits are easy to get wrong: signed zeros, NaN, the
# infinities, subnormals and the longest reprs (24 characters).
SPECIAL_CELLS = (0.0, -0.0, math.nan, math.inf, -math.inf, 5e-324, -2.225073858507201e-308,
                 -2.2250738585072014e-308, -1.7976931348623157e308, 1e16, 1e-05)
cell_values = st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True) | st.sampled_from(SPECIAL_CELLS)


@st.composite
def matrix_series(draw) -> list[np.ndarray]:
    """1-5 matrices: each new (of any shape), the one before again, or that one with a few cells changed."""
    series: list[np.ndarray] = []
    for _ in range(draw(st.integers(1, 5))):
        step = draw(st.sampled_from(("new", "repeat", "change"))) if series else "new"
        if step == "new":
            rows, cols = draw(st.integers(0, 5)), draw(st.integers(0, 5))
            cells = draw(st.lists(cell_values, min_size=rows * cols, max_size=rows * cols))
            matrix = np.array(cells, dtype=np.float64).reshape(rows, cols)
        else:
            matrix = series[-1].copy()
            for _ in range(draw(st.integers(1, 3)) if step == "change" and matrix.size else 0):
                matrix.flat[draw(st.integers(0, matrix.size - 1))] = draw(cell_values)
        series.append(matrix)
    return series


def assert_written_as_loop(series, paths, scratch):
    for matrix, path in zip(series, paths):
        loop_save_resistance_csv(matrix, scratch)
        assert path.read_bytes() == scratch.read_bytes(), path.name


@pytest.fixture(scope="module")
def series_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("writer")


@settings(max_examples=300, deadline=None)
@given(series=matrix_series())
def test_series_writer_equals_one_matrix_loop(series_dir, series):
    paths = [series_dir / f"matrix_{i}.csv" for i in range(len(series))]
    save_resistance_csv(zip(series, paths))
    assert_written_as_loop(series, paths, series_dir / "loop.csv")


@pytest.mark.parametrize("before, after", [(0.0, -0.0), (-0.0, 0.0)], ids=["to-minus", "to-plus"])
def test_series_writer_tells_signed_zeros_apart(series_dir, before, after):
    first = np.full((3, 3), 1.0e6)
    first[1, 2] = before
    second = first.copy()
    second[1, 2] = after  # == the cell before, but other bits and another repr
    paths = [series_dir / "first.csv", series_dir / "second.csv"]
    save_resistance_csv([(first, paths[0]), (second, paths[1])])
    assert_written_as_loop([first, second], paths, series_dir / "loop.csv")
    assert paths[1].read_bytes().split(b"\r\n")[1].endswith(b"," + repr(after).encode())


def formatted(values) -> list[bytes]:
    """The writer's text of each value: the chunk formatter alone, without a file."""
    values = np.array(values, dtype=np.float64)
    cells = np.empty(values.size, dtype="S24")
    _write_reprs(cells, np.arange(values.size), values)
    return cells.tolist()


def reprs(values) -> list[bytes]:
    return [repr(v).encode() for v in np.array(values, dtype=np.float64).tolist()]


@settings(max_examples=300, deadline=None)
@given(patterns=st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=64))
def test_formatter_gives_repr_of_any_float64_bits(patterns):
    values = np.array(patterns, dtype=np.uint64).view(np.float64)
    assert formatted(values) == reprs(values)


@settings(max_examples=300, deadline=None)
@given(values=st.lists(st.floats(1.0, 1e8, exclude_max=True), min_size=1, max_size=64))
def test_formatter_gives_repr_of_floats_it_formats_itself(values):
    assert formatted(values) == reprs(values)


@st.composite
def short_decimal(draw) -> float:
    """A decimal of 1-15 significant digits in [1, 10**8): its repr is that decimal."""
    digits = draw(st.integers(1, 15))
    significand = draw(st.integers(10 ** (digits - 1), 10**digits - 1))
    point = draw(st.integers(digits - 16, digits - 1))  # fraction digits; below 0, trailing zeros
    value = significand / 10**point if point > 0 else float(significand * 10**-point)
    assume(value < 1e8)
    return value


@settings(max_examples=300, deadline=None)
@given(values=st.lists(short_decimal(), min_size=1, max_size=64))
def test_formatter_gives_repr_of_short_decimals(values):
    # each such value drops digits past the first step down, one a step
    assert formatted(values) == reprs(values)


POWERS = [2.0**k for k in range(-1074, 1024)] + [10.0**k for k in range(-323, 309)]
FORMATTER_CELLS = (
    *POWERS,
    *(math.nextafter(p, math.inf) for p in POWERS),
    *(math.nextafter(p, 0.0) for p in POWERS),
    2.0**53 - 1, 2.0**53, 2.0**52 + 1, 10000.0, 1.0e7, 22000.0, 123456789.0, 1e16, 1e-05,  # integers and the edges
    *(k + 0.5 for k in (0, 1, 9, 10, 99, 12345, 2**40, 2**52 - 1)),  # halves
    *(k / 1000 for k in (1001, 1234, 9999, 10001, 22000123, 1234567891)),  # 3-decimal values
    # exact midpoints: one fraction digit reads back, and two lie equally near;
    # below 10**8, eight fraction digits do and two lie equally near
    2.0**50 + 0.25, 2.0**50 + 0.75, 2.0**51 - 0.25, 2.0**26 + 2.0**-9, 2.0**26 + 3 * 2.0**-9,
    *SPECIAL_CELLS, -1.5, -10000.0, 0.5, 0.1, 1.0 - 2.0**-53,  # repr's: signs, zeros, NaN, inf, subnormals, below 1
)


def test_formatter_gives_repr_of_hard_cases():
    assert formatted(FORMATTER_CELLS) == reprs(FORMATTER_CELLS)


@pytest.mark.parametrize("wide", [False, True], ids=["integers-below-1e8", "repr-cells-among-them"])
def test_formatter_gives_repr_of_a_full_chunk(wide):
    # a chunk of the formatter's own cells, then one with repr's among them:
    # cells of 10**8 and up and exact midpoints; the hypothesis lists above
    # never fill a chunk
    values = np.random.default_rng(11).uniform(1e4, 1e7, _CHUNK)
    values[:3] = 1e4, 1e7, 12345.0
    if wide:
        values[3:8] = 123456789.5, 2.0**53 - 1, 1.0000000000000002, 2.0**50 + 0.25, 2.0**26 + 2.0**-9
    assert (values.max() >= 1e8) == wide
    assert formatted(values) == reprs(values)


def test_writer_formats_across_chunk_boundaries(series_dir):
    rng = np.random.default_rng(7)
    size = 3 * _CHUNK + 7
    first = rng.integers(*np.array([1.0, 1e8]).view(np.int64), size).view(np.float64)  # bits in [1, 10**8)
    # repr's values at every chunk edge and scattered between
    edges = [i for chunk in range(1, 4) for i in (chunk * _CHUNK - 1, chunk * _CHUNK)]
    scattered = rng.choice(size, 40, replace=False)
    first[edges + list(scattered)] = rng.choice(np.array(SPECIAL_CELLS + (0.5, -3.0, 2.0**50 + 0.25)), 46)
    second = first.copy()
    changed = rng.random(size) < 0.6  # about 7,400 cells: a second series of chunks
    second[changed] = rng.uniform(1e4, 1e7, changed.sum())
    series = [first.reshape(5, size // 5), second.reshape(5, size // 5)]
    paths = [series_dir / "first.csv", series_dir / "second.csv"]
    save_resistance_csv(zip(series, paths))
    assert_written_as_loop(series, paths, series_dir / "loop.csv")


@pytest.mark.parametrize(
    "epochs, kept, wide",
    [(4, [0, 2, 4], False), (3, [0, 2], False), (4, [0, 2, 4], True)],
    ids=["ends-on-snapshot", "ends-between", "across-1e8"],
)
def test_learn_writes_every_array_as_the_loop_formats_it(tmp_path, epochs, kept, wide):
    spec = config_to_dict(load_config(bundled_config_path("paper10x10.json")))
    spec["device"]["sigma_c2c"] = 0.05
    if wide:  # cells on both sides of 10**8, where the writer's own range ends
        spec["device"]["r_max"], spec["init"]["median"] = 1e9, 2e8
    spec["snapshot_every"] = 2
    spec["recall_target"] = [1] * 9 + [0]  # out of reach: the run trains for every epoch it may
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(spec))
    out = tmp_path / "out"
    argv = ["learn", "--config", str(config_path), "--out-dir", str(out), "--epochs", str(epochs), "--quiet"]
    assert main(argv) == EXIT_OK

    stored = []
    report = learn_and_recall(replace(load_config(config_path), max_epochs=epochs), store=stored.extend)
    assert report.epochs_to_recall is None
    kept_arrays = stored[:-1]
    assert [epoch for epoch, _ in kept_arrays] == kept
    # the final array is the last snapshot only when the run ends on a snapshot epoch
    assert np.array_equal(report.final_resistance, kept_arrays[-1][1]) == (epochs in kept)
    assert sorted(p.name for p in (out / "snapshots").glob("*.csv")) == [f"epoch_{e:04d}.csv" for e in kept]
    expected = {out / "array_initial.csv": kept_arrays[0][1], out / "array_final.csv": report.final_resistance}
    expected.update((out / "snapshots" / f"epoch_{epoch:04d}.csv", matrix) for epoch, matrix in kept_arrays)
    # wide: every initial cell lies at 2e8, and each trained array holds cells on both sides of 10**8
    assert all((matrix >= 1e8).any() == wide for matrix in expected.values())
    assert (report.final_resistance < 1e8).any()
    assert_written_as_loop(expected.values(), expected.keys(), tmp_path / "loop.csv")


def test_learn_at_n72_writes_every_array_as_the_loop_formats_it(tmp_path):
    n = 72
    assert n * n > _CHUNK  # every array takes more than one chunk
    spec = config_to_dict(load_config(bundled_config_path("paper10x10.json")))
    first_half = [1] * (n // 2) + [0] * (n // 2)
    spec.update(
        n=n,
        max_epochs=4,
        snapshot_every=1,
        init={"variant": "uniform_partial_reset", "cv": 0.6, "median": spec["device"]["r_reset_partial_median"]},
        patterns=[first_half, [1 - bit for bit in first_half]],
        recall_stimulus=[1] * 28 + [0] * (n - 28),
        recall_target=first_half,
    )
    spec["device"]["sigma_c2c"] = 0.05
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(spec))
    out = tmp_path / "out"
    assert main(["learn", "--config", str(config_path), "--out-dir", str(out), "--quiet"]) == EXIT_OK

    stored = []
    report = learn_and_recall(load_config(config_path), store=stored.extend)
    kept_arrays = stored[:-1]
    kept = [epoch for epoch, _ in kept_arrays]
    assert sorted(p.name for p in (out / "snapshots").glob("*.csv")) == [f"epoch_{e:04d}.csv" for e in kept]
    expected = {out / "array_initial.csv": kept_arrays[0][1], out / "array_final.csv": report.final_resistance}
    expected.update((out / "snapshots" / f"epoch_{epoch:04d}.csv", matrix) for epoch, matrix in kept_arrays)
    assert_written_as_loop(expected.values(), expected.keys(), tmp_path / "loop.csv")


# ---------------------------------------------------------------- the sweep's per-run path


def test_sweep_run_equals_learn_and_recall_on_bundled_sweep(bundled_class_reports):
    base, _, reports = bundled_class_reports
    for cv_index, runs in enumerate(reports):
        for seed_index, report in enumerate(runs):
            epochs, energy = _sweep_run(report.config, sweep_rng(base.seed, cv_index, seed_index))
            expected = (report.epochs_to_recall, report.total_energy.hex())
            assert (epochs, energy.hex()) == expected, (cv_index, seed_index)


def test_variation_sweep_rows_equal_rows_reduced_from_class_reports(bundled_class_reports):
    base, spec, reports = bundled_class_reports
    expected = []
    for cv, runs in zip(spec.cvs, reports):
        epochs = [r.epochs_to_recall if r.epochs_to_recall is not None else np.inf for r in runs]
        expected.append(
            SweepRow(
                cv=cv,
                median_epochs=float(np.median(epochs)),
                mean_energy=float(np.mean([r.total_energy for r in runs])),
                success_rate=float(np.mean([r.epochs_to_recall is not None for r in runs])),
            )
        )
    assert variation_sweep(base, spec) == expected


# Each case forces one setting the bundled sweep never uses; hypothesis draws the rest.
SWEEP_RUN_CASES = ("sigma-c2c", "no-diagonal", "two-pulses", "one-epoch", "out-of-reach", "overlapping")


def draw_patterns(draw, case: str, n: int) -> tuple[frozenset[int], ...]:
    neurons = st.integers(0, n - 1)
    patterns = draw(st.lists(st.frozensets(neurons), min_size=1, max_size=3))
    if case == "overlapping":
        # two ON sets that share neuron a, neither inside the other: each
        # programs cells the other's training read covers
        a, only_first, only_second = draw(st.permutations(range(n)))[:3]
        first = (patterns[0] | {a, only_first}) - {only_second}
        second = (draw(st.frozensets(neurons)) | {a, only_second}) - {only_first}
        patterns = [first, second] + patterns[1:2]
    return tuple(patterns)


@st.composite
def small_configs(draw, case: str) -> ExperimentConfig:
    n = draw(st.integers(3, 8))
    neurons = st.integers(0, n - 1)
    stimulus = draw(st.frozensets(neurons, min_size=1, max_size=n - 2))
    off = draw(neurons.filter(lambda i: i not in stimulus))
    rest = sorted(set(range(n)) - stimulus - {off})
    if case == "out-of-reach":
        # no cell can gain this factor over its initial conductance: nobody is
        # ever recruited, and the target needs someone
        threshold_factor = 1.0e4
        target = stimulus | {rest[0]}
    else:
        threshold_factor = draw(st.floats(1.0, 3.0))
        target = stimulus | draw(st.frozensets(st.sampled_from(rest)))
    sigma = draw(st.floats(1e-3, 0.3) if case == "sigma-c2c" else st.sampled_from([0.0, 0.05]))
    device = DeviceParams(r_reset_partial_median=22e3, sigma_c2c=sigma)
    protocol = ProtocolParams(
        threshold_factor=threshold_factor,
        include_diagonal=case != "no-diagonal" and draw(st.booleans()),
        pulses_per_coactivation=2 if case == "two-pulses" else draw(st.integers(1, 2)),
    )
    return ExperimentConfig(
        n=n,
        device=device,
        protocol=protocol,
        init=scheme_for_cv(device, draw(st.floats(0.0, 1.0)), 0.15),
        patterns=tuple(on_pattern(n, p) for p in draw_patterns(draw, case, n)),
        recall_stimulus=on_pattern(n, stimulus),
        recall_target=on_pattern(n, target),
        max_epochs=1 if case == "one-epoch" else draw(st.integers(1, 4)),
    )


@pytest.mark.parametrize("case", SWEEP_RUN_CASES)
@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), data=st.data())
def test_sweep_run_equals_learn_and_recall(case, seed, data):
    config = data.draw(small_configs(case))
    reference_rng, rng = make_rng(seed), make_rng(seed)
    report = learn_and_recall(config, reference_rng)
    epochs, energy = _sweep_run(config, rng)
    assert (epochs, energy.hex()) == (report.epochs_to_recall, report.total_energy.hex())
    assert rng.bit_generator.state == reference_rng.bit_generator.state
    # the run keeps its ledger as it goes; each phase is the in-order sum of its traces
    train = [t for t in report.traces if t.phase == "train"]
    sums = {
        "training_program": add_in_order(0.0, [t.program_energy for t in train]),
        "training_read": add_in_order(0.0, [t.read_energy for t in train]),
        "probe_read": add_in_order(0.0, [t.read_energy for t in report.traces if t.phase == "probe"]),
    }
    assert {k: v.hex() for k, v in report.energy_breakdown.items()} == {k: v.hex() for k, v in sums.items()}
    assert report.total_energy.hex() == add_in_order(0.0, sums.values()).hex()
    if case == "out-of-reach":
        assert epochs is None
        assert len(report.contrast_history) == config.max_epochs


@pytest.mark.parametrize("case", SWEEP_RUN_CASES)
@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), data=st.data())
def test_kept_training_reads_equal_fresh_reads(case, seed, data):
    """A run that records a pattern's first read again gives the bits of a run that reads every epoch."""
    config = data.draw(small_configs(case))
    reference_rng, rng = make_rng(seed), make_rng(seed)

    def read_every_epoch(array, pattern, pp, rng, epoch, read=None):
        return training_epoch(array, pattern, pp, rng, epoch)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(experiments, "training_epoch", read_every_epoch)
        reference = learn_and_recall(config, reference_rng)
    report = learn_and_recall(config, rng)

    def reads(r):
        return [(t.epoch, t.phase, t.currents.tobytes(), t.read_energy.hex()) for t in r.traces]

    assert reads(report) == reads(reference)
    assert {k: v.hex() for k, v in report.energy_breakdown.items()} == {
        k: v.hex() for k, v in reference.energy_breakdown.items()
    }
    assert rng.bit_generator.state == reference_rng.bit_generator.state
    ons = [p.on_set() for p in config.patterns]
    programmed = {(bl, wl) for on in ons for bl in on for wl in on}
    read = {(bl, wl) for on in ons for bl in set(range(config.n)) - on for wl in on}
    train = [t.currents for t in report.traces if t.phase == "train"]
    if programmed.isdisjoint(read):
        assert case != "overlapping"
        # each pattern's first read is shared by its later traces, so nobody may write it
        assert len({id(currents) for currents in train}) == len(config.patterns)
        assert not any(currents.flags.writeable for currents in train)
    else:
        # every training epoch read afresh, into an array of its own
        assert len({id(currents) for currents in train}) == len(train)
