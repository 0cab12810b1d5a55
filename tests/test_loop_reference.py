"""The whole-array crossbar paths against per-cell loop references.

program_cells, the bitline reads and init_array work on blocks of cells at
once. The loops below do the same work one cell at a time, in the documented
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

load_resistance_csv parses with numpy's C reader and falls back to a csv
loop; the loop alone is the reference. For any text the two must load the
same bits, or raise the same error with the same message.

save_resistance_csv writes a series of matrices and formats a cell only
where its bits changed since the matrix before. The reference formats every
cell of one matrix; each file of a series must equal it byte for byte.

variation_sweep computes only each run's epochs and energy; learn_and_recall,
which builds the full report, is its reference, run for run and bit for bit.
"""
from __future__ import annotations

import csv
import json
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pcmxbar import (
    DeviceParams,
    ExperimentConfig,
    InitScheme,
    InitVariant,
    Pattern,
    ProtocolParams,
    PulseRole,
    PulseSpec,
    learn_and_recall,
    variation_sweep,
)
from pcmxbar.cli import EXIT_OK, main
from pcmxbar.configio import bundled_config_path, config_to_dict, load_config
from pcmxbar.crossbar import (
    CrossbarArray,
    array_stats,
    init_array,
    load_resistance_csv,
    program_cells,
    read_bitline,
    read_bitlines,
    save_resistance_csv,
)
from pcmxbar.device import apply_set_pulse, pulse_energy
from pcmxbar.errors import CorruptArrayFile, DimensionMismatch, InvalidDimension
from pcmxbar.experiments import SweepRow, _sweep_run, scheme_for_cv, weight_contrast
from pcmxbar.network import DEFAULT_RESET_PULSE, add_in_order

from conftest import make_rng, on_pattern, sweep_rng

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
    out = array.copy()
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
    out, energy, count = program_cells(array, driven, gated, SET_PULSE, rng_block)
    ref, ref_energy, ref_count = loop_program_cells(array, driven, gated, SET_PULSE, rng_loop)
    assert np.array_equal(out.resistance, ref.resistance)
    # the loop adds pulse_energy of each cell's pre-pulse resistance, in order
    assert energy == ref_energy and type(energy) is float
    assert count == ref_count
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
    assert read_bitline(array, bl, gated, pulse) == loop_read_bitline(array, bl, gated, pulse)
    # several bitlines in one call give each bitline's loop sums
    bls = sorted(data.draw(index_sets(n, data.draw(st.sampled_from(INDEX_KINDS)))))
    currents, energies = read_bitlines(array, bls, sorted(gated), pulse)
    expected = [loop_read_bitline(array, b, gated, pulse) for b in bls]
    assert list(zip(currents.tolist(), energies.tolist())) == expected
    # ascending np.intp arrays, as the network passes them, give the same bits
    as_arrays = (np.array(bls, dtype=np.intp), np.array(sorted(gated), dtype=np.intp))
    currents, energies = read_bitlines(array, *as_arrays, pulse)
    assert list(zip(currents.tolist(), energies.tolist())) == expected


@settings(max_examples=100, deadline=None)
@given(bits=st.lists(st.booleans(), min_size=1, max_size=40))
def test_pattern_index_arrays_are_its_sorted_sets(bits):
    pattern = Pattern(tuple(bits))
    on = sorted(pattern.on_set())
    off = sorted(set(range(len(bits))) - pattern.on_set())
    for index, expected in ((pattern.on_idx, on), (pattern.off_idx, off)):
        assert index.dtype == np.intp and index.tolist() == expected
        with pytest.raises(ValueError, match="read-only"):
            index[:] = 0


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(2, 24),
    cv=st.one_of(st.just(0.0), st.floats(min_value=1e-3, max_value=1.99)),
    median=st.floats(min_value=1.0e4, max_value=1.0e7),
)
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

# Cells as the writer spells them, and forms of a cell that numpy's reader
# declines, that only the csv loop reads, or that neither reads.
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
        # numpy's reader strips \x1c-\x1f around a number, float() does not
        "2e4\x1c,3e4\n4e4,5e4\n",
        "\x1f2e4,3e4\n4e4,5e4\n",
        # csv rejects a field longer than its size limit, numpy reads on
        "0" * (csv.field_size_limit() + 1) + "2e4,3e4\n4e4,5e4\n",
        " " * (csv.field_size_limit() + 1) + "2e4,3e4\n4e4,5e4\n",
    ],
    ids=["x1c", "x1f", "long-zero-padding", "long-space-padding"],
)
def test_loader_rejects_what_the_csv_loop_rejects(csv_path, text):
    assert_loads_as_loop(csv_path, text)
    with pytest.raises(CorruptArrayFile, match="line 1"):
        load_resistance_csv(csv_path, DeviceParams())


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


@pytest.mark.parametrize("epochs, kept", [(4, [0, 2, 4]), (3, [0, 2])], ids=["ends-on-snapshot", "ends-between"])
def test_learn_writes_every_array_as_the_loop_formats_it(tmp_path, epochs, kept):
    spec = config_to_dict(load_config(bundled_config_path("paper10x10.json")))
    spec["device"]["sigma_c2c"] = 0.05
    spec["snapshot_every"] = 2
    spec["recall_target"] = [1] * 9 + [0]  # out of reach: the run trains for every epoch it may
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(spec))
    out = tmp_path / "out"
    argv = ["learn", "--config", str(config_path), "--out-dir", str(out), "--epochs", str(epochs), "--quiet"]
    assert main(argv) == EXIT_OK

    report = learn_and_recall(replace(load_config(config_path), max_epochs=epochs))
    assert report.epochs_to_recall is None
    kept_arrays = report.snapshots
    assert [epoch for epoch, _ in kept_arrays] == kept
    # the final array is the last snapshot only when the run ends on a snapshot epoch
    assert np.array_equal(report.final_resistance, kept_arrays[-1][1]) == (epochs in kept)
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
SWEEP_RUN_CASES = ("sigma-c2c", "no-diagonal", "two-pulses", "one-epoch", "out-of-reach")


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
        patterns=tuple(on_pattern(n, p) for p in draw(st.lists(st.frozensets(neurons), min_size=1, max_size=3))),
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
    if case == "out-of-reach":
        assert epochs is None
        assert len(report.contrast_history) == config.max_epochs
