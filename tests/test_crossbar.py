"""Array-level tests: initialization, gated reads, block programming, stats, CSV."""
from __future__ import annotations

import math
import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest

from pcmxbar import InitScheme, InitVariant, PulseRole, PulseSpec, crossbar
from pcmxbar.crossbar import (
    ArrayStats,
    CrossbarArray,
    array_stats,
    init_array,
    load_resistance_csv,
    program_cells,
    read_bitline,
    read_bitlines,
    save_resistance_csv,
)
from pcmxbar.cli import _load_stored
from pcmxbar.configio import bundled_config_path, load_config
from pcmxbar.network import DEFAULT_READ_PULSE, DEFAULT_RESET_PULSE
from pcmxbar.errors import CorruptArrayFile

from conftest import index, make_rng, uniform_array

SET_PULSE = PulseSpec(1.0, 50e-9, 300e-9, 1.0e-6, PulseRole.SET)


# ---------------------------------------------------------------- init


def test_init_zero_cv_is_exactly_uniform(quiet_device, rng):
    scheme = InitScheme(InitVariant.TUNED_FULL_RESET, 0.0, 1.0e6)
    arr = init_array(10, scheme, quiet_device, rng, DEFAULT_RESET_PULSE)
    assert arr.n == 10
    assert np.all(arr.resistance == 1.0e6)


def test_init_single_seed_cv_within_sampling_error(quiet_device):
    # 100 cells at cv 0.09: sample CV lands within +-30% for a single draw
    scheme = InitScheme(InitVariant.UNIFORM_PARTIAL_RESET, 0.09, 1.0e6)
    arr = init_array(10, scheme, quiet_device, make_rng(3), DEFAULT_RESET_PULSE)
    stats = array_stats(arr.resistance)
    assert abs(stats.cv - 0.09) / 0.09 < 0.30


def test_init_ensemble_mean_cv_hits_target(quiet_device):
    # 500 seeds at cv 0.60; the seed-ensemble mean of sample CVs converges
    scheme = InitScheme(InitVariant.UNIFORM_PARTIAL_RESET, 0.60, 1.0e6)
    cvs = [
        array_stats(init_array(10, scheme, quiet_device, make_rng(s), DEFAULT_RESET_PULSE).resistance).cv
        for s in range(500)
    ]
    assert abs(np.mean(cvs) - 0.60) / 0.60 < 0.10


def test_init_respects_device_bounds(quiet_device):
    scheme = InitScheme(InitVariant.UNIFORM_PARTIAL_RESET, 1.5, 1.0e6)
    arr = init_array(10, scheme, quiet_device, make_rng(11), DEFAULT_RESET_PULSE)
    assert np.all(arr.resistance >= quiet_device.r_min)
    assert np.all(arr.resistance <= quiet_device.r_max)


def test_init_scheme_rejects_out_of_range_cv():
    with pytest.raises(ValueError):
        InitScheme(InitVariant.UNIFORM_PARTIAL_RESET, 2.5, 1.0e6)
    with pytest.raises(ValueError):
        InitScheme(InitVariant.UNIFORM_PARTIAL_RESET, -0.1, 1.0e6)


def test_init_rejects_pulse_of_wrong_role(quiet_device, rng):
    scheme = InitScheme(InitVariant.UNIFORM_PARTIAL_RESET, 0.3, 2.2e4)
    with pytest.raises(ValueError, match="^expected a pulse with role RESET, got role SET$"):
        init_array(10, scheme, quiet_device, rng, SET_PULSE)


# ---------------------------------------------------------------- read


def test_read_empty_gate_set_is_dark(quiet_device):
    arr = uniform_array(10, 1.0e6, quiet_device)
    currents, energies = read_bitlines(arr, index(0), index(), DEFAULT_READ_PULSE)
    assert currents.tolist() == [0.0]
    assert energies.tolist() == [0.0]


def test_read_four_gated_uniform_cells(quiet_device):
    # 4 x 0.1 V / 1 MOhm = 400 nA
    arr = uniform_array(10, 1.0e6, quiet_device)
    (current,), (energy,) = read_bitlines(arr, index(2), index(0, 1, 2, 3), DEFAULT_READ_PULSE)
    assert current == pytest.approx(4.0e-7, rel=1e-13)
    # rectangular 100 us read on each of the 4 cells
    assert energy == pytest.approx(4.0e-12, rel=1e-13)


def test_read_matches_masked_sum_oracle(quiet_device):
    rng = make_rng(5)
    for _ in range(50):
        n = int(rng.integers(2, 12))
        resistance = rng.uniform(1e4, 1e7, size=(n, n))
        arr = CrossbarArray(resistance, quiet_device)
        gated = {int(j) for j in rng.choice(n, size=int(rng.integers(0, n + 1)), replace=False)}
        bl = int(rng.integers(0, n))
        (current,), _ = read_bitlines(arr, index(bl), index(*gated), DEFAULT_READ_PULSE)
        mask = np.array([j in gated for j in range(n)], dtype=float)
        oracle = float(np.sum(mask * 0.1 / resistance[bl]))
        assert current == pytest.approx(oracle, rel=1e-12, abs=1e-30)


def test_read_is_linear_over_disjoint_gates(quiet_device):
    rng = make_rng(6)
    resistance = rng.uniform(1e4, 1e7, size=(10, 10))
    arr = CrossbarArray(resistance, quiet_device)
    a, b = {0, 3, 7}, {1, 4}

    def current(gated):
        return read_bitlines(arr, index(5), index(*gated), DEFAULT_READ_PULSE)[0].item()

    assert current(a | b) == pytest.approx(current(a) + current(b), rel=1e-12)


def test_read_leaves_array_bit_identical(quiet_device):
    rng = make_rng(8)
    resistance = rng.uniform(1e4, 1e7, size=(10, 10))
    arr = CrossbarArray(resistance, quiet_device)
    before = arr.resistance.copy()
    for bl in range(10):
        read_bitlines(arr, index(bl), index(*range(10)), DEFAULT_READ_PULSE)
    assert np.array_equal(arr.resistance, before)


def test_read_rejects_disturb_level_voltage(quiet_device):
    arr = uniform_array(10, 1.0e6, quiet_device)
    with pytest.raises(ValueError):
        read_bitlines(arr, index(0), index(0), replace(DEFAULT_READ_PULSE, amplitude=quiet_device.v_set_threshold))


def test_read_rejects_nan_voltage(quiet_device):
    # NaN passed both comparisons and the read returned a NaN current
    arr = uniform_array(10, 1.0e6, quiet_device)
    with pytest.raises(ValueError, match="amplitude"):
        read_bitlines(arr, index(0), index(0, 1), replace(DEFAULT_READ_PULSE, amplitude=math.nan))


def test_read_with_no_gated_wordline_rejects_negative_voltage(quiet_device):
    # an empty gate set returned (0.0, 0.0) before the voltage was checked
    arr = uniform_array(10, 1.0e6, quiet_device)
    with pytest.raises(ValueError, match="amplitude"):
        read_bitlines(arr, index(0), index(), replace(DEFAULT_READ_PULSE, amplitude=-1.0))


def test_read_bitline_is_read_bitlines_of_one_bitline(quiet_device):
    # read_bitline stays only as the name the benchmark tracer hooks
    arr = CrossbarArray(make_rng(9).uniform(1e4, 1e7, size=(10, 10)), quiet_device)
    for bl, gated in ((0, index()), (5, index(0, 3, 7)), (9, index(*range(10)))):
        currents, energies = read_bitlines(arr, index(bl), gated, DEFAULT_READ_PULSE)
        current, energy = read_bitline(arr, bl, gated, DEFAULT_READ_PULSE)
        assert type(current) is float and type(energy) is float
        assert (current, energy) == (currents.item(), energies.item())


# ---------------------------------------------------------------- program


def test_program_single_cell_leaves_rest_untouched(quiet_device, rng):
    arr = uniform_array(10, 1.0e6, quiet_device)
    before = arr.resistance.copy()
    out, energy, count = program_cells(arr, index(0), index(0), SET_PULSE, rng)
    assert count == 1
    assert out.resistance[0, 0] == pytest.approx(406000.0, rel=1e-13)
    # other 99 cells bit-identical
    mask = np.ones((10, 10), dtype=bool)
    mask[0, 0] = False
    assert np.array_equal(out.resistance[mask], before[mask])
    assert energy == pytest.approx(6.5e-13, rel=1e-12)  # 1 V, 1 MOhm, 650 ns effective
    # input array untouched
    assert np.array_equal(arr.resistance, before)


def test_program_block_touches_cartesian_product_only(quiet_device, rng):
    arr = uniform_array(10, 1.0e6, quiet_device)
    on = {0, 1, 2, 3, 5}
    out, _, count = program_cells(arr, index(*on), index(*on), SET_PULSE, rng)
    assert count == 25
    changed = out.resistance != arr.resistance
    expected = np.zeros((10, 10), dtype=bool)
    for i in on:
        for j in on:
            expected[i, j] = True
    assert np.array_equal(changed, expected)


def test_program_cells_takes_int32_indices_as_intp_ones(noisy_device):
    # the kernels take any ascending integer index array: int32 programs as intp does
    index32 = np.array([1, 7], dtype=np.int32)
    arr = uniform_array(10, 1.0e6, noisy_device)
    gated = index(9, 0)
    out, energy, count = program_cells(arr, index32, gated, SET_PULSE, make_rng(3))
    ref, ref_energy, ref_count = program_cells(arr, index(7, 1), gated, SET_PULSE, make_rng(3))
    assert out.resistance.tobytes() == ref.resistance.tobytes()
    assert (energy, count) == (ref_energy, ref_count) and count == 4


def test_program_empty_selection_is_a_no_op(quiet_device, rng):
    arr = uniform_array(10, 1.0e6, quiet_device)
    out, energy, count = program_cells(arr, index(), index(0, 1), SET_PULSE, rng)
    assert count == 0
    assert energy == 0.0
    assert np.array_equal(out.resistance, arr.resistance)


def test_program_is_deterministic_per_seed(noisy_device):
    arr = uniform_array(10, 1.0e6, noisy_device)
    out1, e1, _ = program_cells(arr, index(1, 2), index(3, 4), SET_PULSE, make_rng(9))
    out2, e2, _ = program_cells(arr, index(1, 2), index(3, 4), SET_PULSE, make_rng(9))
    assert np.array_equal(out1.resistance, out2.resistance)
    assert e1 == e2


def test_program_consumes_rng_row_major(noisy_device):
    # same master seed, one big call vs the documented row-major order
    arr = uniform_array(4, 1.0e6, noisy_device)
    out, _, _ = program_cells(arr, index(0, 2), index(1, 3), SET_PULSE, make_rng(13))
    rng = make_rng(13)
    expected = arr.resistance.copy()
    for i in (0, 2):
        for j in (1, 3):
            eps = rng.normal(0.0, noisy_device.sigma_c2c)
            raw = noisy_device.r_min + (expected[i, j] - noisy_device.r_min) * (
                1.0 - noisy_device.alpha_set
            ) * (1.0 + eps)
            expected[i, j] = min(max(raw, noisy_device.r_min), noisy_device.r_max)
    assert np.array_equal(out.resistance, expected)


def test_program_rejects_pulse_of_wrong_role(quiet_device, rng):
    arr = uniform_array(10, 1.0e6, quiet_device)
    with pytest.raises(ValueError, match="^expected a pulse with role SET, got role RESET$"):
        program_cells(arr, index(0), index(0), DEFAULT_RESET_PULSE, rng)
    with pytest.raises(ValueError, match="^expected a pulse with role SET, got role READ$"):
        program_cells(arr, index(0), index(0), DEFAULT_READ_PULSE, rng)


def test_program_with_one_set_for_both_sides_equals_two_copies(noisy_device):
    # training_epoch passes one ON array as both the bitlines and the wordlines
    arr = uniform_array(10, 1.0e6, noisy_device)
    firing = index(8, 2, 5)
    out, energy, count = program_cells(arr, firing, firing, SET_PULSE, make_rng(5))
    ref, ref_energy, ref_count = program_cells(arr, firing.copy(), firing.copy(), SET_PULSE, make_rng(5))
    assert np.array_equal(out.resistance, ref.resistance)
    assert (energy, count) == (ref_energy, ref_count) and count == 9


def test_program_without_noise_leaves_the_generator_alone(quiet_device):
    rng = make_rng(4)
    state = rng.bit_generator.state
    out, _, count = program_cells(uniform_array(10, 1.0e6, quiet_device), index(0, 1), index(2, 3), SET_PULSE, rng)
    assert count == 4 and (out.resistance[[0, 1]][:, [2, 3]] < 1.0e6).all()
    assert rng.bit_generator.state == state


# ---------------------------------------------------------------- stats


def test_array_stats_uniform(quiet_device):
    arr = uniform_array(10, 1.0e6, quiet_device)
    stats = array_stats(arr.resistance)
    assert stats.cv == 0.0
    assert stats.mean == stats.median == 1.0e6
    assert stats.min == stats.max == 1.0e6


def test_array_stats_two_level_population(quiet_device):
    arr = uniform_array(2, 1.0e6, quiet_device)
    arr.resistance[:, 1] = 3.0e6  # two cells at 1 MOhm, two at 3 MOhm
    stats = array_stats(arr.resistance)
    assert stats.mean == pytest.approx(2.0e6, rel=1e-13)
    assert stats.std == pytest.approx(1.0e6, rel=1e-13)  # population std
    assert stats.cv == pytest.approx(0.5, rel=1e-13)


def test_array_stats_cv_consistency(quiet_device):
    rng = make_rng(14)
    arr = CrossbarArray(rng.uniform(1e4, 1e7, size=(10, 10)), quiet_device)
    stats = array_stats(arr.resistance)
    assert stats.cv == pytest.approx(stats.std / stats.mean, rel=1e-12)
    assert stats.min <= stats.median <= stats.max


def test_training_pulls_min_below_initial_min(quiet_device, rng):
    arr = uniform_array(10, 1.0e6, quiet_device)
    out, _, _ = program_cells(arr, index(0, 1), index(0, 1), SET_PULSE, rng)
    assert array_stats(out.resistance).min < array_stats(arr.resistance).min


def test_stats_type_shape():
    assert set(ArrayStats.__dataclass_fields__) == {
        "mean",
        "std",
        "cv",
        "min",
        "max",
        "median",
    }


def test_array_is_its_matrix_and_params(quiet_device):
    # n is read from the matrix, so the two cannot disagree
    assert list(CrossbarArray.__dataclass_fields__) == ["resistance", "params"]
    assert CrossbarArray(np.full((3, 3), 1.0e6), quiet_device).n == 3


# ---------------------------------------------------------------- weights


def test_program_one_cell_scales_only_that_cell_by_the_set_ratio(quiet_device, rng):
    baseline = uniform_array(10, 1.0e6, quiet_device)
    out, _, _ = program_cells(baseline, index(4), index(7), SET_PULSE, rng)
    ratios = out.resistance / baseline.resistance
    assert ratios[4, 7] == pytest.approx(0.406, rel=1e-12)
    mask = np.ones((10, 10), dtype=bool)
    mask[4, 7] = False
    assert np.all(ratios[mask] == 1.0)


def test_program_repeated_pulses_lower_the_cell_resistance_each_time(quiet_device, rng):
    baseline = uniform_array(10, 1.0e6, quiet_device)
    arr = baseline
    last = 1.0
    for _ in range(5):
        arr, _, _ = program_cells(arr, index(2), index(3), SET_PULSE, rng)
        ratio = arr.resistance[2, 3] / baseline.resistance[2, 3]
        assert ratio < last
        last = ratio


# ---------------------------------------------------------------- CSV


def test_resistance_csv_round_trip(quiet_device, tmp_path):
    rng = make_rng(21)
    arr = CrossbarArray(rng.uniform(1e4, 1e7, size=(7, 7)), quiet_device)
    path = tmp_path / "array.csv"
    save_resistance_csv([(arr.resistance, path)])
    loaded = load_resistance_csv(path, quiet_device)
    assert loaded.n == 7
    assert np.array_equal(loaded.resistance, arr.resistance)  # repr round-trip


def test_load_rejects_ragged_csv(quiet_device, tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("1e6,2e6\n3e6\n")
    with pytest.raises(CorruptArrayFile):
        load_resistance_csv(path, quiet_device)


def test_load_rejects_out_of_range_resistance(quiet_device, tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("1e6,1e6\n1e6,1e2\n")  # 100 Ohm below r_min
    with pytest.raises(CorruptArrayFile, match="bad.csv"):
        load_resistance_csv(path, quiet_device)


@pytest.mark.parametrize(
    "cell, reason",
    [("nan", "nan"), ("inf", "inf"), ("2e7", "20000000.0"), ("-1e6", "-1000000.0"), ("abc", "'abc'"), ("", "line 2")],
)
def test_load_rejects_corrupt_cell_naming_the_file(quiet_device, tmp_path, cell, reason):
    path = tmp_path / "corrupt.csv"
    path.write_text(f"1e6,1e6\n1e6,{cell}\n")
    with pytest.raises(CorruptArrayFile, match="corrupt.csv") as excinfo:
        load_resistance_csv(path, quiet_device)
    assert reason in str(excinfo.value)


@pytest.mark.parametrize("text, n", [("", 0), ("1e6\n", 1)], ids=["empty", "one-cell"])
def test_load_takes_square_below_two_by_two_without_warning(quiet_device, tmp_path, text, n):
    # the loader checks what the file alone tells; recall checks the dimension against its config
    path = tmp_path / "short.csv"
    path.write_text(text)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        loaded = load_resistance_csv(path, quiet_device)
    assert loaded.resistance.shape == (n, n) and loaded.n == n


def test_load_rejects_one_row_file_as_not_square_without_warning(quiet_device, tmp_path):
    path = tmp_path / "short.csv"
    path.write_text("1e6,1e6\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(CorruptArrayFile, match="short.csv: resistance CSV is not square$"):
            load_resistance_csv(path, quiet_device)


@pytest.mark.parametrize(
    "content, reason",
    [
        (b"1e6,\xff1e6\n1e6,1e6\n", " is not UTF-8 text"),
        (b"1e6,1e6\n1e6,abc\n", ", line 2: could not convert string to float: 'abc'"),
        (b"1e6,1e6\n1e6\n", ": resistance CSV is not square"),
        (b"1e6,1e6\n1e6,1e2\n", ": cell (bitline 1, wordline 1) holds 100.0 ohm"),
        (b"1e6,1e6,1e6\n" * 3, ": array dimension 3 != config n 10"),
    ],
    ids=["not-utf8", "not-a-number", "not-square", "out-of-range", "three-by-three"],
)
def test_recall_rejects_each_unusable_stored_array_as_corrupt_naming_the_file(tmp_path, content, reason):
    # recall's one file boundary: whatever it cannot use is a CorruptArrayFile (exit 4)
    path = tmp_path / "array_final.csv"
    path.write_bytes(content)
    with pytest.raises(CorruptArrayFile) as excinfo:
        _load_stored(path, load_config(bundled_config_path("paper10x10.json")))
    assert str(excinfo.value).startswith(f"{path}{reason}")


def test_load_reads_a_written_array_with_its_own_reader_alone(quiet_device, tmp_path, monkeypatch):
    def no_csv_loop(path):
        raise AssertionError("the csv loop ran on a file in the writer's own format")

    monkeypatch.setattr(crossbar, "_parse_with_csv", no_csv_loop)
    resistance = make_rng(6).uniform(1e4, 1e7, size=(300, 300))
    resistance[0, :3] = [1e4, 1e7, 12345.0]  # r_min, r_max and an integer
    path = tmp_path / "array.csv"
    save_resistance_csv([(resistance, path)])
    assert path.stat().st_size > 4 * crossbar._BLOCK  # several blocks
    loaded = load_resistance_csv(path, quiet_device)
    assert loaded.resistance.tobytes() == resistance.tobytes()
    assert loaded.resistance.flags.c_contiguous and loaded.resistance.flags.writeable


def test_load_converts_a_written_array_without_float(quiet_device, tmp_path, monkeypatch):
    # the own reader's whole-array steps convert every cell of this array
    # exactly; a cell handed to float() means its fast path was missed
    texts = []
    monkeypatch.setattr(crossbar, "float", lambda text: texts.append(text) or float(text), raising=False)
    resistance = make_rng(0).uniform(1e4, 1e7, size=(256, 256))
    path = tmp_path / "array.csv"
    save_resistance_csv([(resistance, path)])
    loaded = load_resistance_csv(path, quiet_device)
    assert loaded.resistance.tobytes() == resistance.tobytes()
    assert texts == []


def saved_through_repr(resistance, path, monkeypatch) -> list[float]:
    """Save resistance to path, hold the file to repr's text, and return the values the writer handed to repr."""
    values = []
    monkeypatch.setattr(crossbar, "repr", lambda value: values.append(value) or repr(value), raising=False)
    save_resistance_csv([(resistance, path)])
    rows = [b",".join(repr(value).encode() for value in row) + b"\r\n" for row in resistance.tolist()]
    assert path.read_bytes() == b"".join(rows)
    return values


def test_save_formats_an_array_in_range_without_repr(quiet_device, tmp_path, monkeypatch):
    # every cell of this array lies in [1, 10**8), where the writer's own
    # digits are exact; a cell handed to repr means its fast path was missed
    resistance = make_rng(1).uniform(1e4, 1e7, size=(256, 256))
    # r_min, r_max, an integer and the float just below 10**8, 99999999.99999999
    resistance[0, :4] = [quiet_device.r_min, quiet_device.r_max, 12345.0, np.nextafter(1e8, 0)]
    assert saved_through_repr(resistance, tmp_path / "array.csv", monkeypatch) == []


def test_save_hands_values_of_1e8_and_up_to_repr(tmp_path, monkeypatch):
    # the writer's own range ends where the reader's does, at integer parts of 8 digits
    resistance = make_rng(2).uniform(1e4, 1e7, size=(64, 64))
    wide = [1e8, 123456789.5, 2.0**53 - 1]
    resistance[5, 10:13] = wide
    assert saved_through_repr(resistance, tmp_path / "array.csv", monkeypatch) == wide


@pytest.mark.parametrize("same_path", [False, True], ids=["two-paths", "one-path-twice"])
def test_save_copies_the_file_of_an_equal_matrix(tmp_path, monkeypatch, same_path):
    copies, formatted = [], []
    copyfile, write_reprs = crossbar.shutil.copyfile, crossbar._write_reprs
    monkeypatch.setattr(crossbar.shutil, "copyfile", lambda src, dst: copies.append(dst) or copyfile(src, dst))
    monkeypatch.setattr(
        crossbar, "_write_reprs", lambda cells, at, values: formatted.append(at.size) or write_reprs(cells, at, values)
    )
    resistance = make_rng(7).uniform(1e4, 1e7, size=(40, 40))
    first = tmp_path / "first.csv"
    second = first if same_path else tmp_path / "second.csv"
    save_resistance_csv([(resistance, first), (resistance.copy(), second)])
    assert copies == [second] and sum(formatted) == resistance.size  # the second file formats no cell
    written = first.read_bytes()
    assert second.read_bytes() == written
    save_resistance_csv([(resistance, tmp_path / "alone.csv")])
    assert written == (tmp_path / "alone.csv").read_bytes()


# tracemalloc peak of the writer over the series below when it kept its texts
# in a standalone S24 table (numpy 2.4.6); the byte grid may add a little
S24_TABLE_PEAK = 3_453_238


def test_save_keeps_its_memory_near_one_grid(tmp_path):
    # an initial array and two trained ones, each changed in a block of cells
    # as a training epoch programs them; compacting a whole 256 x 256 grid at
    # once, not a block of rows, adds about 1.9 MB
    first = make_rng(3).uniform(1e4, 1e7, size=(256, 256))
    second = first.copy()
    second[:128, :128] *= 0.9
    third = second.copy()
    third[64:192, 64:192] *= 0.9
    series = [(matrix, tmp_path / f"{i}.csv") for i, matrix in enumerate((first, second, third))]
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        save_resistance_csv(series)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert peak <= S24_TABLE_PEAK + 0.25 * 2**20


def test_load_keeps_its_memory_near_one_block(quiet_device, tmp_path):
    # tracemalloc peaks of one load (numpy 2.4.6): 1.2 MB with 64 KiB
    # blocks, 1.9 MB with 128 KiB, 3.2 MB with 256 KiB; the whole file at
    # once measured 11.5 MB
    resistance = make_rng(3).uniform(1e4, 1e7, size=(256, 256))
    path = tmp_path / "array.csv"
    save_resistance_csv([(resistance, path)])
    load_resistance_csv(path, quiet_device)  # one-time allocations fall outside the peak
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        load_resistance_csv(path, quiet_device)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert peak <= 2.25e6


@pytest.mark.parametrize(
    "text, error, rule",
    [
        (
            "1000000.0,1000000.0\r\n1000000.0,100.0\r\n",
            CorruptArrayFile,
            "cell (bitline 1, wordline 1) holds 100.0 ohm, outside [r_min, r_max] = [10000.0, 10000000.0]",
        ),
        (
            "1000000.0,1000000.0,1000000.0\r\n1000000.0,1000000.0,1000000.0\r\n",
            CorruptArrayFile,
            "resistance CSV is not square",
        ),
        ("1000000.0,1000000.0\r\n", CorruptArrayFile, "resistance CSV is not square"),
    ],
    ids=["cell-below-r_min", "two-by-three", "one-row"],
)
def test_load_judges_a_well_formed_file_without_the_csv_loop(quiet_device, tmp_path, monkeypatch, text, error, rule):
    # in the writer's own format: its exact reader parses them, the rules alone reject them
    def no_csv_loop(path):
        raise AssertionError("the csv loop ran on a well-formed file")

    monkeypatch.setattr(crossbar, "_parse_with_csv", no_csv_loop)
    path = tmp_path / "rule.csv"
    path.write_bytes(text.encode())
    with pytest.raises(error) as excinfo:
        load_resistance_csv(path, quiet_device)
    assert str(excinfo.value) == f"{path}: {rule}"
