"""Array-level tests: initialization, gated reads, block programming, stats, CSV."""
from __future__ import annotations

import math
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
    save_resistance_csv,
)
from pcmxbar.network import DEFAULT_READ_PULSE, DEFAULT_RESET_PULSE
from pcmxbar.errors import CorruptArrayFile, DimensionMismatch, IndexOutOfRange, InvalidDimension

from conftest import make_rng, uniform_array

SET_PULSE = PulseSpec(1.0, 50e-9, 300e-9, 1.0e-6, PulseRole.SET)


# ---------------------------------------------------------------- init


def test_init_zero_cv_is_exactly_uniform(quiet_device, rng):
    scheme = InitScheme(InitVariant.TUNED_FULL_RESET, 0.0, 1.0e6)
    arr = init_array(10, scheme, quiet_device, rng, DEFAULT_RESET_PULSE)
    assert arr.n == 10
    assert np.all(arr.resistance == 1.0e6)


def test_init_rejects_tiny_dimension(quiet_device, rng):
    scheme = InitScheme(InitVariant.TUNED_FULL_RESET, 0.0, 1.0e6)
    with pytest.raises(InvalidDimension):
        init_array(1, scheme, quiet_device, rng, DEFAULT_RESET_PULSE)


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


def test_init_scheme_rejects_nan_median():
    # a `median <= 0` check let NaN through
    with pytest.raises(ValueError, match="median"):
        InitScheme(InitVariant.TUNED_FULL_RESET, 0.1, math.nan)


# ---------------------------------------------------------------- read


def test_read_empty_gate_set_is_dark(quiet_device):
    arr = uniform_array(10, 1.0e6, quiet_device)
    current, energy = read_bitline(arr, 0, set(), DEFAULT_READ_PULSE)
    assert current == 0.0
    assert energy == 0.0


def test_read_four_gated_uniform_cells(quiet_device):
    # 4 x 0.1 V / 1 MOhm = 400 nA
    arr = uniform_array(10, 1.0e6, quiet_device)
    current, energy = read_bitline(arr, 2, {0, 1, 2, 3}, DEFAULT_READ_PULSE)
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
        current, _ = read_bitline(arr, bl, gated, DEFAULT_READ_PULSE)
        mask = np.array([j in gated for j in range(n)], dtype=float)
        oracle = float(np.sum(mask * 0.1 / resistance[bl]))
        assert current == pytest.approx(oracle, rel=1e-12, abs=1e-30)


def test_read_is_linear_over_disjoint_gates(quiet_device):
    rng = make_rng(6)
    resistance = rng.uniform(1e4, 1e7, size=(10, 10))
    arr = CrossbarArray(resistance, quiet_device)
    a, b = {0, 3, 7}, {1, 4}
    ca, _ = read_bitline(arr, 5, a, DEFAULT_READ_PULSE)
    cb, _ = read_bitline(arr, 5, b, DEFAULT_READ_PULSE)
    cab, _ = read_bitline(arr, 5, a | b, DEFAULT_READ_PULSE)
    assert cab == pytest.approx(ca + cb, rel=1e-12)


def test_read_leaves_array_bit_identical(quiet_device):
    rng = make_rng(8)
    resistance = rng.uniform(1e4, 1e7, size=(10, 10))
    arr = CrossbarArray(resistance, quiet_device)
    before = arr.resistance.copy()
    for bl in range(10):
        read_bitline(arr, bl, set(range(10)), DEFAULT_READ_PULSE)
    assert np.array_equal(arr.resistance, before)


def test_read_rejects_disturb_level_voltage(quiet_device):
    arr = uniform_array(10, 1.0e6, quiet_device)
    with pytest.raises(ValueError):
        read_bitline(arr, 0, {0}, replace(DEFAULT_READ_PULSE, amplitude=quiet_device.v_set_threshold))


def test_read_rejects_nan_voltage(quiet_device):
    # NaN passed both comparisons and the read returned a NaN current
    arr = uniform_array(10, 1.0e6, quiet_device)
    with pytest.raises(ValueError, match="amplitude"):
        read_bitline(arr, 0, {0, 1}, replace(DEFAULT_READ_PULSE, amplitude=math.nan))


def test_read_with_no_gated_wordline_rejects_negative_voltage(quiet_device):
    # an empty gate set returned (0.0, 0.0) before the voltage was checked
    arr = uniform_array(10, 1.0e6, quiet_device)
    with pytest.raises(ValueError, match="amplitude"):
        read_bitline(arr, 0, set(), replace(DEFAULT_READ_PULSE, amplitude=-1.0))


def test_read_rejects_bad_indices(quiet_device):
    arr = uniform_array(10, 1.0e6, quiet_device)
    with pytest.raises(IndexOutOfRange):
        read_bitline(arr, 10, {0}, DEFAULT_READ_PULSE)
    with pytest.raises(IndexOutOfRange):
        read_bitline(arr, 0, {0, 10}, DEFAULT_READ_PULSE)


# ---------------------------------------------------------------- program


def test_program_single_cell_leaves_rest_untouched(quiet_device, rng):
    arr = uniform_array(10, 1.0e6, quiet_device)
    before = arr.resistance.copy()
    out, energy, count = program_cells(arr, {0}, {0}, SET_PULSE, rng)
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
    out, _, count = program_cells(arr, on, on, SET_PULSE, rng)
    assert count == 25
    changed = out.resistance != arr.resistance
    expected = np.zeros((10, 10), dtype=bool)
    for i in on:
        for j in on:
            expected[i, j] = True
    assert np.array_equal(changed, expected)


def test_program_empty_selection_is_a_no_op(quiet_device, rng):
    arr = uniform_array(10, 1.0e6, quiet_device)
    out, energy, count = program_cells(arr, set(), {0, 1}, SET_PULSE, rng)
    assert count == 0
    assert energy == 0.0
    assert np.array_equal(out.resistance, arr.resistance)


def test_program_is_deterministic_per_seed(noisy_device):
    arr = uniform_array(10, 1.0e6, noisy_device)
    out1, e1, _ = program_cells(arr, {1, 2}, {3, 4}, SET_PULSE, make_rng(9))
    out2, e2, _ = program_cells(arr, {1, 2}, {3, 4}, SET_PULSE, make_rng(9))
    assert np.array_equal(out1.resistance, out2.resistance)
    assert e1 == e2


def test_program_consumes_rng_row_major(noisy_device):
    # same master seed, one big call vs the documented row-major order
    arr = uniform_array(4, 1.0e6, noisy_device)
    out, _, _ = program_cells(arr, {0, 2}, {1, 3}, SET_PULSE, make_rng(13))
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
        program_cells(arr, {0}, {0}, DEFAULT_RESET_PULSE, rng)
    with pytest.raises(ValueError, match="^expected a pulse with role SET, got role READ$"):
        program_cells(arr, {0}, {0}, DEFAULT_READ_PULSE, rng)


def test_program_rejects_bad_indices(quiet_device, rng):
    arr = uniform_array(10, 1.0e6, quiet_device)
    with pytest.raises(IndexOutOfRange):
        program_cells(arr, {10}, {0}, SET_PULSE, rng)
    with pytest.raises(IndexOutOfRange):
        program_cells(arr, {0}, {-1}, SET_PULSE, rng)


def test_program_checks_each_block_against_its_own_array(quiet_device, rng):
    # the block {0, 5} x {1, 5} is valid on an 8-wide array, not on a 4-wide one
    program_cells(uniform_array(8, 1.0e6, quiet_device), {0, 5}, {1, 5}, SET_PULSE, rng)
    narrow = uniform_array(4, 1.0e6, quiet_device)
    for _ in range(2):
        with pytest.raises(IndexOutOfRange, match=r"^index 5 outside array of dimension 4$"):
            program_cells(narrow, {0, 5}, {1, 5}, SET_PULSE, rng)


def test_program_takes_a_mutable_set_as_a_frozenset(noisy_device):
    arr = uniform_array(10, 1.0e6, noisy_device)
    driven, gated = {7, 1}, {9, 0}
    for _ in range(2):  # the set grows between calls, and the block with it
        out, energy, count = program_cells(arr, driven, gated, SET_PULSE, make_rng(3))
        ref, ref_energy, ref_count = program_cells(arr, frozenset(driven), frozenset(gated), SET_PULSE, make_rng(3))
        assert np.array_equal(out.resistance, ref.resistance)
        assert (energy, count) == (ref_energy, ref_count)
        changed = np.argwhere(out.resistance != arr.resistance).tolist()
        assert changed == [[i, j] for i in sorted(driven) for j in sorted(gated)]
        driven.add(4)


def test_program_with_one_set_for_both_sides_equals_two_copies(noisy_device):
    arr = uniform_array(10, 1.0e6, noisy_device)
    firing = frozenset({8, 2, 5})
    out, energy, count = program_cells(arr, firing, firing, SET_PULSE, make_rng(5))
    ref, ref_energy, ref_count = program_cells(arr, set(firing), set(firing), SET_PULSE, make_rng(5))
    assert np.array_equal(out.resistance, ref.resistance)
    assert (energy, count) == (ref_energy, ref_count) and count == 9
    with pytest.raises(IndexOutOfRange, match=r"^index 10 outside array of dimension 10$"):
        program_cells(arr, firing | {10}, firing | {10}, SET_PULSE, make_rng(5))


@pytest.mark.parametrize("float_index", [5.0, np.float64(5)])
def test_program_rejects_a_float_index_after_its_int_twin(quiet_device, rng, float_index):
    # 5.0 == 5 and hashes alike, so an earlier {5} must not let {5.0} through
    arr = uniform_array(8, 1.0e6, quiet_device)
    program_cells(arr, {5}, {1}, SET_PULSE, rng)
    for _ in range(2):
        with pytest.raises(TypeError):
            program_cells(arr, {float_index}, {1}, SET_PULSE, rng)
        with pytest.raises(TypeError):
            program_cells(arr, {1}, {float_index}, SET_PULSE, rng)


def test_program_without_noise_leaves_the_generator_alone(quiet_device):
    rng = make_rng(4)
    state = rng.bit_generator.state
    out, _, count = program_cells(uniform_array(10, 1.0e6, quiet_device), {0, 1}, {2, 3}, SET_PULSE, rng)
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
    out, _, _ = program_cells(arr, {0, 1}, {0, 1}, SET_PULSE, rng)
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


def test_normalized_weights_identity(quiet_device):
    arr = uniform_array(10, 1.0e6, quiet_device)
    assert np.all(arr.resistance / arr.resistance == 1.0)


def test_normalized_weights_single_set_ratio(quiet_device, rng):
    baseline = uniform_array(10, 1.0e6, quiet_device)
    out, _, _ = program_cells(baseline, {4}, {7}, SET_PULSE, rng)
    ratios = out.resistance / baseline.resistance
    assert ratios[4, 7] == pytest.approx(0.406, rel=1e-12)
    mask = np.ones((10, 10), dtype=bool)
    mask[4, 7] = False
    assert np.all(ratios[mask] == 1.0)


def test_normalized_weights_decrease_with_epochs(quiet_device, rng):
    baseline = uniform_array(10, 1.0e6, quiet_device)
    arr = baseline
    last = 1.0
    for _ in range(5):
        arr, _, _ = program_cells(arr, {2}, {3}, SET_PULSE, rng)
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
    with pytest.raises(DimensionMismatch):
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


@pytest.mark.parametrize("text, got", [("", 0), ("1e6,1e6\n", 1)], ids=["empty", "one-row"])
def test_load_rejects_short_file_without_warning(quiet_device, tmp_path, text, got):
    path = tmp_path / "short.csv"
    path.write_text(text)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InvalidDimension, match=f"short.csv: array dimension must be >= 2, got {got}$"):
            load_resistance_csv(path, quiet_device)


def test_load_parses_a_written_array_without_the_csv_loop(quiet_device, tmp_path, monkeypatch):
    def no_csv_loop(path, params):
        raise AssertionError("the csv loop ran on a well-formed file")

    monkeypatch.setattr(crossbar, "_parse_with_csv", no_csv_loop)
    resistance = make_rng(5).uniform(1e4, 1e7, size=(64, 64))
    path = tmp_path / "array.csv"
    save_resistance_csv([(resistance, path)])
    loaded = load_resistance_csv(path, quiet_device)
    assert loaded.resistance.tobytes() == resistance.tobytes()
    assert loaded.resistance.flags.c_contiguous and loaded.resistance.flags.writeable
