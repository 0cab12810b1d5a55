"""Device-law tests: the SET and RESET laws, a one-cell read, and pulse energy.

Expected values come from closed-form evaluation of the update law and the
trapezoid energy integral, from brute-force iteration, and from Monte Carlo
estimates of the lognormal moments. The laws act on arrays; a single cell
is an array of shape (1,). Pulse counts and energies of SET pulses are the
crossbar's, checked here on a one-cell program_cells block, and a cell's
read current is a bitline read gated at that cell alone.
"""
from __future__ import annotations

import math
import re
from dataclasses import replace

import numpy as np
import pytest

from pcmxbar import DeviceParams, PulseRole, PulseSpec
from pcmxbar.crossbar import program_cells, read_bitlines
from pcmxbar.device import apply_reset_pulse, apply_set_pulse, pulse_energy
from pcmxbar.network import DEFAULT_READ_PULSE

from conftest import index, make_rng, trapezoid_energy, uniform_array
from test_loop_reference import scalar_reset

SET_PULSE = PulseSpec(1.0, 50e-9, 300e-9, 1.0e-6, PulseRole.SET)
RESET_PULSE = PulseSpec(1.5, 20e-9, 50e-9, 5e-9, PulseRole.RESET)


def one_cell(resistance: float) -> np.ndarray:
    return np.array([resistance])


# ---------------------------------------------------------------- SET law


def test_set_pulse_single_step_closed_form(quiet_device, rng):
    # 10 kOhm + 0.99 MOhm * 0.4 = 406 kOhm
    cell = one_cell(1.0e6)
    out = apply_set_pulse(cell, SET_PULSE, quiet_device, rng)
    assert out[0] == pytest.approx(406000.0, rel=1e-13)
    # input array untouched
    assert cell[0] == 1.0e6


def test_set_pulse_floor_is_fixed_point(quiet_device, rng):
    out = apply_set_pulse(one_cell(quiet_device.r_min), SET_PULSE, quiet_device, rng)
    assert out[0] == quiet_device.r_min


def test_set_trajectory_matches_geometric_form(rng):
    # R_k = r_min + (R_0 - r_min) * (1 - alpha)^k, checked at every k, on a one-cell block
    params = DeviceParams(alpha_set=0.3, sigma_c2c=0.0)
    array = uniform_array(2, 1.0e6, params)
    for k in range(1, 21):
        array, _, _ = program_cells(array, index(0), index(0), SET_PULSE, rng)
        expected = params.r_min + (1.0e6 - params.r_min) * 0.7**k
        assert array.resistance[0, 0] == pytest.approx(expected, rel=1e-12)


def test_set_monotone_noise_free(quiet_device, rng):
    cell = one_cell(5.0e6)
    prev = cell[0]
    for _ in range(30):
        cell = apply_set_pulse(cell, SET_PULSE, quiet_device, rng)
        assert cell[0] <= prev
        prev = cell[0]


def test_set_ensemble_median_non_increasing_with_noise(noisy_device):
    # per-pulse noise can raise a single cell, but the 1000-seed median
    # must still walk down toward the floor
    n_seeds = 1000
    n_pulses = 8
    traj = np.empty((n_seeds, n_pulses + 1))
    for s in range(n_seeds):
        rng = make_rng(1000 + s)
        cell = one_cell(1.0e6)
        traj[s, 0] = cell[0]
        for k in range(n_pulses):
            cell = apply_set_pulse(cell, SET_PULSE, noisy_device, rng)
            traj[s, k + 1] = cell[0]
    medians = np.median(traj, axis=0)
    assert np.all(np.diff(medians) <= 0)


def test_set_resistance_clamped_to_bounds(rng):
    # huge noise makes the raw update overshoot in both directions; 200 cells
    params = DeviceParams(sigma_c2c=5.0)
    out = apply_set_pulse(np.full(200, 1.0e6), SET_PULSE, params, rng)
    assert np.all((params.r_min <= out) & (out <= params.r_max))


def test_set_below_threshold_amplitude_rejected(quiet_device, rng):
    weak = PulseSpec(0.4, 50e-9, 300e-9, 1.0e-6, PulseRole.SET)
    with pytest.raises(ValueError, match=r"^SET amplitude 0\.4 V below threshold 0\.5 V; no state change$"):
        apply_set_pulse(one_cell(1.0e6), weak, quiet_device, rng)


def test_set_rejects_non_set_role(quiet_device, rng):
    with pytest.raises(ValueError, match="^expected a pulse with role SET, got role RESET$"):
        apply_set_pulse(one_cell(1.0e6), RESET_PULSE, quiet_device, rng)


def test_set_energy_uses_pre_pulse_resistance(quiet_device, rng):
    array = uniform_array(2, 1.0e6, quiet_device)
    _, energy, _ = program_cells(array, index(0), index(0), SET_PULSE, rng)
    assert energy == pulse_energy(SET_PULSE, 1.0e6)


# ---------------------------------------------------------------- RESET law


def test_reset_zero_spread_hits_median_exactly(quiet_device, rng):
    state = rng.bit_generator.state
    out = apply_reset_pulse((1,), RESET_PULSE, quiet_device, 1.0e6, 0.0, rng)
    assert out[0] == 1.0e6
    assert rng.bit_generator.state == state  # nothing drawn


def test_reset_median_above_ceiling_clamps(quiet_device, rng):
    out = apply_reset_pulse((1,), RESET_PULSE, quiet_device, 1.0e9, 0.0, rng)
    assert out[0] == quiet_device.r_max


def test_reset_sample_cv_matches_target(quiet_device):
    # 10 000 draws; lognormal parameterized so CV of the distribution is the
    # requested rel_spread
    rng = make_rng(42)
    target_cv = 0.6
    samples = apply_reset_pulse(10_000, RESET_PULSE, quiet_device, 1.0e6, target_cv, rng)
    cv = samples.std() / samples.mean()
    assert abs(cv - target_cv) / target_cv < 0.05


def test_reset_sample_median_matches_target(quiet_device):
    rng = make_rng(7)
    samples = apply_reset_pulse(10_000, RESET_PULSE, quiet_device, 2.0e5, 0.3, rng)
    assert np.median(samples) == pytest.approx(2.0e5, rel=0.03)


# 4,097 cells: one whole exp chunk and one cell past it
@pytest.mark.parametrize("shape", [(), 0, (2, 0), 1, (4097,)], ids=["scalar", "empty", "empty-rows", "one", "chunk-and-one"])
def test_reset_edge_shapes_equal_the_cell_loop(quiet_device, shape):
    rng_block, rng_loop = make_rng(11), make_rng(11)
    out = apply_reset_pulse(shape, RESET_PULSE, quiet_device, 2.2e4, 0.6, rng_block)
    cells = np.empty(shape)
    expected = [scalar_reset(2.2e4, 0.6, quiet_device, rng_loop) for _ in range(cells.size)]
    assert out.shape == cells.shape
    assert out.reshape(-1).tolist() == expected
    assert rng_block.bit_generator.state == rng_loop.bit_generator.state


def test_reset_returns_its_own_float64_array(quiet_device, rng):
    # not the real part of a complex array, a view that would hold the complex buffer
    out = apply_reset_pulse((64, 64), RESET_PULSE, quiet_device, 2.2e4, 0.6, rng)
    assert out.dtype == np.float64 and out.flags.c_contiguous and out.flags.writeable
    assert out.base is None


def test_reset_below_threshold_amplitude_rejected(quiet_device, rng):
    weak = PulseSpec(1.0, 20e-9, 50e-9, 5e-9, PulseRole.RESET)
    with pytest.raises(ValueError, match=r"^RESET amplitude 1\.0 V below threshold 1\.2 V; no state change$"):
        apply_reset_pulse((1,), weak, quiet_device, 1.0e6, 0.0, rng)


def test_reset_rejects_non_reset_role(quiet_device, rng):
    with pytest.raises(ValueError, match="^expected a pulse with role RESET, got role SET$"):
        apply_reset_pulse((1,), SET_PULSE, quiet_device, 1.0e6, 0.0, rng)


def test_reset_rejects_nan_spread(quiet_device, rng):
    # NaN passed `rel_spread < 0` and drew a NaN resistance
    with pytest.raises(ValueError, match="rel_spread"):
        apply_reset_pulse((1,), RESET_PULSE, quiet_device, 1.0e6, math.nan, rng)


def test_reset_rejects_nan_median(quiet_device, rng):
    # NaN slipped through the [r_min, r_max] clamp as a NaN resistance
    with pytest.raises(ValueError, match="target_median"):
        apply_reset_pulse((1,), RESET_PULSE, quiet_device, math.nan, 0.3, rng)


def test_reset_rejects_negative_median(quiet_device, rng):
    # a negative median was silently clamped up to r_min
    with pytest.raises(ValueError, match="target_median"):
        apply_reset_pulse((1,), RESET_PULSE, quiet_device, -5.0, 0.0, rng)


# ---------------------------------------------------------------- read


def read_current(resistance: float, v_read: float) -> float:
    """Current of a read of one cell: one bitline gated at one wordline."""
    array = uniform_array(2, resistance, DeviceParams())
    currents, _ = read_bitlines(array, [0], [0], replace(DEFAULT_READ_PULSE, amplitude=v_read))
    return float(currents[0])


def test_read_current_ohms_law():
    assert read_current(1.0e6, 0.1) == pytest.approx(1.0e-7, rel=1e-13)


def test_read_current_zero_volts():
    assert read_current(1.0e6, 0.0) == 0.0


def test_read_current_rejects_nan_voltage():
    with pytest.raises(ValueError):
        read_current(1.0e6, math.nan)


def test_read_current_post_set_example():
    # 0.1 V / 406 kOhm, chained from the single-step SET example
    assert read_current(406000.0, 0.1) == pytest.approx(2.463054187e-7, rel=1e-9)


# ---------------------------------------------------------------- energy


def test_pulse_energy_trapezoid_example():
    # 1e-4 W * (50/3 + 300 + 1000/3) ns = 65.0 pJ
    assert pulse_energy(SET_PULSE, 1.0e4) == pytest.approx(6.5e-11, rel=1e-12)


def test_pulse_energy_rectangular_read():
    read = PulseSpec(0.1, 0.0, 1.0e-4, 0.0, PulseRole.READ)
    assert pulse_energy(read, 1.0e6) == pytest.approx(1.0e-12, rel=1e-12)


def test_pulse_energy_zero_duration():
    flat = PulseSpec(1.0, 0.0, 0.0, 0.0, PulseRole.SET)
    assert pulse_energy(flat, 1.0e4) == 0.0


def test_pulse_energy_matches_quadrature():
    cases = [
        (SET_PULSE, 1.0e4),
        (RESET_PULSE, 3.3e5),
        (PulseSpec(0.1, 1e-8, 1e-4, 2e-8, PulseRole.READ), 1.0e6),
        (PulseSpec(2.5, 7e-9, 0.0, 9e-7, PulseRole.SET), 5.7e4),
    ]
    for pulse, r in cases:
        assert pulse_energy(pulse, r) == pytest.approx(trapezoid_energy(pulse, r, epsrel=1e-12), rel=1e-9)


def test_pulse_energy_additive_over_sequence(quiet_device, rng):
    array = uniform_array(2, 1.0e6, quiet_device)
    energies = []
    for _ in range(5):
        array, e, _ = program_cells(array, index(0), index(0), SET_PULSE, rng)
        energies.append(e)
    assert sum(energies) == pytest.approx(
        sum(pulse_energy(SET_PULSE, r) for r in _trajectory(quiet_device)), rel=1e-13
    )


def _trajectory(params: DeviceParams) -> list[float]:
    """Pre-pulse resistances of the 5-pulse noise-free sequence from 1 MOhm."""
    out, r = [], 1.0e6
    for _ in range(5):
        out.append(r)
        r = params.r_min + (r - params.r_min) * (1.0 - params.alpha_set)
    return out


# ---------------------------------------------------------------- validation


def test_pulse_spec_rejects_negative_timing():
    with pytest.raises(ValueError):
        PulseSpec(1.0, -1e-9, 300e-9, 1e-6, PulseRole.SET)


@pytest.mark.parametrize("field", ["amplitude", "t_rise", "t_width", "t_fall"])
def test_pulse_spec_rejects_nan(field):
    # NaN fails every comparison, so a `value < 0` check lets it through
    values = dict(amplitude=0.1, t_rise=0.0, t_width=1e-4, t_fall=0.0, role=PulseRole.READ)
    values[field] = math.nan
    with pytest.raises(ValueError):
        PulseSpec(**values)


def test_device_params_reject_nan_sigma_c2c():
    # a `sigma_c2c < 0` check let NaN through
    with pytest.raises(ValueError, match="sigma_c2c"):
        DeviceParams(sigma_c2c=math.nan)


def test_pulse_energy_rejects_nan_resistance(quiet_device, rng):
    # an `any(r <= 0)` check let NaN through, and a NaN cell took a NaN energy
    with pytest.raises(ValueError, match="resistance must be positive"):
        pulse_energy(SET_PULSE, math.nan)
    with pytest.raises(ValueError, match="resistance must be positive"):
        pulse_energy(SET_PULSE, np.array([[1.0e6, math.nan], [1.0e6, 1.0e6]]))
    with pytest.raises(ValueError, match="resistance must be positive"):
        program_cells(uniform_array(2, math.nan, quiet_device), index(0), index(0), SET_PULSE, rng)


# (resistance, whether pulse_energy takes it): cells inside otherwise valid
# blocks, empty blocks and scalars of either number type
POSITIVITY_CASES = {
    "positive-scalar": (1.0e4, True),
    "positive-int-scalar": (10_000, True),
    "zero-scalar": (0.0, False),
    "empty-block": (np.empty((0, 3)), True),
    "positive-block": (np.array([[1.0e4, 2.0e6], [5.0e5, 1.0e7]]), True),
    "int-block": (np.array([10_000, 20_000]), True),
    "zero-cell": (np.array([[1.0e6, 1.0e6], [0.0, 1.0e6]]), False),
    "minus-zero-cell": (np.array([1.0e6, -0.0, 1.0e6]), False),
    "negative-cell": (np.array([[1.0e6, -1.0e4], [1.0e6, 1.0e6]]), False),
    "nan-cell": (np.array([1.0e6, 1.0e6, math.nan]), False),
    "zero-int-cell": (np.array([10_000, 0]), False),
}


@pytest.mark.parametrize("case", list(POSITIVITY_CASES))
def test_pulse_energy_takes_exactly_positive_resistances(case):
    resistance, taken = POSITIVITY_CASES[case]
    # the check pulse_energy's minimum-reduce replaced
    assert bool((np.asarray(resistance) > 0).all()) == taken
    if taken:
        energy = pulse_energy(SET_PULSE, resistance)
        expected = SET_PULSE.amplitude**2 / np.asarray(resistance, dtype=np.float64) * (
            SET_PULSE.t_rise / 3.0 + SET_PULSE.t_width + SET_PULSE.t_fall / 3.0
        )
        assert np.shape(energy) == np.shape(resistance)
        assert np.array_equal(energy, expected)
    else:
        with pytest.raises(ValueError, match="resistance must be positive"):
            pulse_energy(SET_PULSE, resistance)


def test_pulse_energy_into_out_has_the_bits_of_a_new_array():
    resistance = np.array([[1.0e4, 2.0e6], [5.0e5, 1.0e7]])
    expected = pulse_energy(SET_PULSE, resistance).tobytes()
    out = np.empty_like(resistance)
    assert pulse_energy(SET_PULSE, resistance, out=out) is out
    assert out.tobytes() == expected
    # over the resistances themselves, as program_cells writes its block's energies
    assert pulse_energy(SET_PULSE, resistance, out=resistance) is resistance
    assert resistance.tobytes() == expected
    with pytest.raises(ValueError, match="resistance must be positive"):
        pulse_energy(SET_PULSE, np.array([1.0e6, math.nan]), out=np.empty(2))


def test_device_params_reject_bad_ordering():
    with pytest.raises(ValueError):
        DeviceParams(r_min=1e7, r_max=1e4)
    with pytest.raises(ValueError):
        DeviceParams(alpha_set=1.5)
    with pytest.raises(ValueError):
        DeviceParams(r_reset_partial_median=2e6, r_reset_full_median=1e6)
    with pytest.raises(ValueError):
        DeviceParams(v_set_threshold=1.5, v_reset_threshold=1.2)


# Each bound of DeviceParams tried at equality: (fields, None if accepted or
# the message it is rejected with). The defaults are r_min 1e4, r_max 1e7,
# both RESET medians 1e6, alpha_set 0.6 and thresholds 0.5 / 1.2 V.
ORDERING = r"^need 0 < r_min < r_max$"
DEVICE_BOUNDS = [
    pytest.param({"r_min": 0.0}, ORDERING, id="r_min-zero"),
    pytest.param({"r_min": 5e-324}, None, id="r_min-least-positive"),
    pytest.param({"r_min": 1e6, "r_max": 1e6}, ORDERING, id="r_max-at-r_min"),
    pytest.param(
        {"r_reset_full_median": 1e4, "r_reset_partial_median": 1e4},
        r"^r_reset_full_median must lie in \(r_min, r_max\]$",
        id="full-median-at-r_min",
    ),
    pytest.param(
        {"r_reset_partial_median": 1e4}, r"^r_reset_partial_median must lie in \(r_min, r_max\]$", id="partial-median-at-r_min"
    ),
    pytest.param({"r_reset_full_median": 1e7}, None, id="full-median-at-r_max"),
    pytest.param({"r_reset_full_median": 1e7, "r_reset_partial_median": 1e7}, None, id="partial-median-at-r_max"),
    pytest.param({"alpha_set": 0.0}, r"^alpha_set must lie in \(0, 1\)$", id="alpha_set-zero"),
    pytest.param({"alpha_set": 1.0}, r"^alpha_set must lie in \(0, 1\)$", id="alpha_set-one"),
    pytest.param({"sigma_c2c": 0.0}, None, id="sigma_c2c-zero"),
    pytest.param({"v_set_threshold": 0.0}, r"^need 0 < v_set_threshold < v_reset_threshold$", id="v_set-zero"),
    pytest.param({"v_set_threshold": 1.2}, r"^need 0 < v_set_threshold < v_reset_threshold$", id="v_set-at-v_reset"),
]


@pytest.mark.parametrize("fields, message", DEVICE_BOUNDS)
def test_device_params_bounds_at_equality(fields, message):
    if message is None:
        DeviceParams(**fields)
    else:
        with pytest.raises(ValueError, match=message):
            DeviceParams(**fields)


def set_at(device, amplitude, median):
    return apply_set_pulse(one_cell(median), PulseSpec(amplitude, 0, 3e-7, 0, PulseRole.SET), device, make_rng())


def reset_at(device, amplitude, median):
    return apply_reset_pulse(1, PulseSpec(amplitude, 0, 5e-8, 0, PulseRole.RESET), device, median, 0.0, make_rng())


def below(amplitude):
    return math.nextafter(amplitude, 0.0)


def below_threshold(role, amplitude, threshold):
    return ValueError, rf"^{role} amplitude {re.escape(str(amplitude))} V below threshold {threshold} V"


# The pulse laws' checks at equality: (law, amplitude, resistance or RESET
# median, None if accepted or the (error type, message) it is rejected with).
PULSE_LAW_BOUNDS = [
    pytest.param(set_at, 0.5, 1e6, None, id="set-amplitude-at-threshold"),
    pytest.param(set_at, below(0.5), 1e6, below_threshold("SET", below(0.5), r"0\.5"), id="set-amplitude-below"),
    pytest.param(reset_at, 1.2, 1e6, None, id="reset-amplitude-at-threshold"),
    pytest.param(reset_at, below(1.2), 1e6, below_threshold("RESET", below(1.2), r"1\.2"), id="reset-amplitude-below"),
    pytest.param(reset_at, 1.5, 0.0, (ValueError, r"^target_median must be positive$"), id="reset-median-zero"),
    pytest.param(reset_at, 1.5, 5e-324, None, id="reset-median-least-positive"),
]


@pytest.mark.parametrize("law, amplitude, median, rejection", PULSE_LAW_BOUNDS)
def test_pulse_law_bounds_at_equality(quiet_device, law, amplitude, median, rejection):
    if rejection is None:
        assert law(quiet_device, amplitude, median).shape == (1,)
    else:
        with pytest.raises(rejection[0], match=rejection[1]):
            law(quiet_device, amplitude, median)
