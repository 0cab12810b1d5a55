"""Cell-level model tests: SET/RESET laws, read, and pulse energy.

Expected values come from closed-form evaluation of the update law and the
trapezoid energy integral, from brute-force iteration, and from Monte Carlo
estimates of the lognormal moments.
"""
from __future__ import annotations

import math

import numpy as np
import pytest

from pcmxbar import (
    DeviceParams,
    PcmCell,
    PulseRole,
    PulseSpec,
    apply_reset_pulse,
    apply_set_pulse,
    pulse_energy,
    read_current,
)
from pcmxbar.errors import AmplitudeBelowThreshold

from conftest import make_rng

SET_PULSE = PulseSpec(1.0, 50e-9, 300e-9, 1.0e-6, PulseRole.SET)
RESET_PULSE = PulseSpec(1.5, 20e-9, 50e-9, 5e-9, PulseRole.RESET)


# ---------------------------------------------------------------- SET law


def test_set_pulse_single_step_closed_form(quiet_device, rng):
    # 10 kOhm + 0.99 MOhm * 0.4 = 406 kOhm
    cell = PcmCell(1.0e6)
    out, _ = apply_set_pulse(cell, SET_PULSE, quiet_device, rng)
    assert out.resistance == pytest.approx(406000.0, rel=1e-13)
    assert out.pulse_count_set == 1
    # input cell untouched (value semantics)
    assert cell.resistance == 1.0e6
    assert cell.pulse_count_set == 0


def test_set_pulse_floor_is_fixed_point(quiet_device, rng):
    cell = PcmCell(quiet_device.r_min)
    out, _ = apply_set_pulse(cell, SET_PULSE, quiet_device, rng)
    assert out.resistance == quiet_device.r_min


def test_set_trajectory_matches_geometric_form(rng):
    # R_k = r_min + (R_0 - r_min) * (1 - alpha)^k, checked at every k
    params = DeviceParams(alpha_set=0.3, sigma_c2c=0.0)
    cell = PcmCell(1.0e6)
    for k in range(1, 21):
        cell, _ = apply_set_pulse(cell, SET_PULSE, params, rng)
        expected = params.r_min + (1.0e6 - params.r_min) * 0.7**k
        assert cell.resistance == pytest.approx(expected, rel=1e-12)
        assert cell.pulse_count_set == k


def test_set_monotone_noise_free(quiet_device, rng):
    cell = PcmCell(5.0e6)
    prev = cell.resistance
    for _ in range(30):
        cell, _ = apply_set_pulse(cell, SET_PULSE, quiet_device, rng)
        assert cell.resistance <= prev
        prev = cell.resistance


def test_set_ensemble_median_non_increasing_with_noise(noisy_device):
    # per-pulse noise can raise a single cell, but the 1000-seed median
    # must still walk down toward the floor
    n_seeds = 1000
    n_pulses = 8
    traj = np.empty((n_seeds, n_pulses + 1))
    for s in range(n_seeds):
        rng = make_rng(1000 + s)
        cell = PcmCell(1.0e6)
        traj[s, 0] = cell.resistance
        for k in range(n_pulses):
            cell, _ = apply_set_pulse(cell, SET_PULSE, noisy_device, rng)
            traj[s, k + 1] = cell.resistance
    medians = np.median(traj, axis=0)
    assert np.all(np.diff(medians) <= 0)


def test_set_resistance_clamped_to_bounds(rng):
    # huge noise makes the raw update overshoot in both directions
    params = DeviceParams(sigma_c2c=5.0)
    for _ in range(200):
        cell = PcmCell(1.0e6)
        out, _ = apply_set_pulse(cell, SET_PULSE, params, rng)
        assert params.r_min <= out.resistance <= params.r_max


def test_set_below_threshold_amplitude_rejected(quiet_device, rng):
    weak = PulseSpec(0.4, 50e-9, 300e-9, 1.0e-6, PulseRole.SET)
    with pytest.raises(AmplitudeBelowThreshold):
        apply_set_pulse(PcmCell(1.0e6), weak, quiet_device, rng)


def test_set_rejects_non_set_role(quiet_device, rng):
    with pytest.raises(ValueError):
        apply_set_pulse(PcmCell(1.0e6), RESET_PULSE, quiet_device, rng)


def test_set_energy_uses_pre_pulse_resistance(quiet_device, rng):
    cell = PcmCell(1.0e6)
    _, energy = apply_set_pulse(cell, SET_PULSE, quiet_device, rng)
    assert energy == pulse_energy(SET_PULSE, 1.0e6)


# ---------------------------------------------------------------- RESET law


def test_reset_zero_spread_hits_median_exactly(quiet_device, rng):
    cell = PcmCell(quiet_device.r_min, pulse_count_set=7)
    out, _ = apply_reset_pulse(cell, RESET_PULSE, quiet_device, 1.0e6, 0.0, rng)
    assert out.resistance == 1.0e6
    assert out.pulse_count_set == 0


def test_reset_median_above_ceiling_clamps(quiet_device, rng):
    out, _ = apply_reset_pulse(
        PcmCell(1.0e6), RESET_PULSE, quiet_device, 1.0e9, 0.0, rng
    )
    assert out.resistance == quiet_device.r_max


def test_reset_sample_cv_matches_target(quiet_device):
    # 10 000 draws; lognormal parameterized so CV of the distribution is the
    # requested rel_spread
    rng = make_rng(42)
    target_cv = 0.6
    samples = np.array(
        [
            apply_reset_pulse(
                PcmCell(1.0e6), RESET_PULSE, quiet_device, 1.0e6, target_cv, rng
            )[0].resistance
            for _ in range(10_000)
        ]
    )
    cv = samples.std() / samples.mean()
    assert abs(cv - target_cv) / target_cv < 0.05


def test_reset_sample_median_matches_target(quiet_device):
    rng = make_rng(7)
    samples = np.array(
        [
            apply_reset_pulse(
                PcmCell(1.0e6), RESET_PULSE, quiet_device, 2.0e5, 0.3, rng
            )[0].resistance
            for _ in range(10_000)
        ]
    )
    assert np.median(samples) == pytest.approx(2.0e5, rel=0.03)


def test_reset_below_threshold_amplitude_rejected(quiet_device, rng):
    weak = PulseSpec(1.0, 20e-9, 50e-9, 5e-9, PulseRole.RESET)
    with pytest.raises(AmplitudeBelowThreshold):
        apply_reset_pulse(PcmCell(1.0e6), weak, quiet_device, 1.0e6, 0.0, rng)


def test_reset_rejects_non_reset_role(quiet_device, rng):
    with pytest.raises(ValueError):
        apply_reset_pulse(PcmCell(1.0e6), SET_PULSE, quiet_device, 1.0e6, 0.0, rng)


def test_reset_rejects_nan_spread(quiet_device, rng):
    # NaN passed `rel_spread < 0` and drew a NaN resistance
    with pytest.raises(ValueError, match="rel_spread"):
        apply_reset_pulse(PcmCell(1.0e6), RESET_PULSE, quiet_device, 1.0e6, math.nan, rng)


def test_reset_rejects_nan_median(quiet_device, rng):
    # NaN slipped through the [r_min, r_max] clamp as a NaN resistance
    with pytest.raises(ValueError, match="target_median"):
        apply_reset_pulse(PcmCell(1.0e6), RESET_PULSE, quiet_device, math.nan, 0.3, rng)


def test_reset_rejects_negative_median(quiet_device, rng):
    # a negative median was silently clamped up to r_min
    with pytest.raises(ValueError, match="target_median"):
        apply_reset_pulse(PcmCell(1.0e6), RESET_PULSE, quiet_device, -5.0, 0.0, rng)


# ---------------------------------------------------------------- read


def test_read_current_ohms_law():
    assert read_current(PcmCell(1.0e6), 0.1) == pytest.approx(1.0e-7, rel=1e-13)


def test_read_current_zero_volts():
    assert read_current(PcmCell(1.0e6), 0.0) == 0.0


def test_read_current_rejects_nan_voltage():
    with pytest.raises(ValueError):
        read_current(PcmCell(1.0e6), math.nan)


def test_read_current_post_set_example():
    # 0.1 V / 406 kOhm, chained from the single-step SET example
    assert read_current(PcmCell(406000.0), 0.1) == pytest.approx(2.463054187e-7, rel=1e-9)


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
    # adaptive quadrature of v(t)^2 / R over the trapezoid profile
    from scipy.integrate import quad

    cases = [
        (SET_PULSE, 1.0e4),
        (RESET_PULSE, 3.3e5),
        (PulseSpec(0.1, 1e-8, 1e-4, 2e-8, PulseRole.READ), 1.0e6),
        (PulseSpec(2.5, 7e-9, 0.0, 9e-7, PulseRole.SET), 5.7e4),
    ]
    for pulse, r in cases:

        def v(t: float) -> float:
            if t < pulse.t_rise:
                return pulse.amplitude * t / pulse.t_rise
            if t < pulse.t_rise + pulse.t_width:
                return pulse.amplitude
            tail = t - pulse.t_rise - pulse.t_width
            return pulse.amplitude * (1.0 - tail / pulse.t_fall)

        oracle = 0.0
        edges = [0.0, pulse.t_rise, pulse.t_rise + pulse.t_width, pulse.duration]
        for lo, hi in zip(edges, edges[1:]):
            if hi > lo:
                oracle += quad(lambda t: v(t) ** 2 / r, lo, hi, epsrel=1e-12)[0]
        assert pulse_energy(pulse, r) == pytest.approx(oracle, rel=1e-9)


def test_pulse_energy_additive_over_sequence(quiet_device, rng):
    cell = PcmCell(1.0e6)
    energies = []
    for _ in range(5):
        cell, e = apply_set_pulse(cell, SET_PULSE, quiet_device, rng)
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
        apply_set_pulse(PcmCell(math.nan), SET_PULSE, quiet_device, rng)


def test_device_params_reject_bad_ordering():
    with pytest.raises(ValueError):
        DeviceParams(r_min=1e7, r_max=1e4)
    with pytest.raises(ValueError):
        DeviceParams(alpha_set=1.5)
    with pytest.raises(ValueError):
        DeviceParams(r_reset_partial_median=2e6, r_reset_full_median=1e6)
    with pytest.raises(ValueError):
        DeviceParams(v_set_threshold=1.5, v_reset_threshold=1.2)
