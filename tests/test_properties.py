"""Property-based invariants over randomized valid inputs.

Device laws (bounds, monotonicity, geometric form, energy), read linearity,
programming locality and a Pattern's index arrays under hypothesis-generated
parameters.
"""
from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pcmxbar import DeviceParams, Pattern, PulseRole, PulseSpec
from pcmxbar.crossbar import CrossbarArray, ascending_indices, program_cells, read_bitlines
from pcmxbar.device import apply_set_pulse, pulse_energy

from pcmxbar.network import DEFAULT_READ_PULSE

from conftest import index, make_rng

alphas = st.floats(min_value=0.05, max_value=0.95)
resistances = st.floats(min_value=1.0e4, max_value=1.0e7)
sigmas = st.floats(min_value=0.0, max_value=1.0)
# 1 ps floor: subnormal durations push the energy product below the normal
# float range, where power-of-two scaling stops being exact
durations = st.one_of(st.just(0.0), st.floats(min_value=1.0e-12, max_value=1.0e-3))
amplitudes = st.floats(min_value=0.5, max_value=3.0)


def _device(alpha: float, sigma: float) -> DeviceParams:
    return DeviceParams(alpha_set=alpha, sigma_c2c=sigma)


SET_PULSE = PulseSpec(1.0, 50e-9, 300e-9, 1.0e-6, PulseRole.SET)


@settings(max_examples=200, deadline=None)
@given(r0=resistances, alpha=alphas, sigma=sigmas, seed=st.integers(0, 2**32 - 1))
def test_resistance_always_within_device_bounds(r0, alpha, sigma, seed):
    params = _device(alpha, sigma)
    rng = make_rng(seed)
    cell = np.array([r0])
    for _ in range(10):
        energy = pulse_energy(SET_PULSE, cell)
        cell = apply_set_pulse(cell, SET_PULSE, params, rng)
        assert params.r_min <= cell[0] <= params.r_max
        assert energy[0] > 0.0


@settings(max_examples=200, deadline=None)
@given(r0=resistances, alpha=alphas)
def test_noise_free_set_is_monotone_and_geometric(r0, alpha):
    params = _device(alpha, 0.0)
    rng = make_rng(0)
    cell = np.array([r0])
    prev = r0
    for k in range(1, 11):
        cell = apply_set_pulse(cell, SET_PULSE, params, rng)
        assert cell[0] <= prev
        expected = params.r_min + (r0 - params.r_min) * (1.0 - alpha) ** k
        assert abs(cell[0] - expected) <= 1e-12 * expected
        prev = cell[0]


@settings(max_examples=200, deadline=None)
@given(
    amplitude=amplitudes,
    t_rise=durations,
    t_width=durations,
    t_fall=durations,
    r=resistances,
)
def test_pulse_energy_nonnegative_and_scales(amplitude, t_rise, t_width, t_fall, r):
    pulse = PulseSpec(amplitude, t_rise, t_width, t_fall, PulseRole.SET)
    e = pulse_energy(pulse, r)
    assert e >= 0.0
    # doubling amplitude quadruples the dissipation
    doubled = PulseSpec(2 * amplitude, t_rise, t_width, t_fall, PulseRole.SET)
    assert pulse_energy(doubled, r) == 4.0 * e


@settings(max_examples=100, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(2, 10),
    data=st.data(),
)
def test_read_matches_masked_sum_and_is_linear(seed, n, data):
    rng = make_rng(seed)
    arr = CrossbarArray(rng.uniform(1e4, 1e7, size=(n, n)), DeviceParams())
    gate_a = data.draw(st.sets(st.integers(0, n - 1)))
    gate_b = data.draw(st.sets(st.integers(0, n - 1))) - gate_a
    bl = data.draw(st.integers(0, n - 1))

    def current(gated):
        return read_bitlines(arr, index(bl), ascending_indices(n, gated), DEFAULT_READ_PULSE)[0].item()

    ca, cb, cab = current(gate_a), current(gate_b), current(gate_a | gate_b)
    oracle = sum(0.1 / arr.resistance[bl, j] for j in sorted(gate_a))
    assert abs(ca - oracle) <= 1e-12 * max(oracle, 1e-300)
    assert abs(cab - (ca + cb)) <= 1e-12 * max(cab, 1e-300)


@settings(max_examples=100, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(2, 8),
    data=st.data(),
)
def test_programming_touches_selected_block_only(seed, n, data):
    rng = make_rng(seed)
    arr = CrossbarArray(rng.uniform(1e5, 1e7, size=(n, n)), DeviceParams())
    driven = data.draw(st.sets(st.integers(0, n - 1)))
    gated = data.draw(st.sets(st.integers(0, n - 1)))
    bls, wls = ascending_indices(n, driven), ascending_indices(n, gated)
    out, _, count = program_cells(arr, bls, wls, SET_PULSE, make_rng(seed + 1))
    assert count == len(driven) * len(gated)
    for i in range(n):
        for j in range(n):
            if i in driven and j in gated:
                assert out.resistance[i, j] != arr.resistance[i, j]
            else:
                assert out.resistance[i, j] == arr.resistance[i, j]


# up to 64 neurons, and the 256 of the benchmark's learn and recall runs
pattern_bits = st.one_of(
    st.lists(st.booleans(), max_size=64), st.lists(st.booleans(), min_size=256, max_size=256)
)


@settings(max_examples=200, deadline=None)
@given(bits=pattern_bits)
def test_pattern_index_arrays_split_its_neurons(bits):
    pattern = Pattern(tuple(bits))
    n = len(bits)
    on_bits = {i for i, b in enumerate(bits) if b}
    on, off = pattern.on_idx, pattern.off_idx
    for idx in (on, off):
        assert idx.dtype == np.intp
        assert np.all(idx[:-1] < idx[1:])  # ascending, so no repeats
        with pytest.raises(ValueError, match="read-only"):
            idx[:] = 0
    assert not set(on.tolist()) & set(off.tolist())
    assert sorted(on.tolist() + off.tolist()) == list(range(n))
    # the arrays a caller's checked indices would give
    for idx, members in ((on, on_bits), (off, set(range(n)) - on_bits)):
        assert idx.tolist() == ascending_indices(n, members).tolist()
    assert pattern.on_set() == on_bits
