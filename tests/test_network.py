"""Protocol tests: thresholds, the two-phase training epoch, and the recall probe.

Neuron indices are 0-based throughout. The canonical 10-neuron setup stores
two complementary patterns; pattern 1 is ON at {0,1,2,3,5} and the recall
stimulus drives {0,1,2,3}, leaving neuron 5 to be recruited.
"""
from __future__ import annotations

import math

import numpy as np
import pytest

from pcmxbar import InitScheme, InitVariant, ProtocolParams, PulseRole, PulseSpec
from pcmxbar.crossbar import init_array
from pcmxbar.network import DEFAULT_RESET_PULSE, compute_thresholds, recall_probe, recall_success, training_epoch

from conftest import make_rng, on_pattern, uniform_array

PATTERN_1 = on_pattern(10, {0, 1, 2, 3, 5})
PATTERN_2 = on_pattern(10, {4, 6, 7, 8, 9})
STIMULUS = on_pattern(10, {0, 1, 2, 3})


# ---------------------------------------------------------------- patterns


def test_pattern_on_set_and_length():
    assert PATTERN_1.on_set() == frozenset({0, 1, 2, 3, 5})
    assert PATTERN_1.n == 10


def test_patterns_are_complementary():
    assert PATTERN_1.on_set() | PATTERN_2.on_set() == frozenset(range(10))
    assert PATTERN_1.on_set() & PATTERN_2.on_set() == frozenset()


# ---------------------------------------------------------------- protocol params


def test_protocol_rejects_bad_factor():
    with pytest.raises(ValueError):
        ProtocolParams(threshold_factor=0.5)


def test_protocol_rejects_nan_threshold_factor():
    # a `threshold_factor < 1` check let NaN through
    with pytest.raises(ValueError, match="threshold_factor"):
        ProtocolParams(threshold_factor=math.nan)


def test_protocol_rejects_nan_v_read():
    # NaN equals no amplitude, so the amplitude check rejects it
    with pytest.raises(ValueError, match="^read_pulse amplitude must equal v_read$"):
        ProtocolParams(v_read=math.nan, read_pulse=PulseSpec(0.1, 0.0, 1e-4, 0.0, PulseRole.READ))


def test_protocol_rejects_read_pulse_amplitude_mismatch():
    with pytest.raises(ValueError):
        ProtocolParams(
            v_read=0.1,
            read_pulse=PulseSpec(0.2, 0.0, 1e-4, 0.0, PulseRole.READ),
        )


@pytest.mark.parametrize(
    "field, role, wrong",
    [("read_pulse", "READ", PulseRole.SET), ("program_pulse", "SET", PulseRole.READ), ("reset_pulse", "RESET", PulseRole.SET)],
    ids=["read_pulse", "program_pulse", "reset_pulse"],
)
def test_protocol_rejects_wrong_pulse_roles(field, role, wrong):
    with pytest.raises(ValueError, match=f"^{field} must have role {role}$"):
        ProtocolParams(**{field: PulseSpec(0.1, 0, 1e-7, 0, wrong)})


def test_protocol_validate_against_device(quiet_device):
    ProtocolParams().validate_against(quiet_device)  # defaults are compatible
    weak_set = ProtocolParams(program_pulse=PulseSpec(0.4, 0, 3e-7, 0, PulseRole.SET))
    with pytest.raises(ValueError):
        weak_set.validate_against(quiet_device)


# Each bound of ProtocolParams and of its validate_against a default device
# tried at equality: (fields, None if accepted or the message it is rejected
# with). The device's thresholds are 0.5 V (SET) and 1.2 V (RESET).
PROTOCOL_BOUNDS = [
    pytest.param({"v_read": 0.0, "read_pulse": PulseSpec(0.0, 0, 1e-4, 0, PulseRole.READ)}, None, id="v_read-zero"),
    pytest.param(
        {"v_read": 0.5, "read_pulse": PulseSpec(0.5, 0, 1e-4, 0, PulseRole.READ)},
        r"^read voltage 0\.5 V outside \[0, v_set_threshold = 0\.5 V\)$",
        id="v_read-at-v_set",
    ),
    pytest.param({"program_pulse": PulseSpec(0.5, 0, 3e-7, 0, PulseRole.SET)}, None, id="program-at-v_set"),
    pytest.param(
        {"program_pulse": PulseSpec(math.nextafter(0.5, 0), 0, 3e-7, 0, PulseRole.SET)},
        r"^program_pulse amplitude below v_set_threshold$",
        id="program-below-v_set",
    ),
    pytest.param({"reset_pulse": PulseSpec(1.2, 0, 5e-8, 0, PulseRole.RESET)}, None, id="reset-at-v_reset"),
    pytest.param(
        {"reset_pulse": PulseSpec(math.nextafter(1.2, 0), 0, 5e-8, 0, PulseRole.RESET)},
        r"^reset_pulse amplitude below v_reset_threshold$",
        id="reset-below-v_reset",
    ),
]


@pytest.mark.parametrize("fields, message", PROTOCOL_BOUNDS)
def test_protocol_bounds_at_equality(quiet_device, fields, message):
    if message is None:
        ProtocolParams(**fields).validate_against(quiet_device)
    else:
        with pytest.raises(ValueError, match=message):
            ProtocolParams(**fields).validate_against(quiet_device)


# ---------------------------------------------------------------- thresholds


def test_thresholds_uniform_array(quiet_device, protocol):
    # 2 x (4 x 100 nA) = 800 nA for every neuron
    arr = uniform_array(10, 1.0e6, quiet_device)
    thresholds = compute_thresholds(arr, STIMULUS, protocol)
    assert thresholds.shape == (10,)
    assert thresholds == pytest.approx(np.full(10, 8.0e-7), rel=1e-13)


def test_threshold_spread_grows_with_variation(quiet_device, protocol):
    # per-neuron threshold max/min ratio: high-variation arrays beat
    # low-variation arrays in at least 95% of paired seeds
    wins = 0
    n_seeds = 200
    for s in range(n_seeds):
        ratios = []
        for cv in (0.60, 0.09):
            scheme = InitScheme(InitVariant.UNIFORM_PARTIAL_RESET, cv, 1.0e6)
            arr = init_array(10, scheme, quiet_device, make_rng(10_000 + s), DEFAULT_RESET_PULSE)
            t = compute_thresholds(arr, STIMULUS, protocol)
            ratios.append(t.max() / t.min())
        wins += ratios[0] > ratios[1]
    assert wins / n_seeds >= 0.95


# ---------------------------------------------------------------- training epoch


def test_training_epoch_programs_on_block_only(quiet_device, protocol, rng):
    arr = uniform_array(10, 1.0e6, quiet_device)
    out, trace = training_epoch(arr, PATTERN_1, protocol, rng, 1)
    on = PATTERN_1.on_set()
    for i in range(10):
        for j in range(10):
            if i in on and j in on:
                assert out.resistance[i, j] == pytest.approx(406000.0, rel=1e-13)
            else:
                assert out.resistance[i, j] == 1.0e6
    assert trace.firing_set == on
    # input array untouched
    assert np.all(arr.resistance == 1.0e6)


def test_training_epoch_off_neuron_current(quiet_device, protocol, rng):
    # non-firing neuron reads 5 unprogrammed 1 MOhm cells: 500 nA
    arr = uniform_array(10, 1.0e6, quiet_device)
    _, trace = training_epoch(arr, PATTERN_1, protocol, rng, 1)
    for i in range(10):
        if i in PATTERN_1.on_set():
            assert np.isnan(trace.currents[i])
        else:
            assert trace.currents[i] == pytest.approx(5.0e-7, rel=1e-13)


def test_training_epoch_energy_ledger(quiet_device, protocol, rng):
    # 25 programs at 1 MOhm (6.5e-13 J each) + 5 readers x 5 cells x 1e-12 J
    arr = uniform_array(10, 1.0e6, quiet_device)
    _, trace = training_epoch(arr, PATTERN_1, protocol, rng, 1)
    assert trace.program_energy == pytest.approx(25 * 6.5e-13, rel=1e-12)
    assert trace.read_energy == pytest.approx(25 * 1.0e-12, rel=1e-12)


def test_training_epoch_diagonal_opt_out(quiet_device, rng):
    pp = ProtocolParams(include_diagonal=False)
    arr = uniform_array(10, 1.0e6, quiet_device)
    out, _ = training_epoch(arr, PATTERN_1, pp, rng, 1)
    on = PATTERN_1.on_set()
    for i in on:
        assert out.resistance[i, i] == 1.0e6  # self-synapse spared
        for j in on - {i}:
            assert out.resistance[i, j] < 1.0e6


def test_training_epoch_multi_pulse_coactivation(quiet_device, rng):
    pp = ProtocolParams(pulses_per_coactivation=2)
    arr = uniform_array(10, 1.0e6, quiet_device)
    out, _ = training_epoch(arr, PATTERN_1, pp, rng, 1)
    # two geometric steps on every ON x ON cell: r_min + (R0 - r_min)(1 - alpha)^2 = 10k + 990k * 0.4^2
    expected = 1.0e4 + 9.9e5 * 0.16
    on = sorted(PATTERN_1.on_set())
    block = np.zeros((10, 10), dtype=bool)
    block[np.ix_(on, on)] = True
    assert out.resistance[block] == pytest.approx(np.full(25, expected), rel=1e-12)
    assert np.all(out.resistance[~block] == 1.0e6)


def test_training_epoch_all_off_pattern(quiet_device, protocol, rng):
    arr = uniform_array(10, 1.0e6, quiet_device)
    state = rng.bit_generator.state
    out, trace = training_epoch(arr, on_pattern(10, set()), protocol, rng, 1)
    assert np.array_equal(out.resistance, arr.resistance)
    assert trace.firing_set == frozenset()
    assert np.all(trace.currents == 0.0)  # reads against an empty gate set
    assert trace.program_energy == 0.0
    assert rng.bit_generator.state == state  # an empty block draws nothing


def test_training_epoch_records_an_earlier_traces_read(quiet_device, protocol, rng):
    # the second epoch programs the block again but takes the first trace's read as its own
    arr = uniform_array(10, 1.0e6, quiet_device)
    once, first = training_epoch(arr, PATTERN_1, protocol, rng, 1)
    twice, second = training_epoch(once, PATTERN_1, protocol, rng, 2, first)
    assert (first.epoch, second.epoch) == (1, 2)
    assert second.currents is first.currents
    assert second.read_energy == first.read_energy
    assert second.program_energy > first.program_energy == pytest.approx(25 * 6.5e-13, rel=1e-12)
    assert np.all(twice.resistance <= once.resistance)


def test_every_read_is_read_only(quiet_device, protocol, rng):
    # traces and probe steps may share their currents, so none of them can be written
    arr = uniform_array(10, 1.0e6, quiet_device)
    thresholds = compute_thresholds(arr, STIMULUS, protocol)
    trained, trace = training_epoch(arr, PATTERN_1, protocol, rng, 1)
    result = recall_probe(trained, STIMULUS, thresholds, protocol)
    for currents in [trace.currents] + [step.currents for step in result.steps]:
        with pytest.raises(ValueError, match="read-only"):
            currents[0] = 0.0


# ---------------------------------------------------------------- recall probe


def test_probe_untrained_array_returns_stimulus(quiet_device, protocol):
    # currents equal exactly half the factor-2 threshold: nothing fires
    arr = uniform_array(10, 1.0e6, quiet_device)
    thresholds = compute_thresholds(arr, STIMULUS, protocol)
    result = recall_probe(arr, STIMULUS, thresholds, protocol)
    assert result.final_firing == STIMULUS.on_set()
    assert not result.steps[-1].newly_fired
    assert len(result.steps) == 1


def test_probe_factor_one_boundary_is_quiescent(quiet_device):
    # threshold == current and firing needs strictly greater
    pp = ProtocolParams(threshold_factor=1.0)
    arr = uniform_array(10, 1.0e6, quiet_device)
    thresholds = compute_thresholds(arr, STIMULUS, pp)
    result = recall_probe(arr, STIMULUS, thresholds, pp)
    assert result.final_firing == STIMULUS.on_set()


def test_probe_untrained_high_variation_never_recruits(quiet_device, protocol):
    # thresholds are measured on the same array the probe reads, so any
    # factor > 1 blocks recruitment regardless of variation
    for s in range(50):
        scheme = InitScheme(InitVariant.UNIFORM_PARTIAL_RESET, 0.60, 1.0e6)
        arr = init_array(10, scheme, quiet_device, make_rng(20_000 + s), DEFAULT_RESET_PULSE)
        thresholds = compute_thresholds(arr, STIMULUS, protocol)
        result = recall_probe(arr, STIMULUS, thresholds, protocol)
        assert result.final_firing == STIMULUS.on_set()


def test_probe_recruits_missing_neuron_after_one_epoch(quiet_device, protocol, rng):
    # closed-form chain: 400 nA initial -> 800 nA threshold -> neuron 5 reads
    # 4 x 0.1 V / 406 kOhm = 985 nA and joins; the rest stay out
    arr = uniform_array(10, 1.0e6, quiet_device)
    thresholds = compute_thresholds(arr, STIMULUS, protocol)
    trained, _ = training_epoch(arr, PATTERN_1, protocol, rng, 1)
    result = recall_probe(trained, STIMULUS, thresholds, protocol)
    assert result.final_firing == PATTERN_1.on_set()
    assert not result.steps[-1].newly_fired
    assert len(result.steps) == 2
    step0 = result.steps[0]
    assert step0.newly_fired == frozenset({5})
    recruit = step0.currents[5]
    assert recruit == pytest.approx(0.4 / 406000.0, rel=1e-12)
    assert recruit > thresholds[5]
    # thresholds as a list or a float32 array compare in float64 and give the same result
    for given in (thresholds.tolist(), thresholds.astype(np.float32)):
        again = recall_probe(trained, STIMULUS, given, protocol)
        assert (again.final_firing, again.read_energy) == (result.final_firing, result.read_energy)
        assert [step.newly_fired for step in again.steps] == [step.newly_fired for step in result.steps]
        for got, want in zip(again.steps, result.steps, strict=True):
            assert np.array_equal(got.currents, want.currents, equal_nan=True)


def test_probe_full_pattern_is_stable(quiet_device, protocol, rng):
    arr = uniform_array(10, 1.0e6, quiet_device)
    thresholds = compute_thresholds(arr, PATTERN_1, protocol)
    trained, _ = training_epoch(arr, PATTERN_1, protocol, rng, 1)
    result = recall_probe(trained, PATTERN_1, thresholds, protocol)
    assert result.final_firing == PATTERN_1.on_set()


def test_probe_is_read_only(quiet_device, protocol, rng):
    arr = uniform_array(10, 1.0e6, quiet_device)
    trained, _ = training_epoch(arr, PATTERN_1, protocol, rng, 1)
    before = trained.resistance.copy()
    thresholds = compute_thresholds(arr, STIMULUS, protocol)
    recall_probe(trained, STIMULUS, thresholds, protocol)
    assert np.array_equal(trained.resistance, before)


def test_probe_firing_grows_monotonically(quiet_device, protocol, rng):
    arr = uniform_array(10, 1.0e6, quiet_device)
    thresholds = compute_thresholds(arr, STIMULUS, protocol)
    trained, _ = training_epoch(arr, PATTERN_1, protocol, rng, 1)
    result = recall_probe(trained, STIMULUS, thresholds, protocol)
    seen = frozenset()
    for step in result.steps:
        firing = frozenset(np.flatnonzero(np.isnan(step.currents)).tolist())
        assert seen <= firing
        seen = firing | step.newly_fired


# ---------------------------------------------------------------- success test


def test_recall_success_semantics():
    assert recall_success(frozenset({0, 1, 2, 3, 5}), PATTERN_1)
    assert recall_success({0, 1, 2, 3, 5}, PATTERN_1)  # a set equals the frozenset of its members
    assert not recall_success({0, 1, 2, 3}, PATTERN_1)
    assert not recall_success(frozenset({0, 1, 2, 3}), PATTERN_1)  # incomplete
    assert not recall_success(frozenset({0, 1, 2, 3, 4, 5}), PATTERN_1)  # spurious
