"""Acceptance gate: seven criteria covering ordering, determinism, energy,
spurious-recall safety, randomized invariants, device-law oracles, and
byte-level reproducibility.

Each criterion is one test; the pytest -v line is its pass/fail record and
each test also prints a one-line verdict with the measured margins. The
variation ensemble (200 seeds per class) is computed once per session and
shared (the ensemble fixture in conftest.py).
Neuron indices are 0-based: the stored pattern ON set {0,1,2,3,5} is driven
at {0,1,2,3} and neuron 5 is the one to recruit.
"""
from __future__ import annotations

import json

import numpy as np
import pytest

from pcmxbar import DeviceParams, PulseRole, PulseSpec, learn_and_recall
from pcmxbar.cli import EXIT_OK, main
from pcmxbar.configio import bundled_config_path, load_config
from pcmxbar.crossbar import CrossbarArray, array_stats, ascending_indices, init_array, program_cells, read_bitlines
from pcmxbar.device import apply_set_pulse
from pcmxbar.experiments import class_reports, scheme_for_cv
from pcmxbar.network import DEFAULT_READ_PULSE, DEFAULT_RESET_PULSE, compute_thresholds, recall_probe

from conftest import make_rng, on_pattern


def test_criterion_1_epochs_vs_variation_ordering(ensemble):
    """Median epochs: low-variation class recalls fast, high-variation slow."""
    _, spec, rows, elapsed = ensemble
    assert [r.cv for r in rows] == [0.05, 0.09, 0.30, 0.60]
    medians = [r.median_epochs for r in rows]
    low = rows[1].median_epochs  # cv = 0.09
    high = rows[3].median_epochs  # cv = 0.60
    assert low <= 2.0
    assert high >= 4.0 * low
    assert all(b >= a for a, b in zip(medians, medians[1:]))
    assert elapsed < 60.0
    print(
        f"ACCEPTANCE 1 PASS: medians={medians} "
        f"(0.60 is {high / low:.1f}x the 0.09 class), sweep took {elapsed:.1f}s"
    )


def test_criterion_2_deterministic_recall_chain():
    """Noise-free run: 400 nA initial -> 800 nA threshold -> 985 nA recruit."""
    config = load_config(bundled_config_path("paper10x10.json"))
    report = learn_and_recall(config)
    assert report.epochs_to_recall == 1
    assert report.thresholds == pytest.approx(np.full(10, 8.0e-7), rel=1e-9)
    probe = report.traces[-1]
    assert probe.phase == "probe"
    assert probe.firing_set == frozenset({0, 1, 2, 3, 5})
    # initial current: 4 cells x 0.1 V / 1 MOhm
    initial = 0.4 / 1.0e6
    assert report.thresholds[5] == pytest.approx(2.0 * initial, rel=1e-9)
    # neuron 4 keeps its untrained current; neuron 5 reads 4 cells at 406 kOhm
    recruit = 0.4 / 406000.0
    assert probe.currents[4] == pytest.approx(initial, rel=1e-9)
    assert probe.currents[5] == pytest.approx(recruit, rel=1e-9)
    assert recruit > report.thresholds[5]
    print(
        "ACCEPTANCE 2 PASS: epochs=1, firing={0,1,2,3,5}, "
        f"chain 4.0e-07 A -> 8.0e-07 A -> {recruit:.6e} A"
    )


def test_criterion_3_energy_ordering(ensemble):
    """Learning in the high-variation regime costs at least 3x more energy."""
    _, _, rows, _ = ensemble
    low = rows[1].mean_energy
    high = rows[3].mean_energy
    assert high >= 3.0 * low
    print(
        f"ACCEPTANCE 3 PASS: mean energy {low:.3e} J (cv 0.09) vs "
        f"{high:.3e} J (cv 0.60), ratio {high / low:.0f}x"
    )


def test_criterion_4_no_spurious_recall(ensemble):
    """Probes never fire outside the stored pattern; untrained probes are inert."""
    base, spec, _, _ = ensemble
    target = base.recall_target.on_set()
    assert spec.cvs[1] == 0.09
    reports = class_reports(base, spec, cv_index=1)
    succeeded = 0
    for report in reports:
        assert report.epochs_to_recall is not None
        succeeded += 1
        for trace in report.traces:
            if trace.phase == "probe":
                assert trace.firing_set <= target
    # untrained arrays: the probe returns exactly the stimulus at every cv
    probed = 0
    for cv in spec.cvs:
        scheme = scheme_for_cv(base.device, cv, spec.tuned_cv_max)
        for seed in range(50):
            arr = init_array(base.n, scheme, base.device, make_rng(700_000 + seed), DEFAULT_RESET_PULSE)
            thresholds = compute_thresholds(arr, base.recall_stimulus, base.protocol)
            result = recall_probe(arr, base.recall_stimulus, thresholds, base.protocol)
            assert result.final_firing == base.recall_stimulus.on_set()
            probed += 1
    print(
        f"ACCEPTANCE 4 PASS: {succeeded} trained runs stayed inside the target set; "
        f"{probed} untrained probes returned the bare stimulus"
    )


def test_criterion_5_locality_and_purity_randomized():
    """>= 10 000 randomized cases of locality, purity, bounds, and read oracle."""
    device = DeviceParams()
    pulse = PulseSpec(1.0, 50e-9, 300e-9, 1.0e-6, PulseRole.SET)
    cases = 0

    # programming locality: only driven x gated changes
    rng = make_rng(50_001)
    for _ in range(3000):
        n = int(rng.integers(2, 9))
        arr = CrossbarArray(rng.uniform(1e5, 1e7, size=(n, n)), device)
        driven = {int(i) for i in rng.choice(n, size=int(rng.integers(0, n + 1)), replace=False)}
        gated = {int(j) for j in rng.choice(n, size=int(rng.integers(0, n + 1)), replace=False)}
        out, _, count = program_cells(arr, ascending_indices(n, driven), ascending_indices(n, gated), pulse, rng)
        assert count == len(driven) * len(gated)
        touched = np.zeros((n, n), dtype=bool)
        if driven and gated:
            touched[np.ix_(sorted(driven), sorted(gated))] = True
        assert np.array_equal(out.resistance != arr.resistance, touched)
        assert np.array_equal(out.resistance[~touched], arr.resistance[~touched])
        assert np.all(out.resistance >= device.r_min)
        assert np.all(out.resistance <= device.r_max)
        cases += 1

    # bitline reads: brute-force masked sum, bit purity
    rng = make_rng(50_002)
    for _ in range(3000):
        n = int(rng.integers(2, 11))
        resistance = rng.uniform(1e4, 1e7, size=(n, n))
        arr = CrossbarArray(resistance, device)
        before = arr.resistance.copy()
        gated = {int(j) for j in rng.choice(n, size=int(rng.integers(0, n + 1)), replace=False)}
        bl = int(rng.integers(0, n))
        currents, energies = read_bitlines(
            arr, ascending_indices(n, {bl}), ascending_indices(n, gated), DEFAULT_READ_PULSE
        )
        current, energy = currents.item(), energies.item()
        mask = np.zeros(n)
        for j in gated:
            mask[j] = 1.0
        oracle = float(np.sum(mask * 0.1 / resistance[bl]))
        assert abs(current - oracle) <= 1e-12 * max(oracle, 1e-300)
        assert energy >= 0.0
        assert np.array_equal(arr.resistance, before)
        cases += 1

    # probes: read-only and monotone on random two-level trained arrays
    from pcmxbar import ProtocolParams

    pp = ProtocolParams()
    rng = make_rng(50_003)
    for _ in range(2000):
        n = int(rng.integers(4, 11))
        resistance = rng.uniform(1e4, 1e7, size=(n, n))
        arr = CrossbarArray(resistance, device)
        stim_size = int(rng.integers(1, n))
        stimulus = on_pattern(
            n, {int(i) for i in rng.choice(n, size=stim_size, replace=False)}
        )
        thresholds = rng.uniform(1e-8, 1e-5, size=n)
        before = arr.resistance.copy()
        result = recall_probe(arr, stimulus, thresholds, pp)
        assert np.array_equal(arr.resistance, before)
        assert stimulus.on_set() <= result.final_firing
        grown = stimulus.on_set()
        for step in result.steps:
            assert step.newly_fired.isdisjoint(grown) or not step.newly_fired
            grown |= step.newly_fired
        assert grown == result.final_firing
        assert not result.steps[-1].newly_fired
        assert len(result.steps) <= n
        cases += 1

    # single-cell pulse trains stay inside [r_min, r_max]
    rng = make_rng(50_004)
    for _ in range(2000):
        params = DeviceParams(
            alpha_set=float(rng.uniform(0.05, 0.95)),
            sigma_c2c=float(rng.uniform(0.0, 1.5)),
        )
        cell = np.array([rng.uniform(params.r_min, params.r_max)])
        for _ in range(6):
            cell = apply_set_pulse(cell, pulse, params, rng)
            assert params.r_min <= cell[0] <= params.r_max
        cases += 1

    assert cases >= 10_000
    print(f"ACCEPTANCE 5 PASS: {cases} randomized cases held every invariant")


def test_criterion_6_device_law_oracles():
    """Geometric SET form, quadrature energy check, lognormal CV calibration."""
    from scipy.integrate import quad

    # geometric trajectory over 50 pulses, 1e-12 relative
    params = DeviceParams(alpha_set=0.6, sigma_c2c=0.0)
    rng = make_rng(0)
    cell = np.array([1.0e6])
    worst = 0.0
    for k in range(1, 51):
        cell = apply_set_pulse(
            cell, PulseSpec(1.0, 50e-9, 300e-9, 1e-6, PulseRole.SET), params, rng
        )
        expected = params.r_min + (1.0e6 - params.r_min) * 0.4**k
        worst = max(worst, float(abs(cell[0] - expected) / expected))
    assert worst <= 1e-12

    # trapezoid energy vs adaptive quadrature, 1e-9 relative
    from pcmxbar.device import pulse_energy

    rng = make_rng(60_001)
    worst_e = 0.0
    for _ in range(25):
        pulse = PulseSpec(
            float(rng.uniform(0.1, 3.0)),
            float(rng.uniform(0.0, 1e-6)),
            float(rng.uniform(1e-9, 1e-4)),
            float(rng.uniform(0.0, 1e-6)),
            PulseRole.SET,
        )
        r = float(rng.uniform(1e4, 1e7))

        def v(t: float) -> float:
            if pulse.t_rise and t < pulse.t_rise:
                return pulse.amplitude * t / pulse.t_rise
            if t < pulse.t_rise + pulse.t_width:
                return pulse.amplitude
            tail = t - pulse.t_rise - pulse.t_width
            return pulse.amplitude * (1.0 - tail / pulse.t_fall) if pulse.t_fall else 0.0

        oracle = 0.0
        edges = [0.0, pulse.t_rise, pulse.t_rise + pulse.t_width, pulse.duration]
        for lo, hi in zip(edges, edges[1:]):
            if hi > lo:
                oracle += quad(lambda t: v(t) ** 2 / r, lo, hi, epsrel=1e-13)[0]
        worst_e = max(worst_e, abs(pulse_energy(pulse, r) - oracle) / oracle)
    assert worst_e <= 1e-9

    # lognormal initialization: seed-ensemble mean CV within +-10% of target
    device = DeviceParams()
    scheme = scheme_for_cv(device, 0.60, tuned_cv_max=0.15)
    cvs = [
        array_stats(init_array(10, scheme, device, make_rng(s), DEFAULT_RESET_PULSE).resistance).cv
        for s in range(500)
    ]
    mean_cv = float(np.mean(cvs))
    assert abs(mean_cv - 0.60) / 0.60 <= 0.10
    print(
        f"ACCEPTANCE 6 PASS: geometric err {worst:.1e}, quadrature err {worst_e:.1e}, "
        f"ensemble CV {mean_cv:.3f} vs target 0.60"
    )


def test_criterion_7_byte_identical_reruns(tmp_path):
    """Same config, same seed: identical bytes out, for both bundled configs."""
    pairs = []
    for run in ("a", "b"):
        out = tmp_path / f"learn_{run}"
        assert (
            main(["learn", "--config", "paper10x10.json", "--out-dir", str(out), "--quiet"])
            == EXIT_OK
        )
        pairs.append(out)
    checked = []
    for name in (
        "report.json",
        "traces.jsonl",
        "array_initial.csv",
        "array_final.csv",
        "histograms.csv",
        "snapshots/epoch_0001.csv",
        "snapshots/stats.jsonl",
    ):
        assert (pairs[0] / name).read_bytes() == (pairs[1] / name).read_bytes()
        checked.append(name)

    sweeps = []
    for run in ("a", "b"):
        out = tmp_path / f"sweep_{run}"
        assert (
            main(["sweep", "--config", "sweep10x10.json", "--out-dir", str(out), "--quiet"])
            == EXIT_OK
        )
        sweeps.append(out / "sweep.csv")
    assert sweeps[0].read_bytes() == sweeps[1].read_bytes()
    checked.append("sweep.csv")
    # the determinism is real, not vacuous: outputs have content
    report = json.loads((pairs[0] / "report.json").read_text())
    assert report["epochs_to_recall"] == 1
    print(f"ACCEPTANCE 7 PASS: byte-identical reruns across {checked}")
