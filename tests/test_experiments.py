"""End-to-end run tests: learn-and-recall, sweeps, contrast, and histograms.

The canonical setup is the 10-neuron array with two complementary stored
patterns, recall stimulus {0,1,2,3}, and a noise-free device unless a test
says otherwise. Oracle energies are sums of closed-form pulse energies.
"""
from __future__ import annotations

import dataclasses
import inspect
import math
import sys
from collections import Counter

import numpy as np
import pytest

from pcmxbar import (
    DeviceParams,
    ExperimentConfig,
    InitScheme,
    InitVariant,
    ProtocolParams,
    SweepSpec,
    class_reports,
    crossbar,
    distribution_history,
    experiments,
    learn_and_recall,
    network,
    variation_sweep,
)
from pcmxbar.configio import bundled_config_path, load_config, load_sweep, report_json
from pcmxbar.errors import DimensionMismatch, NoSnapshots
from pcmxbar.experiments import HISTOGRAM_BINS, _histogram_edges, scheme_for_cv, weight_contrast

from conftest import on_pattern, uniform_array

PATTERN_1 = on_pattern(10, {0, 1, 2, 3, 5})
PATTERN_2 = on_pattern(10, {4, 6, 7, 8, 9})
STIMULUS = on_pattern(10, {0, 1, 2, 3})

CANONICAL_DEVICE = DeviceParams(
    r_reset_partial_median=2.2e4,
    sigma_c2c=0.0,
)


def canonical_config(**overrides) -> ExperimentConfig:
    base = dict(
        n=10,
        device=CANONICAL_DEVICE,
        protocol=ProtocolParams(),
        init=InitScheme(InitVariant.TUNED_FULL_RESET, 0.0, 1.0e6),
        patterns=(PATTERN_1, PATTERN_2),
        recall_stimulus=STIMULUS,
        recall_target=PATTERN_1,
        max_epochs=20,
        seed=1,
        snapshot_every=0,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


# ---------------------------------------------------------------- config


def test_config_rejects_stimulus_outside_target():
    with pytest.raises(ValueError):
        canonical_config(recall_stimulus=on_pattern(10, {0, 4}))


def test_config_rejects_mismatched_pattern_length():
    with pytest.raises(DimensionMismatch):
        canonical_config(patterns=(on_pattern(9, {0}),))


# ---------------------------------------------------------------- single run


def test_noise_free_run_recalls_in_one_epoch():
    report = learn_and_recall(canonical_config())
    assert report.epochs_to_recall == 1
    assert report.initial_stats.cv == 0.0
    assert report.thresholds == pytest.approx(np.full(10, 8.0e-7), rel=1e-13)
    # 2 training traces + 1 probe trace
    assert [t.phase for t in report.traces] == ["train", "train", "probe"]
    probe = report.traces[-1]
    assert probe.firing_set == PATTERN_1.on_set()


def test_noise_free_energy_ledger_closed_form():
    report = learn_and_recall(canonical_config())
    bd = report.energy_breakdown
    # 50 SET pulses into 1 MOhm cells
    assert bd["training_program"] == pytest.approx(50 * 6.5e-13, rel=1e-12)
    # 5 off-neurons x 5 gated cells x 1 pJ, twice
    assert bd["training_read"] == pytest.approx(50 * 1.0e-12, rel=1e-12)
    # probe step 0: five 1 MOhm readers (4 cells) + neuron 5 over 406 kOhm;
    # step 1: five readers x 5 cells, all 1 MOhm
    step0 = 5 * 4.0e-12 + 4 * (0.01 / 406000.0) * 1.0e-4
    probe_oracle = step0 + 25 * 1.0e-12
    assert bd["probe_read"] == pytest.approx(probe_oracle, rel=1e-12)
    # threshold calibration happens before training and is not learning cost
    assert report.total_energy == pytest.approx(
        50 * 6.5e-13 + 50 * 1.0e-12 + probe_oracle, rel=1e-12
    )


def test_total_energy_is_exact_sum_of_parts():
    report = learn_and_recall(canonical_config())
    assert report.total_energy == sum(report.energy_breakdown.values())
    program = 0.0
    read = 0.0
    for trace in report.traces:
        program += trace.program_energy
        read += trace.read_energy
    assert report.total_energy == program + read


def test_contrast_history_after_both_patterns():
    # ON block at 406 kOhm; outside mix of 25 cells at 406 kOhm (other
    # pattern's block) and 50 untouched 1 MOhm cells
    report = learn_and_recall(canonical_config())
    outside = (25.0 / 406000.0 + 50.0 * 1.0e-6) / 75.0
    assert report.contrast_history == pytest.approx(
        [(1.0 / 406000.0) / outside], rel=1e-12
    )


def test_contrast_single_pattern_matches_two_level_ratio():
    config = canonical_config(patterns=(PATTERN_1,))
    report = learn_and_recall(config)
    # (1/406 kOhm) / (1/1 MOhm) = 2.463...
    assert report.contrast_history[0] == pytest.approx(1.0e6 / 406000.0, rel=1e-12)


def test_run_not_reached_and_contrast_monotone():
    # factor 50 needs the programmed block below 20 kOhm, which takes 6
    # epochs; cap at 4 and the run must report failure honestly
    config = canonical_config(
        patterns=(PATTERN_1,),
        protocol=ProtocolParams(threshold_factor=50.0),
        max_epochs=4,
    )
    report = learn_and_recall(config)
    assert report.epochs_to_recall is None
    assert len(report.contrast_history) == 4
    assert all(
        b >= a for a, b in zip(report.contrast_history, report.contrast_history[1:])
    )
    # failed runs still account their energy
    assert report.total_energy > 0


def test_each_protocol_yield_keeps_its_energy():
    # every epoch yields its running sums as a value of its own, which later
    # epochs leave alone; the last is the report's ledger
    config = canonical_config(
        patterns=(PATTERN_1,),
        protocol=ProtocolParams(threshold_factor=50.0),
        max_epochs=4,
    )
    run = experiments._protocol(config, np.random.default_rng(np.random.SeedSequence(config.seed)))
    next(run)
    energies = [energy for *_, energy in run]
    assert len(energies) == 4
    for phase in ("training_program", "training_read", "probe_read"):
        sums = [energy[phase] for energy in energies]
        assert all(a < b for a, b in zip(sums, sums[1:])), phase
    assert energies[-1] == learn_and_recall(config).energy_breakdown


def test_cumulative_energy_grows_every_epoch():
    config = canonical_config(
        patterns=(PATTERN_1,),
        protocol=ProtocolParams(threshold_factor=50.0),
        max_epochs=4,
    )
    report = learn_and_recall(config)
    per_epoch: dict[int, float] = {}
    for trace in report.traces:
        per_epoch[trace.epoch] = per_epoch.get(trace.epoch, 0.0) + (
            trace.program_energy + trace.read_energy
        )
    assert sorted(per_epoch) == [1, 2, 3, 4]
    assert all(v > 0 for v in per_epoch.values())


def test_pattern_swap_relabeling_symmetry():
    swapped = canonical_config(
        patterns=(PATTERN_2, PATTERN_1),
        recall_stimulus=on_pattern(10, {4, 6, 7, 8}),
        recall_target=PATTERN_2,
    )
    base_report = learn_and_recall(canonical_config())
    swap_report = learn_and_recall(swapped)
    assert swap_report.epochs_to_recall == base_report.epochs_to_recall == 1
    assert swap_report.total_energy == pytest.approx(
        base_report.total_energy, rel=1e-12
    )


def test_identical_config_reproduces_byte_identical_report():
    config = canonical_config(
        init=InitScheme(InitVariant.UNIFORM_PARTIAL_RESET, 0.30, 2.2e4), seed=5
    )
    a = learn_and_recall(config)
    b = learn_and_recall(config)
    assert report_json(a) == report_json(b)
    assert np.array_equal(a.final_resistance, b.final_resistance)


def test_final_state_is_reported():
    stored = []
    report = learn_and_recall(canonical_config(), store=stored.extend)
    # snapshot_every 0: the initial array and the final one, and no snapshot
    assert [epoch for epoch, _ in stored] == [0, None]
    assert report.snapshots == []
    initial = stored[0][1]
    assert stored[-1][1] is report.final_resistance
    assert initial.shape == (10, 10)
    assert np.all(initial == 1.0e6)
    on = sorted(PATTERN_1.on_set())
    block = report.final_resistance[np.ix_(on, on)]
    assert np.all(block == pytest.approx(406000.0, rel=1e-13))
    assert report.final_stats.min < report.initial_stats.min


def test_store_cannot_write_into_the_runs_matrices():
    # the matrices are the run's own: a write into the epoch-0 one would
    # turn epochs_to_recall from 1 into None
    config = dataclasses.replace(load_config(bundled_config_path("paper10x10.json")), max_epochs=3)

    def overwrite(arrays):
        for _, ohms in arrays:
            ohms[...] = 5.0e4

    with pytest.raises(ValueError, match="read-only"):
        learn_and_recall(config, store=overwrite)
    stored = []
    assert learn_and_recall(config, store=stored.extend).epochs_to_recall == 1
    assert [epoch for epoch, _ in stored] == [0, 1, None]
    assert not any(ohms.flags.writeable for _, ohms in stored)


# ---------------------------------------------------------------- contrast


def test_weight_contrast_untrained_is_unity(quiet_device):
    arr = uniform_array(10, 1.0e6, quiet_device)
    assert weight_contrast(arr, PATTERN_1) == 1.0


# ---------------------------------------------------------------- init regimes


def test_scheme_for_cv_picks_regime_by_variation():
    low = scheme_for_cv(CANONICAL_DEVICE, 0.09, 0.15)
    high = scheme_for_cv(CANONICAL_DEVICE, 0.60, 0.15)
    at_knee = scheme_for_cv(CANONICAL_DEVICE, 0.15, 0.15)
    assert low.variant is InitVariant.TUNED_FULL_RESET
    assert low.median == CANONICAL_DEVICE.r_reset_full_median
    assert low.cv == 0.09
    assert high.variant is InitVariant.UNIFORM_PARTIAL_RESET
    assert high.median == CANONICAL_DEVICE.r_reset_partial_median
    assert at_knee.variant is InitVariant.TUNED_FULL_RESET
    assert scheme_for_cv(CANONICAL_DEVICE, 0.151, 0.15).variant is (
        InitVariant.UNIFORM_PARTIAL_RESET
    )


# ---------------------------------------------------------------- sweep


def test_sweep_zero_cv_row_is_degenerate():
    rows = variation_sweep(canonical_config(), SweepSpec((0.0,), seeds_per_cv=3))
    assert len(rows) == 1
    row = rows[0]
    single = learn_and_recall(canonical_config(init=scheme_for_cv(CANONICAL_DEVICE, 0.0, 0.15)))
    assert row.cv == 0.0
    assert row.median_epochs == 1.0
    assert row.success_rate == 1.0
    assert row.mean_energy == pytest.approx(single.total_energy, rel=1e-12)


def test_sweep_orders_low_before_high_variation():
    rows = variation_sweep(canonical_config(), SweepSpec((0.09, 0.60), seeds_per_cv=40))
    assert [r.cv for r in rows] == [0.09, 0.60]
    assert rows[0].median_epochs < rows[1].median_epochs
    assert rows[0].mean_energy < rows[1].mean_energy
    assert rows[0].success_rate == 1.0
    assert 0.0 < rows[1].success_rate <= 1.0


def test_sweep_rejects_unsorted_cvs():
    with pytest.raises(ValueError, match="sorted"):
        SweepSpec((0.60, 0.09), seeds_per_cv=2)
    with pytest.raises(ValueError, match="at least one"):
        SweepSpec((), seeds_per_cv=2)


def test_sweep_spec_rejects_nan_tuned_cv_max():
    # NaN used to build and then prepare every class by partial RESET
    for bad in (math.nan, -0.1, 2.0):
        with pytest.raises(ValueError, match="tuned_cv_max"):
            SweepSpec((0.05, 0.6), 2, tuned_cv_max=bad)
    assert SweepSpec((0.05, 0.6), 2, tuned_cv_max=0.0).tuned_cv_max == 0.0


def test_class_reports_are_seed_stable_and_seed_distinct():
    base = canonical_config()
    spec = SweepSpec((0.05, 0.09, 0.30), seeds_per_cv=3)
    runs_a = class_reports(base, spec, cv_index=2)
    runs_b = class_reports(base, spec, cv_index=2)
    # a report keeps no initial array, so the draws compare by their stats
    for a, b in zip(runs_a, runs_b):
        assert a.initial_stats == b.initial_stats
        assert np.array_equal(a.final_resistance, b.final_resistance)
    assert runs_a[0].initial_stats != runs_a[1].initial_stats


def test_energy_grows_with_epochs_within_a_class():
    # more epochs to recall means more pulses; compare well-populated groups
    spec = SweepSpec((0.05, 0.09, 0.30), seeds_per_cv=200)
    reports = class_reports(canonical_config(), spec, cv_index=2)
    groups: dict[int, list[float]] = {}
    for r in reports:
        if r.epochs_to_recall is not None:
            groups.setdefault(r.epochs_to_recall, []).append(r.total_energy)
    means = [
        float(np.mean(groups[k])) for k in sorted(groups) if len(groups[k]) >= 10
    ]
    assert len(means) >= 2
    assert all(b > a for a, b in zip(means, means[1:]))


def class_reports_of_every_cv(base, spec):
    for cv_index in range(len(spec.cvs)):
        class_reports(base, spec, cv_index)


@pytest.mark.parametrize("drive", [variation_sweep, class_reports_of_every_cv], ids=["variation_sweep", "class_reports"])
def test_bundled_sweep_event_contract(monkeypatch, drive):
    """The bundled sweep's calls and simulated events, as the benchmark pins them.

    The sweep and the reference path (class_reports on every variation
    class) make the same calls. Each event function is wrapped at every pcmxbar binding, the way a
    tracer hooks it, so a caller that bypassed the module-level name would
    go uncounted. The events are recounted from arguments and results.
    """
    calls: Counter = Counter()
    events: Counter = Counter()

    def on_init(a, result):
        events["reset_pulses"] += a["n"] ** 2

    def on_program(a, result):
        events["set_pulses"] += result[2]

    def on_thresholds(a, result):
        events["cell_reads"] += a["array"].n * len(a["stimulus"].on_set())

    def on_epoch(a, result):
        k = len(result[1].firing_set)
        events["cell_reads"] += (a["array"].n - k) * k

    def on_probe(a, result):
        firing = set(a["partial"].on_set())
        for step in result.steps:
            events["cell_reads"] += (a["array"].n - len(firing)) * len(firing)
            firing |= step.newly_fired
        events["probe_steps"] += len(result.steps)

    hooks = {
        crossbar.init_array: on_init,
        crossbar.program_cells: on_program,
        network.compute_thresholds: on_thresholds,
        network.training_epoch: on_epoch,
        network.recall_probe: on_probe,
    }
    modules = [m for name, m in list(sys.modules.items()) if name == "pcmxbar" or name.startswith("pcmxbar.")]
    for fn, count in hooks.items():
        signature = inspect.signature(fn)

        def wrapper(*args, _fn=fn, _count=count, _signature=signature, **kwargs):
            calls[_fn.__name__] += 1
            result = _fn(*args, **kwargs)
            _count(_signature.bind(*args, **kwargs).arguments, result)
            return result

        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is fn:
                    monkeypatch.setattr(module, attr, wrapper)

    base, spec = load_sweep(bundled_config_path("sweep10x10.json"))
    drive(base, spec)
    assert calls == {
        "init_array": 800,
        "compute_thresholds": 800,
        "training_epoch": 8940,
        "program_cells": 8940,
        "recall_probe": 4470,
    }
    assert events == {
        "set_pulses": 223500,
        "reset_pulses": 80000,
        "cell_reads": 379968,
        "probe_steps": 5187,
    }


def patch_every_binding(monkeypatch, fn, replacement) -> None:
    """Replace fn under every name a pcmxbar module binds it to, as a tracer hooks it."""
    modules = [m for name, m in list(sys.modules.items()) if name == "pcmxbar" or name.startswith("pcmxbar.")]
    for module in modules:
        for attr, value in list(vars(module).items()):
            if value is fn:
                monkeypatch.setattr(module, attr, replacement)


def count_reads(monkeypatch) -> Counter:
    """Count every crossbar.read_bitlines call from here on, under "reads"."""
    calls: Counter = Counter()
    read_bitlines = crossbar.read_bitlines

    def counted(*args, **kwargs):
        calls["reads"] += 1
        return read_bitlines(*args, **kwargs)

    patch_every_binding(monkeypatch, read_bitlines, counted)
    return calls


def test_bundled_sweep_reads_each_pattern_once_per_run(monkeypatch):
    """The bundled patterns are complementary, so a run reads each pattern's training read only in epoch 1.

    800 threshold reads, 1,600 training reads (two patterns in each of 800
    runs) and one read per probe step (5,187). A run that read every epoch
    would read 8,940 times in training, 14,927 in all.
    """
    calls = count_reads(monkeypatch)
    base, spec = load_sweep(bundled_config_path("sweep10x10.json"))
    variation_sweep(base, spec)
    assert calls["reads"] == 7587


@pytest.mark.parametrize(
    "second, reads",
    [(PATTERN_2, [1, 1, 0, 0, 0, 0]), (on_pattern(10, {3, 4, 5, 6}), [1] * 6)],
    ids=["complementary", "overlapping"],
)
def test_training_epochs_read_afresh_when_patterns_overlap(monkeypatch, second, reads):
    """A pattern that programs cells another pattern's training read covers makes every epoch read."""
    calls = count_reads(monkeypatch)
    per_epoch = []

    def counted_epoch(*args, **kwargs):
        before = calls["reads"]
        result = network.training_epoch(*args, **kwargs)
        per_epoch.append(calls["reads"] - before)
        return result

    monkeypatch.setattr(experiments, "training_epoch", counted_epoch)
    # threshold_factor 50 never recalls, so the run trains all three epochs
    config = canonical_config(patterns=(PATTERN_1, second), protocol=ProtocolParams(threshold_factor=50.0), max_epochs=3)
    report = learn_and_recall(config)
    assert per_epoch == reads
    assert len(report.traces) == 9


def test_variation_sweep_builds_no_report_contrast_or_stats(monkeypatch):
    """A sweep reads only each run's epochs and energy, so it calls none of the report builders.

    Nor does experiments build a probe's EpochTrace for it. training_epoch
    builds its traces through network's binding, which stays.
    """

    def refuse(*args, **kwargs):
        raise AssertionError("a sweep run computes only its epochs and energy")

    for fn in (learn_and_recall, weight_contrast, crossbar.array_stats):
        patch_every_binding(monkeypatch, fn, refuse)
    monkeypatch.setattr(experiments, "EpochTrace", refuse)
    rows = variation_sweep(canonical_config(), SweepSpec((0.09, 0.6), seeds_per_cv=3))
    assert [row.cv for row in rows] == [0.09, 0.6]


def test_bundled_sweep_unreachable_runs_never_recall(bundled_class_reports):
    """Runs whose init rules recall out, however long they train.

    Gradual SET takes a cell at most to r_min, so target neuron m outside the
    stimulus S can never carry more than |S| v_read / r_min. A run whose
    threshold for some such m is at least that bound cannot recall.
    """
    base, spec, reports = bundled_class_reports
    stimulus = base.recall_stimulus.on_set()
    to_recruit = sorted(base.recall_target.on_set() - stimulus)
    ceiling = len(stimulus) * base.protocol.v_read / base.device.r_min
    flagged = {}
    for cv, runs in zip(spec.cvs, reports):
        unreachable = [r for r in runs if any(ceiling <= r.thresholds[m] for m in to_recruit)]
        assert all(r.epochs_to_recall is None for r in unreachable)
        flagged[cv] = len(unreachable)
    assert flagged == {0.05: 0, 0.09: 0, 0.3: 72, 0.6: 92}


# ---------------------------------------------------------------- histograms


def test_distribution_history_tracks_training():
    config = canonical_config(snapshot_every=1)
    stored = []
    report = learn_and_recall(config, store=stored.extend)
    history = distribution_history(report)
    assert [h.epoch for h in history] == [0, 1]
    initial, final = history
    assert initial.counts.sum() == 100
    assert (initial.counts > 0).sum() == 1  # cv = 0: single occupied bin
    # trained state is two-level: 50 programmed, 50 untouched
    occupied = final.counts[final.counts > 0]
    assert sorted(occupied.tolist()) == [50, 50]
    # untouched cells keep their initial resistance exactly
    off = sorted(set(range(10)) - PATTERN_1.on_set() - PATTERN_2.on_set())
    assert off == []  # complementary patterns cover every neuron
    assert [epoch for epoch, _ in stored] == [0, 1, None]
    (_, initial_matrix), (_, final_matrix), _ = stored
    outside_block = np.ix_(sorted(PATTERN_1.on_set()), sorted(PATTERN_2.on_set()))
    assert np.array_equal(final_matrix[outside_block], initial_matrix[outside_block])


@pytest.mark.parametrize(
    "device_overrides, init",
    [
        # 10.0 ** math.log10(5e6), the unclamped top edge, is 4999999.999999999
        ({"r_max": 5.0e6}, InitScheme(InitVariant.TUNED_FULL_RESET, 0.0, 5.0e6)),
        # and 10.0 ** math.log10(7e3), the bottom one, is 7000.000000000002
        ({"r_min": 7.0e3}, InitScheme(InitVariant.UNIFORM_PARTIAL_RESET, 1.5, 1.0e4)),
    ],
)
def test_distribution_history_counts_cells_at_the_device_limits(device_overrides, init):
    device = dataclasses.replace(CANONICAL_DEVICE, **device_overrides)
    config = canonical_config(device=device, init=init, max_epochs=2, snapshot_every=1)
    stored = []
    report = learn_and_recall(config, store=stored.extend)
    initial = stored[0][1]
    assert np.isin(initial, (device.r_min, device.r_max)).any()
    for histogram in distribution_history(report):
        assert histogram.counts.sum() == 100
        assert (histogram.bin_edges[0], histogram.bin_edges[-1]) == (device.r_min, device.r_max)


def libm_edges(r_min: float, r_max: float) -> list[float]:
    """HISTOGRAM_BINS + 1 edges from libm's log10 and pow, with the exact limits at the ends."""
    exponents = np.linspace(math.log10(r_min), math.log10(r_max), HISTOGRAM_BINS + 1)
    edges = [math.pow(10.0, x) for x in exponents.tolist()]
    edges[0], edges[-1] = r_min, r_max
    return edges


def test_histogram_edges_are_libm_powers_whatever_the_cpu():
    """The bin edges do not depend on which SIMD loops numpy picks for this CPU.

    numpy's float64 log10 and power run AVX512 loops where the CPU has them,
    and on most ranges those give np.logspace other bits than libm does.
    """
    rng = np.random.default_rng(31)
    lows, ratios = rng.uniform(1.0, 1.0e6, 1000).tolist(), rng.uniform(1.5, 1.0e4, 1000).tolist()
    ranges = [(r_min, r_min * ratio) for r_min, ratio in zip(lows, ratios)]
    moved = []
    for r_min, r_max in ranges:
        device = DeviceParams(r_min=r_min, r_max=r_max, r_reset_full_median=r_max, r_reset_partial_median=r_max)
        if _histogram_edges(device).tolist() != libm_edges(r_min, r_max):
            moved.append((r_min, r_max))
    assert not moved, f"{len(moved)} of {len(ranges)} ranges, first {moved[0]}"
    assert _histogram_edges(CANONICAL_DEVICE).tolist() == libm_edges(1.0e4, 1.0e7)


def test_distribution_history_requires_snapshots():
    report = learn_and_recall(canonical_config())
    with pytest.raises(NoSnapshots):
        distribution_history(report)


def test_snapshot_cadence_is_respected():
    config = canonical_config(
        patterns=(PATTERN_1,),
        protocol=ProtocolParams(threshold_factor=50.0),
        max_epochs=5,
        snapshot_every=2,
    )
    report = learn_and_recall(config)
    epochs = [h.epoch for h in distribution_history(report)]
    assert epochs == [0, 2, 4]


# ---------------------------------------------------------------- report shape


def test_report_config_echo_is_frozen():
    config = canonical_config()
    report = learn_and_recall(config)
    assert report.config == config
    assert dataclasses.is_dataclass(report.config)
