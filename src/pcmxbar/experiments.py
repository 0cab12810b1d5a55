"""Array-level experiments: learn-then-recall runs and variation sweeps.

A run forms an array, freezes per-neuron thresholds on the untrained state,
then alternates Hebbian training epochs with read-only recall probes until
the probe reproduces the stored pattern exactly or the epoch budget runs
out. A sweep repeats that over an ensemble of seeds for each initial
resistance variation class and reduces each class to one summary row.
"""
from __future__ import annotations

from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np

from .crossbar import (
    ArrayStats,
    CrossbarArray,
    InitScheme,
    InitVariant,
    array_stats,
    flat_mean,
    init_array,
)
from .device import DeviceParams
from .errors import DegeneratePattern, DimensionMismatch, NoSnapshots
from .network import (
    EpochTrace,
    Pattern,
    ProtocolParams,
    add_in_order,
    compute_thresholds,
    recall_probe,
    recall_success,
    training_epoch,
)

# Log-spaced bins per resistance histogram, across [r_min, r_max].
HISTOGRAM_BINS = 50


@dataclass(frozen=True)
class ExperimentConfig:
    """Complete description of one learn-and-recall run."""

    n: int
    device: DeviceParams
    protocol: ProtocolParams
    init: InitScheme
    patterns: tuple[Pattern, ...]
    recall_stimulus: Pattern
    recall_target: Pattern
    max_epochs: int = 20
    seed: int = 0
    snapshot_every: int = 0

    def __post_init__(self) -> None:
        if self.n < 2:
            raise ValueError("n must be >= 2")
        if not self.patterns:
            raise ValueError("need at least one training pattern")
        named = [(f"patterns[{i}]", p) for i, p in enumerate(self.patterns)]
        named += [("recall_stimulus", self.recall_stimulus), ("recall_target", self.recall_target)]
        for name, p in named:
            if p.n != self.n:
                raise DimensionMismatch(f"{name} has length {p.n}, not n = {self.n}")
        if not self.recall_stimulus.on_set() <= self.recall_target.on_set():
            raise ValueError("recall_stimulus ON set must be contained in recall_target")
        if self.max_epochs < 1:
            raise ValueError("max_epochs must be >= 1")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")
        if self.snapshot_every < 0:
            raise ValueError("snapshot_every must be >= 0")
        # negated, so that NaN fails the check
        if not self.device.r_min < self.init.median <= self.device.r_max:
            raise ValueError(f"init.median must lie in (device.r_min, device.r_max], got {self.init.median!r}")
        self.protocol.validate_against(self.device)


@dataclass
class RunReport:
    """Everything observable about one run."""

    epochs_to_recall: int | None  # None when recall was not reached
    total_energy: float  # joules spent up to and including the deciding probe
    energy_breakdown: dict[str, float]  # joules per phase
    initial_stats: ArrayStats
    final_stats: ArrayStats
    thresholds: np.ndarray  # amperes, per neuron
    traces: list[EpochTrace]
    contrast_history: list[float]  # weight contrast after each epoch
    # (epoch, ohms) of the initial array (epoch 0) and of each epoch the
    # snapshot_every cadence keeps, in epoch order
    snapshots: list[tuple[int, np.ndarray]]
    final_resistance: np.ndarray  # ohms, state when the run stopped
    config: ExperimentConfig


@dataclass(frozen=True)
class SweepSpec:
    """Sweep section of a config: variation classes and ensemble size."""

    cvs: tuple[float, ...]
    seeds_per_cv: int
    # CV at or below which the per-cell tuned full-RESET preparation is assumed;
    # wider targets are only reachable with the one-pulse-for-all partial RESET.
    tuned_cv_max: float = 0.15

    def __post_init__(self) -> None:
        if not self.cvs:
            raise ValueError("cvs must hold at least one cv")
        if list(self.cvs) != sorted(self.cvs):
            raise ValueError("cvs must be sorted ascending")
        if not all(0 <= cv < 2 for cv in self.cvs):
            raise ValueError("each cv must lie in [0, 2)")
        if self.seeds_per_cv < 1:
            raise ValueError("seeds_per_cv must be >= 1")
        # negated, so that NaN fails the check
        if not 0 <= self.tuned_cv_max < 2:
            raise ValueError("tuned_cv_max must lie in [0, 2)")


@dataclass(frozen=True)
class SweepRow:
    """Summary of one variation class in a sweep."""

    cv: float
    median_epochs: float  # inf when more than half the seeds never recalled
    mean_energy: float  # joules, averaged over all seeds of the class
    success_rate: float


@dataclass(frozen=True)
class SnapshotHistogram:
    """Log-spaced resistance histogram of one kept snapshot."""

    epoch: int
    bin_edges: np.ndarray  # ohms, length HISTOGRAM_BINS + 1
    counts: np.ndarray


def weight_contrast(array: CrossbarArray, pattern: Pattern) -> float:
    """Mean conductance of the pattern's ON x ON block over all other cells."""
    if pattern.n != array.n:
        raise DimensionMismatch(f"pattern length {pattern.n} != array dimension {array.n}")
    on = pattern.on_set()
    if not on or len(on) == array.n:
        raise DegeneratePattern("contrast needs both ON and OFF neurons")
    block_mask, rest_mask = _contrast_masks(array.n, on)
    conductance = 1.0 / array.resistance
    return flat_mean(conductance[block_mask]) / flat_mean(conductance[rest_mask])


@lru_cache(maxsize=8)
def _contrast_masks(n: int, on: frozenset[int]) -> tuple[np.ndarray, np.ndarray]:
    """Read-only masks of the ON x ON block of an n x n array and of every other cell."""
    block_mask = np.zeros((n, n), dtype=bool)
    idx = np.array(sorted(on))
    block_mask[idx[:, None], idx] = True
    rest_mask = ~block_mask
    block_mask.flags.writeable = False
    rest_mask.flags.writeable = False
    return block_mask, rest_mask


def learn_and_recall(config: ExperimentConfig, rng: np.random.Generator | None = None) -> RunReport:
    """Run the full protocol for one seed.

    Each epoch presents every training pattern once (programming plus a
    diagnostic read), then fires the recall stimulus into a read-only probe.
    The run stops at the first probe that matches the recall target exactly.
    """
    if rng is None:
        rng = np.random.default_rng(np.random.SeedSequence(config.seed))
    pp = config.protocol
    array = init_array(config.n, config.init, config.device, rng, pp.reset_pulse)
    initial_stats = array_stats(array.resistance)
    snapshots = [(0, array.resistance.copy())]
    thresholds = compute_thresholds(array, config.recall_stimulus, pp)

    traces: list[EpochTrace] = []
    contrast_history: list[float] = []
    epochs_to_recall: int | None = None
    for epoch in range(1, config.max_epochs + 1):
        for pattern in config.patterns:
            array, trace = training_epoch(array, pattern, pp, rng)
            trace.epoch = epoch
            traces.append(trace)
        probe = recall_probe(array, config.recall_stimulus, thresholds, pp)
        if config.snapshot_every > 0 and epoch % config.snapshot_every == 0:
            snapshots.append((epoch, array.resistance.copy()))
        traces.append(
            EpochTrace(
                epoch=epoch,
                phase="probe",
                firing_set=probe.final_firing,
                currents=probe.steps[0].currents,
                program_energy=0.0,
                read_energy=probe.read_energy,
            )
        )
        contrast_history.append(weight_contrast(array, config.recall_target))
        if recall_success(probe.final_firing, config.recall_target):
            epochs_to_recall = epoch
            break

    train = [t for t in traces if t.phase == "train"]
    probes = [t for t in traces if t.phase == "probe"]
    breakdown = {
        "training_program": add_in_order(0.0, [t.program_energy for t in train]),
        "training_read": add_in_order(0.0, [t.read_energy for t in train]),
        "probe_read": add_in_order(0.0, [t.read_energy for t in probes]),
    }
    return RunReport(
        epochs_to_recall=epochs_to_recall,
        total_energy=add_in_order(0.0, breakdown.values()),
        energy_breakdown=breakdown,
        initial_stats=initial_stats,
        final_stats=array_stats(array.resistance),
        thresholds=thresholds,
        traces=traces,
        contrast_history=contrast_history,
        snapshots=snapshots,
        final_resistance=array.resistance.copy(),
        config=config,
    )


def scheme_for_cv(device: DeviceParams, cv: float, tuned_cv_max: float) -> InitScheme:
    """Initialization scheme that reaches a target variation class.

    Tight classes come from per-cell tuned pulses into the fully amorphized
    high-resistance state; wide classes come from a single shared pulse that
    leaves the array partially RESET, much closer to the crystalline floor.
    """
    if cv <= tuned_cv_max:
        return InitScheme(InitVariant.TUNED_FULL_RESET, cv, device.r_reset_full_median)
    return InitScheme(InitVariant.UNIFORM_PARTIAL_RESET, cv, device.r_reset_partial_median)


def class_reports(base: ExperimentConfig, spec: SweepSpec, cv_index: int) -> list[RunReport]:
    """All runs of variation class spec.cvs[cv_index], each on a private derived RNG stream.

    Stream (cv_index, seed_index) is split off the master seed, so results
    do not depend on execution order and the classes can run in parallel.
    """
    cfg = replace(base, init=scheme_for_cv(base.device, spec.cvs[cv_index], spec.tuned_cv_max))
    reports = []
    for seed_index in range(spec.seeds_per_cv):
        rng = np.random.default_rng(np.random.SeedSequence(base.seed, spawn_key=(cv_index, seed_index)))
        reports.append(learn_and_recall(cfg, rng))
    return reports


def variation_sweep(base: ExperimentConfig, spec: SweepSpec) -> list[SweepRow]:
    """Median epochs, mean energy, and success rate per variation class."""
    rows = []
    for cv_index, cv in enumerate(spec.cvs):
        reports = class_reports(base, spec, cv_index)
        epochs = np.array(
            [r.epochs_to_recall if r.epochs_to_recall is not None else np.inf for r in reports]
        )
        rows.append(
            SweepRow(
                cv=cv,
                median_epochs=float(np.median(epochs)),
                mean_energy=float(np.mean([r.total_energy for r in reports])),
                success_rate=float(np.mean([r.epochs_to_recall is not None for r in reports])),
            )
        )
    return rows


def distribution_history(report: RunReport) -> list[SnapshotHistogram]:
    """Log-spaced resistance histograms for every kept snapshot.

    The initial array is epoch 0; later entries are the epochs the run kept
    under its snapshot cadence.
    """
    device = report.config.device
    if report.config.snapshot_every == 0:
        raise NoSnapshots("run kept no snapshots; set snapshot_every > 0")
    edges = np.logspace(np.log10(device.r_min), np.log10(device.r_max), HISTOGRAM_BINS + 1)
    return [
        SnapshotHistogram(epoch, edges, np.histogram(matrix.ravel(), bins=edges)[0])
        for epoch, matrix in report.snapshots
    ]
