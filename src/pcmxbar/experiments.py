"""Array-level experiments: learn-then-recall runs and variation sweeps.

A run forms an array, freezes per-neuron thresholds on the untrained state,
then alternates Hebbian training epochs with read-only recall probes until
the probe reproduces the stored pattern exactly or the epoch budget runs
out. A sweep repeats that over an ensemble of seeds for each initial
resistance variation class and reduces each class to one summary row.
"""
from __future__ import annotations

import math
from collections import deque
from collections.abc import Callable, Iterator
from dataclasses import dataclass, replace

import numpy as np

from .crossbar import (
    ArrayStats,
    CrossbarArray,
    InitScheme,
    InitVariant,
    array_stats,
    init_array,
)
from .device import DeviceParams
from .errors import DimensionMismatch, NoSnapshots
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
        if not self.recall_stimulus.on_set():
            raise ValueError("recall_stimulus must turn at least one neuron ON: the recall probe starts from it")
        if not self.recall_stimulus.on_set() <= self.recall_target.on_set():
            raise ValueError("recall_stimulus ON set must be contained in recall_target")
        if len(self.recall_target.on_set()) == self.n:
            raise ValueError("recall_target must leave at least one neuron OFF: the weight contrast needs both kinds")
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


@dataclass(frozen=True)
class Snapshot:
    """What a run keeps of one kept array: its statistics and log-spaced resistance histogram."""

    epoch: int
    stats: ArrayStats
    bin_edges: np.ndarray  # ohms, length HISTOGRAM_BINS + 1, shared by every snapshot of a run
    counts: np.ndarray


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
    # the initial array (epoch 0) and each epoch the snapshot_every cadence
    # keeps, in epoch order; none when snapshot_every is 0
    snapshots: list[Snapshot]
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


def weight_contrast(array: CrossbarArray, pattern: Pattern) -> float:
    """Mean conductance of the pattern's ON x ON block over all other cells.

    pattern has the array's dimension and both ON and OFF bits, unchecked,
    as ExperimentConfig guarantees of recall_target.
    """
    on = pattern.on_idx
    conductance = 1.0 / array.resistance
    block_mask = np.zeros((array.n, array.n), dtype=bool)
    block_mask[np.ix_(on, on)] = True
    return float(np.mean(conductance[block_mask]) / np.mean(conductance[~block_mask]))


def _reads_stay(patterns: tuple[Pattern, ...]) -> bool:
    """True when no pattern ever programs a cell that a training read covers.

    Pattern q programs cells inside its ON x ON block; pattern p's training
    read covers its OFF bitlines x ON wordlines. The two meet only when q's
    ON set has a neuron inside p's and one outside it, so the reads keep the
    formed array's values when every ON set lies inside or wholly outside
    every other. Frozenset tests: about 1 us for two patterns, where
    np.intersect1d measured 48 us.
    """
    ons = [p.on_set() for p in patterns]
    return all(q <= p or q.isdisjoint(p) for p in ons for q in ons)


def _protocol(config: ExperimentConfig, rng: np.random.Generator) -> Iterator[tuple]:
    """Every simulation call of one run, in order, as a generator.

    Forms the array and freezes the thresholds, then yields (array,
    thresholds). Each epoch then presents every training pattern once
    (programming plus a diagnostic read) and fires the recall stimulus into
    a read-only probe, and yields (epoch, array, traces, probe, recalled,
    energy): the training traces, the probe's result, and a new dict of the
    joules per phase spent so far. Each phase is a running sum from 0.0 in
    run order, the bits add_in_order gives. The run stops at the first
    probe that matches the recall target exactly. It only simulates, and
    writes into no record a kernel built or it yielded.

    When no pattern programs a cell that a training read covers
    (_reads_stay), training_epoch gets each pattern's last trace back and
    records its read again instead of reading afresh, with the same bits.
    """
    pp = config.protocol
    array = init_array(config.n, config.init, config.device, rng, pp.reset_pulse)
    thresholds = compute_thresholds(array, config.recall_stimulus, pp)
    yield array, thresholds
    train_program = train_read = probe_read = 0.0
    reads = [None] * len(config.patterns)
    keep_reads = _reads_stay(config.patterns)
    for epoch in range(1, config.max_epochs + 1):
        traces = []
        for i, pattern in enumerate(config.patterns):
            array, trace = training_epoch(array, pattern, pp, rng, epoch, reads[i])
            if keep_reads:
                reads[i] = trace
            train_program += trace.program_energy
            train_read += trace.read_energy
            traces.append(trace)
        probe = recall_probe(array, config.recall_stimulus, thresholds, pp)
        probe_read += probe.read_energy
        recalled = recall_success(probe.final_firing, config.recall_target)
        energy = {"training_program": train_program, "training_read": train_read, "probe_read": probe_read}
        yield epoch, array, traces, probe, recalled, energy
        if recalled:
            return


def learn_and_recall(
    config: ExperimentConfig,
    rng: np.random.Generator | None = None,
    store: Callable[[Iterator[tuple[int | None, np.ndarray]]], object] | None = None,
) -> RunReport:
    """Run the full protocol for one seed and report everything observable about it.

    The report keeps the final array, and of every other array only what a
    Snapshot holds. store, if given, is called once with an iterator over the
    arrays as the run produces them, in epoch order: (0, ohms) of the initial
    array, (epoch, ohms) of each epoch the snapshot_every cadence keeps, then
    (None, ohms) of the final array. The matrices are read-only. The run
    advances only as store pulls, so no array need outlive its epoch; what
    store leaves unpulled runs after it returns.
    """
    if rng is None:
        rng = np.random.default_rng(np.random.SeedSequence(config.seed))
    report: RunReport | None = None

    def arrays() -> Iterator[tuple[int | None, np.ndarray]]:
        nonlocal report
        run = _protocol(config, rng)
        array, thresholds = next(run)
        every = config.snapshot_every
        edges = _histogram_edges(config.device) if every else None
        snapshots: list[Snapshot] = []
        initial_stats = array_stats(array.resistance)
        kept_epoch, kept_stats = 0, initial_stats  # of the last array kept
        if every:
            snapshots.append(Snapshot(0, initial_stats, edges, _histogram(array.resistance, edges)))
        # each matrix store gets is the run's own; read-only, so that store cannot change the run
        array.resistance.flags.writeable = False
        yield 0, array.resistance
        traces: list[EpochTrace] = []
        contrast_history: list[float] = []
        for epoch, array, epoch_traces, probe, recalled, energy in run:
            traces += epoch_traces
            traces.append(EpochTrace(epoch, "probe", probe.final_firing, probe.steps[0].currents, 0.0, probe.read_energy))
            if every and epoch % every == 0:
                kept_epoch, kept_stats = epoch, array_stats(array.resistance)
                snapshots.append(Snapshot(epoch, kept_stats, edges, _histogram(array.resistance, edges)))
                array.resistance.flags.writeable = False
                yield epoch, array.resistance
            contrast_history.append(weight_contrast(array, config.recall_target))

        report = RunReport(
            epochs_to_recall=epoch if recalled else None,
            total_energy=add_in_order(0.0, energy.values()),
            energy_breakdown=energy,
            initial_stats=initial_stats,
            # the final array's stats are those of its snapshot when its epoch was kept
            final_stats=kept_stats if kept_epoch == epoch else array_stats(array.resistance),
            thresholds=thresholds,
            traces=traces,
            contrast_history=contrast_history,
            snapshots=snapshots,
            final_resistance=array.resistance,
            config=config,
        )
        array.resistance.flags.writeable = False
        yield None, array.resistance

    stream = arrays()
    if store is not None:
        store(stream)
    deque(stream, maxlen=0)
    return report


def scheme_for_cv(device: DeviceParams, cv: float, tuned_cv_max: float) -> InitScheme:
    """Initialization scheme that reaches a target variation class.

    Tight classes come from per-cell tuned pulses into the fully amorphized
    high-resistance state; wide classes come from a single shared pulse that
    leaves the array partially RESET, much closer to the crystalline floor.
    """
    if cv <= tuned_cv_max:
        return InitScheme(InitVariant.TUNED_FULL_RESET, cv, device.r_reset_full_median)
    return InitScheme(InitVariant.UNIFORM_PARTIAL_RESET, cv, device.r_reset_partial_median)


def _sweep_run(config: ExperimentConfig, rng: np.random.Generator) -> tuple[int | None, float]:
    """(epochs_to_recall, total_energy) of learn_and_recall(config, rng), and nothing else.

    The run consumes the same _protocol, so the generator draws, the events
    and both results have the same bits. It reads only the last epoch's
    yield, and builds no report, probe trace, contrast or statistics.
    """
    run = _protocol(config, rng)
    next(run)
    ((epoch, _, _, _, recalled, energy),) = deque(run, maxlen=1)
    return (epoch if recalled else None), add_in_order(0.0, energy.values())


def _class_runs(base: ExperimentConfig, spec: SweepSpec, cv_index: int, run) -> list:
    """run(config, rng) for every seed of variation class spec.cvs[cv_index].

    Stream (cv_index, seed_index) is split off the master seed, so results
    do not depend on execution order and the classes can run in parallel.
    """
    cfg = replace(base, init=scheme_for_cv(base.device, spec.cvs[cv_index], spec.tuned_cv_max))
    return [
        run(cfg, np.random.default_rng(np.random.SeedSequence(base.seed, spawn_key=(cv_index, seed_index))))
        for seed_index in range(spec.seeds_per_cv)
    ]


def class_reports(base: ExperimentConfig, spec: SweepSpec, cv_index: int) -> list[RunReport]:
    """All runs of variation class spec.cvs[cv_index], each on a private derived RNG stream."""
    return _class_runs(base, spec, cv_index, learn_and_recall)


def variation_sweep(base: ExperimentConfig, spec: SweepSpec) -> list[SweepRow]:
    """Median epochs, mean energy, and success rate per variation class.

    Each run computes only its epochs and energy (_sweep_run), bit for bit
    those of the class_reports run on the same stream.
    """
    rows = []
    for cv_index, cv in enumerate(spec.cvs):
        runs = _class_runs(base, spec, cv_index, _sweep_run)
        epochs = np.array([e if e is not None else np.inf for e, _ in runs])
        rows.append(
            SweepRow(
                cv=cv,
                median_epochs=float(np.median(epochs)),
                mean_energy=float(np.mean([energy for _, energy in runs])),
                success_rate=float(np.mean([e is not None for e, _ in runs])),
            )
        )
    return rows


def distribution_history(report: RunReport) -> list[Snapshot]:
    """The kept snapshots, each with its log-spaced resistance histogram, in epoch order.

    The initial array is epoch 0; later entries are the epochs the run kept
    under its snapshot cadence.
    """
    if report.config.snapshot_every == 0:
        raise NoSnapshots("run kept no snapshots; set snapshot_every > 0")
    return list(report.snapshots)


def _histogram_edges(device: DeviceParams) -> np.ndarray:
    """HISTOGRAM_BINS + 1 log-spaced edges from exactly r_min to exactly r_max.

    The logarithms and powers come from libm through math.log10 and float
    **. numpy's float64 log10 and power dispatch to SIMD loops that differ
    with the CPU (AVX512 or not), so np.logspace's edges do too.
    """
    exponents = np.linspace(math.log10(device.r_min), math.log10(device.r_max), HISTOGRAM_BINS + 1)
    edges = np.array([10.0**x for x in exponents.tolist()])
    # a power can round an outer edge inward, and np.histogram would then
    # drop every cell clamped to that limit
    edges[0], edges[-1] = device.r_min, device.r_max
    return edges


def _histogram(resistance: np.ndarray, edges: np.ndarray) -> np.ndarray:
    """Cell counts of a resistance matrix per bin of edges."""
    return np.histogram(resistance.ravel(), bins=edges)[0]
