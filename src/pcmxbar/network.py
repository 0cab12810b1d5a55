"""Hebbian learning protocol and integrate-and-fire recall on a crossbar.

Neuron i owns bitline i (its input) and wordline i (its output). When a set
of neurons fires together, their bitlines are driven with the programming
pulse while their wordlines are gated, so every synapse between two firing
neurons receives one SET pulse: cells that fire together wire together.
Recall is a read-only cascade: non-firing neurons integrate current from the
firing set and join it when their input crosses a threshold.
"""
from __future__ import annotations

import operator
from collections.abc import Iterable
from dataclasses import dataclass
from functools import reduce

import numpy as np

from .crossbar import CrossbarArray, program_cells, read_bitlines
from .device import DeviceParams, PulseRole, PulseSpec, check_read_voltage
from .errors import DimensionMismatch, EmptyStimulus

# Read waveform: a 100 us rectangle at the read voltage.
DEFAULT_READ_PULSE = PulseSpec(0.1, 0.0, 1.0e-4, 0.0, PulseRole.READ)
DEFAULT_PROGRAM_PULSE = PulseSpec(1.0, 50e-9, 300e-9, 1.0e-6, PulseRole.SET)
# RESET waveform that forms the array: 1.5 V, 20/50/5 ns.
DEFAULT_RESET_PULSE = PulseSpec(1.5, 20e-9, 50e-9, 5e-9, PulseRole.RESET)


@dataclass(frozen=True)
class Pattern:
    """Binary activity pattern over the neurons; bit i is neuron i's pixel.

    on_idx and off_idx hold the ON and the OFF neurons as read-only
    ascending np.intp arrays.
    """

    bits: tuple[bool, ...]

    def __post_init__(self) -> None:
        # the ON set and both index arrays are read on every epoch and probe; build them once
        bits = np.array(self.bits, dtype=bool)
        for name, index in (("on_idx", np.flatnonzero(bits)), ("off_idx", np.flatnonzero(~bits))):
            index.flags.writeable = False  # shared by every caller
            object.__setattr__(self, name, index)
        object.__setattr__(self, "_on", frozenset(self.on_idx.tolist()))

    @property
    def n(self) -> int:
        return len(self.bits)

    def on_set(self) -> frozenset[int]:
        return self._on


@dataclass(frozen=True)
class ProtocolParams:
    """Knobs of the learning and recall protocol."""

    v_read: float = DEFAULT_READ_PULSE.amplitude
    read_pulse: PulseSpec = DEFAULT_READ_PULSE
    program_pulse: PulseSpec = DEFAULT_PROGRAM_PULSE
    reset_pulse: PulseSpec = DEFAULT_RESET_PULSE
    threshold_factor: float = 2.0
    include_diagonal: bool = True
    pulses_per_coactivation: int = 1

    def __post_init__(self) -> None:
        # negated, so that NaN fails the checks
        if not self.v_read >= 0:
            raise ValueError("v_read must be >= 0")
        if not self.threshold_factor >= 1:
            raise ValueError("threshold_factor must be >= 1")
        if self.pulses_per_coactivation < 1:
            raise ValueError("pulses_per_coactivation must be >= 1")
        if self.read_pulse.role is not PulseRole.READ:
            raise ValueError("read_pulse must have role READ")
        if self.program_pulse.role is not PulseRole.SET:
            raise ValueError("program_pulse must have role SET")
        if self.reset_pulse.role is not PulseRole.RESET:
            raise ValueError("reset_pulse must have role RESET")
        if self.read_pulse.amplitude != self.v_read:
            raise ValueError("read_pulse amplitude must equal v_read")

    def validate_against(self, device: DeviceParams) -> None:
        """Protocol sanity checks that need device corner values."""
        check_read_voltage(self.v_read, device)
        if self.program_pulse.amplitude < device.v_set_threshold:
            raise ValueError("program_pulse amplitude below v_set_threshold")
        if self.reset_pulse.amplitude < device.v_reset_threshold:
            raise ValueError("reset_pulse amplitude below v_reset_threshold")


@dataclass
class EpochTrace:
    """Record of one protocol phase: a pattern presentation or a recall probe.

    currents holds per-neuron read current in amperes, NaN for neurons that
    were firing (they drive, they do not read), read-only. The code that
    knows a trace's contents builds it whole; nothing writes into it after.
    """

    # not frozen: a frozen one builds 3-4x slower, and a sweep builds 8,940
    epoch: int
    phase: str  # "train" or "probe"
    firing_set: frozenset[int]
    currents: np.ndarray
    program_energy: float
    read_energy: float


@dataclass(frozen=True)
class ProbeStep:
    """One cascade step: per-neuron input currents and the neurons they recruited.

    currents holds amperes, NaN for neurons that were already firing. The
    step's number is its index in ProbeResult.steps.
    """

    currents: np.ndarray
    newly_fired: frozenset[int]


@dataclass(frozen=True)
class ProbeResult:
    final_firing: frozenset[int]
    steps: list[ProbeStep]
    read_energy: float


def _check_pattern(array: CrossbarArray, pattern: Pattern) -> None:
    # len() of the fields: the n properties cost a call each on every epoch and probe
    if len(pattern.bits) != len(array.resistance):
        raise DimensionMismatch(f"pattern length {pattern.n} != array dimension {array.n}")


def add_in_order(total: float, values: Iterable[float]) -> float:
    """total + values[0] + values[1] + ..., added one after another from the left.

    numpy sums pairwise and Python's sum() compensates from 3.12 on; this
    keeps the bits of a running sum on every version.
    """
    return reduce(operator.add, values, total)


def _read_idle(
    array: CrossbarArray, firing_idx: np.ndarray, idle_idx: np.ndarray, pp: ProtocolParams
) -> tuple[np.ndarray, np.ndarray]:
    """Read every idle neuron's bitline gated by the firing neurons' wordlines.

    firing_idx and idle_idx are ascending integer arrays that split
    range(array.n) between them. Returns (per-neuron currents, NaN for firing
    neurons; the read energies in ascending bitline order). The currents are
    read-only, so that traces and probe steps can share them.
    """
    read, energies = read_bitlines(array, idle_idx, firing_idx, pp.read_pulse)
    currents = np.empty(len(array.resistance))
    currents.fill(np.nan)  # cheaper than an indexed write of the firing neurons
    currents[idle_idx] = read
    currents.flags.writeable = False
    return currents, energies


def compute_thresholds(array: CrossbarArray, stimulus: Pattern, pp: ProtocolParams) -> np.ndarray:
    """Per-neuron firing thresholds from the untrained array.

    threshold_i = threshold_factor x (read current of bitline i with the
    stimulus ON set gated). Firing a neuron then demands its input current
    grow past threshold_factor times its own initial value, which is what
    keeps an untrained array quiescent under any stimulus.
    """
    _check_pattern(array, stimulus)
    if not stimulus.on_idx.size:
        raise EmptyStimulus("stimulus has no ON bits")
    currents, _ = read_bitlines(array, np.arange(array.n), stimulus.on_idx, pp.read_pulse)
    return pp.threshold_factor * currents


def training_epoch(
    array: CrossbarArray,
    pattern: Pattern,
    pp: ProtocolParams,
    rng: np.random.Generator,
    epoch: int,
    read: EpochTrace | None = None,
) -> tuple[CrossbarArray, EpochTrace]:
    """One presentation of a pattern: program the coactive block, then read.

    Firing is clamped to the pattern. Every (firing, firing) synapse gets
    pulses_per_coactivation SET pulses; the diagonal self-synapses are
    skipped when include_diagonal is false. Afterwards every non-firing
    neuron reads its bitline against the firing set, which records the
    input currents the recall threshold will be compared against. Returns
    the programmed array and the epoch's finished trace.

    read, if given, is an earlier trace of the same pattern. Its currents
    and read energy are recorded as this epoch's read, and the bitlines are
    not read again: the caller vouches that no cell the read covers has
    been programmed since. A read draws nothing from rng, so the
    generator's state is the same either way.
    """
    _check_pattern(array, pattern)
    on = pattern.on_idx
    if pp.include_diagonal:
        blocks = [(on, on)] if on.size else []
    else:
        # Cartesian programming cannot skip the diagonal in one shot;
        # drive each bitline against the others' wordlines instead.
        blocks = [(on[i : i + 1], np.delete(on, i)) for i in range(on.size)]
    program_energy = 0.0
    out = array
    for _ in range(pp.pulses_per_coactivation):
        for bls, wls in blocks:
            out, e, _ = program_cells(out, bls, wls, pp.program_pulse, rng)
            program_energy += e
    if read is None:
        currents, energies = _read_idle(out, on, pattern.off_idx, pp)
        read_energy = add_in_order(0.0, energies.tolist())
    else:
        currents, read_energy = read.currents, read.read_energy
    return out, EpochTrace(epoch, "train", pattern.on_set(), currents, program_energy, read_energy)


def recall_probe(
    array: CrossbarArray,
    partial: Pattern,
    thresholds: np.ndarray,
    pp: ProtocolParams,
) -> ProbeResult:
    """Read-only integrate-and-fire cascade from a partial stimulus.

    Step 0 fires exactly the stimulus ON set. At each step every non-firing
    neuron reads its bitline gated by the current firing set; neurons whose
    current strictly exceeds their threshold join the firing set for the
    next step. The probe stops at the first step that recruits nobody.
    """
    _check_pattern(array, partial)
    if len(thresholds) != len(array.resistance):
        raise DimensionMismatch(f"threshold vector length {len(thresholds)} != array dimension {array.n}")
    if not partial.on_idx.size:
        raise EmptyStimulus("recall stimulus has no ON bits")
    thresholds = np.asarray(thresholds, dtype=np.float64)
    firing_idx, idle_idx = partial.on_idx, partial.off_idx
    steps: list[ProbeStep] = []
    read_energy = 0.0
    # Every step but the last recruits someone and the firing set starts
    # non-empty, so the fixpoint comes within n steps.
    while True:
        currents, energies = _read_idle(array, firing_idx, idle_idx, pp)
        read_energy = add_in_order(read_energy, energies.tolist())
        # NaN > threshold is False, so firing neurons never recruit again
        recruited = currents > thresholds
        newly_fired = frozenset(recruited.nonzero()[0].tolist())
        steps.append(ProbeStep(currents, newly_fired))
        if not newly_fired:
            break
        recruited[firing_idx] = True  # now every neuron that fires next step
        firing_idx, idle_idx = recruited.nonzero()[0], (~recruited).nonzero()[0]
    return ProbeResult(frozenset(firing_idx.tolist()), steps, read_energy)


def recall_success(final_set: frozenset[int] | set[int], target: Pattern) -> bool:
    """True only on exact match: full completion and zero spurious neurons."""
    return frozenset(final_set) == target.on_set()
