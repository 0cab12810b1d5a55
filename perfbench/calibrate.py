"""Host-speed calibration: a fixed kernel that does not touch pcmxbar.

The host this benchmark runs on is shared, and its speed drifts by up to a
factor of two, over seconds as well as minutes, as other tenants load it.
``SpeedProbe`` runs a small fixed kernel from a timer signal every
INTERVAL_S seconds while the program runs, in the same thread, so it
samples the host's speed at the same moments. The kernel's own time is
taken out of the measured invocation, and dividing the rest by the mean
kernel time of its batch cancels the drift.

The kernel mixes the operations the simulator is made of: small frozen
dataclasses, float arithmetic, scalar numpy indexing and random draws,
dict updates and float formatting. Its generator is private, so it never
touches the program's random streams.
"""
from __future__ import annotations

import math
import signal
from dataclasses import dataclass
from time import perf_counter, process_time

import numpy as np

# Calibrated times are seconds on a host where one kernel run takes this
# long: about its time on an unloaded 2-core x86_64 VM with Python 3.11 and
# numpy 2.4.
REFERENCE_S = 0.0025
ITERATIONS = 800
INTERVAL_S = 0.05


@dataclass(frozen=True)
class _Cell:
    r: float
    k: int = 0


def kernel(iterations: int = ITERATIONS) -> int:
    rng = np.random.default_rng(12345)
    table = np.full((16, 16), 2.0e4)
    cell = _Cell(1.0e6)
    total = 0.0
    seen: dict[int, float] = {}
    parts: list[str] = []
    for i in range(iterations):
        cell = _Cell(1.0e4 + (cell.r - 1.0e4) * 0.4 * (1.0 + rng.normal(0.0, 0.05)), cell.k + 1)
        if cell.r < 2.0e4:
            cell = _Cell(1.0e6)
        total += 0.1 / float(table[i % 16, (i * 7) % 16]) + math.sqrt(cell.r)
        seen[i % 97] = total
        if i % 8 == 0:
            parts.append(repr(cell.r))
    return len(",".join(parts)) + len(seen)


def kernel_seconds(runs: int = 40) -> float:
    """Mean time of one kernel run over `runs` back-to-back runs."""
    t0 = perf_counter()
    for _ in range(runs):
        kernel()
    return (perf_counter() - t0) / runs


def scaled(seconds: list[float], kernel_s: list[float]) -> list[float]:
    """Each time in seconds at the reference speed, given the kernel time taken with it."""
    return [s * REFERENCE_S / k for s, k in zip(seconds, kernel_s)]


class SpeedProbe:
    """Runs the kernel from SIGALRM every INTERVAL_S seconds while active.

    ``wall_clock`` and ``cpu_clock`` stand still while the kernel runs, so
    time read from them covers the program only.
    """

    def __init__(self, cpu_seconds) -> None:
        self.samples: list[float] = []
        self._busy_s = 0.0
        self._busy_cpu_s = 0.0
        self._cpu_seconds = cpu_seconds
        self._previous = None

    def _tick(self, signum, frame) -> None:
        c0 = process_time()
        t0 = perf_counter()
        kernel()
        dt = perf_counter() - t0
        self._busy_cpu_s += process_time() - c0
        self._busy_s += dt
        self.samples.append(dt)

    def wall_clock(self) -> float:
        return perf_counter() - self._busy_s

    def cpu_clock(self) -> float:
        return self._cpu_seconds() - self._busy_cpu_s

    def __enter__(self) -> "SpeedProbe":
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
