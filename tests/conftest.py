"""Shared fixtures and builders for the test suite."""
from __future__ import annotations

import hashlib
import importlib.util
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from pcmxbar import DeviceParams, Pattern, ProtocolParams, PulseSpec, class_reports, variation_sweep
from pcmxbar.configio import bundled_config_path, load_config, load_sweep
from pcmxbar.crossbar import CrossbarArray

SEEDS_PER_CV = 200
PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def make_rng(seed: int = 0) -> np.random.Generator:
    return np.random.default_rng(seed)


def sweep_rng(seed: int, cv_index: int, seed_index: int) -> np.random.Generator:
    """The generator of sweep run (cv_index, seed_index) under master seed."""
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(cv_index, seed_index)))


def uniform_array(n: int, resistance: float, params: DeviceParams) -> CrossbarArray:
    """Build an array with every cell at the same resistance."""
    return CrossbarArray(np.full((n, n), resistance, dtype=np.float64), params)


def index(*values: int) -> np.ndarray:
    """values as the ascending np.intp array the crossbar kernels take."""
    return np.array(sorted(values), dtype=np.intp)


def on_pattern(n: int, on) -> Pattern:
    """Pattern of n neurons that is ON exactly at the indices in on."""
    return Pattern(tuple(i in on for i in range(n)))


def trapezoid_energy(pulse: PulseSpec, r: float, epsrel: float) -> float:
    """Adaptive quadrature of v(t)^2 / r over the pulse's trapezoid, one segment at a time."""
    from scipy.integrate import quad

    def v(t: float) -> float:
        if pulse.t_rise and t < pulse.t_rise:
            return pulse.amplitude * t / pulse.t_rise
        if t < pulse.t_rise + pulse.t_width:
            return pulse.amplitude
        tail = t - pulse.t_rise - pulse.t_width
        return pulse.amplitude * (1.0 - tail / pulse.t_fall) if pulse.t_fall else 0.0

    oracle = 0.0
    edges = [0.0, pulse.t_rise, pulse.t_rise + pulse.t_width, pulse.t_rise + pulse.t_width + pulse.t_fall]
    for lo, hi in zip(edges, edges[1:]):
        if hi > lo:
            oracle += quad(lambda t: v(t) ** 2 / r, lo, hi, epsrel=epsrel)[0]
    return oracle


def digests(out_dir: Path) -> dict[str, str]:
    """sha256 of every file under out_dir, keyed by its relative path, as perfbench/worker.py keys them."""
    return {
        p.relative_to(out_dir).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(out_dir.rglob("*"))
        if p.is_file()
    }


def load_module(name: str, path: Path):
    """Execute the Python file at path as module name, leaving the file as it is."""
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module  # a dataclass looks its module up there
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def tracer():
    """The benchmark tracer, loaded from perfbench/tracer.py."""
    return load_module("perfbench_tracer", PERFBENCH / "tracer.py")


@pytest.fixture
def quiet_device() -> DeviceParams:
    """Device with cycle-to-cycle noise switched off; everything else default."""
    return DeviceParams(sigma_c2c=0.0)


@pytest.fixture
def noisy_device() -> DeviceParams:
    return DeviceParams()


@pytest.fixture
def protocol() -> ProtocolParams:
    return ProtocolParams()


@pytest.fixture
def rng() -> np.random.Generator:
    return make_rng(0)


@pytest.fixture(scope="session")
def ensemble():
    """Full variation sweep of the bundled configuration, timed."""
    base, spec = load_sweep(bundled_config_path("sweep10x10.json"))
    single = load_config(bundled_config_path("paper10x10.json"))
    # the sweep uses the same device, protocol, and patterns as the
    # single-run default configuration
    assert base.device == single.device
    assert base.protocol == single.protocol
    assert base.patterns == single.patterns
    assert spec.seeds_per_cv == SEEDS_PER_CV
    start = time.perf_counter()
    rows = variation_sweep(base, spec)
    elapsed = time.perf_counter() - start
    return base, spec, rows, elapsed


@pytest.fixture(scope="session")
def bundled_class_reports():
    """The bundled sweep's full run reports, one list per variation class."""
    base, spec = load_sweep(bundled_config_path("sweep10x10.json"))
    return base, spec, [class_reports(base, spec, i) for i in range(len(spec.cvs))]
