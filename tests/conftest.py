"""Shared fixtures and builders for the test suite."""
from __future__ import annotations

import time

import numpy as np
import pytest

from pcmxbar import DeviceParams, Pattern, ProtocolParams, class_reports, variation_sweep
from pcmxbar.configio import bundled_config_path, load_config, load_sweep
from pcmxbar.crossbar import CrossbarArray

SEEDS_PER_CV = 200


def make_rng(seed: int = 0) -> np.random.Generator:
    return np.random.default_rng(seed)


def sweep_rng(seed: int, cv_index: int, seed_index: int) -> np.random.Generator:
    """The generator of sweep run (cv_index, seed_index) under master seed."""
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(cv_index, seed_index)))


def uniform_array(n: int, resistance: float, params: DeviceParams) -> CrossbarArray:
    """Build an array with every cell at the same resistance."""
    return CrossbarArray(np.full((n, n), resistance, dtype=np.float64), params)


def on_pattern(n: int, on) -> Pattern:
    """Pattern of n neurons that is ON exactly at the indices in on."""
    return Pattern(tuple(i in on for i in range(n)))


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
