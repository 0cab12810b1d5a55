"""Shared fixtures and builders for the test suite."""
from __future__ import annotations

import time

import numpy as np
import pytest

from pcmxbar import CrossbarArray, DeviceParams, ProtocolParams, variation_sweep
from pcmxbar.configio import bundled_config_path, load_config, load_sweep

SEEDS_PER_CV = 200


def make_rng(seed: int = 0) -> np.random.Generator:
    return np.random.default_rng(seed)


def uniform_array(n: int, resistance: float, params: DeviceParams) -> CrossbarArray:
    """Build an array with every cell at the same resistance, zero pulse history."""
    return CrossbarArray(
        n,
        np.full((n, n), resistance, dtype=np.float64),
        np.zeros((n, n), dtype=np.int64),
        params,
    )


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
