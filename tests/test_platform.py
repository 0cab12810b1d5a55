"""Fingerprints of the platform primitives every pinned digest rests on.

The output digests hold only while numpy's normal streams, libm's exp (through
math.exp) and CPython's float repr give the bits they gave when the digests
were taken. NEP 19 does not freeze numpy's streams across versions. When a
digest moves after an upgrade, this test names the layer that moved.
"""
from __future__ import annotations

import math

import numpy as np


def first_run_rng() -> np.random.Generator:
    """The generator of sweep run (0, 0) under seed 1."""
    return np.random.default_rng(np.random.SeedSequence(1, spawn_key=(0, 0)))


def test_platform_primitives_give_the_pinned_bits():
    standard = [float(x).hex() for x in first_run_rng().standard_normal(3)]
    assert standard == ["-0x1.bc3e67c26f4c4p-5", "0x1.6ef4e26002802p-3", "0x1.44024fd566aa8p+0"], (
        f"numpy stream: standard_normal draws moved under numpy {np.__version__}"
    )
    noise = [float(x).hex() for x in first_run_rng().normal(0, 0.05, 3)]
    assert noise == ["-0x1.63651fcebf704p-9", "0x1.2590b5199b99bp-7", "0x1.03350caab8887p-4"], (
        f"numpy stream: normal(0, 0.05) draws moved under numpy {np.__version__}"
    )

    exps = {x: math.exp(x).hex() for x in (-1.0, -2.5, 0.09, 0.5, 13.815510557964274)}
    assert exps == {
        -1.0: "0x1.78b56362cef38p-2",
        -2.5: "0x1.50385c094f425p-4",
        0.09: "0x1.181bce4ca35adp+0",
        0.5: "0x1.a61298e1e069cp+0",
        13.815510557964274: "0x1.e847ffffffffcp+19",
    }, "libm exp: math.exp moved at a fixed point"

    reprs = [
        repr(float.fromhex(h))
        for h in ("0x1.999999999999ap-4", "0x1.e848000000000p+19", "0x1.57c0000000001p+14", "0x1.2d687e3d7a2b8p+20")
    ]
    assert reprs == ["0.1", "1000000.0", "22000.000000000004", "1234567.8900090884"], (
        "CPython repr: the shortest round-trip text of a float moved"
    )
