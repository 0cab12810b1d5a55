"""Fingerprints of the platform primitives every pinned digest rests on.

The output digests hold only while numpy's normal streams, libm's exp (through
math.exp, and through numpy's complex exp, whose exp(x + 0j) is
math.exp(x) + 0j: the RESET draw takes its exponentials that way), libm's
log10 and pow (through math.log10 and float **, which give the histogram bin
edges) and CPython's float repr give the bits they gave when the digests were
taken. NEP 19 does not freeze numpy's streams across versions. When a
digest moves after an upgrade, this test names the layer that moved.

Stored arrays take the digits of every value in [1, 10**8) from pcmxbar's
own exact shortest-digit writer. CPython's repr writes their other values,
is that writer's test oracle (tests/test_loop_reference.py), and writes the
floats of report.json, traces.jsonl, sweep.csv and histograms.csv; the repr
fingerprints below guard all of these.
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

    # the histogram bin edges: 10.0 ** y over a linspace of math.log10 limits
    logs = {x: math.log10(x).hex() for x in (1.0e4, 1.0e7, 7.0e3, 2.2e4, 5.0e6)}
    assert logs == {
        1.0e4: "0x1.0000000000000p+2",
        1.0e7: "0x1.c000000000000p+2",
        7.0e3: "0x1.ec2c2c2de3310p+1",
        2.2e4: "0x1.15ea40d1e28fcp+2",
        5.0e6: "0x1.acbbecaf60860p+2",
    }, "libm log10: math.log10 moved at a fixed point"
    powers = {y: (10.0**y).hex() for y in (4.06, 4.42, 5.5, 6.94, 6.698970004336019)}
    assert powers == {
        4.06: "0x1.66cc4a2b12d59p+13",
        4.42: "0x1.9afab83cac9a4p+14",
        5.5: "0x1.34d0f1066b7ccp+18",
        6.94: "0x1.09cc07cc933c3p+23",
        6.698970004336019: "0x1.312cfffffffffp+22",
    }, "libm pow: 10.0 ** y moved at a fixed point"

    reprs = [
        repr(float.fromhex(h))
        for h in ("0x1.999999999999ap-4", "0x1.e848000000000p+19", "0x1.57c0000000001p+14", "0x1.2d687e3d7a2b8p+20")
    ]
    assert reprs == ["0.1", "1000000.0", "22000.000000000004", "1234567.8900090884"], (
        "CPython repr: the shortest round-trip text of a float moved"
    )


def test_complex_exp_of_a_real_is_libm_exp():
    # The RESET draw's exponentials: numpy's complex exp of x + 0j has the
    # bits of math.exp(x) and an imaginary part of 0, where float64 np.exp
    # moves the last bit of some. Checked at the fixed points above and on
    # 1 M seeded normals at the lognormal shapes of the least and the
    # largest swept cv.
    fixed = np.array([-1.0, -2.5, 0.09, 0.5, 13.815510557964274])
    draws = np.random.default_rng(20141).standard_normal(1 << 20)
    for x in (fixed, *(draws * math.sqrt(math.log1p(cv * cv)) for cv in (0.05, 1.99))):
        got = np.exp(x + 0j)
        libm = np.fromiter(map(math.exp, x.tolist()), dtype=np.float64, count=x.size)
        moved = np.flatnonzero(got.real.view(np.int64) != libm.view(np.int64))
        assert moved.size == 0, f"numpy complex exp: exp({x[moved[0]]!r} + 0j) is not math.exp's {libm[moved[0]].hex()}"
        assert not got.imag.any(), "numpy complex exp: exp(x + 0j) has a nonzero imaginary part"
