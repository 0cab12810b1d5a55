"""Phase-change memory cells: pulse response, variability, energy.

A cell is a programmable resistor. A SET pulse partially crystallizes the
chalcogenide volume and moves the resistance a fixed fraction of the way to
the crystalline floor; a RESET pulse melt-quenches the volume back to an
amorphous state whose resistance is drawn from a lognormal distribution.
Each law is written once, elementwise over an array of cells in row-major
order, and returns a new resistance array; the crossbar and the CLI call it
for a block of any size, a single cell included.
"""
from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .errors import AmplitudeBelowThreshold


class PulseRole(enum.Enum):
    SET = "set"
    RESET = "reset"
    READ = "read"


@dataclass(frozen=True)
class PulseSpec:
    """Trapezoidal voltage pulse: linear rise, flat top, linear fall.

    amplitude: volts at the flat top
    t_rise, t_width, t_fall: seconds (any of them may be zero)
    """

    amplitude: float
    t_rise: float
    t_width: float
    t_fall: float
    role: PulseRole

    def __post_init__(self) -> None:
        # negated, so that NaN fails the checks
        if not self.amplitude >= 0:
            raise ValueError("pulse amplitude must be >= 0")
        if not all(t >= 0 for t in (self.t_rise, self.t_width, self.t_fall)):
            raise ValueError("pulse timing segments must be >= 0")


@dataclass(frozen=True)
class DeviceParams:
    """Device corner values shared by every cell in an array.

    r_min: ohms, fully crystalline floor
    r_max: ohms, fully amorphous ceiling
    r_reset_full_median: ohms, median resistance after a full RESET
    r_reset_partial_median: ohms, median resistance after a partial RESET
    alpha_set: per-pulse crystallization fraction in (0, 1)
    sigma_c2c: relative cycle-to-cycle noise on a SET update
    v_set_threshold: volts, minimum amplitude that crystallizes
    v_reset_threshold: volts, minimum amplitude that amorphizes
    """

    r_min: float = 1.0e4
    r_max: float = 1.0e7
    r_reset_full_median: float = 1.0e6
    r_reset_partial_median: float = 1.0e6
    alpha_set: float = 0.6
    sigma_c2c: float = 0.05
    v_set_threshold: float = 0.5
    v_reset_threshold: float = 1.2

    def __post_init__(self) -> None:
        if not (0 < self.r_min < self.r_max):
            raise ValueError("need 0 < r_min < r_max")
        for name in ("r_reset_full_median", "r_reset_partial_median"):
            median = getattr(self, name)
            if not (self.r_min < median <= self.r_max):
                raise ValueError(f"{name} must lie in (r_min, r_max]")
        if self.r_reset_partial_median > self.r_reset_full_median:
            raise ValueError("partial RESET median cannot exceed full RESET median")
        if not (0 < self.alpha_set < 1):
            raise ValueError("alpha_set must lie in (0, 1)")
        # negated, so that NaN fails the check
        if not self.sigma_c2c >= 0:
            raise ValueError("sigma_c2c must be >= 0")
        if not (0 < self.v_set_threshold < self.v_reset_threshold):
            raise ValueError("need 0 < v_set_threshold < v_reset_threshold")


def pulse_energy(
    pulse: PulseSpec, resistance_before: float | np.ndarray, *, out: np.ndarray | None = None
) -> float | np.ndarray:
    """Energy in joules dissipated by one pulse into a fixed resistance.

    Integrates v(t)^2 / R over the trapezoid; each linear ramp contributes
    a third of the flat-top power times its duration. The resistance seen
    by the pulse is frozen at its pre-pulse value for the whole pulse.
    Applies elementwise to an array of resistances; given out, a float64
    array of their shape, writes the energies there and returns it. A
    scalar resistance gives an np.float64.
    """
    # negated, so that NaN (which the minimum propagates) fails the check. The
    # positive initial lets an empty block pass and casts to any dtype, ints too.
    if not np.minimum.reduce(resistance_before, axis=None, initial=1) > 0:
        raise ValueError("resistance must be positive")
    # a product, which rounds correctly, where libm's pow may miss by an ulp
    v_squared = pulse.amplitude * pulse.amplitude
    seconds = pulse.t_rise / 3.0 + pulse.t_width + pulse.t_fall / 3.0
    out = np.divide(v_squared, resistance_before, out=out)  # flat-top watts
    out *= seconds
    return out


def check_read_voltage(v_read: float, params: DeviceParams) -> None:
    """Raise unless 0 <= v_read < v_set_threshold, the window where a read disturbs no cell."""
    # negated, so that NaN fails the check
    if not 0 <= v_read < params.v_set_threshold:
        raise ValueError(f"read voltage {v_read!r} V outside [0, v_set_threshold = {params.v_set_threshold!r} V)")


def _check_pulse(pulse: PulseSpec, role: PulseRole, threshold: float) -> None:
    """Raise unless pulse has the given role and an amplitude of at least threshold volts."""
    if pulse.role is not role:
        raise ValueError(f"expected a pulse with role {role.name}, got role {pulse.role.name}")
    if pulse.amplitude < threshold:
        message = f"{role.name} amplitude {pulse.amplitude} V below threshold {threshold} V; no state change"
        raise AmplitudeBelowThreshold(message)


def apply_set_pulse(
    resistance: np.ndarray,
    pulse: PulseSpec,
    params: DeviceParams,
    rng: np.random.Generator,
) -> np.ndarray:
    """One gradual-SET pulse on every cell: move resistance toward the crystalline floor.

    The distance to r_min shrinks by the factor (1 - alpha_set), perturbed per
    cell by a zero-mean Gaussian cycle-to-cycle factor, then clamps to
    [r_min, r_max]. The noise is one row-major batch, the same stream as one
    draw per cell in that order. resistance is a float64 array of one or
    more dimensions and is left unchanged; returns the new resistances.
    """
    _check_pulse(pulse, PulseRole.SET, params.v_set_threshold)
    # r_min + (R - r_min)(1 - alpha_set)(1 + noise), in that order, in one
    # scratch array. Addition commutes exactly and x * 1.0 == x, so a
    # noise-free pulse skips the factor and keeps the bits.
    step = resistance - params.r_min
    step *= 1.0 - params.alpha_set
    if params.sigma_c2c > 0:
        step *= 1.0 + rng.normal(0.0, params.sigma_c2c, size=resistance.shape)
    step += params.r_min
    return _clamp(step, params)


def apply_reset_pulse(
    shape: int | tuple[int, ...],
    pulse: PulseSpec,
    params: DeviceParams,
    target_median: float,
    rel_spread: float,
    rng: np.random.Generator,
) -> np.ndarray:
    """One RESET pulse on every cell of an array of the given shape: re-amorphize.

    Each cell draws a lognormal resistance, clamped to [r_min, r_max], whatever
    its state before. target_median is the median of the distribution and
    rel_spread its coefficient of variation; rel_spread = 0 lands exactly on
    the median and draws nothing. Otherwise the normals are one row-major
    batch, the same stream as one draw per cell in that order.
    """
    _check_pulse(pulse, PulseRole.RESET, params.v_reset_threshold)
    # negated, so that NaN fails the checks
    if not target_median > 0:
        raise ValueError("target_median must be positive")
    if not rel_spread >= 0:
        raise ValueError("rel_spread must be >= 0")
    if rel_spread == 0:
        resistance = np.full(shape, target_median, dtype=np.float64)
    else:
        z = rng.standard_normal(shape)
        z *= math.sqrt(math.log1p(rel_spread * rel_spread))  # lognormal shape of this CV
        # The exponential stays math.exp: np.exp differs from it in the last bit
        # for some inputs. It maps over Python floats, which it takes faster
        # than numpy scalars, a chunk at a time, so no list grows with the
        # array, and writes back into the draw's own buffer.
        flat = z.reshape(-1)
        for start in range(0, flat.size, _EXP_CHUNK):
            chunk = flat[start : start + _EXP_CHUNK]
            chunk[:] = np.fromiter(map(math.exp, chunk.tolist()), dtype=np.float64, count=chunk.size)
        resistance = z
        resistance *= target_median
    return _clamp(resistance, params)


# Cells per math.exp chunk in apply_reset_pulse.
_EXP_CHUNK = 4096


def _clamp(resistance: np.ndarray, params: DeviceParams) -> np.ndarray:
    """Clamp to [r_min, r_max] in place; np.clip's bits without its Python wrapper."""
    np.maximum(resistance, params.r_min, out=resistance)
    return np.minimum(resistance, params.r_max, out=resistance)
