"""Periodic on/off pulse schedules and their harmonic reflection algebra.

Each cell switches its reflection tensor between an on state and an off state
once per modulation period T. A pulse is described in normalized time by its
rise instant c in [0, 1) and duty tau in [0, 1]; the cell is "on" over
[c, c + tau) with wrap-around at 1. The Fourier series of the indicator gives
one complex coefficient per harmonic h, and the cell's effective reflection
tensor at harmonic h is the on/off mixture weighted by that coefficient and
its complement.
"""

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .geometry import check_real


class ConstraintError(ValueError):
    """A structural schedule constraint cannot be applied to this geometry."""


class ControlMode(str, Enum):
    """How many independent pulse generators drive the skin.

    A mode is two independent rules. Mirrored modes pair row p with row
    P-p+1: same duty, rise half a period later, so the pair's first
    harmonics cancel wherever the "sum" beam peaks. Column-wise modes drive
    every cell of a row from one pulse generator.
    """

    # value, mirrored, columnwise
    FULL = "full", False, False
    DELTA = "delta", True, False
    COLWISE = "colwise", False, True
    COLWISE_DELTA = "colwise-delta", True, True

    def __new__(cls, value: str, mirrored: bool, columnwise: bool):
        mode = str.__new__(cls, value)
        mode._value_ = value
        mode.mirrored = mirrored
        mode.columnwise = columnwise
        return mode


def check_mode(mode) -> ControlMode:
    """mode itself; ValueError unless it is a ControlMode (a mode's name is not)."""
    if not isinstance(mode, ControlMode):
        raise ValueError(f"unknown control mode {mode!r}")
    return mode


def check_pulses(rise: np.ndarray, duty: np.ndarray):
    """Raise ValueError unless every rise lies in [0, 1) and every duty in
    [0, 1]: a minimum and a maximum of each float array, which propagate
    NaN, so NaN fails every range test."""
    low, high = np.minimum.reduce, np.maximum.reduce
    if not (0.0 <= low(rise, axis=None, initial=0.0) and high(rise, axis=None, initial=0.0) < 1.0):
        raise ValueError("rise must lie in [0, 1)")
    if not (0.0 <= low(duty, axis=None, initial=0.0) and high(duty, axis=None, initial=0.0) <= 1.0):
        raise ValueError("duty must lie in [0, 1]")


def pulse_fourier_coefficients(rise, duty, h: int):
    """Closed-form Fourier coefficient of the on/off indicator at harmonic h.

    Args:
        rise: normalized rise instant(s) in [0, 1), scalar or array.
        duty: normalized on-fraction(s) in [0, 1], scalar or array.
        h: harmonic index, any int or numpy integer but a bool.

    Returns:
        Complex coefficient(s) u^h, same shape as the broadcast inputs.
        u^0 equals the duty; for h != 0,
        u^h = (e^{-j2*pi*h*(c+tau)} - e^{-j2*pi*h*c}) / (-j*2*pi*h)
            = e^{-j*pi*h*(2c+tau)} * sin(pi*h*tau) / (pi*h),
        evaluated in the second form: one exponential and one sine.
        Duty 0 or 1 short-circuits to an exact 0 for h != 0: a permanently
        on/off cell has no sidebands, and sin(pi*h) leaves rounding residue.
    """
    if isinstance(h, bool) or not isinstance(h, (int, np.integer)):
        raise ValueError(f"harmonic h must be an integer, got {h!r}")
    rise = np.asarray(rise, dtype=float)
    duty = np.asarray(duty, dtype=float)
    check_pulses(rise, duty)
    u = duty.astype(complex) if h == 0 else sideband_coefficients(rise, duty, h)
    return u[()] if u.ndim == 0 else u


def sideband_coefficients(rise: np.ndarray, duty: np.ndarray, h: int) -> np.ndarray:
    """pulse_fourier_coefficients at a harmonic h != 0 of float arrays whose
    ranges the caller has checked (check_pulses)."""
    x = np.pi * h
    amp = np.where(duty == 1.0, 0.0, np.sin(x * duty) / x)
    u = np.exp(-1j * x * (2.0 * rise + duty))
    u *= amp
    return u


@dataclass(frozen=True, eq=False)
class ReflectionStates:
    """On/off reflection tensors in the (TE, TM) basis, each 2x2 complex.

    Finite entries and passivity are enforced on construction: no singular
    value may exceed 1 (tolerance 1e-9).
    """

    gamma_on: np.ndarray
    gamma_off: np.ndarray

    def __post_init__(self):
        for name in ("gamma_on", "gamma_off"):
            t = np.asarray(getattr(self, name), dtype=complex)
            if t.shape != (2, 2):
                raise ValueError(f"{name} must be a 2x2 tensor")
            if not np.isfinite(t).all():
                raise ValueError(f"{name} entries must be finite")
            if np.linalg.svd(t, compute_uv=False).max() > 1.0 + 1e-9:
                raise ValueError(f"{name} is not passive (singular value > 1)")
            t = t.copy()
            t.setflags(write=False)
            object.__setattr__(self, name, t)

    @classmethod
    def ideal(cls) -> "ReflectionStates":
        """Lossless phase-opposed states: +identity on, -identity off."""
        eye = np.eye(2, dtype=complex)
        return cls(gamma_on=eye, gamma_off=-eye)


@dataclass(frozen=True, eq=False)
class PulseSchedule:
    """Per-cell pulse timing for a whole skin: rise and duty, shape (rows, cols)."""

    period_s: float
    rise: np.ndarray
    duty: np.ndarray

    def __post_init__(self):
        check_real("period_s", self.period_s, 0.0, low_open=True)
        rise = np.array(self.rise, dtype=float)
        duty = np.array(self.duty, dtype=float)
        if rise.ndim != 2 or rise.shape != duty.shape:
            raise ValueError("rise and duty must be 2-D arrays of equal shape")
        check_pulses(rise, duty)
        rise.setflags(write=False)
        duty.setflags(write=False)
        object.__setattr__(self, "rise", rise)
        object.__setattr__(self, "duty", duty)

    @property
    def shape(self):
        return self.rise.shape

    def fourier_coefficients(self, h: int) -> np.ndarray:
        """Per-cell indicator coefficients u^h_pq, shape (rows, cols) complex."""
        return np.asarray(pulse_fourier_coefficients(self.rise, self.duty, h))


def harmonic_tensors(states: ReflectionStates, schedule: PulseSchedule, h: int) -> np.ndarray:
    """Per-cell harmonic reflection tensors, shape (rows, cols, 2, 2).

    The off state holds for the complementary indicator, whose coefficient
    is delta_{h0} - u^h.
    """
    u = schedule.fourier_coefficients(h)
    uc = (1.0 if h == 0 else 0.0) - u
    return (
        u[..., None, None] * states.gamma_on[None, None, :, :]
        + uc[..., None, None] * states.gamma_off[None, None, :, :]
    )


def mirror_rise(rise):
    """Rise instants shifted by half a period, wrapped to [0, 1)."""
    return np.mod(np.asarray(rise, dtype=float) + 0.5, 1.0)


def check_delta_applicable(rows: int):
    if rows % 2 != 0:
        raise ConstraintError(f"mirror pairing needs an even row count, got {rows}")
