"""Pulse Fourier algebra against an independent quadrature oracle plus the
two structural rules of the control modes (mirror pairing, column-wise
tiling), exercised through the mode decoder."""

import numpy as np
import pytest

from tmems.fields import DirectionGrid, FieldEngine, PlaneWaveIncidence
from tmems.geometry import EmsGeometry
from tmems.modulation import (
    ConstraintError,
    ControlMode,
    PulseSchedule,
    ReflectionStates,
    check_delta_applicable,
    harmonic_tensors,
    mirror_rise,
    pulse_fourier_coefficients,
)
from tmems.synthesis import ModeCodec


def quadrature_coefficient(rise, duty, h, n=10_000):
    """Oracle: trapezoid quadrature of the exponential over the on-interval.

    The indicator is 1 on [c, c + tau) (wrapping), so the Fourier integral
    reduces to the integral of e^{-j 2 pi h t} from c to c + tau; the
    exponential is 1-periodic, so wrap-around needs no splitting.
    """
    rise = np.atleast_1d(np.asarray(rise, dtype=float))
    duty = np.atleast_1d(np.asarray(duty, dtype=float))
    s = np.linspace(0.0, 1.0, n + 1)
    t = rise[:, None] + duty[:, None] * s[None, :]
    f = np.exp(-2j * np.pi * h * t)
    return duty * np.trapezoid(f, dx=1.0 / n, axis=1)


def test_coefficients_match_quadrature(rng):
    rise = rng.random(100)
    duty = rng.random(100)
    for h in range(-5, 6):
        got = np.atleast_1d(pulse_fourier_coefficients(rise, duty, h))
        want = quadrature_coefficient(rise, duty, h)
        assert np.abs(got - want).max() < 1e-6


def test_frozen_coefficient_values():
    assert pulse_fourier_coefficients(0.0, 1.0, 0) == 1.0 + 0.0j
    assert pulse_fourier_coefficients(0.25, 0.5, 0) == 0.5 + 0.0j
    u = pulse_fourier_coefficients(0.0, 0.5, 1)
    assert abs(u - (-1j / np.pi)) < 1e-15


def test_half_period_shift_negates_first_harmonic(rng):
    rise = rng.random(40)
    duty = rng.random(40)
    base = pulse_fourier_coefficients(rise, duty, 1)
    shifted = pulse_fourier_coefficients(np.mod(rise + 0.5, 1.0), duty, 1)
    assert np.abs(shifted + base).max() < 1e-14


def test_complement_coefficients():
    # with the on state 0 and the off state I, the tensor is the off
    # indicator's coefficient delta_h0 - u^h times I
    states = ReflectionStates(gamma_on=np.zeros((2, 2)), gamma_off=np.eye(2))
    assert one_cell_tensor(states, 0.0, 0.5, 0)[0, 0] == 0.5
    assert one_cell_tensor(states, 0.0, 1.0, 0)[0, 0] == 0.0
    # u^1 of a half-period pulse at rise 0 is -j/pi
    assert abs(one_cell_tensor(states, 0.0, 0.5, 1)[0, 0] - 1j / np.pi) < 1e-16
    sched = PulseSchedule(period_s=1e-6, rise=np.zeros((1, 2)), duty=np.array([[0.25, 0.5]]))
    assert np.array_equal(harmonic_tensors(states, sched, 0)[0, :, 0, 0], [0.75, 0.5])
    u = sched.fourier_coefficients(1)
    assert np.array_equal(harmonic_tensors(states, sched, 1)[..., 0, 0], -u)
    assert np.all(harmonic_tensors(states, sched, 1)[..., 0, 1] == 0.0)


def test_parseval(rng):
    rise = rng.random(100)
    duty = rng.random(100)
    total = np.zeros(100)
    for h in range(-200, 201):
        total += np.abs(pulse_fourier_coefficients(rise, duty, h)) ** 2
    assert np.all(total <= duty + 1e-12)
    assert np.all(total >= duty - 0.005)


def test_decay_bound(rng):
    rise = rng.random(50)
    duty = rng.random(50)
    for h in (1, 2, 5, 17, -3, -40):
        mag = np.abs(pulse_fourier_coefficients(rise, duty, h))
        assert np.all(mag <= 1.0 / (np.pi * abs(h)) + 1e-15)


def test_conjugate_symmetry(rng):
    rise = rng.random(50)
    duty = rng.random(50)
    for h in (0, 1, 2, 7):
        pos = pulse_fourier_coefficients(rise, duty, h)
        neg = pulse_fourier_coefficients(rise, duty, -h)
        assert np.abs(neg - np.conj(pos)).max() < 1e-15


def test_static_duty_gives_exact_zero_harmonics():
    for duty in (0.0, 1.0):
        for h in (1, 2, -5):
            assert pulse_fourier_coefficients(0.3, duty, h) == 0.0 + 0.0j


def test_coefficient_input_validation():
    with pytest.raises(ValueError, match="rise"):
        pulse_fourier_coefficients(1.0, 0.5, 1)
    with pytest.raises(ValueError, match="rise"):
        pulse_fourier_coefficients(-0.1, 0.5, 1)
    with pytest.raises(ValueError, match="duty"):
        pulse_fourier_coefficients(0.0, 1.1, 1)
    # NaN fails every comparison, so it must not slip through the range test
    with pytest.raises(ValueError, match="rise"):
        pulse_fourier_coefficients(np.array([0.2, np.nan]), 0.5, 1)
    with pytest.raises(ValueError, match="duty"):
        pulse_fourier_coefficients(0.2, np.array([np.nan, 0.5]), 0)
    # the range check takes a minimum and a maximum of each array: -0.0
    # and empty arrays pass; the smallest negative, either NaN, an infinity
    # and the first float past either end fail, in a strided view too
    pulse_fourier_coefficients(np.array([0.0, -0.0, np.nextafter(1.0, 0.0)]),
                               np.array([-0.0, 0.0, 1.0]), 1)
    pulse_fourier_coefficients(np.zeros((0, 3)), np.zeros((0, 3)), 1)
    tiny = np.nextafter(0.0, -1.0)
    x = np.full((4, 6), 0.5)
    for bad in (tiny, 1.0, np.nan, -np.nan, np.inf, -np.inf):
        x[2, 1] = bad
        with pytest.raises(ValueError, match="rise"):
            pulse_fourier_coefficients(x[:, :3], x[:, 3:], 1)
    x[2, 1] = 0.5
    for bad in (tiny, np.nextafter(1.0, 2.0), np.nan, -np.nan, np.inf, -np.inf):
        x[2, 4] = bad
        with pytest.raises(ValueError, match="duty"):
            pulse_fourier_coefficients(x[:, :3], x[:, 3:], 1)


def test_harmonic_must_be_an_integer():
    # a NaN harmonic would return NaN, 0.5 a value of no harmonic, and a
    # bool would pass for 0 or 1
    sched = PulseSchedule(period_s=1e-6, rise=[[0.2]], duty=[[0.3]])
    engine = FieldEngine(EmsGeometry(rows=1, cols=1), DirectionGrid.uniform(5))
    states, inc = ReflectionStates.ideal(), PlaneWaveIncidence(theta_deg=0.0)
    for bad in (float("nan"), 0.5, 1.0, True, "1"):
        with pytest.raises(ValueError, match="harmonic h must be an integer"):
            pulse_fourier_coefficients(0.2, 0.3, bad)
        with pytest.raises(ValueError, match="harmonic h must be an integer"):
            engine.pattern(sched, states, inc, bad)
    one = pulse_fourier_coefficients(0.2, 0.3, 1)
    assert pulse_fourier_coefficients(0.2, 0.3, np.int64(1)) == one
    assert np.isfinite(pulse_fourier_coefficients(0.2, 0.3, -2))


def one_cell_tensor(states, rise, duty, h):
    """Harmonic reflection tensor of a single cell, shape (2, 2)."""
    sched = PulseSchedule(period_s=1e-6, rise=[[rise]], duty=[[duty]])
    return harmonic_tensors(states, sched, h)[0, 0]


def test_harmonic_reflection_tensor_ideal():
    states = ReflectionStates.ideal()
    eye = np.eye(2)
    assert np.allclose(one_cell_tensor(states, 0.0, 0.5, 0), 0.0 * eye, atol=1e-15)
    assert np.allclose(one_cell_tensor(states, 0.0, 1.0, 0), eye, atol=1e-15)
    got = one_cell_tensor(states, 0.0, 0.5, 1)
    assert np.allclose(got, (-2j / np.pi) * eye, atol=1e-15)


def test_harmonic_tensor_general_states(rng):
    # tensor path must agree with the definition gamma_on*u + gamma_off*(d_h0 - u),
    # for random tensors and for the ideal +/-I pair, where it is (2u - d_h0) I
    # with off-diagonal terms of exactly 0
    on = 0.5 * (rng.random((2, 2)) + 1j * rng.random((2, 2)))
    off = 0.5 * (rng.random((2, 2)) + 1j * rng.random((2, 2)))
    sched = PulseSchedule(period_s=1e-6, rise=rng.random((3, 2)), duty=rng.random((3, 2)))
    ideal = ReflectionStates.ideal()
    for states in (ReflectionStates(gamma_on=on, gamma_off=off), ideal):
        for h in (0, 1, 2, 3):
            u = sched.fourier_coefficients(h)
            delta = 1.0 if h == 0 else 0.0
            want = (u[..., None, None] * states.gamma_on
                    + (delta - u)[..., None, None] * states.gamma_off)
            got = harmonic_tensors(states, sched, h)
            assert np.allclose(got, want, atol=1e-15)
            if states is ideal:
                assert np.all(np.abs(got[..., 0, 0] - (2.0 * u - delta)) < 1e-15)
                assert np.all(got[..., 0, 1] == 0.0) and np.all(got[..., 1, 0] == 0.0)


def test_reflection_states_validation():
    with pytest.raises(ValueError, match="passive"):
        ReflectionStates(gamma_on=1.5 * np.eye(2), gamma_off=-np.eye(2))
    # diag(inf) has NaN singular values, which no passivity test rejects
    for bad in (np.inf, np.nan):
        with pytest.raises(ValueError, match="gamma_off entries must be finite"):
            ReflectionStates(gamma_on=np.eye(2), gamma_off=np.diag([bad, bad]))
    with pytest.raises(ValueError, match="gamma_on entries must be finite"):
        ReflectionStates(gamma_on=np.array([[0.5, 0.0], [complex(0.0, np.nan), 0.5]]),
                         gamma_off=-np.eye(2))
    with pytest.raises(ValueError, match="2x2"):
        ReflectionStates(gamma_on=np.eye(3), gamma_off=-np.eye(3))


def test_pulse_schedule_validation(rng):
    with pytest.raises(ValueError, match="period"):
        PulseSchedule(period_s=0.0, rise=np.zeros((2, 2)), duty=np.zeros((2, 2)))
    with pytest.raises(ValueError, match="2-D"):
        PulseSchedule(period_s=1e-6, rise=np.zeros(4), duty=np.zeros(4))
    with pytest.raises(ValueError, match="rise"):
        PulseSchedule(period_s=1e-6, rise=np.full((2, 2), 1.0), duty=np.zeros((2, 2)))
    with pytest.raises(ValueError, match="duty"):
        PulseSchedule(period_s=1e-6, rise=np.zeros((2, 2)), duty=np.full((2, 2), 1.5))
    nan_cell = np.zeros((2, 2))
    nan_cell[1, 0] = np.nan
    with pytest.raises(ValueError, match="rise"):
        PulseSchedule(period_s=1e-6, rise=nan_cell, duty=np.zeros((2, 2)))
    with pytest.raises(ValueError, match="duty"):
        PulseSchedule(period_s=1e-6, rise=np.zeros((2, 2)), duty=nan_cell)
    for period in (np.inf, np.nan):
        with pytest.raises(ValueError, match="period"):
            PulseSchedule(period_s=period, rise=np.zeros((2, 2)), duty=np.zeros((2, 2)))
    sched = PulseSchedule(period_s=1e-6, rise=rng.random((2, 3)), duty=rng.random((2, 3)))
    assert sched.shape == (2, 3)
    with pytest.raises(ValueError):
        sched.rise[0, 0] = 0.5  # frozen arrays


def decode(mode, rows, cols, x):
    return ModeCodec(mode=mode, rows=rows, cols=cols).decode(np.asarray(x, dtype=float), 1e-6)


def test_delta_constraint_example():
    sched = decode(ControlMode.DELTA, 2, 1, [0.1, 0.3])
    assert sched.shape == (2, 1)
    assert sched.rise[0, 0] == pytest.approx(0.1)
    assert sched.rise[1, 0] == pytest.approx(0.6)
    assert sched.duty[0, 0] == sched.duty[1, 0] == pytest.approx(0.3)
    u1 = sched.fourier_coefficients(1)
    assert abs(u1[1, 0] + u1[0, 0]) < 1e-14


def test_delta_constraint_mirror_antisymmetry(rng):
    sched = decode(ControlMode.DELTA, 6, 4, rng.random(24))
    p = sched.shape[0]
    g1 = harmonic_tensors(ReflectionStates.ideal(), sched, 1)
    g0 = harmonic_tensors(ReflectionStates.ideal(), sched, 0)
    for i in range(p):
        assert np.abs(g1[p - 1 - i] + g1[i]).max() < 1e-14
        assert np.array_equal(g0[p - 1 - i], g0[i])  # duties copied, bit-exact


def test_delta_constraint_errors():
    with pytest.raises(ValueError, match="expected vectors of length 24"):
        decode(ControlMode.DELTA, 6, 4, np.zeros(12))
    with pytest.raises(ConstraintError, match="even row count"):
        ModeCodec(mode=ControlMode.COLWISE_DELTA, rows=5, cols=4)
    with pytest.raises(ConstraintError, match="even"):
        check_delta_applicable(5)
    check_delta_applicable(4)


def test_mirror_rise_wraps():
    assert np.allclose(mirror_rise([0.1, 0.6, 0.5]), [0.6, 0.1, 0.0])


def test_expand_columnwise():
    sched = decode(ControlMode.COLWISE, 2, 3, [0.1, 0.2, 0.5, 0.6])
    assert np.array_equal(sched.rise, [[0.1, 0.1, 0.1], [0.2, 0.2, 0.2]])
    assert np.array_equal(sched.duty, [[0.5, 0.5, 0.5], [0.6, 0.6, 0.6]])
    one = decode(ControlMode.COLWISE, 1, 1, [0.3, 0.7])
    assert one.shape == (1, 1) and one.rise[0, 0] == 0.3 and one.duty[0, 0] == 0.7


def test_expand_columnwise_then_delta(rng):
    # composing the two structural rules keeps both properties
    sched = decode(ControlMode.COLWISE_DELTA, 4, 4, rng.random(4))
    assert sched.shape == (4, 4)
    assert np.all(sched.rise == sched.rise[:, :1])  # still column-wise
    assert np.all(sched.duty == sched.duty[:, :1])
    u1 = sched.fourier_coefficients(1)
    assert np.abs(u1[::-1] + u1).max() < 1e-14


def test_expand_columnwise_errors():
    with pytest.raises(ValueError, match="expected vectors of length 4"):
        decode(ControlMode.COLWISE, 2, 3, np.zeros(12))
    for rows, cols in ((2, 0), (0, 2)):
        with pytest.raises(ValueError, match="empty"):
            ModeCodec(mode=ControlMode.COLWISE, rows=rows, cols=cols)


def test_control_mode_values():
    assert ControlMode("full") is ControlMode.FULL
    assert ControlMode("colwise-delta") is ControlMode.COLWISE_DELTA
    assert {m.value for m in ControlMode} == {"full", "delta", "colwise", "colwise-delta"}
    assert [m.name for m in ControlMode if m.mirrored] == ["DELTA", "COLWISE_DELTA"]
    assert [m.name for m in ControlMode if m.columnwise] == ["COLWISE", "COLWISE_DELTA"]
