"""Field engine against independent oracles: midpoint quadrature for the cell
integral and a literal per-cell summation for full patterns."""

from dataclasses import replace

import numpy as np
import pytest

from tmems.fields import (
    DirectionGrid,
    FieldEngine,
    PlaneWaveIncidence,
    cell_factor,
    incident_phase_factors,
    power_db,
    ratio_from_powers,
)
from tmems.geometry import EmsGeometry
from tmems.masks import MaskSet, beam_reference
from tmems.modulation import ControlMode, PulseSchedule, ReflectionStates, harmonic_tensors
from tmems.synthesis import CostEvaluator, ModeCodec

from conftest import random_schedule


def direct_sum(geometry, schedule, states, incidence, u, v, h):
    """Per-cell loop over the radiation sum toward directions (u[i], v[i]),
    with the unfactorised steering phase e^{j k0 (u x + v y)}: (n, 2)."""
    exc = (incidence.amplitude_v_m * incident_phase_factors(incidence, geometry)[:, None]
           * np.asarray(incidence.jones)[None, :])
    tens = harmonic_tensors(states, schedule, h).reshape(-1, 2, 2)
    m2 = incidence.polarization_matrix
    xy = geometry.cell_xy_m
    acc = np.zeros((u.size, 2), dtype=complex)
    for n in range(geometry.n_cells):
        steer = np.exp(1j * geometry.k0 * (u * xy[n, 0] + v * xy[n, 1]))
        acc += steer[:, None] * (m2 @ (tens[n] @ exc[n]))[None, :]
    return (1j * geometry.k0 / (4.0 * np.pi) * cell_factor(geometry, u, v))[:, None] * acc


def brute_force_pattern(geometry, schedule, states, incidence, grid, h):
    """Direct sum toward every visible grid node, no precomputed tables."""
    out = np.zeros((grid.u.size, grid.v.size, 2), dtype=complex)
    iu, iv = np.nonzero(grid.visible)
    out[iu, iv] = direct_sum(geometry, schedule, states, incidence, grid.u[iu], grid.v[iv], h)
    return out


def test_cell_factor_at_origin(geom4):
    assert cell_factor(geom4, 0.0, 0.0) == pytest.approx(geom4.cell_area_m2, rel=1e-15)


def test_cell_factor_sinc_zero():
    # k0 * u * a / 2 = pi exactly when u = wavelength / edge
    geom = EmsGeometry(rows=1, cols=1, cell_size_wl=1.0)
    assert abs(cell_factor(geom, 1.0, 0.0)) < 1e-16


def test_cell_factor_matches_midpoint_quadrature(geom4, rng):
    a = geom4.cell_edge_m
    n = 1000
    c = ((np.arange(n) + 0.5) / n - 0.5) * a
    xx, yy = np.meshgrid(c, c, indexing="ij")
    for _ in range(20):
        u, v = rng.uniform(-0.9, 0.9, size=2)
        quad = (a / n) ** 2 * np.sum(np.exp(1j * geom4.k0 * (u * xx + v * yy)))
        got = cell_factor(geom4, u, v)
        # absolute error scaled by the cell area; a relative check would
        # blow up near the sinc zeros where the integral itself vanishes
        assert abs(got - quad) < 1e-6 * geom4.cell_area_m2


def test_engine_matches_brute_force(geom4, rng):
    # non-trivial polarization and a full tensor state to exercise every term
    on = np.array([[0.7 + 0.1j, 0.05j], [0.02, -0.6 + 0.2j]])
    off = np.array([[-0.8, 0.0], [0.1j, 0.75]])
    states = ReflectionStates(gamma_on=on, gamma_off=off)
    inc = PlaneWaveIncidence(theta_deg=25.0, phi_deg=40.0,
                             jones=(0.6 + 0.0j, 0.8j))
    sched = random_schedule(rng, 4, 4)
    grid = DirectionGrid.uniform(21)
    engine = FieldEngine(geom4, grid)
    for h in (0, 1):
        got = engine.pattern(sched, states, inc, h).field
        want = brute_force_pattern(geom4, sched, states, inc, grid, h)
        scale = np.abs(want).max()
        assert np.abs(got - want).max() <= 1e-12 * scale


def test_superposition_over_cells(rng):
    geometry = EmsGeometry(rows=2, cols=2)
    # off state radiates nothing, so single-cell patterns add up exactly
    states = ReflectionStates(gamma_on=0.9 * np.eye(2), gamma_off=np.zeros((2, 2)))
    inc = PlaneWaveIncidence(theta_deg=30.0)
    sched = random_schedule(rng, 2, 2)
    grid = DirectionGrid.uniform(15)
    engine = FieldEngine(geometry, grid)
    for h in (0, 1):
        full = engine.pattern(sched, states, inc, h).field
        acc = np.zeros_like(full)
        for p in range(2):
            for q in range(2):
                duty = np.zeros((2, 2))
                duty[p, q] = sched.duty[p, q]
                solo = PulseSchedule(period_s=sched.period_s, rise=sched.rise, duty=duty)
                acc = acc + engine.pattern(solo, states, inc, h).field
        assert np.abs(acc - full).max() <= 1e-10 * np.abs(full).max()


def test_broadside_all_on_peaks_at_origin(ideal):
    geometry = EmsGeometry(rows=6, cols=6)
    sched = PulseSchedule(period_s=1e-6, rise=np.zeros((6, 6)), duty=np.ones((6, 6)))
    grid = DirectionGrid.uniform(41)
    pat = FieldEngine(geometry, grid).pattern(sched, ideal, PlaneWaveIncidence(theta_deg=0.0), 0)
    iu, iv = np.unravel_index(np.argmax(pat.power), pat.power.shape)
    assert (grid.u[iu], grid.v[iv]) == (0.0, 0.0)


def test_static_schedule_radiates_no_harmonics(geom4, ideal, rng):
    duty = (rng.random((4, 4)) < 0.5).astype(float)  # all cells pinned on or off
    sched = PulseSchedule(period_s=1e-6, rise=rng.random((4, 4)), duty=duty)
    grid = DirectionGrid.uniform(11)
    engine = FieldEngine(geom4, grid)
    inc = PlaneWaveIncidence(theta_deg=40.0)
    for h in (1, 2, -1):
        assert np.all(engine.pattern(sched, ideal, inc, h).field == 0.0)


def test_amplitude_linearity(geom4, ideal, rng):
    sched = random_schedule(rng, 4, 4)
    inc1 = PlaneWaveIncidence(theta_deg=40.0, amplitude_v_m=1.0)
    inc2 = PlaneWaveIncidence(theta_deg=40.0, amplitude_v_m=2.0)
    for h in (0, 1):
        e1 = FieldEngine(geom4).field_at(0.2, 0.1, sched, ideal, inc1, h)
        e2 = FieldEngine(geom4).field_at(0.2, 0.1, sched, ideal, inc2, h)
        assert np.allclose(e2, 2.0 * e1, rtol=1e-15)
    grid = DirectionGrid.uniform(21)
    engine = FieldEngine(geom4, grid)
    for h in (0, 1):
        p1 = engine.pattern(sched, ideal, inc1, h).power
        p2 = engine.pattern(sched, ideal, inc2, h).power
        assert np.allclose(p2, 4.0 * p1, rtol=1e-12)
    # the sum/difference ratio is amplitude invariant
    def xi(inc):
        e0 = FieldEngine(geom4).field_at(0.2, 0.1, sched, ideal, inc, h=0)
        e1 = FieldEngine(geom4).field_at(0.2, 0.1, sched, ideal, inc, h=1)
        return ratio_from_powers(np.sum(np.abs(e0) ** 2), np.sum(np.abs(e1) ** 2)).xi
    assert xi(inc2) == pytest.approx(xi(inc1), rel=1e-9)


def test_incident_phase_linear_in_x(geom4):
    inc = PlaneWaveIncidence(theta_deg=40.0, phi_deg=0.0)
    phases = incident_phase_factors(inc, geom4).reshape(4, 4)
    step = np.exp(1j * geom4.k0 * np.sin(np.radians(40.0)) * geom4.cell_edge_m)
    assert np.allclose(phases[1:] / phases[:-1], step, rtol=1e-12)
    assert np.allclose(phases, phases[:, :1], rtol=1e-12)  # no y dependence at phi=0
    flat = incident_phase_factors(PlaneWaveIncidence(theta_deg=0.0), geom4)
    assert np.allclose(flat, 1.0, rtol=1e-15)


def test_polarization_matrix_obliquity():
    m0 = PlaneWaveIncidence(theta_deg=0.0).polarization_matrix
    assert np.allclose(m0, [[0.0, 2.0], [2.0, 0.0]], atol=1e-15)
    theta = 40.0
    m40 = PlaneWaveIncidence(theta_deg=theta).polarization_matrix
    ob = 1.0 + np.cos(np.radians(theta))
    assert np.allclose(m40, ob * np.array([[0.0, 1.0], [1.0, 0.0]]), atol=1e-14)


def test_geometry_rejects_non_finite_inputs():
    for bad in (np.inf, np.nan, 0.0):
        with pytest.raises(ValueError, match="f0_hz"):
            EmsGeometry(rows=2, cols=2, f0_hz=bad)
        with pytest.raises(ValueError, match="cell_size_wl"):
            EmsGeometry(rows=2, cols=2, cell_size_wl=bad)


def test_incidence_validation():
    with pytest.raises(ValueError, match="theta"):
        PlaneWaveIncidence(theta_deg=90.0)
    with pytest.raises(ValueError, match="amplitude"):
        PlaneWaveIncidence(theta_deg=10.0, amplitude_v_m=0.0)
    with pytest.raises(ValueError, match="unit norm"):
        PlaneWaveIncidence(theta_deg=10.0, jones=(1.0, 1.0))
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match="phi_deg"):
            PlaneWaveIncidence(theta_deg=10.0, phi_deg=bad)
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError, match="amplitude"):
            PlaneWaveIncidence(theta_deg=10.0, amplitude_v_m=bad)
    # a NaN norm fails no norm test, so finiteness is checked first
    for jones in ((np.nan, 0.0), (1.0, complex(0.0, np.inf)), (complex(np.nan, 0.0), 1.0)):
        with pytest.raises(ValueError, match="jones vector must be finite"):
            PlaneWaveIncidence(theta_deg=10.0, jones=jones)


def test_direction_grid():
    grid = DirectionGrid.uniform(5)
    assert np.array_equal(grid.u, [-1.0, -0.5, 0.0, 0.5, 1.0])
    assert grid.cell_weight == pytest.approx(0.25)
    assert grid.visible[2, 2]
    assert not grid.visible[0, 0]  # corner (-1, -1) is outside the disc
    assert grid.nearest_index(0.26, -0.26) == (3, 1)
    with pytest.raises(ValueError):
        DirectionGrid.uniform(1)
    with pytest.raises(ValueError, match="uniform"):
        DirectionGrid(u=np.array([0.0, 0.1, 0.3]), v=np.array([0.0, 1.0]))
    with pytest.raises(ValueError, match="increasing"):
        DirectionGrid(u=np.array([1.0, 0.0]), v=np.array([0.0, 1.0]))
    # inf - 0 and 0 - -inf are equal steps
    with pytest.raises(ValueError, match="finite"):
        DirectionGrid(u=np.array([-np.inf, 0.0, np.inf]), v=np.array([0.0, 1.0]))


def test_power_helpers(geom4, ideal, rng):
    sched = random_schedule(rng, 4, 4)
    pat = FieldEngine(geom4, DirectionGrid.uniform(11)).pattern(
        sched, ideal, PlaneWaveIncidence(theta_deg=20.0), 0)
    assert np.array_equal(pat.power, np.sum(np.abs(pat.field) ** 2, axis=-1))
    assert power_db(1.0, 1.0) == 0.0
    assert power_db(0.1, 1.0) == pytest.approx(-10.0)
    assert power_db(0.0, 1.0) == -400.0  # floored
    with pytest.raises(ValueError, match="reference"):
        power_db(1.0, 0.0)


def test_ratio_from_powers():
    r = ratio_from_powers(4.0, 2.0)
    assert r.xi == 2.0 and (r.p_sigma, r.p_delta) == (4.0, 2.0)
    assert not r.floored
    r0 = ratio_from_powers(4.0, 0.0)
    assert r0.floored and r0.xi == pytest.approx(4.0 / 1e-30)


def test_field_at_checks_visibility(geom4, ideal, rng):
    sched = random_schedule(rng, 4, 4)
    inc = PlaneWaveIncidence(theta_deg=10.0)
    with pytest.raises(ValueError, match="visible"):
        FieldEngine(geom4).field_at(0.8, 0.7, sched, ideal, inc, h=0)
    # NaN lies in no disc: it is rejected, not returned as NaN fields
    for u, v in ((np.nan, 0.0), (0.0, np.nan), ([0.1, np.nan], [0.0, 0.0])):
        with pytest.raises(ValueError, match="visible"):
            FieldEngine(geom4).field_at(u, v, sched, ideal, inc, h=0)
    with pytest.raises(ValueError, match="shape"):
        FieldEngine(geom4).field_at(0.0, 0.0, random_schedule(rng, 3, 3), ideal, inc, h=0)
    with pytest.raises(ValueError, match="shape"):
        FieldEngine(geom4, DirectionGrid.uniform(5)).pattern(random_schedule(rng, 3, 3), ideal,
                                                             inc, 0)
    # the engine itself rejects a schedule whose cell count alone agrees
    engine = FieldEngine(EmsGeometry(rows=10, cols=10), DirectionGrid.uniform(5))
    wrong = random_schedule(rng, 5, 20)
    with pytest.raises(ValueError, match="shape"):
        engine.pattern(wrong, ideal, inc, 1)
    with pytest.raises(ValueError, match="shape"):
        engine.field_at(0.0, 0.0, wrong, ideal, inc, 0)


def test_field_samples_match_pattern_nodes(geom4, ideal, rng):
    sched = random_schedule(rng, 4, 4)
    inc = PlaneWaveIncidence(theta_deg=40.0)
    grid = DirectionGrid.uniform(21)
    pat = FieldEngine(geom4, grid).pattern(sched, ideal, inc, 1)
    got = FieldEngine(geom4).field_at(0.2, -0.4, sched, ideal, inc, h=1)[0]
    iu, iv = grid.nearest_index(0.2, -0.4)
    assert np.allclose(got, pat.field[iu, iv], rtol=1e-13)


TENSOR_STATES = ReflectionStates(
    gamma_on=np.array([[0.7 + 0.1j, 0.05j], [0.02, -0.6 + 0.2j]]),
    gamma_off=np.array([[-0.8, 0.0], [0.1j, 0.75]]))


def test_separable_kernel_matches_direct_sum(rng):
    # a non-square aperture on a non-square grid: swapped u/v axes or
    # row/column factors cannot cancel out
    geometry = EmsGeometry(rows=4, cols=6)
    grid = DirectionGrid(u=np.linspace(-1.0, 1.0, 33), v=np.linspace(-1.0, 1.0, 21))
    inc = PlaneWaveIncidence(theta_deg=25.0, phi_deg=40.0, jones=(0.6 + 0.0j, 0.8j))
    sched = random_schedule(rng, 4, 6)
    iu, iv = np.nonzero(grid.visible)
    u, v = grid.u[iu], grid.v[iv]
    anchors = np.array([[0.31, -0.17], [-0.52, 0.44], [0.05, 0.9]])
    nu, nv = grid.shape
    masks = MaskSet(grid=grid, lower=np.zeros((2, nu, nv)), upper=np.full((2, nu, nv), np.inf),
                    anchor_uv=anchors, anchor_lower=np.zeros((2, 3)),
                    anchor_upper=np.full((2, 3), np.inf),
                    beam_ref=beam_reference(geometry, inc, 0.0))
    engine = FieldEngine(geometry, grid)
    vis = grid.visible
    for states in (ReflectionStates.ideal(), TENSOR_STATES):
        for h in (0, 1):
            want = direct_sum(geometry, sched, states, inc, u, v, h)
            got = engine.pattern(sched, states, inc, h).field[iu, iv]
            assert np.all(np.abs(got - want) <= 1e-12 * np.abs(want))
            got = engine.field_at(u, v, sched, states, inc, h)
            assert np.all(np.abs(got - want) <= 1e-12 * np.abs(want))
            # the cost against the dense sum of these powers: every ceiling
            # of harmonic h at half its node's power, every floor at twice
            p_grid = np.zeros((nu, nv))
            p_grid[iu, iv] = np.sum(np.abs(want) ** 2, axis=1)
            e = direct_sum(geometry, sched, states, inc, anchors[:, 0], anchors[:, 1], h)
            p_anchor = np.sum(np.abs(e) ** 2, axis=1)
            # each node exceeds (falls short of) its bound by gap times its power
            for lower, upper, gap in ((0.0, 0.5, 0.5), (2.0, np.inf, 1.0)):
                bounds = np.zeros((2, nu, nv)), np.full((2, nu, nv), np.inf)
                bounds[0][h] = lower * p_grid
                bounds[1][h][vis] = upper * p_grid[vis]
                a_bounds = np.zeros((2, 3)), np.full((2, 3), np.inf)
                a_bounds[0][h] = lower * p_anchor
                a_bounds[1][h] = upper * p_anchor
                ev = CostEvaluator(geometry, states, inc,
                                   replace(masks, lower=bounds[0], upper=bounds[1],
                                           anchor_lower=a_bounds[0], anchor_upper=a_bounds[1]),
                                   sched.period_s)
                want_phi = gap * (grid.cell_weight * p_grid.sum()
                                  + ev.anchor_weight * p_anchor.sum())
                assert ev.phi(sched) == pytest.approx(want_phi, rel=1e-12)


def test_delta_constrained_null_line_at_broadside(ideal, rng):
    # mirrored rows cancel the first harmonic on the whole u=0 cut
    sched = ModeCodec(mode=ControlMode.DELTA, rows=6, cols=4).decode(rng.random(24), 1e-6)
    geometry = EmsGeometry(rows=6, cols=4)
    grid = DirectionGrid.uniform(41)
    pat = FieldEngine(geometry, grid).pattern(sched, ideal, PlaneWaveIncidence(theta_deg=0.0), 1)
    mid = np.where(grid.u == 0.0)[0][0]
    peak = np.abs(pat.field).max()
    assert peak > 0.0
    assert np.abs(pat.field[mid]).max() <= 1e-13 * peak
    # the cost's folded h = 1 row factor is exactly 0 there
    masks = MaskSet(grid=grid, lower=np.zeros((2,) + grid.shape),
                    upper=np.full((2,) + grid.shape, np.inf), anchor_uv=np.zeros((0, 2)),
                    anchor_lower=np.zeros((2, 0)), anchor_upper=np.zeros((2, 0)),
                    beam_ref=beam_reference(geometry, PlaneWaveIncidence(theta_deg=0.0), 0.0))
    ev = CostEvaluator(geometry, ideal, PlaneWaveIncidence(theta_deg=0.0), masks, 1e-6)
    assert np.all(ev._fold(ControlMode.DELTA)[0].left_t[1][:, mid] == 0.0)
