"""Mask construction: levels, boxes, exact-direction anchors, and the
steer-compensated carrier reference used to calibrate them."""

import numpy as np
import pytest

from tmems.config import parse_config
from tmems.fields import DirectionGrid, FieldEngine, PlaneWaveIncidence, state_sources
from tmems.geometry import EmsGeometry
from tmems.masks import (
    MaskParams,
    beam_reference,
    build_masks,
    half_power_halfwidth,
    reference_power,
)
from tmems.modulation import PulseSchedule, ReflectionStates

GEOM10 = EmsGeometry(rows=10, cols=10)
INC0 = PlaneWaveIncidence(theta_deg=0.0)
INC40 = PlaneWaveIncidence(theta_deg=40.0)
IDEAL = ReflectionStates.ideal()
# a lossy scalar pair, and a pair whose on state turns TE into TM
SCALAR = ReflectionStates(gamma_on=0.9 * np.exp(0.3j) * np.eye(2),
                          gamma_off=(-0.8 + 0.1j) * np.eye(2))
CROSS = ReflectionStates(gamma_on=0.9 * np.array([[0.0, 1.0], [1.0, 0.0]]),
                         gamma_off=-0.8 * np.eye(2))
BEAM_U = -np.sin(np.radians(20.0))  # the beam-pair scenario, with INC40
R0 = reference_power(GEOM10, 1.0)


def masks_at(grid, beam_u, incidence=INC0, full_v=False, **levels):
    return build_masks(grid, GEOM10, incidence, IDEAL, MaskParams(**levels), beam_u, full_v)


def test_reference_power_formula():
    geom = EmsGeometry(rows=3, cols=5)
    want = ((geom.k0 / (4.0 * np.pi)) * 2.0 * 15 * geom.cell_area_m2) ** 2
    assert reference_power(geom, 2.0) == pytest.approx(want, rel=1e-15)
    with pytest.raises(ValueError, match="amplitude"):
        reference_power(geom, 0.0)


def test_half_power_halfwidth_matches_the_reference_beam():
    # along v the broadside reference beam is a uniform line of 10 cells
    ref = beam_reference(GEOM10, INC0, 0.0, IDEAL)
    hp = half_power_halfwidth(10, 0.45)
    drop = ref.power_at(0.0, hp)[0] / ref.power_at(0.0, 0.0)[0]
    assert ref.power_at(0.0, -hp)[0] == pytest.approx(ref.power_at(0.0, hp)[0], rel=1e-12)
    assert 10.0 * np.log10(drop) == pytest.approx(-3.0, abs=0.05)


def test_levels_and_boxes():
    grid = DirectionGrid.uniform(41)
    masks = masks_at(grid, 0.0, null_depth_db=-30.0)
    # sidelobe ceiling -10 dB at a far-out visible node
    iu, iv = grid.nearest_index(-0.8, 0.0)
    assert masks.upper[0][iu, iv] == pytest.approx(0.1 * R0)
    assert masks.upper[1][iu, iv] == pytest.approx(0.1 * R0)
    # ripple bound +3 dB inside the main box
    ju, jv = grid.nearest_index(0.0, 0.0)
    assert masks.upper[0][ju, jv] == pytest.approx(10.0 ** 0.3 * R0)
    # invisible nodes carry inactive bounds
    assert np.isinf(masks.upper[0][0, 0]) and masks.lower[0][0, 0] == 0.0
    # exact-direction anchors: carrier floor at the beam, -30 dB cap at the null
    assert masks.anchor_uv[:2].tolist() == [[0.0, 0.0], [0.0, 0.0]]
    peak_floor = masks.anchor_lower[0][0]
    assert peak_floor == pytest.approx(10.0 ** -0.3 * R0)
    assert peak_floor == pytest.approx(0.5 * R0, rel=3e-3)
    assert masks.anchor_upper[1][1] == pytest.approx(1e-3 * R0)
    # grid-wide lower bounds live only in the flanking lobe boxes
    assert np.all(masks.lower[0] == 0.0)
    assert np.count_nonzero(masks.lower[1]) > 0
    # R0 follows the incident amplitude
    loud = masks_at(grid, 0.0, incidence=PlaneWaveIncidence(theta_deg=0.0, amplitude_v_m=2.0))
    assert loud.upper[0][iu, iv] == pytest.approx(0.1 * reference_power(GEOM10, 2.0))


def test_lobe_boxes_flank_the_null():
    grid = DirectionGrid.uniform(81)
    masks = masks_at(grid, 0.0, lobe_floor_db=-12.0)
    fn = 1.0 / (10 * 0.45)
    for sign in (-1.0, 1.0):
        iu, iv = grid.nearest_index(sign * 0.75 * fn, 0.0)
        assert masks.lower[1][iu, iv] == pytest.approx(10.0 ** -1.2 * R0)
    iu0, iv0 = grid.nearest_index(0.0, 0.0)
    assert masks.lower[1][iu0, iv0] == 0.0  # the null itself is never floored


def test_anchor_tube_geometry():
    grid = DirectionGrid.uniform(41)
    masks = masks_at(grid, 0.0)
    # 2 point requirements + (shoulder caps + flank floors) x 2 signs x 2 axes
    assert masks.anchor_uv.shape == (10, 2)
    hp = half_power_halfwidth(10, 0.45)
    # first shoulder anchor on the u axis: cap at the reference level + margin
    su = masks.anchor_uv[2]
    assert abs(abs(su[0]) - 1.2 * hp) < 1e-12 and su[1] == 0.0
    level = float(masks.beam_ref.power_at(su[0], su[1])[0])
    assert masks.anchor_upper[0][2] == pytest.approx(level * 10.0 ** 0.07, rel=1e-12)
    assert masks.anchor_lower[0][2] == 0.0
    # flanks carry floors instead
    fl = masks.anchor_uv[4]
    assert abs(abs(fl[0]) - 0.5 * hp) < 1e-12
    flank_level = float(masks.beam_ref.power_at(fl[0], fl[1])[0])
    assert masks.anchor_lower[0][4] == pytest.approx(flank_level * 10.0 ** -0.02, rel=1e-12)
    assert np.isinf(masks.anchor_upper[0][4])
    # column-wise masks skip the v axis
    assert masks_at(grid, 0.0, full_v=True).anchor_uv.shape == (6, 2)


def test_calibrated_anchors_use_reference_levels():
    grid = DirectionGrid.uniform(41)
    beam_u = -np.sin(np.radians(20.0))
    masks = masks_at(grid, beam_u, incidence=INC40)
    ref = beam_reference(GEOM10, INC40, beam_u, IDEAL)
    assert masks.beam_ref.steer_u == ref.steer_u
    assert np.array_equal(masks.beam_ref.duty, ref.duty)
    level = float(ref.power_at(masks.anchor_uv[2][0], masks.anchor_uv[2][1])[0])
    assert masks.anchor_upper[0][2] == pytest.approx(level * 10.0 ** 0.07, rel=1e-12)


@pytest.mark.parametrize("states", [IDEAL, SCALAR, CROSS], ids=["ideal", "scalar", "cross"])
def test_reference_power_is_its_schedules_carrier_power(states):
    # the reference's own duties, as a schedule, radiate the carrier power
    # that power_at reports, so its anchors describe a lobe it reaches
    masks = build_masks(DirectionGrid.uniform(41), GEOM10, INC40, states, MaskParams(), BEAM_U)
    ref = masks.beam_ref
    schedule = PulseSchedule(period_s=1e-6, rise=np.zeros_like(ref.duty), duty=ref.duty)
    # the beam, then the shoulder and flank anchors
    uv = np.vstack([[BEAM_U, 0.0], masks.anchor_uv[2:]])
    assert uv.shape == (9, 2)
    field = FieldEngine(GEOM10).field_at(uv[:, 0], uv[:, 1], schedule, states, INC40, 0)
    power = np.sum(field.real**2 + field.imag**2, axis=1)
    assert np.allclose(power, ref.power_at(uv[:, 0], uv[:, 1]), rtol=1e-12, atol=0.0)
    assert np.all(masks.anchor_lower[0, 2:] <= power[1:])
    assert np.all(power[1:] <= masks.anchor_upper[0, 2:])


@pytest.mark.parametrize("eps", [1e-12, 1e-9, 1e-6])
def test_calibration_is_continuous_in_the_states(eps):
    # a cross term that couples TE into TM moves the calibration by O(eps)
    grid = DirectionGrid.uniform(41)
    on = SCALAR.gamma_on.copy()
    on[1, 0] += eps
    moved_states = ReflectionStates(gamma_on=on, gamma_off=SCALAR.gamma_off)
    base, moved = (build_masks(grid, GEOM10, INC40, st, MaskParams(), BEAM_U)
                   for st in (SCALAR, moved_states))
    (a0, b0), (a1, b1) = (state_sources(st, INC40) for st in (SCALAR, moved_states))
    r = np.linalg.norm((a1 - b1) - (a0 - b0)) / np.linalg.norm(a0 - b0)
    assert 0.0 < r < 1e-5
    # Only d = a - b moves, by r relative. An anchor is a power, quadratic
    # in the sources, so that moves it by at most (1 + r)^2 - 1 relative;
    # the duty, which follows Re m with m = vdot(d, b) / |d|^2, moves it as
    # much again.
    # The steer is the root of a lobe's apex offset, read off powers across
    # a scan window of 1.2 lambda/D, so it moves by that window times the
    # same relative bound.
    level = 2.0 * ((1.0 + r) ** 2 - 1.0)
    fn = 1.0 / (GEOM10.rows * GEOM10.cell_size_wl)
    assert abs(moved.beam_ref.steer_u - base.beam_ref.steer_u) <= 1.2 * fn * level
    for bound in ("anchor_lower", "anchor_upper"):
        old, new = getattr(base, bound), getattr(moved, bound)
        active = (old > 0.0) & np.isfinite(old)
        assert np.array_equal(active, (new > 0.0) & np.isfinite(new))
        assert np.all(np.abs(new[active] - old[active]) <= level * old[active])


def test_mirror_image_boxes():
    grid = DirectionGrid.uniform(201)
    beam_u = -np.sin(np.radians(20.0))
    sidelobe, ripple = R0 * 0.1, R0 * 10.0 ** 0.3
    masks = masks_at(grid, beam_u, incidence=INC40)
    # the beam at w = u + sin(40 deg) has a mirror at -w, i.e. u ~ -0.944
    mirror_u = -(beam_u + INC40.u) - INC40.u
    iu, iv = grid.nearest_index(mirror_u, 0.0)
    assert masks.upper[0][iu, iv] == pytest.approx(ripple)
    assert masks.upper[1][iu, iv] == pytest.approx(ripple)
    # away from the beam and its mirror the sidelobe ceiling holds
    iu, iv = grid.nearest_index(0.5, 0.0)
    assert masks.upper[0][iu, iv] == pytest.approx(sidelobe)


def test_beam_reference_lands_on_target():
    cases = [(40.0, -np.sin(np.radians(20.0)))]  # the beam-pair scenario
    cases += [(theta, 0.0) for theta in (20.0, 30.0, 40.0, 50.0)]  # localization candidates
    for theta_deg, beam_u in cases:
        ref = beam_reference(GEOM10, PlaneWaveIncidence(theta_deg=theta_deg), beam_u, IDEAL)
        assert np.all((ref.duty >= 0.0) & (ref.duty <= 1.0))
        if beam_u != 0.0:
            # compensation moves the steer off the geometric target
            assert abs(ref.steer_u - beam_u) > 1e-3
        # the apex of the resulting carrier lobe sits on the requested direction
        us = beam_u + np.linspace(-0.02, 0.02, 801)
        p = ref.power_at(us, np.zeros_like(us))
        apex = us[int(np.argmax(p))]
        assert abs(apex - beam_u) < 1e-3, theta_deg
        # and carries at least the default -3 dB floor relative to R0
        assert ref.power_at(beam_u, 0.0)[0] >= 0.5 * R0


def test_default_scenario_reference_is_centred():
    # normal incidence and a broadside beam: every steer's lobe is mirror
    # symmetric about u = 0, so the tie goes to the tallest, centred lobe
    ref = parse_config({}).scenario().evaluator().masks.beam_ref
    assert ref.steer_u == 0.0
    assert np.all(ref.duty == 1.0)
    assert ref.power_at(0.0, 0.0)[0] > 0.71  # an off-centre steer peaks at 0.702


def test_beam_reference_validation():
    with pytest.raises(ValueError, match="visible"):
        beam_reference(GEOM10, INC40, 1.5, IDEAL)
    with pytest.raises(ValueError, match="contrast"):
        beam_reference(GEOM10, INC40, 0.0, ReflectionStates(0.5 * np.eye(2), 0.5 * np.eye(2)))
    with pytest.raises(ValueError, match="lobe not found"):
        beam_reference(GEOM10, PlaneWaveIncidence(theta_deg=50.0), np.sin(np.radians(20.0)),
                       IDEAL)


def test_box_never_empty_on_coarse_grid():
    grid = DirectionGrid.uniform(5)
    masks = masks_at(grid, 0.3)
    # beam box is far smaller than the grid step; it snaps to the nearest node
    assert np.count_nonzero(masks.upper[0] == R0 * 10.0 ** 0.3) >= 1


def test_mask_validation_errors():
    grid = DirectionGrid.uniform(41)
    with pytest.raises(ValueError, match="beam direction"):
        masks_at(grid, 1.5)
    # a lobe floor above the ripple bound is unsatisfiable: the lobe boxes
    # sit inside the main box
    with pytest.raises(ValueError, match="lower bound exceeds"):
        masks_at(grid, 0.0, lobe_floor_db=4.0)
    # MaskParams itself rejects each bad level: a NaN sidelobe ceiling would
    # make the cost skip it, a NaN null depth would make phi NaN, and a
    # negative ripple puts the main box's ceiling under the reference power
    levels = ("sidelobe_db", "peak_floor_db", "ripple_db", "null_depth_db", "lobe_floor_db")
    cases = [(name, bad) for name in levels for bad in (np.nan, np.inf, -np.inf)]
    for name, bad in cases + [("ripple_db", -0.1)]:
        with pytest.raises(ValueError, match=name):
            MaskParams(**{name: bad})
    MaskParams(ripple_db=0.0)  # the edge stays allowed


def test_masks_are_frozen():
    masks = masks_at(DirectionGrid.uniform(21), 0.0)
    with pytest.raises(ValueError):
        masks.upper[0][0, 0] = 1.0
