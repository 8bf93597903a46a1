"""Mask construction: levels, boxes, exact-direction anchors, and the
steer-compensated carrier reference used to calibrate them."""

import numpy as np
import pytest

from tmems.config import parse_config
from tmems.fields import DirectionGrid, PlaneWaveIncidence
from tmems.geometry import EmsGeometry
from tmems.masks import (
    MaskParams,
    beam_reference,
    build_masks,
    half_power_halfwidth,
    reference_power,
)
from tmems.modulation import ReflectionStates

GEOM10 = EmsGeometry(rows=10, cols=10)
INC0 = PlaneWaveIncidence(theta_deg=0.0)
INC40 = PlaneWaveIncidence(theta_deg=40.0)
IDEAL = ReflectionStates.ideal()
IDEAL_PAIR = (1.0 + 0j, -1.0 + 0j)
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
    ref = beam_reference(GEOM10, INC0, 0.0)
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
    masks = masks_at(grid, 0.0, shoulder_scale=1.2, shoulder_margin_db=0.7,
                     flank_scale=0.5, flank_margin_db=0.2)
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
    ref = beam_reference(GEOM10, INC40, beam_u, scalar_states=IDEAL_PAIR)
    assert masks.beam_ref.steer_u == ref.steer_u
    assert np.array_equal(masks.beam_ref.duty, ref.duty)
    level = float(ref.power_at(masks.anchor_uv[2][0], masks.anchor_uv[2][1])[0])
    assert masks.anchor_upper[0][2] == pytest.approx(level * 10.0 ** 0.07, rel=1e-12)


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
        ref = beam_reference(GEOM10, PlaneWaveIncidence(theta_deg=theta_deg), beam_u,
                             scalar_states=IDEAL_PAIR)
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
        beam_reference(GEOM10, INC40, 1.5)
    with pytest.raises(ValueError, match="contrast"):
        beam_reference(GEOM10, INC40, 0.0, scalar_states=(0.5 + 0j, 0.5 + 0j))
    with pytest.raises(ValueError, match="lobe not found"):
        beam_reference(GEOM10, PlaneWaveIncidence(theta_deg=50.0), np.sin(np.radians(20.0)))


def test_box_never_empty_on_coarse_grid():
    grid = DirectionGrid.uniform(5)
    masks = masks_at(grid, 0.3)
    # beam box is far smaller than the grid step; it snaps to the nearest node
    assert np.count_nonzero(masks.upper[0] == R0 * 10.0 ** 0.3) >= 1


def test_mask_validation_errors():
    grid = DirectionGrid.uniform(41)
    with pytest.raises(ValueError, match="beam direction"):
        masks_at(grid, 1.5)
    with pytest.raises(ValueError, match="lobe"):
        masks_at(grid, 0.0, lobe_offset_u=0.05, lobe_halfwidth_u=0.06)
    with pytest.raises(ValueError, match="notch overlaps"):
        masks_at(grid, 0.0, null_halfwidth_u=0.4, null_halfwidth_v=0.4)
    with pytest.raises(ValueError, match="margins"):
        masks_at(grid, 0.0, shoulder_margin_db=-1.0)
    with pytest.raises(ValueError, match="main_halfwidth_u"):
        masks_at(grid, 0.0, main_halfwidth_u=0.0)
    # a lobe floor above the sidelobe ceiling is unsatisfiable once the lobe
    # boxes fall outside the main box
    with pytest.raises(ValueError, match="lower bound exceeds"):
        masks_at(grid, 0.0, main_halfwidth_u=0.05, lobe_floor_db=-2.0)


def test_optional_notch_box():
    grid = DirectionGrid.uniform(81)
    masks = masks_at(grid, 0.0, null_halfwidth_u=0.02, null_halfwidth_v=0.02,
                     null_depth_db=-40.0)
    iu, iv = grid.nearest_index(0.0, 0.0)
    assert masks.upper[1][iu, iv] == pytest.approx(1e-4 * R0)


def test_masks_are_frozen():
    masks = masks_at(DirectionGrid.uniform(21), 0.0)
    with pytest.raises(ValueError):
        masks.upper[0][0, 0] = 1.0
