"""Mask-violation cost, mode codecs, and the seeded particle-swarm search."""

import gc
import tracemalloc
import weakref
from dataclasses import replace

import numpy as np
import pytest

from tmems.config import load_config, parse_config
from tmems.fields import DirectionGrid, FieldEngine, PlaneWaveIncidence
from tmems.geometry import EmsGeometry
from tmems.masks import MaskParams, MaskSet, beam_reference, build_masks
from tmems.modulation import (
    ConstraintError,
    ControlMode,
    PulseSchedule,
    ReflectionStates,
    mirror_rise,
    pulse_fourier_coefficients,
)
from tmems import synthesis
from tmems.synthesis import (
    CostEvaluator,
    ModeCodec,
    PsoConfig,
    _wrap_unit,
    conjugate_guess,
    minimize_swarms,
    pso_optimize,
)

from conftest import random_schedule


def upper_only_masks(geom, inc, grid, upper):
    """A mask set with upper bounds only and no anchors."""
    nu, nv = grid.shape
    return MaskSet(grid=grid, lower=np.zeros((2, nu, nv)), upper=upper,
                   anchor_uv=np.zeros((0, 2)), anchor_lower=np.zeros((2, 0)),
                   anchor_upper=np.zeros((2, 0)), beam_ref=beam_reference(geom, inc, 0.0))


def small_evaluator():
    geom = EmsGeometry(rows=4, cols=4)
    inc = PlaneWaveIncidence(theta_deg=0.0)
    grid = DirectionGrid.uniform(21)
    masks = upper_only_masks(geom, inc, grid, np.full((2,) + grid.shape, np.inf))
    return CostEvaluator(geom, ReflectionStates.ideal(), inc, masks, 1e-6)


def test_phi_single_violation_equals_weighted_overshoot(rng, ideal):
    geom = EmsGeometry(rows=4, cols=4)
    grid = DirectionGrid.uniform(21)
    inc = PlaneWaveIncidence(theta_deg=0.0)
    sched = random_schedule(rng, 4, 4)
    p0 = FieldEngine(geom, grid).pattern(sched, ideal, inc, 0).power
    iu, iv = grid.nearest_index(0.3, -0.2)
    assert grid.visible[iu, iv]
    nu, nv = grid.shape
    upper = np.full((2, nu, nv), np.inf)
    upper[0, iu, iv] = p0[iu, iv] - 2.0  # overshoot of exactly 2 in power
    ev = CostEvaluator(geom, ideal, inc, upper_only_masks(geom, inc, grid, upper), sched.period_s)
    # one node, one harmonic: phi = cell_weight * (P - upper) = 0.01 * 2
    assert grid.cell_weight == pytest.approx(0.01)
    assert ev.phi(sched) == pytest.approx(0.02, rel=1e-9)


def test_phi_zero_when_strictly_inside(rng, ideal):
    geom = EmsGeometry(rows=4, cols=4)
    grid = DirectionGrid.uniform(21)
    inc = PlaneWaveIncidence(theta_deg=0.0)
    sched = random_schedule(rng, 4, 4)
    nu, nv = grid.shape
    upper = np.full((2, nu, nv), np.inf)
    for h in (0, 1):
        p = FieldEngine(geom, grid).pattern(sched, ideal, inc, h).power
        upper[h][grid.visible] = 2.0 * p[grid.visible] + 1.0
    ev = CostEvaluator(geom, ideal, inc, upper_only_masks(geom, inc, grid, upper), sched.period_s)
    assert ev.phi(sched) == 0.0


def test_evaluator_takes_the_masks_grid_and_checks_shape(rng):
    ev = small_evaluator()
    assert ev.grid is ev.masks.grid
    with pytest.raises(ValueError, match="schedule shape"):
        ev.phi(random_schedule(rng, 6, 6))


def test_anchor_weight_default():
    ev = small_evaluator()
    fn = 1.0 / (4 * 0.45)
    assert ev.anchor_weight == pytest.approx((4.0 * fn) ** 2)


def beam_pair_evaluator():
    """The flagship scenario's evaluator: 10x10 skin on the 64-grid."""
    ev = load_config(None).scenario().evaluator()
    assert ev.grid.shape == (64, 64)
    return ev


def columnwise_evaluator():
    """The localization scenario's evaluator: 10x10 colwise-delta on the
    64-grid, with column-wise masks."""
    cfg = parse_config({"modulation": {"mode": "colwise-delta"},
                        "incidence": {"theta_deg": 40.0}})
    return cfg.scenario().evaluator()


def test_warm_phi_batch_allocates_little():
    rng = np.random.default_rng(0)
    cases = ((beam_pair_evaluator(), ControlMode.DELTA, (20, 5, 10)),
             (beam_pair_evaluator(), ControlMode.FULL, (20, 10, 10)),
             (columnwise_evaluator(), ControlMode.COLWISE_DELTA, (20, 5, 1)))
    for ev, mode, shape in cases:
        rises, duties = rng.random((2,) + shape)
        want = ev.phi_batch(rises, duties, mode)  # warm-up builds the evaluator's buffers
        tracemalloc.start()
        try:
            got = ev.phi_batch(rises, duties, mode)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # one (64 x 64 x 20) complex temporary alone would be 1.3 MB
        assert peak < 256 * 1024
        assert np.array_equal(got, want)


TENSOR_STATES = ReflectionStates(
    gamma_on=np.array([[0.7 + 0.1j, 0.05j], [0.02, -0.6 + 0.2j]]),
    gamma_off=np.array([[-0.8, 0.0], [0.1j, 0.75]]))


def with_static_cells(duties):
    """The duties with a few cells, and the last schedule whole, exactly 0
    and exactly 1: cells without sidebands."""
    duties = duties.copy()
    flat = duties.reshape(duties.shape[0], -1)
    flat[:, 0] = 0.0
    flat[:, -1] = 1.0
    duties[-1] = 1.0
    if duties.shape[0] > 1:
        duties[-2] = 0.0
    return duties


def fold_cases(fast_scenario, mode):
    """Evaluators of a non-square skin (swapped row and column factors
    cannot cancel out) under several incidences, the last one oblique in phi
    with tensor states."""
    cases = [dict(theta_inc_deg=t) for t in (0.0, 20.0, 40.0)]
    cases.append(dict(theta_inc_deg=30.0, phi_inc_deg=25.0, amplitude_v_m=3.5,
                      jones=(0.6 + 0.0j, 0.8j)))
    for i, case in enumerate(cases):
        sc = fast_scenario(mode=mode, rows=6, cols=4, **case)
        if i == len(cases) - 1:
            sc = replace(sc, states=TENSOR_STATES)
        yield sc.evaluator()


@pytest.mark.parametrize("mode", list(ControlMode))
def test_folded_block_cost_matches_the_decoded_schedule(fast_scenario, mode):
    # phi_batch applies the mode's rules inside the steering factors; the
    # reference decodes every cell and scores the full schedule
    rng = np.random.default_rng(5)
    codec = ModeCodec(mode=mode, rows=6, cols=4)
    for ev in fold_cases(fast_scenario, mode):
        for batch in (1, 7, 20):
            x = rng.random((batch, codec.dim))
            rises, duties = codec.blocks(x)
            got = ev.phi_batch(rises, duties, mode)
            want = ev.phi_batch(*codec.decode_batch(x))
            assert np.all(want > 0.0)
            assert np.all(np.abs(got - want) <= 1e-12 * want)
            duties = with_static_cells(duties)
            got = ev.phi_batch(rises, duties, mode)
            x = np.concatenate([rises.reshape(batch, -1), duties.reshape(batch, -1)], axis=1)
            want = ev.phi_batch(*codec.decode_batch(x))
            assert np.all(np.abs(got - want) <= 1e-12 * want)


def test_phi_batch_checks_the_block():
    ev = columnwise_evaluator()
    rises = np.zeros((3, 5, 1))
    with pytest.raises(ValueError, match=r"colwise-delta blocks of shape \(batch, 5, 1\)"):
        ev.phi_batch(rises, np.zeros((3, 5, 2)), ControlMode.COLWISE_DELTA)
    with pytest.raises(ValueError, match=r"full blocks of shape \(batch, 10, 10\)"):
        ev.phi_batch(rises, rises)
    with pytest.raises(ValueError, match="unknown control mode"):
        ev.phi_batch(rises, rises, "sideways")
    ev = small_evaluator()
    odd = CostEvaluator(EmsGeometry(rows=3, cols=4), ev.states, ev.incidence, ev.masks, 1e-6)
    with pytest.raises(ConstraintError, match="even row count"):
        odd.phi_batch(np.zeros((1, 1, 4)), np.zeros((1, 1, 4)), ControlMode.DELTA)


def test_phi_batch_checks_the_block_values(monkeypatch):
    calls = []

    def counted(*args):
        calls.append(args[2])
        return pulse_fourier_coefficients(*args)

    # one range check per call: the h = 1 coefficients check, u^0 is the duty
    monkeypatch.setattr(synthesis, "pulse_fourier_coefficients", counted)
    for ev, mode, shape in ((beam_pair_evaluator(), ControlMode.DELTA, (45, 5, 10)),
                            (columnwise_evaluator(), ControlMode.COLWISE_DELTA, (45, 5, 1))):
        calls.clear()
        ev.phi_batch(np.full(shape, 0.25), np.full(shape, 0.5), mode)
        assert calls == [1]
        for which, bad, match in (("rise", np.nan, "rise"), ("rise", 1.0, "rise"),
                                  ("rise", -0.1, "rise"), ("duty", np.nan, "duty"),
                                  ("duty", 1.5, "duty"), ("duty", -0.1, "duty")):
            blocks = {"rise": np.full(shape, 0.25), "duty": np.full(shape, 0.5)}
            blocks[which][2, 1, 0] = bad
            with pytest.raises(ValueError, match=match):
                ev.phi_batch(blocks["rise"], blocks["duty"], mode)


def dense_phi(ev, rises, duties, mode):
    """The cost by its definition, the reference for phi_batch: each block
    decoded to a full schedule, radiated onto every grid node
    (FieldEngine.pattern) and at every anchor (field_at), every bound's
    weighted violation summed. Also returns, per block, the number of
    (harmonic, u-row) pairs with a violated grid ceiling."""
    codec = ModeCodec(mode=mode, rows=ev.geometry.rows, cols=ev.geometry.cols)
    x = np.concatenate([rises.reshape(len(rises), -1), duties.reshape(len(duties), -1)], axis=1)
    engine = FieldEngine(ev.geometry, ev.grid)
    m, vis, w = ev.masks, ev.grid.visible, ev.grid.cell_weight
    u, v = m.anchor_uv.T
    costs, rows_hit = [], []
    for rise, duty in zip(*codec.decode_batch(x)):
        sched = PulseSchedule(period_s=ev.period_s, rise=rise, duty=duty)
        cost, hit = 0.0, 0
        for h in (0, 1):
            p = engine.pattern(sched, ev.states, ev.incidence, h).power
            over = np.where(vis, np.maximum(p - m.upper[h], 0.0), 0.0)
            hit += int(np.count_nonzero(over.any(axis=1)))
            cost += w * (over.sum() + np.where(vis, np.maximum(m.lower[h] - p, 0.0), 0.0).sum())
            e = engine.field_at(u, v, sched, ev.states, ev.incidence, h)
            pa = np.sum(np.abs(e) ** 2, axis=1)
            cost += ev.anchor_weight * np.sum(np.maximum(pa - m.anchor_upper[h], 0.0)
                                              + np.maximum(m.anchor_lower[h] - pa, 0.0))
        costs.append(cost)
        rows_hit.append(hit)
    return np.array(costs), np.array(rows_hit)


def with_ceilings(ev, upper):
    """ev with its masks' grid ceilings replaced by upper."""
    masks = replace(ev.masks, upper=upper)
    return CostEvaluator(ev.geometry, ev.states, ev.incidence, masks, ev.period_s)


def notched(ev):
    """ev with a null notch along v = 0.3 at both harmonics, 30 dB under
    the lowest ceiling: it crosses most u-rows, and few blocks meet it."""
    upper = ev.masks.upper.copy()
    iv = ev.grid.nearest_index(0.0, 0.3)[1]
    upper[:, :, iv] = 1e-3 * ev.masks.upper[:, ev.grid.visible].min()
    return with_ceilings(ev, upper)


def test_batch_cost_equals_its_slices():
    ev = beam_pair_evaluator()
    rises, duties = np.random.default_rng(4).random((2, 45, 5, 10))
    got = ev.phi_batch(rises, duties, ControlMode.DELTA)
    want = [ev.phi_batch(rises[s:s + 20], duties[s:s + 20], ControlMode.DELTA)
            for s in (0, 20, 40)]
    assert np.array_equal(got, np.concatenate(want))
    dense = dense_phi(ev, rises, duties, ControlMode.DELTA)[0]
    assert np.all(np.abs(got - dense) <= 1e-12 * dense)


@pytest.mark.parametrize("mode", list(ControlMode))
def test_notched_cost_matches_dense_reference(fast_scenario, mode):
    # the notch makes nearly every row a flagged one
    rng = np.random.default_rng(9)
    codec = ModeCodec(mode=mode, rows=6, cols=4)
    n_rows = 2 * 32  # (harmonic, u-row) pairs of the 32-grid
    for ev in fold_cases(fast_scenario, mode):
        ev = notched(ev)
        rises, duties = codec.blocks(rng.random((7, codec.dim)))
        got = ev.phi_batch(rises, duties, mode)
        want, rows_hit = dense_phi(ev, rises, duties, mode)
        assert np.all(rows_hit > n_rows // 2)
        assert np.all(np.abs(got - want) <= 1e-12 * want)


@pytest.mark.parametrize("mode", [ControlMode.COLWISE, ControlMode.COLWISE_DELTA])
def test_colwise_cost_matches_dense_reference(fast_scenario, mode):
    rng = np.random.default_rng(5)
    codec = ModeCodec(mode=mode, rows=6, cols=4)
    for ev in fold_cases(fast_scenario, mode):
        for batch in (1, 7, 20):
            rises, duties = codec.blocks(rng.random((batch, codec.dim)))
            got = ev.phi_batch(rises, duties, mode)
            want = dense_phi(ev, rises, duties, mode)[0]
            assert np.all(want > 0.0)
            assert np.all(np.abs(got - want) <= 1e-12 * want)
        # an all-off skin radiates no first harmonic: every row of T is 0
        static = np.zeros((2, 1) + codec.control_shape)
        assert ev.phi_batch(*static, mode) == pytest.approx(dense_phi(ev, *static, mode)[0],
                                                            rel=1e-12)


def test_full_and_notched_cost_match_dense_reference(fast_scenario):
    rng = np.random.default_rng(6)
    mode = ControlMode.COLWISE_DELTA
    sc = fast_scenario(mode=mode, rows=6, cols=4)
    codec = ModeCodec(mode=mode, rows=6, cols=4)
    # full schedules on a column-wise evaluator
    ev = sc.evaluator()
    rises, duties = rng.random((2, 5, 6, 4))
    want = dense_phi(ev, rises, duties, ControlMode.FULL)[0]
    assert np.all(np.abs(ev.phi_batch(rises, duties) - want) <= 1e-12 * want)
    # a null notch gives some u-rows two ceilings
    notch = replace(sc, mask=MaskParams(null_halfwidth_u=0.05, null_halfwidth_v=0.05))
    ev = notch.evaluator()
    x = rng.random((5, codec.dim))
    rises, duties = codec.blocks(x)
    got = ev.phi_batch(rises, duties, mode)
    want = dense_phi(ev, rises, duties, mode)[0]
    assert np.all(np.abs(got - want) <= 1e-12 * want)
    want = ev.phi_batch(*codec.decode_batch(x))
    assert np.all(np.abs(got - want) <= 1e-12 * want)


@pytest.mark.parametrize("mode", list(ControlMode))
def test_lone_flagged_row_costs_as_in_a_batch(fast_scenario, mode):
    # one u-row keeps a ceiling, 30 dB under the masks' lowest: a block
    # scored alone radiates that one row, in a batch each block does
    ev = fast_scenario(mode=mode, rows=6, cols=4, theta_inc_deg=30.0).evaluator()
    upper = np.full_like(ev.masks.upper, np.inf)
    iu = ev.grid.nearest_index(0.3, 0.0)[0]
    upper[:, iu] = 1e-3 * ev.masks.upper[:, ev.grid.visible].min()
    ev = with_ceilings(ev, upper)
    codec = ModeCodec(mode=mode, rows=6, cols=4)
    rises, duties = codec.blocks(np.random.default_rng(10).random((20, codec.dim)))
    assert np.all(dense_phi(ev, rises, duties, mode)[1] == 2)
    alone = np.concatenate([ev.phi_batch(rises[i:i + 1], duties[i:i + 1], mode)
                            for i in range(20)])
    # any batch size: the swarm size need not be a multiple of 4
    for batch in (20, 7):
        assert np.array_equal(ev.phi_batch(rises[:batch], duties[:batch], mode), alone[:batch])


def with_floors(ev, h, nodes):
    """ev with a floor 1e-6 of its masks' lowest ceiling on the given grid
    nodes of harmonic h: each adds a point node."""
    lower = ev.masks.lower.copy()
    for iu, iv in nodes:
        lower[h, iu, iv] = max(lower[h, iu, iv], 1e-6 * ev.masks.upper[:, ev.grid.visible].min())
    masks = replace(ev.masks, lower=lower)
    return CostEvaluator(ev.geometry, ev.states, ev.incidence, masks, ev.period_s)


def separate_costs(evaluators, rises, duties, mode, designs):
    return np.concatenate([ev.phi_batch(rises[designs == e], duties[designs == e], mode)
                           for e, ev in enumerate(evaluators) if np.any(designs == e)])


@pytest.mark.parametrize("mode", [ControlMode.DELTA, ControlMode.FULL,
                                  ControlMode.COLWISE_DELTA, ControlMode.COLWISE])
def test_stacked_costs_equal_separate_calls(fast_scenario, mode, monkeypatch):
    # q > 1 (delta, full) and q = 1 (column-wise); the designs differ in
    # incidence, in theta and phi, so in every table, and in how many blocks
    # each still runs; a notch lowers the ceilings of the last two below
    # those of the first
    evaluators = [fast_scenario(mode=mode, rows=6, cols=4, theta_inc_deg=theta,
                                phi_inc_deg=phi).evaluator()
                  for theta, phi in ((20.0, 0.0), (35.0, 25.0), (50.0, -15.0))]
    evaluators[1:] = map(notched, evaluators[1:])
    stack = CostEvaluator.stack(evaluators)
    codec = ModeCodec(mode=mode, rows=6, cols=4)
    rng = np.random.default_rng(12)
    for counts in ((8, 8, 8), (16, 0, 1), (1, 7, 0), (0, 0, 5), (1, 1, 1)):
        rises, duties = codec.blocks(rng.random((sum(counts), codec.dim)))
        designs = np.repeat(np.arange(3), counts)
        got = stack.phi_batch(rises, duties, mode, designs)
        want = separate_costs(evaluators, rises, duties, mode, designs)
        assert np.all(want > 0.0)
        assert np.array_equal(got, want)
        # one design per pass
        with monkeypatch.context() as m:
            m.setattr(synthesis, "PASS_COLUMNS", codec.control_shape[1])
            assert np.array_equal(stack.phi_batch(rises, duties, mode, designs), want)
    # the notched designs' blocks reach their ceilings
    rises, duties = codec.blocks(rng.random((8, codec.dim)))
    for ev in evaluators[1:]:
        assert np.all(dense_phi(ev, rises, duties, mode)[1] > 0)
    # by default every block is design 0
    assert np.array_equal(stack.phi_batch(rises, duties, mode),
                          evaluators[0].phi_batch(rises, duties, mode))


@pytest.mark.parametrize("mode", [ControlMode.DELTA, ControlMode.COLWISE_DELTA])
def test_stacked_costs_keep_each_designs_point_count(fast_scenario, mode):
    # hand-built floors give the designs 1, 3 and 1 extra point nodes at
    # h = 1 and 0, 0 and 2 at h = 0: the row sums group designs 0 and 2 at
    # h = 1 and designs 0 and 1 at h = 0, and a design's sum is never padded
    ev = fast_scenario(mode=mode, rows=6, cols=4).evaluator()
    evaluators = [with_floors(with_floors(ev, 1, [(5, 9)]), 0, []),
                  with_floors(ev, 1, [(5, 9), (7, 12), (20, 3)]),
                  with_floors(with_floors(ev, 1, [(9, 20)]), 0, [(12, 14), (18, 17)])]
    counts = [[ev._point_bounds[h].shape[1] for ev in evaluators] for h in (0, 1)]
    assert counts[0][0] == counts[0][1] != counts[0][2]
    assert counts[1][0] == counts[1][2] != counts[1][1]
    stack = CostEvaluator.stack(evaluators)
    codec = ModeCodec(mode=mode, rows=6, cols=4)
    rng = np.random.default_rng(13)
    for counts in ((5, 5, 5), (0, 4, 6), (3, 0, 2), (1, 2, 1), (0, 0, 7)):
        rises, duties = codec.blocks(rng.random((sum(counts), codec.dim)))
        designs = np.repeat(np.arange(3), counts)
        got = stack.phi_batch(rises, duties, mode, designs)
        assert np.array_equal(got, separate_costs(evaluators, rises, duties, mode, designs))


def test_stack_checks_its_designs(fast_scenario):
    mode = ControlMode.DELTA
    sc = fast_scenario(rows=6, cols=4)
    evaluators = [replace(sc, theta_inc_deg=a).evaluator() for a in (20.0, 40.0)]
    stack = CostEvaluator.stack(evaluators)
    rises, duties = np.random.default_rng(3).random((2, 4, 3, 4))
    for bad in ([0, 1, 0, 1], [0, 0, 1, 2], [-1, 0, 0, 0], [0, 0, 1], [0.0, 0.0, 1.0, 1.0]):
        with pytest.raises(ValueError, match="designs must give each of the 4 blocks"):
            stack.phi_batch(rises, duties, mode, np.array(bad))
    # the stack built for delta blocks scores full ones too
    designs = np.array([0, 0, 1, 1])
    full = np.random.default_rng(4).random((2, 4, 6, 4))
    want = separate_costs(evaluators, *full, ControlMode.FULL, designs)
    assert np.all(want > 0.0)
    assert np.array_equal(stack.phi_batch(*full, ControlMode.FULL, designs), want)
    with pytest.raises(ValueError, match="unknown control mode"):
        stack.phi_batch(rises, duties, "sideways")
    other = fast_scenario(rows=6, cols=6).evaluator()
    with pytest.raises(ValueError, match="share the geometry's and the grid's size"):
        CostEvaluator.stack([evaluators[0], other])


def count_ceiling_blocks(monkeypatch):
    """A list that gets, for each pass's ceiling stage at h = 0, the number
    of blocks it radiates."""
    seen = []
    ceilings = CostEvaluator._add_ceiling_terms

    def counted(self, total, h, *args):
        if h == 0:
            seen.append(len(total))
        return ceilings(self, total, h, *args)

    monkeypatch.setattr(CostEvaluator, "_add_ceiling_terms", counted)
    return seen


@pytest.mark.parametrize("mode", [ControlMode.DELTA, ControlMode.COLWISE_DELTA])
def test_limit_bounds_only_the_blocks_that_reach_it(fast_scenario, mode, monkeypatch):
    # q > 1 (delta) and q = 1 (column-wise), on one evaluator and on a stack
    # whose second design has a notch: a block whose cost is below its limit
    # costs exactly, one at or above it returns a value in [limit, cost]
    evaluators = [fast_scenario(mode=mode, rows=6, cols=4, theta_inc_deg=theta).evaluator()
                  for theta in (20.0, 50.0)]
    evaluators[1] = notched(evaluators[1])
    stack = CostEvaluator.stack(evaluators)
    codec = ModeCodec(mode=mode, rows=6, cols=4)
    rises, duties = codec.blocks(np.random.default_rng(14).random((12, codec.dim)))
    designs = np.repeat([0, 1], 6)
    seen = count_ceiling_blocks(monkeypatch)
    for ev, rows in ((evaluators[0], ()), (stack, (designs,))):
        cost = ev.phi_batch(rises, duties, mode, *rows)
        assert np.all(cost > 0.0)
        lone = np.where(np.arange(12) == 5, np.inf, 0.0)
        mixed = np.choose(np.arange(12) % 4, [0.5 * cost, cost, 2.0 * cost, np.full(12, np.inf)])
        for limit in (0.5 * cost, cost, 2.0 * cost, np.full(12, np.inf), mixed, lone):
            got = ev.phi_batch(rises, duties, mode, *rows, limit=limit)
            below = cost < limit
            assert np.array_equal(got < limit, below)
            assert np.array_equal(got[below], cost[below])
            assert np.all((limit[~below] <= got[~below]) & (got[~below] <= cost[~below]))
        # a lone live block radiates alone, a lone row paired when q = 1
        seen.clear()
        got = ev.phi_batch(rises, duties, mode, *rows, limit=lone)
        assert seen == [1] and got[5] == cost[5]
        # no live block: nothing is radiated, and each returns its point terms
        seen.clear()
        bound = ev.phi_batch(rises, duties, mode, *rows, limit=np.zeros(12))
        assert seen == [] and np.all(bound <= cost) and np.any(bound < cost)
        # the limit is sliced with the blocks when the designs take a pass each
        want = ev.phi_batch(rises, duties, mode, *rows, limit=mixed)
        with monkeypatch.context() as m:
            m.setattr(synthesis, "PASS_COLUMNS", codec.control_shape[1])
            assert np.array_equal(ev.phi_batch(rises, duties, mode, *rows, limit=mixed), want)


def test_phi_batch_checks_the_limit():
    ev = columnwise_evaluator()
    mode = ControlMode.COLWISE_DELTA
    blocks = np.full((2, 3, 5, 1), 0.25)
    for bad in (np.zeros(2), np.zeros((3, 1)), np.zeros(3, dtype=int),
                np.array([0.0, np.nan, 1.0])):
        with pytest.raises(ValueError, match="give each of the 3 blocks a non-NaN float"):
            ev.phi_batch(*blocks, mode, limit=bad)
    # +inf bounds nothing
    assert np.array_equal(ev.phi_batch(*blocks, mode, limit=np.full(3, np.inf)),
                          ev.phi_batch(*blocks, mode))


@pytest.mark.parametrize("seeds", [[(7,)], [(1, 2), (3, 4)]])
def test_bounded_search_equals_the_exact_search(fast_scenario, seeds):
    # one design, and 2 designs x 2 seeds: an objective that forwards the
    # limit and one that drops it find the same bests by the same path
    sc = fast_scenario(iterations=30)
    pso = replace(sc.pso, stagnation_window=8, stagnation_rtol=0.05)
    evaluators = [replace(sc, theta_inc_deg=a).evaluator() for a in (30.0, 40.0)[:len(seeds)]]
    stack = CostEvaluator.stack(evaluators) if len(seeds) > 1 else evaluators[0]
    codec = ModeCodec(mode=sc.mode, rows=6, cols=6)
    init = np.array([conjugate_guess(ev, codec) for ev in evaluators])

    def bounded(x, designs, limit):
        rows = (np.repeat(designs, pso.swarm_size),) if len(seeds) > 1 else ()
        return stack.phi_batch(*codec.blocks(x), sc.mode, *rows, limit=limit)

    def exact(x, designs, limit):
        return bounded(x, designs, None)

    got, want = (minimize_swarms(f, codec.dim, pso, seeds, codec.dim // 2, init)
                 for f in (bounded, exact))
    stops = set()
    for got_runs, want_runs in zip(got, want):
        for g, w in zip(got_runs, want_runs):
            assert np.array_equal(g.best_x, w.best_x)
            assert g.best_value == w.best_value
            assert np.array_equal(g.history, w.history)
            assert (g.iterations, g.stop_reason) == (w.iterations, w.stop_reason)
            stops.add(g.stop_reason)
    if len(seeds) > 1:
        assert stops == {"stagnation", "max_iterations"}


def test_nan_point_terms_still_raise(fast_scenario, monkeypatch):
    # from the first bounded call on, block 2 has a NaN coefficient: its
    # point terms are NaN, so it is never live, and it returns NaN
    calls = []

    def poisoned(rises, duties, h):
        u = pulse_fourier_coefficients(rises, duties, h)
        calls.append(h)
        if len(calls) > 1:
            u[2, 0, 0] = np.nan
        return u

    monkeypatch.setattr(synthesis, "pulse_fourier_coefficients", poisoned)
    sc = fast_scenario(iterations=5)
    with pytest.raises(ValueError, match=r"non-finite cost nan for particle 2"):
        pso_optimize([sc.evaluator()], sc.mode, sc.pso)
    assert len(calls) == 2


def test_bounded_search_radiates_few_ceilings(fast_scenario, monkeypatch):
    # on a delta design like the flagship's, most particles cannot beat
    # their best by the point terms alone, so the ceiling stage sees few of
    # the blocks phi_batch scores
    scored = []
    score = CostEvaluator.phi_batch

    def counted(self, rises, *args, **kwargs):
        scored.append(rises.shape[0])
        return score(self, rises, *args, **kwargs)

    monkeypatch.setattr(CostEvaluator, "phi_batch", counted)
    seen = count_ceiling_blocks(monkeypatch)
    sc = fast_scenario(iterations=60)
    pso_optimize([sc.evaluator()], sc.mode, sc.pso)
    # the initial swarm has no limit; a call with no live block radiates none
    assert len(scored) == 61 and seen[0] == scored[0] and len(seen) < 61
    assert sum(seen[1:]) < 0.5 * sum(scored[1:])


@pytest.mark.parametrize("mode", [ControlMode.FULL, ControlMode.COLWISE])
def test_power_on_its_ceiling_adds_exactly_zero(ideal, mode):
    # Only column 0 radiates h = 1 (the others have duty 0), so a u-row's
    # bound is tight at v = 0, where |R| peaks. There a ceiling at the
    # node's power as the cost computes it adds exactly 0, and one ulp lower
    # exactly the ulp's weight: the bound's slack never skips a violated row.
    geom = EmsGeometry(rows=4, cols=4)
    grid = DirectionGrid.uniform(33)
    w = grid.cell_weight
    assert w == 2.0**-8  # phi / w is exact
    inc = PlaneWaveIncidence(theta_deg=0.0)
    iv = grid.nearest_index(0.0, 0.0)[1]
    codec = ModeCodec(mode=mode, rows=4, cols=4)
    rng = np.random.default_rng(8)
    for iu in range(9, 24, 2):
        rises, duties = codec.blocks(rng.random((1, codec.dim)))
        duties[:, :, 1:] = 0.0

        def phi(level):
            upper = np.full((2,) + grid.shape, np.inf)
            upper[1, iu, iv] = level
            ev = CostEvaluator(geom, ideal, inc, upper_only_masks(geom, inc, grid, upper), 1e-6)
            return ev.phi_batch(rises, duties, mode)[0]

        power = phi(0.0) / w
        sched = codec.decode(np.concatenate([rises.ravel(), duties.ravel()]), 1e-6)
        dense = FieldEngine(geom, grid).pattern(sched, ideal, inc, 1).power[iu, iv]
        assert power == pytest.approx(dense, rel=1e-12)
        assert phi(power) == 0.0
        below = np.nextafter(power, 0.0)
        assert phi(below) == (power - below) * w


def sphere(x):
    return np.sum((2.0 * np.asarray(x) - 1.0) ** 2, axis=1)


def one_swarm(objective, dim, config, n_wrap=0, init=None):
    """minimize_swarms on one design with one seed, config.seed, and a
    start row init; objective scores (swarm, dim) positions alone."""
    [[res]] = minimize_swarms(lambda x, designs, limit: objective(x), dim, config,
                              [(config.seed,)], n_wrap,
                              None if init is None else np.asarray(init)[None])
    return res


def test_pso_solves_sphere():
    res = one_swarm(sphere, 10, PsoConfig(seed=3))
    assert res.best_value < 1e-3
    assert res.best_x.shape == (10,)
    assert np.all(np.abs(res.best_x - 0.5) < 0.05)


def test_pso_deterministic():
    cfg = PsoConfig(swarm_size=12, iterations=60, seed=11, stagnation_window=0)
    a = one_swarm(sphere, 6, cfg)
    b = one_swarm(sphere, 6, cfg)
    assert np.array_equal(a.best_x, b.best_x)
    assert a.best_value == b.best_value
    assert np.array_equal(a.history, b.history)


def _minimize_per_particle(objective, dim, config, n_wrap, init=None):
    """One swarm updated one particle at a time with two rng.random(dim)
    draws each, its first n_wrap coordinates periodic: the reference for
    minimize_swarms' array update."""
    wrap_mask = np.arange(dim) < n_wrap
    reflect_mask = ~wrap_mask
    rng = np.random.default_rng(config.seed)
    c = config.swarm_size
    x = rng.random((c, dim))
    if init is not None:
        x[0] = np.where(wrap_mask, np.mod(init, 1.0), np.clip(init, 0.0, 1.0))
        x[0][wrap_mask & (x[0] == 1.0)] = 0.0
    vel = np.zeros((c, dim))
    f = objective(x)
    pbest, pbest_f = x.copy(), f.copy()
    ig = int(np.argmin(pbest_f))
    gbest, gbest_f = pbest[ig].copy(), float(pbest_f[ig])
    history = [gbest_f]
    clamp = config.velocity_clamp
    for it in range(1, config.iterations + 1):
        for i in range(c):
            r1 = rng.random(dim)
            r2 = rng.random(dim)
            dp = pbest[i] - x[i]
            dg = gbest - x[i]
            if wrap_mask.any():
                dp[wrap_mask] = (dp[wrap_mask] + 0.5) % 1.0 - 0.5
                dg[wrap_mask] = (dg[wrap_mask] + 0.5) % 1.0 - 0.5
            vel[i] = (config.inertia * vel[i]
                      + config.cognitive * r1 * dp
                      + config.social * r2 * dg)
        np.clip(vel, -clamp, clamp, out=vel)
        x = x + vel
        if wrap_mask.any():
            xw = x[:, wrap_mask] % 1.0
            # np.mod takes a negative x within half an ulp of 0 to 1.0
            xw[xw == 1.0] = 0.0
            x[:, wrap_mask] = xw
        if reflect_mask.any():
            xr = x[:, reflect_mask]
            vr = vel[:, reflect_mask]
            low = xr < 0.0
            xr[low] = -xr[low]
            vr[low] = -vr[low]
            high = xr > 1.0
            xr[high] = 2.0 - xr[high]
            vr[high] = -vr[high]
            x[:, reflect_mask] = xr
            vel[:, reflect_mask] = vr
        f = objective(x)
        improved = f < pbest_f
        pbest[improved] = x[improved]
        pbest_f[improved] = f[improved]
        ig = int(np.argmin(pbest_f))
        if pbest_f[ig] < gbest_f:
            gbest, gbest_f = pbest[ig].copy(), float(pbest_f[ig])
        history.append(gbest_f)
        w = config.stagnation_window
        if w > 0 and it >= w:
            prev = history[-w - 1]
            if prev - gbest_f <= config.stagnation_rtol * max(abs(prev), 1e-300):
                break
    return gbest, np.asarray(history)


@pytest.mark.parametrize("seed", [1, 2, 3, 4, 5])
def test_pso_array_update_matches_per_particle_loop(seed):
    dim = 10
    n_wrap = dim // 2
    wrap = np.arange(dim) < n_wrap
    target = np.linspace(0.05, 0.95, dim)

    def objective(x):
        dx = x - target
        return (np.sum(1.0 - np.cos(2.0 * np.pi * dx[:, wrap]), axis=1)
                + np.sum(dx[:, ~wrap] ** 2, axis=1))

    cfg = PsoConfig(swarm_size=7, iterations=120, seed=seed, stagnation_window=40)
    init = np.full(dim, 0.3) if seed % 2 else None
    res = one_swarm(objective, dim, cfg, n_wrap=n_wrap, init=init)
    best_x, history = _minimize_per_particle(objective, dim, cfg, n_wrap, init=init)
    assert np.array_equal(res.best_x, best_x)
    assert np.array_equal(res.history, history)


def test_pso_update_rounds_as_the_per_particle_loop():
    # with coefficients that are not powers of 2, (c * r) * d and c * (r * d)
    # round differently; the in-place update keeps the reference's order
    dim = 6
    cfg = PsoConfig(swarm_size=8, iterations=80, seed=4, stagnation_window=0,
                    inertia=0.7, cognitive=1.7, social=1.3, velocity_clamp=0.3)

    def objective(x):
        return np.sum(np.abs(x - np.linspace(0.1, 0.9, dim)), axis=1)

    res = one_swarm(objective, dim, cfg, n_wrap=3)
    best_x, history = _minimize_per_particle(objective, dim, cfg, 3)
    assert np.array_equal(res.best_x, best_x)
    assert np.array_equal(res.history, history)


def test_torus_wrap_stays_below_one():
    # a rise of 0.3 moved by -nextafter(0.3, 1) lands half an ulp below 0,
    # where np.mod gives exactly 1.0, a rise the cost rejects
    x = np.array([[0.3 - np.nextafter(0.3, 1.0), 0.3 - np.nextafter(0.3, 1.0)]])
    assert np.mod(x[0, 0], 1.0) == 1.0
    _wrap_unit(x[:, :1])
    assert np.array_equal(x, [[0.0, 0.3 - np.nextafter(0.3, 1.0)]])
    assert np.array_equal(_wrap_unit(np.array([1.25, -0.25, 0.0])), [0.25, 0.75, 0.0])
    # x - floor(x) is np.mod(x, 1.0) bit for bit, signed zeros included, on
    # the edges of the range an update reaches, [-0.5, 1.5)
    tiny = np.nextafter(0.0, 1.0)
    edges = np.array([-0.5, -tiny, -0.0, 0.0, np.nextafter(1.0, 0.0), 1.0,
                      np.nextafter(1.5, 0.0), x[0, 1]])
    mod = np.mod(edges, 1.0)
    assert (edges - np.floor(edges)).tobytes() == mod.tobytes()
    assert _wrap_unit(edges.copy()).tobytes() == np.where(mod == 1.0, 0.0, mod).tobytes()
    # the same edge value as the start of a periodic coordinate
    seen = []

    def record(x):
        seen.append(x.copy())
        return np.zeros(x.shape[0]) + 1.0

    cfg = PsoConfig(swarm_size=3, iterations=2, seed=1, stagnation_window=0)
    one_swarm(record, 2, cfg, n_wrap=1,
              init=np.array([0.3 - np.nextafter(0.3, 1.0), 0.5]))
    assert seen[0][0, 0] == 0.0
    assert all(np.all((x[:, 0] >= 0.0) & (x[:, 0] < 1.0)) for x in seen)
    # n_wrap counts leading coordinates, 0 to dim
    for bad in (-1, 3, 1.5, True):
        with pytest.raises(ValueError, match=r"n_wrap must be an integer in \[0, 2\]"):
            one_swarm(record, 2, cfg, n_wrap=bad)


def test_pso_optimize_scores_each_swarm_in_one_call(monkeypatch):
    # the benchmark counts cost evaluations from phi_batch's first array
    calls = []
    score = CostEvaluator.phi_batch

    def counted(self, *args, **kwargs):
        calls.append((args, kwargs))
        return score(self, *args, **kwargs)

    monkeypatch.setattr(CostEvaluator, "phi_batch", counted)
    ev = steered_evaluator()
    cfg = PsoConfig(swarm_size=6, iterations=8, seed=3, stagnation_window=0)
    [[res]] = pso_optimize([ev], ControlMode.DELTA, cfg)
    assert len(calls) == res.iterations + 1
    for args, kwargs in calls:
        assert args[0].shape == (6, 2, 4) and args[1].shape == (6, 2, 4)
        assert (args[2:] or (kwargs["mode"],)) == (ControlMode.DELTA,)


def test_pso_optimize_scores_every_design_in_one_call(monkeypatch, fast_scenario):
    # 2 designs x 2 seeds: one phi_batch call per iteration, on a stack of
    # the evaluators, with every running swarm, each block's design and, from
    # the second call on, each particle's personal best as its limit
    calls = []
    score = CostEvaluator.phi_batch

    def counted(self, *args, **kwargs):
        # the limit is a view of the search's bests, which move after the call
        kwargs = {k: None if v is None else v.copy() for k, v in kwargs.items()}
        calls.append((args, kwargs, score(self, *args, **kwargs)))
        return calls[-1][2]

    monkeypatch.setattr(CostEvaluator, "phi_batch", counted)
    sc = fast_scenario(swarm=5, iterations=6)
    evaluators = [replace(sc, theta_inc_deg=a).evaluator() for a in (30.0, 40.0)]
    runs = pso_optimize(evaluators, ControlMode.DELTA, sc.pso, [(1, 2), (3, 4)])
    assert [[r.iterations for r in rs] for rs in runs] == [[6, 6], [6, 6]]
    assert len(calls) == 6 + 1
    bests = None
    for args, kwargs, costs in calls:
        assert kwargs.keys() == {"limit"}
        rises, duties, mode, designs = args
        assert rises.shape == duties.shape == (20, 3, 6)
        assert mode is ControlMode.DELTA
        assert np.array_equal(designs, np.repeat([0, 0, 1, 1], 5))
        if bests is None:
            assert kwargs["limit"] is None
            bests = costs
        else:
            assert np.array_equal(kwargs["limit"], bests)
            bests = np.minimum(bests, costs)


@pytest.mark.parametrize("mode", [ControlMode.DELTA, ControlMode.COLWISE_DELTA])
def test_pso_optimize_equals_runs_alone_at_any_swarm_size(fast_scenario, mode):
    # a swarm of 7 stacks batches of 7, 14 and 21 blocks
    sc = fast_scenario(mode=mode, swarm=7, iterations=25)
    evaluators = [replace(sc, theta_inc_deg=a).evaluator() for a in (30.0, 40.0)]
    seeds = [(1, 2, 3), (4, 5)]
    together = pso_optimize(evaluators, mode, sc.pso, seeds)
    for ev, ev_seeds, results in zip(evaluators, seeds, together):
        for seed, res in zip(ev_seeds, results):
            [[alone]] = pso_optimize([ev], mode, sc.pso, [(seed,)])
            assert np.array_equal(res.history, alone.history)
            assert np.array_equal(res.schedule.rise, alone.schedule.rise)
            assert np.array_equal(res.schedule.duty, alone.schedule.duty)


def test_pso_optimize_releases_the_cost_buffers(fast_scenario):
    # the CLI writes its patterns after the search, where the process peaks;
    # the search's buffers must not be held there: a search on several
    # designs scores on a stack, whose buffers are its own and go with it
    sc = fast_scenario(iterations=5)
    evaluators = [replace(sc, theta_inc_deg=a).evaluator() for a in (30.0, 40.0)]
    pso_optimize(evaluators, ControlMode.DELTA, sc.pso)
    assert [ev._buffers for ev in evaluators] == [{}, {}]
    first = evaluators[0]
    first.phi_batch(*np.random.default_rng(0).random((2, 4, 3, 6)), ControlMode.DELTA)
    stack = CostEvaluator.stack(evaluators)
    assert first._buffers and stack._buffers == {}
    stack.phi_batch(*np.random.default_rng(1).random((2, 4, 3, 6)), ControlMode.DELTA,
                    np.array([0, 0, 1, 1]))
    assert stack._buffers and stack._buffers is not first._buffers
    assert all(a is not b for a in stack._buffers.values() for b in first._buffers.values())


def test_pso_optimize_leaves_no_evaluator_alive(fast_scenario):
    # with the cycle collector off, the evaluators of a search, one alone or
    # several on a stack, are freed once the caller drops them: neither an
    # evaluator nor a stack refers to itself, so the search's tables and
    # buffers are not held while the CLI writes its patterns
    sc = fast_scenario(iterations=5)
    gc.disable()
    try:
        for angles in ((30.0,), (30.0, 40.0)):
            evaluators = [replace(sc, theta_inc_deg=a).evaluator() for a in angles]
            pso_optimize(evaluators, ControlMode.DELTA, sc.pso)
            alive = [weakref.ref(ev) for ev in evaluators]
            del evaluators
            assert [ref() for ref in alive] == [None] * len(angles)
    finally:
        gc.enable()


def test_minimize_swarms_equal_separate_runs():
    def objective(x):
        # zero inside a small ball, quantized outside it, so that swarms
        # reach zero, stall or run out of iterations at different times
        d = np.sum((2.0 * x - 1.0) ** 2, axis=1)
        return np.where(d < 0.02, 0.0, np.ceil(d * 20.0) / 20.0)

    def shifted(x):
        return np.sum(np.abs(x - 0.3), axis=1)

    dim = 4
    cfg = PsoConfig(swarm_size=6, iterations=12, stagnation_window=8)
    objectives = (objective, shifted)

    def both(x, designs, limit):
        # each particle scored by its swarm's design alone; a particle that
        # cannot beat its best returns its limit, the lowest value allowed
        rows = np.repeat(designs, cfg.swarm_size)
        f = np.where(rows == 0, objective(x), shifted(x))
        return f if limit is None else np.minimum(f, limit)

    seeds = ((1, 2, 6), (4, 5))
    [runs, _] = minimize_swarms(both, dim, cfg, seeds, n_wrap=2)
    assert [(r.iterations, r.stop_reason) for r in runs] == [
        (7, "zero_cost"), (12, "max_iterations"), (11, "stagnation")]
    for init in (None, np.array([np.full(dim, 0.9), [1.7, -0.2, 1.3, 0.4]])):
        runs = minimize_swarms(both, dim, cfg, seeds, n_wrap=2, init=init)
        for d, (f, design_seeds) in enumerate(zip(objectives, seeds)):
            for seed, got in zip(design_seeds, runs[d]):
                want = one_swarm(f, dim, replace(cfg, seed=seed), n_wrap=2,
                                 init=None if init is None else init[d])
                assert np.array_equal(got.best_x, want.best_x)
                assert got.best_value == want.best_value
                assert np.array_equal(got.history, want.history)
                assert (got.iterations, got.stop_reason) == (want.iterations, want.stop_reason)
    assert minimize_swarms(both, dim, cfg, []) == []
    with pytest.raises(ValueError, match="seed"):
        minimize_swarms(both, dim, cfg, [()])
    # one objective serves every design, so the designs are counted by the
    # seed lists, and init must give one row per seed list
    with pytest.raises(ValueError, match=r"init must have shape \(1, 4\)"):
        minimize_swarms(both, dim, cfg, [(1,)], init=np.zeros((2, dim)))
    with pytest.raises(ValueError, match=r"init must have shape \(2, 4\)"):
        minimize_swarms(both, dim, cfg, seeds, init=np.zeros(dim))


def test_minimize_swarms_scores_running_swarms_in_one_call():
    batches, limits = [], []

    def record(x, designs, limit):
        batches.append((tuple(designs.tolist()), x.shape[0]))
        limits.append(None if limit is None else limit.tolist())
        return np.ones(x.shape[0])

    # every swarm stalls at once after 5 iterations; zero iterations run none
    minimize_swarms(record, 3,
                    PsoConfig(swarm_size=4, iterations=50, stagnation_window=5), [(1, 2, 3)])
    assert batches == [((0, 0, 0), 12)] * 6
    # the initial swarm has no limit, then each particle's best bounds it
    assert limits == [None] + [[1.0] * 12] * 5
    batches.clear()
    # one call per iteration for every design, each swarm marked with its design
    minimize_swarms(record, 3,
                    PsoConfig(swarm_size=4, iterations=50, stagnation_window=5), [(1, 2), (3,)])
    assert batches == [((0, 0, 1), 12)] * 6
    batches.clear()
    limits.clear()
    runs = minimize_swarms(record, 3, PsoConfig(swarm_size=4, iterations=0), [(1, 2)])
    assert batches == [((0, 0), 8)]
    assert limits == [None]
    assert [(r.iterations, r.stop_reason) for r in runs[0]] == [(0, "max_iterations")] * 2


def test_minimize_swarms_scores_only_the_running_swarms():
    # design 0's swarm reaches zero cost at once; from then on each call
    # holds design 1's swarms alone
    batches, limits = [], []

    def record(x, designs, limit):
        batches.append(tuple(designs.tolist()))
        limits.append(None if limit is None else limit.shape)
        rows = np.repeat(designs, 3)
        return np.where(rows == 0, 0.0, 1.0 + x[:, 0])

    minimize_swarms(record, 2, PsoConfig(swarm_size=3, iterations=4, stagnation_window=0),
                    [(1,), (2, 3)])
    assert batches == [(0, 1, 1), (0, 1, 1)] + [(1, 1)] * 3
    # the limits hold the running particles' bests, flattened as x
    assert limits == [None, (9,)] + [(6,)] * 3


def test_pso_history_monotone_and_initial_entry():
    cfg = PsoConfig(swarm_size=9, iterations=40, seed=5, stagnation_window=0)
    res = one_swarm(sphere, 4, cfg)
    assert np.all(np.diff(res.history) <= 0.0)
    assert res.history.size == 41 and res.iterations == 40
    # entry 0 is the best cost of the freshly drawn swarm
    x0 = np.random.default_rng(5).random((9, 4))
    assert res.history[0] == float(np.min(sphere(x0)))


def test_pso_stops_on_zero_cost():
    res = one_swarm(lambda x: np.zeros(x.shape[0]), 3,
                    PsoConfig(swarm_size=4, iterations=50, seed=1))
    assert res.stop_reason == "zero_cost"
    assert res.iterations == 1
    assert res.best_value == 0.0


def test_pso_stops_on_stagnation():
    res = one_swarm(lambda x: np.ones(x.shape[0]), 3,
                    PsoConfig(swarm_size=4, iterations=500, seed=1, stagnation_window=10))
    assert res.stop_reason == "stagnation"
    assert res.iterations == 10


def test_pso_runs_out_of_iterations():
    res = one_swarm(sphere, 4, PsoConfig(swarm_size=4, iterations=3, seed=2,
                                         stagnation_window=0))
    assert res.stop_reason == "max_iterations"
    assert res.iterations == 3


def test_pso_rejects_non_finite_costs():
    def bad(x):
        f = np.sum(x, axis=1)
        f[2] = np.nan
        return f

    with pytest.raises(ValueError, match=r"^non-finite cost nan for particle 2$"):
        one_swarm(bad, 3, PsoConfig(swarm_size=5, iterations=2, seed=0))
    with pytest.raises(ValueError, match="one value per particle"):
        one_swarm(lambda x: np.zeros(x.shape[0] + 1), 3,
                  PsoConfig(swarm_size=5, iterations=1, seed=0))


def test_pso_init_injection():
    cfg = PsoConfig(swarm_size=6, iterations=0, seed=9)
    with pytest.raises(ValueError, match=r"init must have shape \(1, 5\)"):
        one_swarm(sphere, 5, cfg, init=np.zeros(4))
    # an exact optimum placed on particle 0 survives as the reported best
    res = one_swarm(sphere, 5, cfg, init=np.full(5, 0.5))
    assert res.best_value == 0.0
    assert np.array_equal(res.best_x, np.full(5, 0.5))


def test_pso_init_consumes_no_draws():
    seen = []

    def record(x):
        seen.append(x.copy())
        return sphere(x)

    cfg = PsoConfig(swarm_size=6, iterations=1, seed=9, stagnation_window=0)
    one_swarm(record, 5, cfg)
    plain_x0, plain_x1 = seen
    seen.clear()
    one_swarm(record, 5, cfg, init=np.full(5, 0.25))
    init_x0, _ = seen
    # particle 0 was replaced by the init; the rest of the swarm is untouched
    assert np.array_equal(init_x0[1:], plain_x0[1:])
    assert np.array_equal(init_x0[0], np.full(5, 0.25))
    assert not np.array_equal(plain_x0[0], init_x0[0])


def test_pso_config_validation():
    with pytest.raises(ValueError):
        PsoConfig(swarm_size=0)
    with pytest.raises(ValueError):
        PsoConfig(iterations=-1)
    with pytest.raises(ValueError):
        PsoConfig(velocity_clamp=0.0)
    with pytest.raises(ValueError, match="stagnation_window"):
        PsoConfig(stagnation_window=-3)
    for name in ("inertia", "cognitive", "social", "stagnation_rtol"):
        for bad in (np.nan, np.inf, -1.0):
            with pytest.raises(ValueError, match=name):
                PsoConfig(**{name: bad})
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError, match="velocity_clamp"):
            PsoConfig(velocity_clamp=bad)
    with pytest.raises(ValueError, match="empty"):
        one_swarm(sphere, 0, PsoConfig())


SIZES = {
    "geometry.rows": lambda n, make: EmsGeometry(rows=n, cols=4),
    "geometry.cols": lambda n, make: EmsGeometry(rows=4, cols=n),
    "pso.swarm_size": lambda n, make: PsoConfig(swarm_size=n),
    "pso.iterations": lambda n, make: PsoConfig(iterations=n),
    "pso.stagnation_window": lambda n, make: PsoConfig(stagnation_window=n),
    "codec.rows": lambda n, make: ModeCodec(mode=ControlMode.FULL, rows=n, cols=4),
    "codec.cols": lambda n, make: ModeCodec(mode=ControlMode.FULL, rows=4, cols=n),
    "scenario.synth_grid_n": lambda n, make: make(synth_grid_n=n),
    "grid.uniform": lambda n, make: DirectionGrid.uniform(n),
}


@pytest.mark.parametrize("size", SIZES)
def test_sizes_must_be_integers(size, fast_scenario):
    build = SIZES[size]
    # NaN is below no bound, so only the type check stops it (a NaN
    # stagnation_window would turn the stagnation stop off)
    for bad in (2.5, 4.0, np.nan, True, "4"):
        with pytest.raises(ValueError, match="must be an integer"):
            build(bad, fast_scenario)
    build(np.int64(4), fast_scenario)
    build(4, fast_scenario)


def test_mode_codec_dims_and_wrap():
    p, q = 6, 4
    dims = {ControlMode.FULL: 2 * p * q, ControlMode.DELTA: p * q,
            ControlMode.COLWISE: 2 * p, ControlMode.COLWISE_DELTA: p}
    for mode, dim in dims.items():
        codec = ModeCodec(mode=mode, rows=p, cols=q)
        assert codec.dim == dim
    with pytest.raises(ConstraintError, match="even row count"):
        ModeCodec(mode=ControlMode.DELTA, rows=5, cols=4)


def test_mode_codec_delta_matches_constraint_helper(rng):
    codec = ModeCodec(mode=ControlMode.DELTA, rows=6, cols=4)
    x = rng.random(codec.dim)
    sched = codec.decode(x, 1e-6)
    half_rise = x[: codec.dim // 2].reshape(3, 4)
    half_duty = x[codec.dim // 2 :].reshape(3, 4)
    # reference: row P-p+1 copies row p's duty, its rise half a period later
    assert np.array_equal(sched.rise, np.concatenate([half_rise, mirror_rise(half_rise)[::-1]]))
    assert np.array_equal(sched.duty, np.concatenate([half_duty, half_duty[::-1]]))


def test_mode_codec_colwise_ties_columns(rng):
    codec = ModeCodec(mode=ControlMode.COLWISE, rows=6, cols=5)
    sched = codec.decode(rng.random(codec.dim), 1e-6)
    assert np.all(sched.rise == sched.rise[:, :1])
    assert np.all(sched.duty == sched.duty[:, :1])
    cd = ModeCodec(mode=ControlMode.COLWISE_DELTA, rows=6, cols=5)
    sched2 = cd.decode(rng.random(cd.dim), 1e-6)
    assert np.all(sched2.duty == sched2.duty[:, :1])
    # mirrored rows: duty copied, rise shifted by half a period
    assert np.array_equal(sched2.duty[5], sched2.duty[0])
    assert np.array_equal(sched2.rise[5], mirror_rise(sched2.rise[0]))


def test_mode_codec_round_trip(rng):
    for mode in ControlMode:
        codec = ModeCodec(mode=mode, rows=6, cols=4)
        x = rng.random(codec.dim)
        rise, duty = codec.decode_batch(x)
        assert np.array_equal(codec.encode(rise[0], duty[0]), x)
    codec = ModeCodec(mode=ControlMode.FULL, rows=6, cols=4)
    with pytest.raises(ValueError, match="expected vectors of length"):
        codec.decode_batch(np.zeros((2, 7)))
    with pytest.raises(ValueError, match="shape does not match"):
        codec.encode(np.zeros((3, 4)), np.zeros((3, 4)))


def steered_evaluator():
    geom = EmsGeometry(rows=4, cols=4)
    grid = DirectionGrid.uniform(21)
    inc = PlaneWaveIncidence(theta_deg=40.0)
    beam_u = -np.sin(np.radians(20.0))
    states = ReflectionStates.ideal()
    masks = build_masks(grid, geom, inc, states, MaskParams(), beam_u)
    return CostEvaluator(geom, states, inc, masks, 1e-6)


def test_pso_optimize_respects_delta_structure():
    ev = steered_evaluator()
    cfg = PsoConfig(swarm_size=6, iterations=8, seed=3, stagnation_window=0)
    [[res]] = pso_optimize([ev], ControlMode.DELTA, cfg)
    sched = res.schedule
    assert np.array_equal(sched.duty, sched.duty[::-1])
    assert np.array_equal(sched.rise[2:], mirror_rise(sched.rise[:2])[::-1])
    # batch-1 re-evaluation agrees to float precision (matmul order differs
    # between batch shapes, so bit-exact equality is not guaranteed)
    assert res.phi == pytest.approx(ev.phi(sched), rel=1e-12)
    assert res.seed == 3
    assert res.history.size == res.iterations + 1


def test_conjugate_guess_is_deterministic_and_in_range():
    ev = steered_evaluator()
    codec = ModeCodec(mode=ControlMode.DELTA, rows=4, cols=4)
    g1 = conjugate_guess(ev, codec)
    g2 = conjugate_guess(ev, codec)
    assert np.array_equal(g1, g2)
    assert g1.shape == (codec.dim,)
    assert np.all((g1 >= 0.0) & (g1 <= 1.0))


def test_conjugate_guess_reuses_the_masks_reference():
    ev = steered_evaluator()
    codec = ModeCodec(mode=ControlMode.FULL, rows=4, cols=4)
    half = codec.dim // 2
    assert np.array_equal(conjugate_guess(ev, codec)[half:], ev.masks.beam_ref.duty.ravel())
    # the guess follows whatever reference the masks carry
    other = beam_reference(ev.geometry, ev.incidence, 0.3)
    masks = replace(ev.masks, beam_ref=other)
    ev2 = CostEvaluator(ev.geometry, ev.states, ev.incidence, masks, ev.period_s)
    assert np.array_equal(conjugate_guess(ev2, codec)[half:], other.duty.ravel())
    assert not np.array_equal(other.duty, ev.masks.beam_ref.duty)


def test_duty_driven_to_one_by_power_floor():
    # one cell, on state reflects fully, off state absorbs: carrier power is
    # duty^2 * pmax, so a 0.95 * pmax floor at broadside forces duty -> 1
    geom = EmsGeometry(rows=1, cols=1)
    grid = DirectionGrid.uniform(11)
    inc = PlaneWaveIncidence(theta_deg=0.0)
    states = ReflectionStates(gamma_on=np.eye(2), gamma_off=np.zeros((2, 2)))
    full = PulseSchedule(period_s=1e-6, rise=np.zeros((1, 1)), duty=np.ones((1, 1)))
    pmax = float(FieldEngine(geom, grid).pattern(full, states, inc, 0).power[5, 5])
    nu, nv = grid.shape
    masks = MaskSet(grid=grid, lower=np.zeros((2, nu, nv)),
                    upper=np.full((2, nu, nv), np.inf),
                    anchor_uv=np.array([[0.0, 0.0]]),
                    anchor_lower=np.array([[0.95 * pmax], [0.0]]),
                    anchor_upper=np.array([[np.inf], [np.inf]]),
                    beam_ref=beam_reference(geom, inc, 0.0, states.scalar_pair()))
    ev = CostEvaluator(geom, states, inc, masks, 1e-6)
    [[res]] = pso_optimize([ev], ControlMode.FULL,
                           PsoConfig(swarm_size=12, iterations=60, seed=3,
                                     stagnation_window=0))
    assert res.phi == 0.0
    assert res.schedule.duty[0, 0] >= 0.97
