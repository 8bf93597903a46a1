"""Scenario plumbing, monopulse ratios, matched sweeps, and localization."""

from dataclasses import replace

import numpy as np
import pytest

from tmems.codebook import Codebook, entry_from_schedule
from tmems.isac import (
    Scenario,
    build_codebook,
    codebook_digest,
    derive_seed,
    design_for_angle,
    localize,
    matched_sweep,
    measure_bs_ratio,
)
from tmems.modulation import (
    ConstraintError,
    ControlMode,
    PulseSchedule,
    ReflectionStates,
)
from tmems import isac
from tmems.synthesis import CostEvaluator, PsoConfig, SynthesisResult, pso_optimize

from conftest import random_schedule


def test_derive_seed_frozen_values():
    assert derive_seed(1234, -20.0, 0) == 2602339668869586187
    assert derive_seed(1234, -20.0, 1) == 14524116413741866133
    assert derive_seed(7, 40.0, 0) == 6628840880076394872


def test_derive_seed_properties():
    assert derive_seed(1, 10.0, 0) != derive_seed(1, 10.0, 1)
    assert derive_seed(1, 10.0, 0) != derive_seed(1, 10.001, 0)
    assert derive_seed(1, 10.0, 0) != derive_seed(2, 10.0, 0)
    # angle keying is by millidegree, not by float formatting
    assert derive_seed(1, 40, 0) == derive_seed(1, 40.0, 0)
    assert derive_seed(1, 40.0000001, 0) == derive_seed(1, 40.0, 0)


def test_scenario_validation(fast_scenario):
    for bad in (0.0, np.inf, np.nan):
        with pytest.raises(ValueError, match="period"):
            fast_scenario(period_s=bad)
    with pytest.raises(ValueError, match="phi_deg"):
        fast_scenario(phi_inc_deg=np.nan)
    with pytest.raises(ValueError, match="amplitude"):
        fast_scenario(amplitude_v_m=np.inf)
    with pytest.raises(ValueError, match="jones vector must be finite"):
        fast_scenario(jones=(np.nan, 0.0))
    with pytest.raises(ValueError, match="reflection angle"):
        fast_scenario(theta_refl_deg=90.0)
    with pytest.raises(ValueError, match="incidence angle"):
        fast_scenario(theta_inc_deg=-1.0)
    with pytest.raises(ValueError, match="grid"):
        fast_scenario(synth_grid_n=1)
    with pytest.raises(ConstraintError, match="even row count"):
        fast_scenario(mode=ControlMode.DELTA, rows=5)


def test_bs_u_is_signed(fast_scenario):
    assert fast_scenario(theta_refl_deg=-20.0).bs_u == pytest.approx(
        -np.sin(np.radians(20.0)))
    assert fast_scenario(theta_refl_deg=20.0).bs_u == pytest.approx(
        np.sin(np.radians(20.0)))
    assert fast_scenario(theta_refl_deg=0.0).bs_u == 0.0


def test_static_all_on_ratio_is_floored(fast_scenario):
    sc = fast_scenario()
    all_on = PulseSchedule(period_s=sc.period_s, rise=np.zeros((6, 6)),
                           duty=np.ones((6, 6)))
    ratio = measure_bs_ratio(sc, all_on)
    assert ratio.p_delta == 0.0
    assert ratio.floored
    assert ratio.xi == ratio.p_sigma / 1e-30


def test_xi_invariant_under_amplitude(fast_scenario, rng):
    sc1 = fast_scenario()
    sc2 = replace(sc1, amplitude_v_m=2.0)
    sched = random_schedule(rng, 6, 6, period_s=sc1.period_s)
    r1 = measure_bs_ratio(sc1, sched)
    r2 = measure_bs_ratio(sc2, sched)
    assert r2.p_sigma == pytest.approx(4.0 * r1.p_sigma, rel=1e-12)
    assert r2.xi == pytest.approx(r1.xi, rel=1e-9)


def test_noise_power_floors_the_ratio(fast_scenario, rng):
    sc = fast_scenario()
    sched = random_schedule(rng, 6, 6, period_s=sc.period_s)
    r0 = measure_bs_ratio(sc, sched)
    n = 3.0 * r0.p_delta + 1e-12
    rn = measure_bs_ratio(sc, sched, noise_power=n)
    assert rn.xi == pytest.approx((r0.p_sigma + n) / (r0.p_delta + n), rel=1e-12)
    assert not rn.floored
    for bad in (-1.0, np.nan, np.inf):
        with pytest.raises(ValueError, match="noise"):
            measure_bs_ratio(sc, sched, noise_power=bad)


def test_measure_accepts_explicit_incidence(fast_scenario, rng):
    # the incidence is the scenario's own: moving it moves the ratio
    sc = fast_scenario()
    sched = random_schedule(rng, 6, 6, period_s=sc.period_s)
    default = measure_bs_ratio(sc, sched)
    same = measure_bs_ratio(replace(sc, theta_inc_deg=sc.theta_inc_deg), sched)
    other = measure_bs_ratio(replace(sc, theta_inc_deg=10.0), sched)
    assert same == default
    assert other.xi != default.xi


def test_design_for_angle_best_of_repeats(fast_scenario):
    sc = fast_scenario(iterations=10)
    master = 99
    singles = []
    for rep in range(2):
        ev = replace(sc, theta_inc_deg=40.0).evaluator()
        cfg = replace(sc.pso, seed=derive_seed(master, 40.0, rep))
        [[single]] = pso_optimize([ev], sc.mode, cfg)
        singles.append(single)
    [best] = design_for_angle(sc, [40.0], master, repeats=2)
    winner = min(singles, key=lambda s: s.phi)
    assert best.phi == winner.phi
    assert best.seed == winner.seed
    assert np.array_equal(best.history, winner.history)
    assert design_for_angle(sc, [], master, repeats=2) == []
    with pytest.raises(ValueError, match="repeats"):
        design_for_angle(sc, [40.0], master, repeats=0)
    with pytest.raises(ValueError, match="vary must be"):
        design_for_angle(sc, [40.0], master, vary="angle")


def test_design_for_angle_ties_keep_earliest_repeat(fast_scenario, monkeypatch):
    sc = fast_scenario(iterations=2)
    calls = []

    def fake_optimize(evaluators, mode, config, seeds):
        calls.append([list(s) for s in seeds])
        return [[SynthesisResult(schedule=None, phi=0.5, history=np.array([0.5]),
                                 iterations=0, stop_reason="zero_cost", seed=seed)
                 for seed in s] for s in seeds]

    monkeypatch.setattr(isac, "pso_optimize", fake_optimize)
    best = design_for_angle(sc, [40.0, 20.0], 5, repeats=3)
    assert calls == [[[derive_seed(5, a, rep) for rep in range(3)] for a in (40.0, 20.0)]]
    assert [b.seed for b in best] == [calls[0][0][0], calls[0][1][0]]


def test_design_runs_its_repeats_in_one_loop(fast_scenario, monkeypatch):
    # a swarm stops when its best cost has moved less than half in 4
    # iterations, so the repeats stop at different iterations
    sc = fast_scenario(iterations=40)
    sc = replace(sc, pso=replace(sc.pso, stagnation_window=4, stagnation_rtol=0.5))
    calls = []
    score = CostEvaluator.phi_batch

    def counted(self, rises, *args, **kwargs):
        # a lone design's evaluator is called without designs
        designs = args[2].tolist() if len(args) > 2 else [0] * rises.shape[0]
        calls.append((self, rises.shape[0], designs))
        return score(self, rises, *args, **kwargs)

    runs = []
    optimize = isac.pso_optimize

    def recorded(evaluators, *args, **kwargs):
        runs.append((evaluators, optimize(evaluators, *args, **kwargs)))
        return runs[-1][1]

    monkeypatch.setattr(CostEvaluator, "phi_batch", counted)
    monkeypatch.setattr(isac, "pso_optimize", recorded)
    swarm = sc.pso.swarm_size

    def check_one_loop():
        [(evaluators, results)] = runs
        iterations = [[res.iterations for res in reps] for reps in results]
        # per iteration, one cost call on the running swarms of every
        # design, in design order, each block marked with its design
        want = [[d for d, its in enumerate(iterations) for it in its if it >= i
                 for _ in range(swarm)]
                for i in range(max(map(max, iterations)) + 1)]
        assert [n for _, n, _ in calls] == [len(designs) for designs in want]
        assert [designs for _, _, designs in calls] == want
        # by the design's own evaluator when it is alone, else by one stack
        scorers = {id(ev) for ev, _, _ in calls}
        assert len(scorers) == 1
        assert (calls[0][0] is evaluators[0]) == (len(evaluators) == 1)
        for d, its in enumerate(iterations):
            assert (sum(designs.count(d) for _, _, designs in calls)
                    == sum((it + 1) * swarm for it in its))
        calls.clear()
        runs.clear()
        return results, iterations

    [best] = design_for_angle(sc, [40.0], 3, repeats=3)
    [alone], [its_alone] = check_one_loop()
    assert best is min(alone, key=lambda res: res.phi)
    assert len(set(its_alone)) == 3
    book = build_codebook(sc, [40.0, 20.0], 3, repeats=3)
    results, iterations = check_one_loop()
    # the codebook sorts its candidates; the 40 deg design ends as it did alone
    # while the 20 deg design stops first
    assert [e.angle_deg for e in book.entries] == [20.0, 40.0]
    assert [e.phi for e in book.entries] == [min(r.phi for r in reps) for reps in results]
    assert ([(res.phi, res.seed, res.iterations) for res in results[1]]
            == [(res.phi, res.seed, res.iterations) for res in alone])
    assert max(iterations[0]) < max(iterations[1])


def test_matched_sweep_user(fast_scenario):
    sc = fast_scenario(iterations=12)
    samples = matched_sweep(sc, "user", [20.0, 30.0], master_seed=5)
    assert [s.angle_deg for s in samples] == [20.0, 30.0]
    for s in samples:
        assert s.source == "synthesized"
        assert np.isfinite(s.phi) and s.phi >= 0.0
        assert s.xi > 0.0 and s.p_sigma > 0.0
        assert s.iterations >= 1 and s.stop_reason
    with pytest.raises(ValueError, match='vary must be'):
        matched_sweep(sc, "angle", [0.0], master_seed=5)


def test_matched_sweep_bs_samples_equal_designs_run_alone(fast_scenario):
    sc = fast_scenario(iterations=10)
    angles = [-10.0, 0.0, 10.0]
    samples = matched_sweep(sc, "bs", angles, master_seed=5, repeats=2)
    for angle, got in zip(angles, samples):
        moved = replace(sc, theta_refl_deg=angle)
        [alone] = design_for_angle(sc, [angle], 5, repeats=2, vary="bs")
        ratio = measure_bs_ratio(moved, alone.schedule)
        assert got == isac._sample(angle, ratio, alone.phi, alone)
    assert matched_sweep(sc, "bs", [], master_seed=5) == []


def colwise_schedule(rng, rows, cols, period_s):
    rise = np.repeat(rng.random((rows, 1)), cols, axis=1)
    duty = np.repeat(rng.random((rows, 1)), cols, axis=1)
    return PulseSchedule(period_s=period_s, rise=rise, duty=duty)


def test_localize_tie_breaks_to_smallest_angle(fast_scenario, rng):
    sc = fast_scenario(mode=ControlMode.COLWISE)
    sched = colwise_schedule(rng, 6, 6, sc.period_s)
    master, repeats = 11, 1
    entries = tuple(entry_from_schedule(a, 0.5, sched, sc.mode) for a in (10.0, 20.0))
    book = Codebook(mode=sc.mode, rows=6, cols=6, seed=master, period_s=sc.period_s,
                    f0_hz=sc.geometry.f0_hz,
                    digest=codebook_digest(sc, master, repeats), entries=entries)
    res = localize(sc, [10.0, 20.0], master, repeats=repeats, codebook=book)
    assert res.samples[0].xi == res.samples[1].xi
    assert res.estimate_deg == 10.0
    assert res.margin == 1.0
    assert all(s.source == "codebook" and s.phi == 0.5 for s in res.samples)


def test_localize_synthesizes_missing_codebook_entries(fast_scenario, rng):
    sc = fast_scenario(mode=ControlMode.COLWISE, iterations=8)
    master, repeats = 11, 1
    sched = colwise_schedule(rng, 6, 6, sc.period_s)
    book = Codebook(mode=sc.mode, rows=6, cols=6, seed=master, period_s=sc.period_s,
                    f0_hz=sc.geometry.f0_hz,
                    digest=codebook_digest(sc, master, repeats),
                    entries=(entry_from_schedule(20.0, 0.1, sched, sc.mode),))
    synth = localize(sc, [10.0, 20.0], master, repeats=repeats, codebook=book)
    assert synth.samples[0].source == "synthesized"
    assert synth.samples[1].source == "codebook"
    assert synth.samples[1].phi == 0.1 and synth.samples[1].stop_reason == "codebook"
    cold = localize(sc, [10.0], master, repeats=repeats)
    assert synth.samples[0] == cold.samples[0]
    with pytest.raises(ValueError, match="at least one candidate"):
        localize(sc, [], master)


def test_localize_rejects_stale_codebooks(fast_scenario, rng):
    sc = fast_scenario(mode=ControlMode.COLWISE)
    master, repeats = 3, 1
    sched = colwise_schedule(rng, 6, 6, sc.period_s)
    entries = (entry_from_schedule(20.0, 0.1, sched, sc.mode),)
    good = dict(mode=sc.mode, rows=6, cols=6, seed=master, period_s=sc.period_s,
                f0_hz=sc.geometry.f0_hz, digest=codebook_digest(sc, master, repeats),
                entries=entries)
    with pytest.raises(ValueError, match="does not match the scenario"):
        localize(sc, [20.0], master, codebook=Codebook(**{**good, "rows": 4}))
    with pytest.raises(ValueError, match="different master seed"):
        localize(sc, [20.0], master, codebook=Codebook(**{**good, "seed": 4}))
    with pytest.raises(ValueError, match="digest mismatch"):
        localize(sc, [20.0], master,
                 codebook=Codebook(**{**good, "digest": bytes(32)}))
    # repeats is part of the digest, so a different repeat count is also stale
    with pytest.raises(ValueError, match="digest mismatch"):
        localize(sc, [20.0], master, repeats=2, codebook=Codebook(**good))


SEEDED = {
    "PsoConfig.seed": lambda sc, seed: PsoConfig(seed=seed),
    "derive_seed": lambda sc, seed: derive_seed(seed, 40.0, 0),
    "codebook_digest": lambda sc, seed: codebook_digest(sc, seed, 1),
    "design_for_angle": lambda sc, seed: design_for_angle(sc, [40.0], seed),
    "matched_sweep": lambda sc, seed: matched_sweep(sc, "user", [40.0], seed),
    "build_codebook": lambda sc, seed: build_codebook(sc, [40.0], seed),
    "localize": lambda sc, seed: localize(sc, [40.0], seed),
    # a seed-1 codebook, which 1.5 and True used to be taken for
    "localize, codebook": lambda sc, seed: localize(sc, [40.0], seed,
                                                    codebook=build_codebook(sc, [40.0], 1)),
}


@pytest.mark.parametrize("entry", SEEDED)
def test_seeds_must_be_u64_integers(entry, fast_scenario):
    call = SEEDED[entry]
    sc = fast_scenario(iterations=2, swarm=2)
    for bad in (1.5, 1.0, np.nan, True, "1", -3, np.int64(-3), 2**64):
        with pytest.raises(ValueError,
                           match=r"seed must be an integer in \[0, 18446744073709551615\], got"):
            call(sc, bad)
    goods = (1, np.uint64(1))
    if entry != "localize, codebook":
        goods += (0, 2**64 - 1, np.uint64(2**64 - 1))
    for good in goods:
        call(sc, good)


REPEATED = {
    "codebook_digest": lambda sc, repeats: codebook_digest(sc, 1, repeats),
    "design_for_angle": lambda sc, repeats: design_for_angle(sc, [40.0], 1, repeats),
    "localize": lambda sc, repeats: localize(sc, [40.0], 1, repeats),
    # a repeats-1 codebook, which 1.5 and True used to be taken for
    "localize, codebook": lambda sc, repeats: localize(
        sc, [40.0], 1, repeats, codebook=build_codebook(sc, [40.0], 1)),
}


@pytest.mark.parametrize("entry", REPEATED)
def test_repeats_must_be_positive_integers(entry, fast_scenario):
    call = REPEATED[entry]
    sc = fast_scenario(iterations=2, swarm=2)
    for bad in (1.5, 1.9, 1.0, np.nan, True, "1", 0, -3, np.int64(0)):
        with pytest.raises(ValueError, match="repeats must be an integer >= 1, got"):
            call(sc, bad)
    for good in (1, np.int64(1)):
        call(sc, good)


def test_codebook_digest_sensitivity(fast_scenario):
    sc = fast_scenario()
    d = codebook_digest(sc, 1234, 3)
    assert d == codebook_digest(sc, 1234, 3)
    assert d != codebook_digest(sc, 1234, 4)
    assert d != codebook_digest(sc, 1235, 3)
    assert d != codebook_digest(replace(sc, theta_refl_deg=-10.0), 1234, 3)
    # the per-run pso seed is irrelevant: designs are keyed by derive_seed
    resown = replace(sc, pso=replace(sc.pso, seed=12345))
    assert d == codebook_digest(resown, 1234, 3)


def test_build_codebook_and_warm_cold_equivalence(fast_scenario):
    sc = fast_scenario(mode=ControlMode.COLWISE_DELTA, iterations=10)
    master, repeats = 7, 1
    book = build_codebook(sc, [40.0, 20.0], master, repeats=repeats)
    assert [e.angle_deg for e in book.entries] == [20.0, 40.0]  # sorted on build
    assert book.digest == codebook_digest(sc, master, repeats)
    warm = localize(sc, [20.0, 40.0], master, repeats=repeats, codebook=book)
    cold = localize(sc, [20.0, 40.0], master, repeats=repeats)
    # a codebook is a cache, never an approximation: bit-identical ratios
    for w, c in zip(warm.samples, cold.samples):
        assert (w.xi, w.p_sigma, w.p_delta) == (c.xi, c.p_sigma, c.p_delta)
        assert w.phi == c.phi
        assert (w.source, c.source) == ("codebook", "synthesized")
    assert warm.estimate_deg == cold.estimate_deg
    with pytest.raises(ValueError, match="millidegree"):
        build_codebook(sc, [10.0, 10.0001], master)
