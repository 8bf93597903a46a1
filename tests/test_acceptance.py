"""Ten numbered acceptance checks, from math oracles to end-to-end scenarios.

Each test prints exactly one ``[criterion NN] PASS/FAIL ...`` line carrying
the measured values next to their limits (emitted outside pytest's capture so
the lines always show), then asserts. Criteria 4 to 9 run full particle-swarm
syntheses and take several minutes combined.
"""

import time
from dataclasses import replace
from pathlib import Path

import numpy as np

from tmems import (
    ControlMode,
    DirectionGrid,
    EmsGeometry,
    FieldEngine,
    ModeCodec,
    PlaneWaveIncidence,
    PulseSchedule,
    ReflectionStates,
    Scenario,
    build_codebook,
    build_masks,
    derive_seed,
    design_for_angle,
    harmonic_tensors,
    localize,
    matched_sweep,
    pso_optimize,
    pulse_fourier_coefficients,
    read_codebook,
    write_codebook,
)
from tmems.cli import main as cli_main

from conftest import direct_sum

MASTER_SEED = 1234
EVAL_N = 201
REPO_ROOT = Path(__file__).resolve().parents[1]


def _report(capsys, num: int, ok: bool, detail: str):
    with capsys.disabled():
        print(f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'} {detail}", flush=True)


def _scenario(**kw) -> Scenario:
    base = dict(
        geometry=EmsGeometry(rows=10, cols=10),
        states=ReflectionStates.ideal(),
        period_s=1e-6,
        mode=ControlMode.DELTA,
        theta_inc_deg=40.0,
        theta_refl_deg=-20.0,
    )
    base.update(kw)
    return Scenario(**base)


def halfpower_width_u(pattern) -> float:
    """Interpolated -3 dB beamwidth along u on the v = 0 cut."""
    grid = pattern.grid
    iv0 = int(np.argmin(np.abs(grid.v)))
    cut = pattern.power[:, iv0]
    ipk = int(np.argmax(cut))
    half = cut[ipk] / 2.0
    lo = ipk
    while lo > 0 and cut[lo] > half:
        lo -= 1
    hi = ipk
    while hi < cut.size - 1 and cut[hi] > half:
        hi += 1
    if cut[lo] > half or cut[hi] > half:
        raise AssertionError("pattern never falls 3 dB below the peak on the u cut")
    u = grid.u
    left = u[lo] + (half - cut[lo]) * (u[lo + 1] - u[lo]) / (cut[lo + 1] - cut[lo])
    right = u[hi - 1] + (half - cut[hi - 1]) * (u[hi] - u[hi - 1]) / (cut[hi] - cut[hi - 1])
    return float(right - left)


def test_criterion_01_fourier_oracle(capsys):
    # CPU time, not wall time: the limit bounds this check's own work, which
    # a loaded host does not change
    t0 = time.process_time()
    rng = np.random.default_rng(20260816)
    rise = rng.random(100)
    duty = rng.random(100)
    n = 10_000
    # Midpoint rule across the on-window [rise, rise + duty): there the
    # integrand is the bare exponential, so 1e4 points leave O((duty/n)^2 h^2)
    # error, well below the 1e-6 limit; a full-period rule over the
    # discontinuous indicator would stall at O(1/n).
    mids = (np.arange(n) + 0.5) / n
    t = 2.0 * np.pi * (rise[:, None] + duty[:, None] * mids[None, :])
    # e^{-j2 pi h t} from the h = 1 exponential by successive products,
    # and for -h as its conjugate: the sum of conjugates is the conjugate
    # of the sum
    e1 = np.empty(t.shape, dtype=complex)
    e1.real = np.cos(t)
    e1.imag = -np.sin(t)
    eh = np.ones_like(e1)
    worst = 0.0
    for h in range(6):
        if h:
            eh *= e1
        quad = (duty / n) * eh.sum(axis=1)
        for sign in (1, -1) if h else (1,):
            closed = pulse_fourier_coefficients(rise, duty, sign * h)
            err = closed - (quad if sign == 1 else np.conj(quad))
            worst = max(worst, float(np.max(np.abs(err))))
    dt = time.process_time() - t0
    ok = worst < 1e-6 and dt < 1.0
    _report(capsys, 1, ok,
            f"closed form vs 1e4-sample quadrature, |h|<=5, 100 pulses: "
            f"max abs err {worst:.2e} (limit 1e-06), {dt:.2f} s (limit 1)")
    assert worst < 1e-6
    assert dt < 1.0


def test_criterion_02_parseval_energy(capsys):
    t0 = time.perf_counter()
    rng = np.random.default_rng(20260817)
    rise = rng.random(100)
    duty = rng.random(100)
    total = np.zeros(100)
    for h in range(-200, 201):
        total += np.abs(pulse_fourier_coefficients(rise, duty, h)) ** 2
    gap = duty - total
    dt = time.perf_counter() - t0
    ok = bool(np.all(gap >= 0.0) and np.all(gap <= 0.005)) and dt < 1.0
    _report(capsys, 2, ok,
            f"sum_|h|<=200 |u^h|^2 in [tau-0.005, tau], 100 pulses: "
            f"gap {gap.min():.2e}..{gap.max():.2e} (limit 0..5e-3), {dt:.2f} s (limit 1)")
    assert np.all(gap >= 0.0)
    assert np.all(gap <= 0.005)
    assert dt < 1.0


def test_criterion_03_structural_invariants(capsys):
    t0 = time.perf_counter()
    rng = np.random.default_rng(99)
    geom = EmsGeometry(rows=10, cols=10)
    states = ReflectionStates.ideal()
    grid = DirectionGrid.uniform(65)

    # mirrored halves: first-harmonic tensors of paired rows must cancel;
    # the 100 draws are the half-rises, then the half-duties
    sched = ModeCodec(ControlMode.DELTA, 10, 10).decode(rng.random(100), 1e-6)
    tens = harmonic_tensors(states, sched, 1)
    anti = float(np.max(np.abs(tens + tens[::-1])))

    # permanently on/off cells radiate no sidebands at all, exact zeros
    static = PulseSchedule(period_s=1e-6, rise=rng.random((10, 10)),
                           duty=rng.integers(0, 2, size=(10, 10)).astype(float))
    inc40 = PlaneWaveIncidence(theta_deg=40.0, phi_deg=0.0, amplitude_v_m=1.0,
                               jones=(1.0 + 0.0j, 0.0j))
    worst_static = max(
        float(np.max(np.abs(FieldEngine(geom, grid).pattern(static, states, inc40, h).field)))
        for h in (1, 2, 5))

    # broadside drive + mirrored rows null the whole u = 0 line at h = 1
    inc0 = PlaneWaveIncidence(theta_deg=0.0, phi_deg=0.0, amplitude_v_m=1.0,
                              jones=(1.0 + 0.0j, 0.0j))
    pat1 = FieldEngine(geom, grid).pattern(sched, states, inc0, 1)
    iu0 = int(np.argmin(np.abs(grid.u)))
    assert grid.u[iu0] == 0.0
    line = float(np.max(np.abs(pat1.field[iu0, :, :])))
    peak = float(np.max(np.abs(pat1.field)))
    line_rel = line / peak

    dt = time.perf_counter() - t0
    ok = anti <= 1e-14 and worst_static == 0.0 and line_rel <= 1e-12 and dt < 10.0
    _report(capsys, 3, ok,
            f"mirror antisymmetry {anti:.1e} (limit 1e-14), static sidebands "
            f"{worst_static:.1e} (limit exact 0), broadside u=0 line {line_rel:.1e} "
            f"of peak (limit 1e-12), {dt:.1f} s (limit 10)")
    assert anti <= 1e-14
    assert worst_static == 0.0
    assert line_rel <= 1e-12
    assert dt < 10.0


def test_criterion_04_beam_pair_quality(capsys):
    sc = _scenario()
    ev = sc.evaluator()
    best = None
    seed_times = []
    for rep in range(3):
        seed = derive_seed(MASTER_SEED, sc.theta_refl_deg, rep)
        t0 = time.perf_counter()
        [[res]] = pso_optimize([ev], sc.mode, replace(sc.pso, seed=seed))
        seed_times.append(time.perf_counter() - t0)
        if best is None or res.phi < best.phi:
            best = res
    geom, states = sc.geometry, sc.states
    all_on = PulseSchedule(period_s=sc.period_s,
                           rise=np.zeros((geom.rows, geom.cols)),
                           duty=np.ones((geom.rows, geom.cols)))
    phi_ratio = best.phi / ev.phi(all_on)

    grid = DirectionGrid.uniform(EVAL_N)
    inc = sc.incidence()
    pat0 = FieldEngine(geom, grid).pattern(best.schedule, states, inc, 0)
    pat1 = FieldEngine(geom, grid).pattern(best.schedule, states, inc, 1)

    p0 = np.where(grid.visible, pat0.power, -1.0)
    iu, iv = np.unravel_index(int(np.argmax(p0)), p0.shape)
    peak_du = abs(float(grid.u[iu]) - sc.bs_u)
    peak_dv = abs(float(grid.v[iv]))

    e_null = FieldEngine(geom).field_at(sc.bs_u, 0.0, best.schedule, states, inc, h=1)
    p_null = float(np.sum(np.abs(e_null) ** 2))
    p_lobe = float(np.max(np.where(grid.visible, pat1.power, 0.0)))
    depth_db = 10.0 * np.log10(p_lobe / max(p_null, 1e-300))

    masks = build_masks(grid, geom, inc, states, sc.mask, sc.bs_u, sc.mode.columnwise)
    side = sc.reference * 10.0 ** (sc.mask.sidelobe_db / 10.0)
    worst_rel = 0.0
    for hidx, pat in ((0, pat0), (1, pat1)):
        sel = masks.upper[hidx] == side
        assert np.any(sel)
        worst_rel = max(worst_rel, float(np.max(pat.power[sel])) / side)
    side_margin_db = 10.0 * np.log10(worst_rel)

    e_engine = pat0.field[iu, iv]
    [e_direct] = direct_sum(geom, harmonic_tensors(states, best.schedule, 0), inc,
                            grid.u[iu], grid.v[iv])
    direct_rel = float(np.linalg.norm(e_direct - e_engine) / np.linalg.norm(e_engine))

    ok = (peak_du <= grid.du + 1e-12 and peak_dv <= grid.dv + 1e-12
          and depth_db >= 25.0 and worst_rel <= 1.0 + 1e-6
          and phi_ratio < 0.01 and direct_rel <= 1e-10
          and max(seed_times) <= 300.0)
    _report(capsys, 4, ok,
            f"sum peak off target ({peak_du:.4f}, {peak_dv:.4f}) (limit one cell, "
            f"{grid.du:.3f}); delta null {depth_db:.1f} dB below larger lobe "
            f"(limit 25); sidelobes {side_margin_db:+.2f} dB vs -10 dB ceiling "
            f"(limit <= 0); phi/phi_all_on {phi_ratio:.1e} (limit 1e-2); direct-sum "
            f"check {direct_rel:.1e} (limit 1e-10); slowest seed "
            f"{max(seed_times):.1f} s (limit 300)")
    assert peak_du <= grid.du + 1e-12
    assert peak_dv <= grid.dv + 1e-12
    assert depth_db >= 25.0
    assert worst_rel <= 1.0 + 1e-6
    assert phi_ratio < 0.01
    assert direct_rel <= 1e-10
    assert max(seed_times) <= 300.0


def test_criterion_05_bs_sweep_ratio(capsys):
    t0 = time.perf_counter()
    sc = _scenario()
    samples = matched_sweep(sc, "bs", [-20.0, -10.0, 0.0], MASTER_SEED, repeats=3)
    dt = time.perf_counter() - t0
    xis = [s.xi for s in samples]
    ok = all(x > 10.0 for x in xis) and dt <= 900.0
    shown = ", ".join(f"{s.angle_deg:g}deg {s.xi:.0f}" for s in samples)
    _report(capsys, 5, ok,
            f"reflection sweep xi: {shown} (limit > 10 each), {dt:.0f} s (limit 900)")
    for s in samples:
        assert s.xi > 10.0
    assert dt <= 900.0


def test_criterion_06_user_angle_trend(capsys):
    t0 = time.perf_counter()
    sc = _scenario(theta_refl_deg=0.0)
    samples = matched_sweep(sc, "user", [20.0, 30.0], MASTER_SEED, repeats=3)
    dt = time.perf_counter() - t0
    xi20, xi30 = samples[0].xi, samples[1].xi
    ok = xi30 > 10.0 and xi30 > xi20 and dt <= 600.0
    _report(capsys, 6, ok,
            f"xi(30deg) {xi30:.0f} (limit > 10) vs xi(20deg) {xi20:.0f} "
            f"(limit: 30deg larger), {dt:.0f} s (limit 600)")
    assert xi30 > 10.0
    assert xi30 > xi20
    assert dt <= 600.0


def test_criterion_07_columnwise_band(capsys):
    t0 = time.perf_counter()
    sc = _scenario(mode=ControlMode.COLWISE_DELTA, theta_refl_deg=0.0)
    samples = matched_sweep(sc, "user", [20.0, 30.0, 40.0], MASTER_SEED, repeats=3)
    dt = time.perf_counter() - t0
    ok = all(s.xi > 5.0 for s in samples) and dt <= 600.0
    shown = ", ".join(f"{s.angle_deg:g}deg {s.xi:.0f}" for s in samples)
    _report(capsys, 7, ok,
            f"column-wise user band xi: {shown} (limit > 5 each), "
            f"{dt:.0f} s (limit 600)")
    for s in samples:
        assert s.xi > 5.0
    assert dt <= 600.0


def test_criterion_08_localization(capsys, tmp_path):
    sc = _scenario(mode=ControlMode.COLWISE_DELTA, theta_refl_deg=0.0)
    candidates = [0.0, 10.0, 20.0, 30.0, 40.0, 50.0]

    t0 = time.perf_counter()
    cold = localize(sc, candidates, MASTER_SEED, repeats=3)
    t_cold = time.perf_counter() - t0

    book = build_codebook(sc, candidates, MASTER_SEED, repeats=3)
    path = tmp_path / "codebook.bin"
    t1 = time.perf_counter()
    write_codebook(path, book)
    warm = localize(sc, candidates, MASTER_SEED, repeats=3,
                    codebook=read_codebook(path))
    t_warm = time.perf_counter() - t1

    same = (
        [s.angle_deg for s in cold.samples] == [s.angle_deg for s in warm.samples]
        and [s.xi for s in cold.samples] == [s.xi for s in warm.samples]
        and [s.phi for s in cold.samples] == [s.phi for s in warm.samples]
    )
    ok = (cold.estimate_deg == 40.0 and warm.estimate_deg == 40.0 and same
          and cold.margin >= 2.0 and t_cold <= 1200.0 and t_warm <= 60.0)
    _report(capsys, 8, ok,
            f"estimate cold/warm {cold.estimate_deg:g}/{warm.estimate_deg:g} deg "
            f"(limit 40 both), margin {cold.margin:.0f}x (limit 2x), samples "
            f"{'identical' if same else 'DIFFER'}, cold {t_cold:.0f} s (limit 1200), "
            f"warm {t_warm:.1f} s (limit 60)")
    assert cold.estimate_deg == 40.0
    assert warm.estimate_deg == 40.0
    assert same
    assert cold.margin >= 2.0
    assert t_cold <= 1200.0
    assert t_warm <= 60.0


def test_criterion_09_aperture_scaling(capsys):
    grid = DirectionGrid.uniform(EVAL_N)
    widths = {}
    t24 = None
    for rows in (10, 24):
        sc = _scenario(geometry=EmsGeometry(rows=rows, cols=rows),
                       mode=ControlMode.COLWISE_DELTA,
                       theta_inc_deg=30.0, theta_refl_deg=0.0)
        t0 = time.perf_counter()
        [res] = design_for_angle(sc, [sc.theta_inc_deg], MASTER_SEED, repeats=3)
        elapsed = time.perf_counter() - t0
        if rows == 24:
            t24 = elapsed
        pat0 = FieldEngine(sc.geometry, grid).pattern(res.schedule, sc.states, sc.incidence(), 0)
        widths[rows] = halfpower_width_u(pat0)
    ok = widths[24] < widths[10] and t24 <= 1200.0
    _report(capsys, 9, ok,
            f"-3 dB width 24x24 {widths[24]:.3f} vs 10x10 {widths[10]:.3f} "
            f"(limit strictly narrower), 24x24 synthesis {t24:.0f} s (limit 1200)")
    assert widths[24] < widths[10]
    assert t24 <= 1200.0


def test_criterion_10_cli_determinism(capsys, tmp_path):
    config = REPO_ROOT / "configs" / "beam-pair.yaml"
    synth_files = ("schedule.csv", "convergence.csv", "pattern_h0.csv", "pattern_h1.csv")

    synth_outs = []
    for tag in ("a", "b"):
        out = tmp_path / f"synth_{tag}"
        assert cli_main(["synthesize", "--config", str(config), "--out", str(out)]) == 0
        synth_outs.append(out)
    same_synth = all((synth_outs[0] / f).read_bytes() == (synth_outs[1] / f).read_bytes()
                     for f in synth_files)

    eval_outs = []
    for tag in ("a", "b"):
        out = tmp_path / f"eval_{tag}"
        assert cli_main(["evaluate", "--config", str(config), "--out", str(out),
                         "--schedule", str(synth_outs[0] / "schedule.csv")]) == 0
        eval_outs.append(out)
    same_eval = all((eval_outs[0] / f).read_bytes() == (eval_outs[1] / f).read_bytes()
                    for f in ("pattern_h0.csv", "pattern_h1.csv"))

    ok = same_synth and same_eval
    _report(capsys, 10, ok,
            f"synthesize rerun files {'byte-identical' if same_synth else 'DIFFER'} "
            f"({', '.join(synth_files)}); evaluate rerun files "
            f"{'byte-identical' if same_eval else 'DIFFER'} (limit: identical)")
    assert same_synth
    assert same_eval
