"""Monopulse-style sensing on top of schedule synthesis.

A scenario fixes everything about the link except the schedule: surface
geometry, reflection states, modulation period, control mode, the base
station's reflection angle and the user's incidence angle. Synthesis steers
the carrier beam at the base station while notching the first harmonic there;
the ratio xi = P_sigma / P_delta measured at the base station is then large
only when the design's assumed user angle matches the true one, which is what
the localization sweep exploits.

The base station direction is the signed u_bs = sin(theta_refl): a negative
reflection angle targets the far side of the surface normal from the user.
Real-coefficient carrier schedules also radiate a mirrored twin of the beam
about the specular direction; the masks grant it an allowance box wherever it
lands inside the visible region (see masks.build_masks).
"""

import hashlib
from dataclasses import asdict, dataclass, field, replace
from math import radians, sin
from typing import Optional, Sequence

import numpy as np

from .codebook import Codebook, entry_from_schedule, scenario_digest, to_mdeg
from .fields import (
    DirectionGrid,
    FieldEngine,
    MonopulseRatio,
    PlaneWaveIncidence,
    ratio_from_powers,
)
from .geometry import EmsGeometry, check_integer, check_real
from .masks import MaskParams, build_masks, reference_power
from .modulation import ControlMode, PulseSchedule, ReflectionStates
from .synthesis import (COGNITIVE, INERTIA, SOCIAL, STAGNATION_RTOL, VELOCITY_CLAMP, CostEvaluator,
                        ModeCodec, PsoConfig, SynthesisResult, pso_optimize)


def derive_seed(master_seed: int, angle_deg: float, rep: int) -> int:
    """Stable per-design RNG seed, independent of evaluation order."""
    check_integer("master_seed", master_seed, 0, 2**64 - 1)
    key = f"{int(master_seed)}:{to_mdeg(angle_deg)}:{int(rep)}"
    digest = hashlib.sha256(key.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "little")


@dataclass(frozen=True)
class Scenario:
    """Fixed link parameters for synthesis and sensing."""

    geometry: EmsGeometry
    states: ReflectionStates
    period_s: float
    mode: ControlMode
    theta_inc_deg: float
    theta_refl_deg: float
    phi_inc_deg: float = 0.0
    amplitude_v_m: float = 1.0
    jones: tuple = (1.0 + 0.0j, 0.0j)
    mask: MaskParams = field(default_factory=MaskParams)
    pso: PsoConfig = field(default_factory=PsoConfig)
    synth_grid_n: int = 64

    def __post_init__(self):
        check_real("period_s", self.period_s, 0.0, low_open=True)
        check_real("theta_refl_deg", self.theta_refl_deg, -90.0, 90.0, low_open=True)
        self.incidence()  # checks theta_inc_deg, phi_inc_deg, amplitude_v_m and jones
        check_integer("synth_grid_n", self.synth_grid_n, 2)
        # the codec rejects a mode's name, and odd rows under a mirrored mode
        ModeCodec(self.mode, self.geometry.rows, self.geometry.cols)

    @property
    def bs_u(self) -> float:
        # Signed: negative reflection angles land on the far side of the normal
        # from the illuminating terminal.
        return sin(radians(self.theta_refl_deg))

    @property
    def reference(self) -> float:
        return reference_power(self.geometry, self.amplitude_v_m)

    def incidence(self) -> PlaneWaveIncidence:
        return PlaneWaveIncidence(
            theta_deg=self.theta_inc_deg,
            phi_deg=self.phi_inc_deg,
            amplitude_v_m=self.amplitude_v_m,
            jones=self.jones,
        )

    def evaluator(self) -> CostEvaluator:
        """Cost evaluator with masks steered for the scenario's incidence."""
        incidence = self.incidence()
        masks = build_masks(DirectionGrid.uniform(self.synth_grid_n), self.geometry, incidence,
                            self.states, self.mask, self.bs_u, self.mode.columnwise)
        return CostEvaluator(self.geometry, self.states, incidence, masks, self.period_s)

    def digest_payload(self) -> dict:
        """Everything that pins down a design, except the assumed user angle."""
        g = self.geometry
        return {
            "rows": g.rows, "cols": g.cols,
            "cell_size_wl": g.cell_size_wl, "f0_hz": g.f0_hz,
            "period_s": self.period_s,
            "mode": self.mode.value,
            "theta_refl_deg": self.theta_refl_deg,
            "phi_inc_deg": self.phi_inc_deg,
            "amplitude_v_m": self.amplitude_v_m,
            "jones": [[z.real, z.imag] for z in np.asarray(self.jones, dtype=complex)],
            "gamma_on": _matrix_payload(self.states.gamma_on),
            "gamma_off": _matrix_payload(self.states.gamma_off),
            "mask": asdict(self.mask),
            # the swarm's constants, under their old keys: a book built under others is stale
            "pso": {**{k: v for k, v in asdict(self.pso).items() if k != "seed"},
                    "inertia": INERTIA, "cognitive": COGNITIVE, "social": SOCIAL,
                    "stagnation_rtol": STAGNATION_RTOL, "velocity_clamp": VELOCITY_CLAMP},
            "synth_grid_n": self.synth_grid_n,
            # the anchors' calibration model; books built under another are stale
            "beam_reference": "state-sources",
        }


def _matrix_payload(m: np.ndarray) -> list:
    return [[[z.real, z.imag] for z in row] for row in np.asarray(m, dtype=complex)]


def codebook_digest(scenario: Scenario, master_seed: int, repeats: int) -> bytes:
    check_integer("master_seed", master_seed, 0, 2**64 - 1)
    check_integer("repeats", repeats, 1)
    payload = dict(scenario.digest_payload())
    payload["master_seed"] = int(master_seed)
    payload["repeats"] = int(repeats)
    return scenario_digest(payload)


def measure_bs_ratio(scenario: Scenario, schedule: PulseSchedule,
                     noise_power: float = 0.0) -> MonopulseRatio:
    """Sum/difference power ratio at the base station direction.

    The carrier (harmonic 0) and first-harmonic fields are sampled at the
    exact base station direction; noise_power, if given, is added to both
    powers as a common receiver floor.
    """
    check_real("noise_power", noise_power, 0.0)
    inc = scenario.incidence()
    u, v = scenario.bs_u, 0.0
    engine = FieldEngine(scenario.geometry)
    e0 = engine.field_at(u, v, schedule, scenario.states, inc, h=0)
    e1 = engine.field_at(u, v, schedule, scenario.states, inc, h=1)
    p_sigma = float(np.sum(np.abs(e0) ** 2)) + noise_power
    p_delta = float(np.sum(np.abs(e1) ** 2)) + noise_power
    return ratio_from_powers(p_sigma, p_delta)


# the scenario field each sweep moves
_SWEPT = {"user": "theta_inc_deg", "bs": "theta_refl_deg"}


def _moved(scenario: Scenario, vary: str, angle_deg: float) -> Scenario:
    return replace(scenario, **{_SWEPT[vary]: float(angle_deg)})


def design_for_angle(scenario: Scenario, angles_deg: Sequence[float], master_seed: int,
                     repeats: int = 1, vary: str = "user") -> list:
    """Synthesize one design per angle; keep each design's lowest-cost repeat.

    Design k assumes the scenario with the user (vary="user") or the base
    station (vary="bs") at angles_deg[k]. Repeat seeds derive from
    (master_seed, angle, repeat index), so every design is reproducible in
    isolation. All repeats of all designs run as one swarm each in a single
    PSO loop, each on its own seed, and end as the design run alone would
    (see synthesis.pso_optimize for the rounding caveat). Cost ties keep the
    earliest repeat. No angle gives [].
    """
    check_integer("repeats", repeats, 1)
    if vary not in _SWEPT:
        raise ValueError('vary must be "bs" or "user"')
    angles = [float(a) for a in angles_deg]
    evaluators = [_moved(scenario, vary, a).evaluator() for a in angles]
    seeds = [[derive_seed(master_seed, a, rep) for rep in range(repeats)] for a in angles]
    runs = pso_optimize(evaluators, scenario.mode, scenario.pso, seeds)
    # min keeps the first of equal costs
    return [min(reps, key=lambda res: res.phi) for reps in runs]


@dataclass(frozen=True)
class SweepSample:
    angle_deg: float
    phi: float
    xi: float
    p_sigma: float
    p_delta: float
    floored: bool
    iterations: int
    stop_reason: str
    source: str


def _sample(angle_deg, ratio: MonopulseRatio, phi: float,
            res: Optional[SynthesisResult]) -> SweepSample:
    """One probe; res is its design when synthesized, None when read from a codebook."""
    return SweepSample(
        angle_deg=float(angle_deg), phi=float(phi),
        xi=ratio.xi, p_sigma=ratio.p_sigma, p_delta=ratio.p_delta, floored=ratio.floored,
        iterations=res.iterations if res is not None else 0,
        stop_reason=res.stop_reason if res is not None else "codebook",
        source="synthesized" if res is not None else "codebook",
    )


def best_sample(samples: Sequence[SweepSample]) -> SweepSample:
    """The sample with the largest xi, ties going to the smallest angle."""
    return min(samples, key=lambda s: (-s.xi, s.angle_deg))


def matched_sweep(scenario: Scenario, vary: str, angles_deg: Sequence[float],
                  master_seed: int, repeats: int = 1, noise_power: float = 0.0) -> list:
    """Synthesize and measure with matched design and truth at each angle.

    vary="bs" sweeps the base station's reflection angle; vary="user" sweeps
    the (known) user incidence angle. Each sample gets its own design (all
    designs share one PSO loop, see design_for_angle), and xi is measured
    under the same scenario the design assumed.
    """
    angles = [float(a) for a in angles_deg]
    designs = design_for_angle(scenario, angles, master_seed, repeats, vary)
    samples = []
    for angle, res in zip(angles, designs):
        ratio = measure_bs_ratio(_moved(scenario, vary, angle), res.schedule,
                                 noise_power=noise_power)
        samples.append(_sample(angle, ratio, res.phi, res))
    return samples


def check_candidates(candidates_deg: Sequence[float]) -> list:
    """The candidate angles as floats. A design is keyed by its angle in
    whole millidegrees (derive_seed, codebook records), so two candidates
    that round alike would be one design twice: ValueError names the first
    such pair."""
    candidates = [float(a) for a in candidates_deg]
    first = {}
    for i, angle in enumerate(candidates):
        j = first.setdefault(to_mdeg(angle), i)
        if j != i:
            raise ValueError(f"candidate angles {candidates[j]} and {angle} collide at "
                             f"millidegree resolution")
    return candidates


def build_codebook(scenario: Scenario, candidates_deg: Sequence[float], master_seed: int,
                   repeats: int = 1) -> Codebook:
    """Pre-synthesize one schedule per candidate user angle."""
    candidates = sorted(check_candidates(candidates_deg))
    designs = design_for_angle(scenario, candidates, master_seed, repeats)
    g = scenario.geometry
    return Codebook(mode=scenario.mode, rows=g.rows, cols=g.cols, seed=int(master_seed),
                    period_s=scenario.period_s, f0_hz=g.f0_hz,
                    digest=codebook_digest(scenario, master_seed, repeats),
                    entries=tuple(entry_from_schedule(angle, res.phi, res.schedule, scenario.mode)
                                  for angle, res in zip(candidates, designs)))


@dataclass(frozen=True)
class LocalizationResult:
    samples: tuple
    estimate_deg: float
    best_xi: float
    runner_up_xi: float
    margin: float


def localize(scenario: Scenario, candidates_deg: Sequence[float], master_seed: int,
             repeats: int = 1, codebook: Optional[Codebook] = None,
             noise_power: float = 0.0) -> LocalizationResult:
    """Estimate the user angle by probing candidate designs at the base station.

    Each candidate's schedule (from the codebook when available, synthesized
    otherwise) is evaluated under the TRUE incidence of the scenario; the
    estimate is the angle of the best_sample. This is the one place a
    codebook is checked against its scenario: a supplied book must hold the
    scenario's mode and surface size, master seed and digest (which pins
    repeats too), else ValueError names the first that differs; a stale book
    is never silently rebuilt. Its entries expand with Codebook.schedule.
    Candidates that collide at millidegree resolution raise ValueError
    (check_candidates).
    """
    candidates = check_candidates(candidates_deg)
    if not candidates:
        raise ValueError("at least one candidate angle is required")
    if codebook is not None:
        g = scenario.geometry
        if (codebook.mode, codebook.rows, codebook.cols) != (scenario.mode, g.rows, g.cols):
            raise ValueError(
                f"codebook mode and size ({codebook.mode.value}, {codebook.rows}x"
                f"{codebook.cols}) does not match the scenario ({scenario.mode.value}, "
                f"{g.rows}x{g.cols})")
        expected = codebook_digest(scenario, master_seed, repeats)  # checks the seed
        if codebook.seed != master_seed:
            raise ValueError(f"codebook was built with a different master seed "
                             f"({codebook.seed}, not {master_seed})")
        if codebook.digest != expected:
            raise ValueError("codebook scenario digest mismatch; rebuild it")

    entries = [codebook.entry_for(a) if codebook is not None else None for a in candidates]
    designs = iter(design_for_angle(
        scenario, [a for a, entry in zip(candidates, entries) if entry is None],
        master_seed, repeats))
    samples = []
    for angle, entry in zip(candidates, entries):
        if entry is not None:
            schedule = codebook.schedule(entry)
            res, phi = None, entry.phi
        else:
            res = next(designs)
            schedule, phi = res.schedule, res.phi
        ratio = measure_bs_ratio(scenario, schedule, noise_power=noise_power)
        samples.append(_sample(angle, ratio, phi, res))

    best = best_sample(samples)
    others = [s.xi for s in samples if s is not best]
    runner = max(others) if others else float("nan")
    margin = best.xi / runner if others and runner > 0.0 else float("inf")
    return LocalizationResult(samples=tuple(samples), estimate_deg=best.angle_deg,
                              best_xi=best.xi, runner_up_xi=runner, margin=margin)
