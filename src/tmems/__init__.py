"""Time-modulated reflective surface toolkit.

Design per-cell on/off modulation schedules that steer the carrier beam while
shaping the first harmonic for monopulse-style sensing, evaluate the harmonic
far fields, and simulate base-station-side user localization.
"""

from .codebook import (
    Codebook,
    CodebookEntry,
    CodebookError,
    read_codebook,
    scenario_digest,
    write_codebook,
)
from .config import ConfigError, RunConfig, default_config, load_config, parse_config
from .fields import (
    DirectionGrid,
    FieldEngine,
    HarmonicPattern,
    MonopulseRatio,
    PlaneWaveIncidence,
    cell_factor,
    power_db,
    ratio_from_powers,
)
from .geometry import SPEED_OF_LIGHT, EmsGeometry
from .isac import (
    LocalizationResult,
    Scenario,
    SweepSample,
    build_codebook,
    codebook_digest,
    derive_seed,
    design_for_angle,
    localize,
    matched_sweep,
    measure_bs_ratio,
)
from .masks import MaskParams, MaskSet, build_masks, reference_power
from .modulation import (
    ConstraintError,
    ControlMode,
    PulseSchedule,
    ReflectionStates,
    check_delta_applicable,
    harmonic_scalar_coefficients,
    harmonic_tensors,
    mirror_rise,
    pulse_fourier_coefficients,
)
from .synthesis import (
    CostEvaluator,
    ModeCodec,
    PsoConfig,
    PsoResult,
    SynthesisResult,
    minimize,
    pso_optimize,
    ramp,
)

__version__ = "0.1.0"

__all__ = [
    "SPEED_OF_LIGHT",
    "Codebook",
    "CodebookEntry",
    "CodebookError",
    "ConfigError",
    "ConstraintError",
    "ControlMode",
    "CostEvaluator",
    "DirectionGrid",
    "EmsGeometry",
    "FieldEngine",
    "HarmonicPattern",
    "LocalizationResult",
    "MaskParams",
    "MaskSet",
    "ModeCodec",
    "MonopulseRatio",
    "PlaneWaveIncidence",
    "PsoConfig",
    "PsoResult",
    "PulseSchedule",
    "ReflectionStates",
    "RunConfig",
    "Scenario",
    "SweepSample",
    "SynthesisResult",
    "build_codebook",
    "build_masks",
    "cell_factor",
    "check_delta_applicable",
    "codebook_digest",
    "default_config",
    "derive_seed",
    "design_for_angle",
    "harmonic_scalar_coefficients",
    "harmonic_tensors",
    "load_config",
    "localize",
    "matched_sweep",
    "measure_bs_ratio",
    "minimize",
    "mirror_rise",
    "parse_config",
    "power_db",
    "pso_optimize",
    "pulse_fourier_coefficients",
    "ramp",
    "ratio_from_powers",
    "read_codebook",
    "reference_power",
    "scenario_digest",
    "write_codebook",
]
