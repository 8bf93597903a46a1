"""Time-modulated reflective surface toolkit.

Design per-cell on/off modulation schedules that steer the carrier beam while
shaping the first harmonic for monopulse-style sensing, evaluate the harmonic
far fields, and simulate base-station-side user localization.

The package root exports the names the commands' pipeline is driven through;
every other name is imported from its module (tmems.masks, tmems.synthesis,
tmems.config, ...).
"""

from .codebook import CodebookError, read_codebook, write_codebook
from .config import ConfigError
from .fields import DirectionGrid, FieldEngine, PlaneWaveIncidence, cell_factor
from .geometry import EmsGeometry
from .isac import (
    Scenario,
    build_codebook,
    derive_seed,
    design_for_angle,
    localize,
    matched_sweep,
    measure_bs_ratio,
)
from .masks import build_masks
from .modulation import (
    ConstraintError,
    ControlMode,
    PulseSchedule,
    ReflectionStates,
    harmonic_tensors,
    pulse_fourier_coefficients,
)
from .synthesis import ModeCodec, pso_optimize

__version__ = "0.1.0"

__all__ = [
    "CodebookError",
    "ConfigError",
    "ConstraintError",
    "ControlMode",
    "DirectionGrid",
    "EmsGeometry",
    "FieldEngine",
    "ModeCodec",
    "PlaneWaveIncidence",
    "PulseSchedule",
    "ReflectionStates",
    "Scenario",
    "build_codebook",
    "build_masks",
    "cell_factor",
    "derive_seed",
    "design_for_angle",
    "harmonic_tensors",
    "localize",
    "matched_sweep",
    "measure_bs_ratio",
    "pso_optimize",
    "pulse_fourier_coefficients",
    "read_codebook",
    "write_codebook",
]
