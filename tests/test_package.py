"""The package root: the names the commands' pipeline is driven through."""

import tmems

ROOT = [
    "CodebookError", "ConfigError", "ConstraintError", "ControlMode", "DirectionGrid",
    "EmsGeometry", "FieldEngine", "ModeCodec", "PlaneWaveIncidence", "PulseSchedule",
    "ReflectionStates", "Scenario", "build_codebook", "build_masks", "cell_factor",
    "derive_seed", "design_for_angle", "harmonic_tensors", "localize", "matched_sweep",
    "measure_bs_ratio", "pso_optimize", "pulse_fourier_coefficients", "read_codebook",
    "write_codebook",
]

# importable from their modules only
NOT_ROOT = [
    "SPEED_OF_LIGHT", "Codebook", "CodebookEntry", "CostEvaluator", "HarmonicPattern",
    "LocalizationResult", "MaskParams", "MaskSet", "MonopulseRatio", "PsoConfig", "PsoResult",
    "RunConfig", "SweepSample", "SynthesisResult", "check_delta_applicable", "codebook_digest",
    "load_config", "mirror_rise", "parse_config", "power_db", "ratio_from_powers",
    "reference_power", "scenario_digest",
    # removed from the package
    "default_config", "harmonic_scalar_coefficients", "minimize", "ramp",
]


def test_package_root_is_pinned():
    # the root grows only on purpose: a new name must be added here
    assert sorted(tmems.__all__) == sorted(ROOT)
    assert len(ROOT) == 25
    for name in ROOT:
        assert getattr(tmems, name) is not None
    for name in NOT_ROOT:
        assert not hasattr(tmems, name), name
