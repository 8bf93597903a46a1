"""Strict YAML configuration: defaults, suggestions, and scenario wiring."""

from dataclasses import fields

import numpy as np
import pytest

from tmems.config import (
    ConfigError,
    RunConfig,
    _DEFAULTS,
    _SCHEMA,
    apply_overrides,
    load_config,
    parse_config,
)
from tmems.isac import codebook_digest
from tmems.masks import MaskParams
from tmems.modulation import ConstraintError, ControlMode
from tmems.synthesis import PsoConfig


def test_pure_defaults():
    cfg = load_config(None)
    assert cfg.resolved == _DEFAULTS
    sc = cfg.scenario()
    geom = sc.geometry
    assert (geom.rows, geom.cols) == (10, 10)
    assert geom.cell_size_wl == 0.45 and geom.f0_hz == 5.5e9
    assert sc.mode is ControlMode.DELTA
    assert sc.pso.swarm_size == 20 and sc.pso.iterations == 1000
    assert sc.pso.stagnation_window == 100
    assert cfg.eval_grid_n == 201
    assert cfg.noise_power == 0.0
    assert cfg.repeats == 1
    assert cfg.candidates_deg == [0.0, 10.0, 20.0, 30.0, 40.0, 50.0]
    assert sc.theta_inc_deg == 0.0 and sc.theta_refl_deg == 0.0
    assert sc.synth_grid_n == 64
    # the resolved defaults are the dataclass defaults
    assert sc.mask == MaskParams() and sc.pso == PsoConfig()


def test_default_codebook_digest_is_pinned():
    # a renamed, added or re-defaulted mask or PSO field would silently make
    # every existing codebook.bin stale
    digest = codebook_digest(parse_config({}).scenario(), 1, 1)
    assert digest.hex() == "23ba2f5ff43243c50f26856f0ebd96a315f3b6b1a2bb3177f5e394594513fd46"


def test_partial_yaml_gets_defaults(tmp_path):
    path = tmp_path / "run.yaml"
    path.write_text("surface:\n  rows: 6\n  cols: 4\nreflection:\n  theta_deg: -20\n")
    sc = load_config(str(path)).scenario()
    assert (sc.geometry.rows, sc.geometry.cols) == (6, 4)
    assert sc.geometry.cell_size_wl == 0.45  # untouched default
    assert sc.theta_refl_deg == -20.0


def test_unknown_key_suggestion():
    with pytest.raises(ConfigError, match=r"unknown key 'surface.cellsize'.*cell_size_wl"):
        parse_config({"surface": {"cellsize": 0.45}})
    with pytest.raises(ConfigError, match=r"unknown key 'surfaces'.*did you mean 'surface'"):
        parse_config({"surfaces": {}})
    with pytest.raises(ConfigError, match="unknown key 'pso'"):
        parse_config({"pso": {}})
    # the mask widths, anchor scales and margins are fixed; only levels are keys
    for key in ("main_halfwidth_u", "main_halfwidth_v", "lobe_offset_u", "lobe_halfwidth_u",
                "lobe_halfwidth_v", "null_halfwidth_u", "null_halfwidth_v", "shoulder_scale",
                "shoulder_margin_db", "flank_scale", "flank_margin_db"):
        with pytest.raises(ConfigError, match=f"unknown key 'masks.{key}'"):
            parse_config({"masks": {key: 0.1}})


def test_schema_keys_are_the_dataclass_fields():
    # a field missing from the schema could not be configured at all
    assert set(_SCHEMA["masks"]) == {f.name for f in fields(MaskParams)}
    assert set(_SCHEMA["synthesis"]) == {f.name for f in fields(PsoConfig)} | {"grid_n"}


def test_errors_name_the_dotted_key():
    with pytest.raises(ConfigError, match=r"'surface.rows' must be >= 1"):
        parse_config({"surface": {"rows": 0}})
    with pytest.raises(ConfigError, match=r"'surface.rows' must be an integer"):
        parse_config({"surface": {"rows": "ten"}})
    with pytest.raises(ConfigError, match=r"'surface.rows' must be an integer"):
        parse_config({"surface": {"rows": True}})
    with pytest.raises(ConfigError, match=r"'incidence.theta_deg' must be < 90"):
        parse_config({"incidence": {"theta_deg": 90}})
    with pytest.raises(ConfigError, match=r"'reflection.theta_deg' must be > -90"):
        parse_config({"reflection": {"theta_deg": -90}})
    with pytest.raises(ConfigError, match=r"'modulation.mode' must be one of"):
        parse_config({"modulation": {"mode": "diag"}})
    with pytest.raises(ConfigError, match=r"'synthesis.seed' must be <= 18446744073709551615"):
        parse_config({"synthesis": {"seed": 2**64}})
    with pytest.raises(ConfigError, match=r"'synthesis.inertia' must be finite"):
        parse_config({"synthesis": {"inertia": float("nan")}})
    with pytest.raises(ConfigError, match=r"'masks.ripple_db' must be >= 0"):
        parse_config({"masks": {"ripple_db": -1.0}})
    with pytest.raises(ConfigError, match=r"'incidence.polarization' must be one of"):
        parse_config({"incidence": {"polarization": "circular"}})


def test_angle_list_validation():
    with pytest.raises(ConfigError, match=r"'sweep.angles_deg' must be a non-empty list"):
        parse_config({"sweep": {"angles_deg": []}})
    with pytest.raises(ConfigError, match=r"'sweep.angles_deg\[1\]' must lie strictly"):
        parse_config({"sweep": {"angles_deg": [0.0, 95.0]}})
    with pytest.raises(ConfigError, match=r"'localization.candidates_deg\[0\]' must be a number"):
        parse_config({"localization": {"candidates_deg": [True]}})
    cfg = parse_config({"sweep": {"angles_deg": [-10, 0, 10]}})
    assert cfg.sweep_angles_deg == [-10.0, 0.0, 10.0]
    # sweep-user reads the same list as incidence angles in [0, 90)
    with pytest.raises(ConfigError, match=r"'sweep.angles_deg\[0\]' must lie in \[0.0, 90.0\)"):
        cfg.user_angles_deg
    assert parse_config({"sweep": {"angles_deg": [0, 89.5]}}).user_angles_deg == [0.0, 89.5]
    # every candidate becomes an assumed incidence angle in [0, 90)
    for bad, i in (([-10.0, 10.0], 0), ([10.0, 90.0], 1), ([0.0, -0.001], 1)):
        with pytest.raises(ConfigError,
                           match=rf"'localization.candidates_deg\[{i}\]' must lie in \[0.0, 90.0\)"):
            parse_config({"localization": {"candidates_deg": bad}})
    cfg = parse_config({"localization": {"candidates_deg": [0, 89.999]}})
    assert cfg.candidates_deg == [0.0, 89.999]


def test_candidates_must_differ_at_millidegree_resolution():
    # a design is keyed by its angle in millidegrees (derive_seed, codebook
    # records), so two candidates that round alike would be one design twice
    with pytest.raises(ConfigError, match=r"^'localization\.candidates_deg': candidate angles "
                                          r"20\.0 and 20\.0001 collide at millidegree"):
        parse_config({"localization": {"candidates_deg": [20, 30, 20.0001]}})
    with pytest.raises(ConfigError, match=r"angles 30\.0 and 30\.0 collide"):
        parse_config({"localization": {"candidates_deg": [30, 30]}})
    cfg = parse_config({"localization": {"candidates_deg": [20, 20.001, 30]}})
    assert cfg.candidates_deg == [20.0, 20.001, 30.0]


def test_gamma_entry_forms(tmp_path):
    cfg = parse_config({"states": {"gamma_on": 0.8, "gamma_off": [-0.6, -0.2]}})
    st = cfg.scenario().states
    assert np.array_equal(st.gamma_on, 0.8 * np.eye(2))
    assert np.array_equal(st.gamma_off, complex(-0.6, -0.2) * np.eye(2))
    full = [[[0.5, 0.0], [0.1, 0.0]], [[0.0, 0.1], [0.5, 0.0]]]
    st2 = parse_config({"states": {"gamma_on": full}}).scenario().states
    assert st2.gamma_on[0, 1] == 0.1 and st2.gamma_on[1, 0] == 0.1j
    with pytest.raises(ConfigError, match="must be a number, a \\[real, imaginary\\] pair"):
        parse_config({"states": {"gamma_on": [1.0, 2.0, 3.0]}})
    with pytest.raises(ConfigError, match="rows must have exactly 2 entries"):
        parse_config({"states": {"gamma_on": [[0.1], [0.2]]}})
    with pytest.raises(ConfigError, match=r"\[real, imaginary\] pair of numbers"):
        parse_config({"states": {"gamma_on": [[[0.1, 0.0], "x"], [[0.0, 0.0], [0.1, 0.0]]]}})
    # every form rejects a non-finite part and names the key; past the parse
    # it would fail deep in the run, in a message that names no key
    for key in ("gamma_on", "gamma_off"):
        for bad in (".inf", "-.inf", ".nan"):
            path = tmp_path / "run.yaml"
            path.write_text(f"states:\n  {key}: {bad}\n")
            with pytest.raises(ConfigError, match=rf"'states\.{key}' must be finite"):
                load_config(str(path))
    nan = float("nan")
    for value in ([0.5, nan], [float("inf"), 0.0]):
        with pytest.raises(ConfigError, match=r"'states\.gamma_on' must be finite"):
            parse_config({"states": {"gamma_on": value}})
    full = [[[0.5, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.5, nan]]]
    with pytest.raises(ConfigError, match=r"'states\.gamma_off\[1\]\[1\]' must be finite"):
        parse_config({"states": {"gamma_off": full}})


def test_non_passive_states_rejected_at_parse_time():
    with pytest.raises(ValueError, match="passive"):
        parse_config({"states": {"gamma_on": 1.5}})


def test_delta_mode_needs_even_rows_at_parse_time():
    with pytest.raises(ConstraintError, match="even row count"):
        parse_config({"surface": {"rows": 5}})


def test_explicit_null_means_default():
    cfg = parse_config({"synthesis": {"seed": None}, "masks": None})
    assert cfg.seed == 1
    assert cfg.scenario().mask.null_depth_db == -40.0


def test_structure_errors():
    with pytest.raises(ConfigError, match="root must be a mapping"):
        parse_config([1, 2])
    with pytest.raises(ConfigError, match="'surface' must be a mapping"):
        parse_config({"surface": 5})


def test_yaml_parse_error(tmp_path):
    path = tmp_path / "broken.yaml"
    path.write_text("surface: [unclosed\n")
    with pytest.raises(ConfigError, match="could not parse"):
        load_config(str(path))


def test_apply_overrides():
    cfg = load_config(None)
    out = apply_overrides(cfg, seed=9, eval_grid_n=101, mode="full")
    assert out.seed == 9
    assert out.eval_grid_n == 101
    assert out.scenario().mode is ControlMode.FULL
    # the original is untouched and no other key moved
    assert cfg.seed == 1 and cfg.scenario().mode is ControlMode.DELTA
    assert out.resolved["surface"] == cfg.resolved["surface"]
    assert apply_overrides(cfg).resolved == cfg.resolved
    with pytest.raises(ConfigError, match="'synthesis.seed' must be >= 0"):
        apply_overrides(cfg, seed=-1)
    # the codebook header stores the seed as a u64
    with pytest.raises(ConfigError, match="'synthesis.seed' must be <= 18446744073709551615"):
        apply_overrides(cfg, seed=2**64)
    assert apply_overrides(cfg, seed=2**64 - 1).seed == 2**64 - 1
    with pytest.raises(ConfigError, match="'evaluation.grid_n'"):
        apply_overrides(cfg, eval_grid_n=1)
    with pytest.raises(ConfigError, match="'modulation.mode'"):
        apply_overrides(cfg, mode="bogus")


def test_scenario_wiring():
    cfg = parse_config({
        "surface": {"rows": 6, "cols": 4},
        "modulation": {"mode": "colwise-delta", "period_s": 2e-6},
        "incidence": {"theta_deg": 30, "phi_deg": 5, "amplitude_v_m": 2.0,
                      "polarization": "tm"},
        "reflection": {"theta_deg": -20},
        "masks": {"null_depth_db": -30},
        "synthesis": {"grid_n": 32, "swarm_size": 8, "iterations": 40, "seed": 7},
        "evaluation": {"grid_n": 41, "noise_power": 1e-9},
    })
    sc = cfg.scenario()
    assert sc.mode is ControlMode.COLWISE_DELTA and sc.mode.columnwise
    assert sc.period_s == 2e-6
    assert sc.theta_inc_deg == 30.0 and sc.phi_inc_deg == 5.0
    assert sc.theta_refl_deg == -20.0
    assert sc.amplitude_v_m == 2.0
    assert sc.jones == (0.0j, 1.0 + 0.0j)
    assert sc.mask.null_depth_db == -30.0
    assert sc.pso.swarm_size == 8 and sc.pso.seed == 7
    assert sc.synth_grid_n == 32
    assert cfg.noise_power == 1e-9
    assert isinstance(cfg, RunConfig)
