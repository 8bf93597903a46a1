"""YAML run configuration with a strict, unit-suffixed schema.

Unknown keys are fatal (with a nearest-key suggestion), every error names the
offending dotted key path, and explicit nulls mean "use the default". The
resolved configuration is a plain JSON-compatible mapping, so run summaries
can embed exactly what was used.
"""

import difflib
from dataclasses import asdict, dataclass
from typing import Optional

import numpy as np
import yaml

from .geometry import EmsGeometry
from .isac import Scenario
from .masks import MaskParams
from .modulation import ControlMode, ReflectionStates
from .synthesis import PsoConfig

MODE_NAMES = tuple(m.value for m in ControlMode)
# the incidence Jones vector of each polarization
_JONES = {"te": (1.0 + 0.0j, 0.0j), "tm": (0.0j, 1.0 + 0.0j)}


class ConfigError(ValueError):
    """Raised for unknown keys, wrong types, or out-of-range values."""


def _join(path: str, key: str) -> str:
    return f"{path}.{key}" if path else key


def _num(value, path: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"'{path}' must be a number")
    v = float(value)
    if not np.isfinite(v):
        raise ConfigError(f"'{path}' must be finite")
    return v


def _float_field(minimum=None, exclusive=False, maximum=None, max_exclusive=False):
    def parse(value, path):
        v = _num(value, path)
        if minimum is not None and (v <= minimum if exclusive else v < minimum):
            op = ">" if exclusive else ">="
            raise ConfigError(f"'{path}' must be {op} {minimum}")
        if maximum is not None and (v >= maximum if max_exclusive else v > maximum):
            op = "<" if max_exclusive else "<="
            raise ConfigError(f"'{path}' must be {op} {maximum}")
        return v
    return parse


def _int_field(minimum=None, maximum=None):
    def parse(value, path):
        if isinstance(value, bool) or not isinstance(value, int):
            raise ConfigError(f"'{path}' must be an integer")
        if minimum is not None and value < minimum:
            raise ConfigError(f"'{path}' must be >= {minimum}")
        if maximum is not None and value > maximum:
            raise ConfigError(f"'{path}' must be <= {maximum}")
        return value
    return parse


def _choice_field(choices):
    def parse(value, path):
        if value not in choices:
            opts = ", ".join(repr(c) for c in choices)
            raise ConfigError(f"'{path}' must be one of {opts}")
        return value
    return parse


def _angle_list_field(minimum, maximum, closed_min=False):
    span = (f"in [{minimum}, {maximum}) degrees" if closed_min
            else f"strictly between {minimum} and {maximum} degrees")

    def parse(value, path):
        if not isinstance(value, (list, tuple)) or not value:
            raise ConfigError(f"'{path}' must be a non-empty list of angles")
        out = []
        for i, item in enumerate(value):
            v = _num(item, f"{path}[{i}]")
            if not (minimum <= v < maximum and (closed_min or v > minimum)):
                raise ConfigError(f"'{path}[{i}]' must lie {span}")
            out.append(v)
        return out
    return parse


# angles used as an assumed incidence angle
_incidence_angles = _angle_list_field(0.0, 90.0, closed_min=True)


def _gamma_field(value, path):
    """Reflection tensor entry: scalar, [re, im], or 2x2 of [re, im], every
    part finite."""
    def is_num(x):
        return isinstance(x, (int, float)) and not isinstance(x, bool)

    if is_num(value) or (isinstance(value, (list, tuple)) and len(value) == 2
                         and all(map(is_num, value))):
        z = [_num(value, path), 0.0] if is_num(value) else [_num(x, path) for x in value]
        return [[z, [0.0, 0.0]], [[0.0, 0.0], list(z)]]
    if isinstance(value, (list, tuple)) and len(value) == 2:
        rows = []
        for r, row in enumerate(value):
            if not isinstance(row, (list, tuple)) or len(row) != 2:
                raise ConfigError(f"'{path}' rows must have exactly 2 entries")
            cells = []
            for c, cell in enumerate(row):
                where = f"{path}[{r}][{c}]"
                if not (isinstance(cell, (list, tuple)) and len(cell) == 2
                        and all(map(is_num, cell))):
                    raise ConfigError(f"'{where}' must be a [real, imaginary] pair of numbers")
                cells.append([_num(x, where) for x in cell])
            rows.append(cells)
        return rows
    raise ConfigError(
        f"'{path}' must be a number, a [real, imaginary] pair, or a 2x2 matrix of pairs")


_SCHEMA = {
    "surface": {
        "rows": _int_field(minimum=1),
        "cols": _int_field(minimum=1),
        "cell_size_wl": _float_field(minimum=0.0, exclusive=True),
        "f0_hz": _float_field(minimum=0.0, exclusive=True),
    },
    "modulation": {
        "period_s": _float_field(minimum=0.0, exclusive=True),
        "mode": _choice_field(MODE_NAMES),
    },
    "states": {
        "gamma_on": _gamma_field,
        "gamma_off": _gamma_field,
    },
    "incidence": {
        "theta_deg": _float_field(minimum=0.0, maximum=90.0, max_exclusive=True),
        "phi_deg": _float_field(),
        "amplitude_v_m": _float_field(minimum=0.0, exclusive=True),
        "polarization": _choice_field(tuple(_JONES)),
    },
    "reflection": {
        "theta_deg": _float_field(minimum=-90.0, exclusive=True,
                                  maximum=90.0, max_exclusive=True),
    },
    "masks": {
        "sidelobe_db": _float_field(),
        "peak_floor_db": _float_field(),
        "ripple_db": _float_field(minimum=0.0),
        "null_depth_db": _float_field(),
        "lobe_floor_db": _float_field(),
        "main_halfwidth_u": _float_field(minimum=0.0, exclusive=True),
        "main_halfwidth_v": _float_field(minimum=0.0, exclusive=True),
        "lobe_offset_u": _float_field(minimum=0.0, exclusive=True),
        "lobe_halfwidth_u": _float_field(minimum=0.0, exclusive=True),
        "lobe_halfwidth_v": _float_field(minimum=0.0, exclusive=True),
        "null_halfwidth_u": _float_field(minimum=0.0, exclusive=True),
        "null_halfwidth_v": _float_field(minimum=0.0, exclusive=True),
        "shoulder_scale": _float_field(minimum=0.0, exclusive=True),
        "shoulder_margin_db": _float_field(minimum=0.0),
        "flank_scale": _float_field(minimum=0.0, exclusive=True),
        "flank_margin_db": _float_field(minimum=0.0),
    },
    "synthesis": {
        "grid_n": _int_field(minimum=2),
        "swarm_size": _int_field(minimum=1),
        "iterations": _int_field(minimum=0),
        "inertia": _float_field(minimum=0.0),
        "cognitive": _float_field(minimum=0.0),
        "social": _float_field(minimum=0.0),
        # the codebook header stores the seed as a u64
        "seed": _int_field(minimum=0, maximum=2**64 - 1),
        "stagnation_window": _int_field(minimum=0),
        "stagnation_rtol": _float_field(minimum=0.0),
        "velocity_clamp": _float_field(minimum=0.0, exclusive=True),
    },
    "evaluation": {
        "grid_n": _int_field(minimum=2),
        "noise_power": _float_field(minimum=0.0),
    },
    "sweep": {
        "angles_deg": _angle_list_field(-90.0, 90.0),
    },
    "localization": {
        "candidates_deg": _incidence_angles,
        "repeats": _int_field(minimum=1),
    },
}

_IDENTITY = [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]
_NEG_IDENTITY = [[[-1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [-1.0, 0.0]]]

_PSO_DEFAULTS = asdict(PsoConfig())
_DEFAULTS = {
    "surface": {"rows": 10, "cols": 10, "cell_size_wl": 0.45, "f0_hz": 5.5e9},
    "modulation": {"period_s": 1.0e-6, "mode": "delta"},
    "states": {"gamma_on": _IDENTITY, "gamma_off": _NEG_IDENTITY},
    "incidence": {"theta_deg": 0.0, "phi_deg": 0.0, "amplitude_v_m": 1.0,
                  "polarization": "te"},
    "reflection": {"theta_deg": 0.0},
    "masks": asdict(MaskParams()),
    "synthesis": {"grid_n": 64, **_PSO_DEFAULTS},
    "evaluation": {"grid_n": 201, "noise_power": 0.0},
    "sweep": {"angles_deg": [0.0]},
    "localization": {"candidates_deg": [0.0, 10.0, 20.0, 30.0, 40.0, 50.0], "repeats": 1},
}


def _resolve(schema: dict, defaults: dict, user: dict, path: str = "") -> dict:
    for key in sorted(set(user) - set(schema)):
        close = difflib.get_close_matches(str(key), [str(k) for k in schema], n=1)
        hint = f"; did you mean '{_join(path, close[0])}'?" if close else ""
        raise ConfigError(f"unknown key '{_join(path, str(key))}'{hint}")
    out = {}
    for key, spec in schema.items():
        p = _join(path, key)
        if isinstance(spec, dict):
            sub = user.get(key)
            if sub is None:
                sub = {}
            if not isinstance(sub, dict):
                raise ConfigError(f"'{p}' must be a mapping")
            out[key] = _resolve(spec, defaults[key], sub, p)
        elif key in user and user[key] is not None:
            out[key] = spec(user[key], p)
        else:
            out[key] = defaults[key]
    return out


def _to_matrix(canon) -> np.ndarray:
    return np.array([[complex(c[0], c[1]) for c in row] for row in canon])


@dataclass(frozen=True)
class RunConfig:
    """Validated, fully-resolved run parameters."""

    resolved: dict

    @property
    def seed(self) -> int:
        return self.resolved["synthesis"]["seed"]

    @property
    def eval_grid_n(self) -> int:
        return self.resolved["evaluation"]["grid_n"]

    @property
    def noise_power(self) -> float:
        return self.resolved["evaluation"]["noise_power"]

    @property
    def sweep_angles_deg(self) -> list:
        return list(self.resolved["sweep"]["angles_deg"])

    @property
    def user_angles_deg(self) -> list:
        """sweep.angles_deg read as incidence angles, as sweep-user uses
        them; sweep-bs takes the signed range the schema allows."""
        return _incidence_angles(self.sweep_angles_deg, "sweep.angles_deg")

    @property
    def candidates_deg(self) -> list:
        return list(self.resolved["localization"]["candidates_deg"])

    @property
    def repeats(self) -> int:
        return self.resolved["localization"]["repeats"]

    def scenario(self) -> Scenario:
        r = self.resolved
        states, inc, synth = r["states"], r["incidence"], r["synthesis"]
        return Scenario(
            geometry=EmsGeometry(**r["surface"]),
            states=ReflectionStates(gamma_on=_to_matrix(states["gamma_on"]),
                                    gamma_off=_to_matrix(states["gamma_off"])),
            period_s=r["modulation"]["period_s"],
            mode=ControlMode(r["modulation"]["mode"]),
            theta_inc_deg=inc["theta_deg"],
            theta_refl_deg=r["reflection"]["theta_deg"],
            phi_inc_deg=inc["phi_deg"],
            amplitude_v_m=inc["amplitude_v_m"],
            jones=_JONES[inc["polarization"]],
            mask=MaskParams(**r["masks"]),
            pso=PsoConfig(**{k: synth[k] for k in _PSO_DEFAULTS}),
            synth_grid_n=synth["grid_n"],
        )


def parse_config(mapping: Optional[dict]) -> RunConfig:
    """Validate a raw mapping (e.g. parsed YAML) into a RunConfig."""
    if mapping is None:
        mapping = {}
    if not isinstance(mapping, dict):
        raise ConfigError("configuration root must be a mapping")
    cfg = RunConfig(resolved=_resolve(_SCHEMA, _DEFAULTS, mapping))
    cfg.scenario()  # passivity and row-parity checks surface here, not at first use
    return cfg


def load_config(path: Optional[str]) -> RunConfig:
    """Read a YAML file (or use pure defaults when path is None)."""
    if path is None:
        return parse_config({})
    with open(path, "r", encoding="utf-8") as fh:
        try:
            raw = yaml.safe_load(fh)
        except yaml.YAMLError as exc:
            raise ConfigError(f"could not parse {path}: {exc}") from exc
    return parse_config(raw)


def apply_overrides(cfg: RunConfig, seed: Optional[int] = None,
                    eval_grid_n: Optional[int] = None,
                    mode: Optional[str] = None) -> RunConfig:
    """Command-line overrides, reflected in the resolved mapping; the
    re-parse checks them as it checks a file's values."""
    raw = {k: (dict(v) if isinstance(v, dict) else v) for k, v in cfg.resolved.items()}
    if seed is not None:
        raw["synthesis"]["seed"] = int(seed)
    if eval_grid_n is not None:
        raw["evaluation"]["grid_n"] = int(eval_grid_n)
    if mode is not None:
        raw["modulation"]["mode"] = mode
    return parse_config(raw)
