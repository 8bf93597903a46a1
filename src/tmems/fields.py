"""Plane-wave excitation and harmonic far-field radiation of a modulated skin.

Conventions (time factor e^{+j w0 t}):
  * A direction (theta, phi) maps to cosines u = sin(theta)cos(phi),
    v = sin(theta)sin(phi); the visible region is u^2 + v^2 <= 1.
  * The incident wave travels toward the aperture, so its excitation phase at
    a cell barycenter r is e^{-j k0 k_inc . r} = e^{+j k0 (u_s x + v_s y)}
    with (u_s, v_s) the source direction cosines.
  * The reflected surface field is the per-cell harmonic reflection tensor
    applied to the incident (TE, TM) Jones vector. Radiation uses the
    equivalent-current combination z x (k x E) - E projected on the aperture
    tangent plane, with k the unit vector from the aperture back toward the
    source; that pairing gives the physical (1 + cos(theta)) obliquity, e.g.
    a fully-on ideal skin at normal incidence radiates maximally at broadside
    instead of not at all.
  * Patterns carry the spherical-spreading factor stripped: values are V/m
    referred to unit distance, two tangential components (x, y).
"""

from dataclasses import dataclass
from functools import cached_property
from typing import Optional

import numpy as np

from .geometry import EmsGeometry, check_integer, check_real
from .modulation import PulseSchedule, ReflectionStates

# Ratio floor in squared-field units: keeps the monopulse ratio finite when a
# schedule radiates no first harmonic at all.
XI_FLOOR = 1e-30

# Floor of power_db, in dB below the reference: keeps exact zeros (invisible
# or structurally nulled samples) finite and file-serializable.
DB_FLOOR = -400.0

_Z_AXIS = np.array([0.0, 0.0, 1.0])


@dataclass(frozen=True, eq=False)
class PlaneWaveIncidence:
    """Locally plane incident wave: direction, amplitude, and polarization.

    The Jones vector lives in the (TE, TM) basis of the incidence plane and
    must have unit norm; amplitude_v_m carries the field strength.
    """

    theta_deg: float
    phi_deg: float = 0.0
    amplitude_v_m: float = 1.0
    jones: tuple = (1.0 + 0.0j, 0.0 + 0.0j)

    def __post_init__(self):
        check_real("incidence theta_deg", self.theta_deg, 0.0, 90.0)
        check_real("incidence phi_deg", self.phi_deg)
        check_real("incidence amplitude_v_m", self.amplitude_v_m, 0.0, low_open=True)
        j = np.asarray(self.jones, dtype=complex)
        if j.shape != (2,):
            raise ValueError("jones must have exactly 2 components (TE, TM)")
        if not np.isfinite(j).all():
            raise ValueError("jones vector must be finite")
        if abs(np.linalg.norm(j) - 1.0) > 1e-9:
            raise ValueError("jones vector must have unit norm")
        object.__setattr__(self, "jones", (complex(j[0]), complex(j[1])))

    @cached_property
    def source_direction(self) -> np.ndarray:
        """Unit vector from the aperture origin toward the source."""
        th = np.deg2rad(self.theta_deg)
        ph = np.deg2rad(self.phi_deg)
        d = np.array([np.sin(th) * np.cos(ph), np.sin(th) * np.sin(ph), np.cos(th)])
        d.setflags(write=False)
        return d

    @property
    def u(self) -> float:
        return float(self.source_direction[0])

    @property
    def v(self) -> float:
        return float(self.source_direction[1])

    @cached_property
    def polarization_matrix(self) -> np.ndarray:
        """2x2 map from reflected (TE, TM) components to tangential (x, y) field.

        The TE (perpendicular) axis is phi-hat of the source direction, the
        TM (parallel) axis its theta-hat. Column i is the tangential
        projection (with sign) of z x (k_out x e_i) - e_i for axis e_i, where
        k_out points from the aperture toward the source. Real-valued.
        """
        th = np.deg2rad(self.theta_deg)
        ph = np.deg2rad(self.phi_deg)
        te = np.array([-np.sin(ph), np.cos(ph), 0.0])
        tm = np.array([np.cos(th) * np.cos(ph), np.cos(th) * np.sin(ph), -np.sin(th)])
        cols = []
        for e in (te, tm):
            b = np.cross(_Z_AXIS, np.cross(self.source_direction, e)) - e
            cols.append(-b[:2])
        m = np.column_stack(cols)
        m.setflags(write=False)
        return m


def incident_phase_factors(incidence: PlaneWaveIncidence, geometry: EmsGeometry) -> np.ndarray:
    """Per-cell unit-magnitude excitation phases, shape (n_cells,)."""
    xy = geometry.cell_xy_m
    return np.exp(1j * geometry.k0 * (incidence.u * xy[:, 0] + incidence.v * xy[:, 1]))


def _cell_sinc(geometry: EmsGeometry, s) -> np.ndarray:
    """One axis of the square-cell integral: sinc(k0 s a / 2), sinc(x) = sin(x)/x."""
    half = 0.5 * geometry.k0 * geometry.cell_edge_m
    return np.sinc(half * np.asarray(s, dtype=float) / np.pi)


def cell_factor(geometry: EmsGeometry, u, v):
    """Aperture integral of one square cell toward direction cosines (u, v).

    Separable closed form: area * sinc(k0 u a / 2) * sinc(k0 v a / 2) with
    sinc(x) = sin(x)/x. Accepts scalars or arrays (broadcast).
    """
    out = geometry.cell_area_m2 * _cell_sinc(geometry, u) * _cell_sinc(geometry, v)
    return out[()] if out.ndim == 0 else out


@dataclass(frozen=True, eq=False)
class DirectionGrid:
    """Uniform direction-cosine grid over [-1, 1]^2 with visibility flags."""

    u: np.ndarray
    v: np.ndarray

    def __post_init__(self):
        for name in ("u", "v"):
            a = np.array(getattr(self, name), dtype=float)
            if a.ndim != 1 or a.size < 2:
                raise ValueError(f"grid {name} axis needs at least 2 samples")
            if not np.isfinite(a).all():
                raise ValueError(f"grid {name} axis must be finite")
            steps = np.diff(a)
            if np.any(steps <= 0) or not np.allclose(steps, steps[0], rtol=1e-12, atol=1e-12):
                raise ValueError(f"grid {name} axis must be strictly increasing and uniform")
            a.setflags(write=False)
            object.__setattr__(self, name, a)

    @classmethod
    def uniform(cls, n: int) -> "DirectionGrid":
        """n x n grid spanning [-1, 1] on both axes (odd n includes 0)."""
        check_integer("grid resolution", n, 2)
        axis = np.linspace(-1.0, 1.0, n)
        return cls(u=axis, v=axis)

    @property
    def shape(self):
        return (self.u.size, self.v.size)

    @property
    def du(self) -> float:
        return float(self.u[1] - self.u[0])

    @property
    def dv(self) -> float:
        return float(self.v[1] - self.v[0])

    @cached_property
    def cell_weight(self) -> float:
        """Quadrature weight of one grid cell in (u, v) space."""
        return self.du * self.dv

    @cached_property
    def visible(self) -> np.ndarray:
        """Boolean (nu, nv) mask of directions inside the unit disc."""
        uu, vv = np.meshgrid(self.u, self.v, indexing="ij")
        m = uu**2 + vv**2 <= 1.0
        m.setflags(write=False)
        return m

    def nearest_index(self, u: float, v: float):
        """Indices of the grid node nearest to (u, v)."""
        iu = int(np.clip(np.rint((u - self.u[0]) / self.du), 0, self.u.size - 1))
        iv = int(np.clip(np.rint((v - self.v[0]) / self.dv), 0, self.v.size - 1))
        return iu, iv


@dataclass(frozen=True, eq=False)
class HarmonicPattern:
    """Far-field samples of one harmonic over a direction grid.

    field has shape (nu, nv, 2): tangential (x, y) components in V/m at unit
    distance, zeroed outside the visible disc.
    """

    harmonic: int
    omega_rad_s: float
    grid: DirectionGrid
    field: np.ndarray

    @property
    def power(self) -> np.ndarray:
        """|E|^2 summed over both components, shape (nu, nv)."""
        return np.abs(self.field[..., 0]) ** 2 + np.abs(self.field[..., 1]) ** 2


def power_db(power, reference: float):
    """Decibels of power relative to a positive reference, floored at DB_FLOOR."""
    if not (reference > 0.0):
        raise ValueError("dB reference power must be positive")
    p = np.asarray(power, dtype=float)
    lin_floor = reference * 10.0 ** (DB_FLOOR / 10.0)
    out = 10.0 * np.log10(np.maximum(p, lin_floor) / reference)
    return out[()] if out.ndim == 0 else out


def steering_factors(geometry: EmsGeometry, u, v):
    """Separable far-field kernel of the cell lattice toward direction cosines.

    A unit source on cell (p, q), centred at (x_p, y_q), radiates
    j k0 / (4 pi) * cell_factor(u, v) * e^{j k0 (u x_p + v y_q)}. Both the cell
    integral and the phase factorise, so the kernel is A_u[., p] * A_v[., q]
    with A_u = j k0 / (4 pi) * area * sinc_u * e^{j k0 u x_p}, shape
    (len(u), rows), and A_v = sinc_v * e^{j k0 v y_q}, shape (len(v), cols).
    """
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    k0 = geometry.k0
    pref = 1j * k0 / (4.0 * np.pi) * geometry.cell_area_m2
    a_u = (pref * _cell_sinc(geometry, u))[:, None] * np.exp(1j * k0 * np.multiply.outer(u, geometry.row_x_m))
    a_v = _cell_sinc(geometry, v)[:, None] * np.exp(1j * k0 * np.multiply.outer(v, geometry.col_y_m))
    return a_u, a_v


def steering_rows(geometry: EmsGeometry, u, v) -> np.ndarray:
    """Kernel rows for exact directions (u[i], v[i]): (n, n_cells), cells
    row-major, built from the separable factors."""
    a_u, a_v = steering_factors(geometry, np.atleast_1d(u), np.atleast_1d(v))
    return (a_u[:, :, None] * a_v[:, None, :]).reshape(a_u.shape[0], geometry.n_cells)


def state_sources(states: ReflectionStates, incidence: PlaneWaveIncidence):
    """Tangential sources a = M2 Gamma_on J and b = M2 Gamma_off J, each (2,).

    The harmonic tensor mixes the two states linearly, so a cell with
    indicator coefficient u^h radiates g * (delta_h0 * b + u^h * (a - b)),
    g its incident drive; scalar and tensor states share this form.
    """
    m2 = incidence.polarization_matrix
    jones = np.asarray(incidence.jones)
    return m2 @ (states.gamma_on @ jones), m2 @ (states.gamma_off @ jones)


class FieldEngine:
    """Radiation tables for one geometry and, optionally, one direction grid.

    The tables are never mutated after construction, so one engine may be
    shared freely across threads. Without a grid only field_at works.
    """

    def __init__(self, geometry: EmsGeometry, grid: Optional[DirectionGrid] = None):
        self.geometry = geometry
        self.grid = grid
        if grid is None:
            return
        self._hidden = ~grid.visible
        self._n_visible = int(np.count_nonzero(grid.visible))
        self._a_u, self._a_v = steering_factors(geometry, grid.u, grid.v)

    @property
    def n_visible(self) -> int:
        return self._n_visible

    def _cell_weights(self, schedule: PulseSchedule, states: ReflectionStates,
                      incidence: PlaneWaveIncidence, h: int) -> np.ndarray:
        """Per-cell tangential source vectors (n_cells, 2) for harmonic h."""
        if schedule.shape != (self.geometry.rows, self.geometry.cols):
            raise ValueError("schedule shape does not match the geometry")
        a, b = state_sources(states, incidence)
        g = incident_phase_factors(incidence, self.geometry) * incidence.amplitude_v_m
        src = schedule.fourier_coefficients(h).reshape(-1, 1) * (a - b)
        if h == 0:
            src += b
        return g[:, None] * src

    def _apply_steering(self, weights: np.ndarray) -> np.ndarray:
        """Radiate (n_cells, k) sources toward every grid node: (nu, nv, k).

        Per column F = A_u W A_v^T, W the (rows, cols) sources: one small
        matmul per row of W, then one matmul over the rows. Invisible nodes
        are computed like the rest and left for the caller to mask.
        """
        rows, k = self.geometry.rows, weights.shape[1]
        t = np.matmul(self._a_v, weights.reshape(rows, self.geometry.cols, k))
        return (self._a_u @ t.reshape(rows, -1)).reshape(self._a_u.shape[0], -1, k)

    def pattern(self, schedule: PulseSchedule, states: ReflectionStates,
                incidence: PlaneWaveIncidence, h: int) -> HarmonicPattern:
        """Far-field pattern of harmonic h over the engine's grid."""
        if self.grid is None:
            raise ValueError("pattern needs an engine built with a direction grid")
        w = self._cell_weights(schedule, states, incidence, h)
        field = self._apply_steering(w)
        field[self._hidden] = 0.0
        omega = self.geometry.omega0 + h * 2.0 * np.pi / schedule.period_s
        return HarmonicPattern(harmonic=h, omega_rad_s=omega, grid=self.grid, field=field)

    def field_at(self, u, v, schedule: PulseSchedule, states: ReflectionStates,
                 incidence: PlaneWaveIncidence, h: int) -> np.ndarray:
        """Exact-direction samples, shape (n_directions, 2) complex.

        Directions must lie inside the visible disc; NaN lies outside it.
        """
        u = np.atleast_1d(np.asarray(u, dtype=float))
        v = np.atleast_1d(np.asarray(v, dtype=float))
        if not np.all(u**2 + v**2 <= 1.0 + 1e-12):
            raise ValueError("direction outside the visible disc")
        w = self._cell_weights(schedule, states, incidence, h)
        return steering_rows(self.geometry, u, v) @ w


@dataclass(frozen=True)
class MonopulseRatio:
    xi: float
    p_sigma: float
    p_delta: float
    floored: bool


def ratio_from_powers(p_sigma: float, p_delta: float) -> MonopulseRatio:
    """Sum/difference power ratio with a tiny floor on the denominator."""
    floored = p_delta < XI_FLOOR
    return MonopulseRatio(
        xi=float(p_sigma) / max(float(p_delta), XI_FLOOR),
        p_sigma=float(p_sigma),
        p_delta=float(p_delta),
        floored=bool(floored),
    )
