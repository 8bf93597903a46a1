"""Mask-violation cost and seeded particle-swarm search over pulse schedules.

The search space is the unit hypercube: every coordinate is either a rise
instant (periodic, evolves on the torus [0, 1)) or a duty (reflecting walls
at 0 and 1). A control mode maps the vector onto per-cell pulses; the cost is
the grid-integrated one-sided violation of the power masks at harmonics 0
and 1.
"""

import copy
import itertools
from dataclasses import dataclass
from functools import cached_property
from typing import Optional, Sequence

import numpy as np

from .fields import PlaneWaveIncidence, state_sources, steering_factors
from .geometry import EmsGeometry, check_integer
from .masks import MaskSet
from .modulation import (
    ControlMode,
    PulseSchedule,
    ReflectionStates,
    check_delta_applicable,
    check_pulses,
    mirror_rise,
    sideband_coefficients,
)


# A (u-row, particle) pair is radiated only when its power bound, raised by
# this relative slack against the bound's own rounding, exceeds the row's
# lowest ceiling (CostEvaluator).
BOUND_SLACK = 1e-9


def _matmul_rows(a: np.ndarray, b: np.ndarray, out: np.ndarray) -> np.ndarray:
    """a @ b into out, every row rounded as in any product of two rows or
    more: BLAS takes another path for a lone row (OpenBLAS forwards it to
    gemv), so a lone row is multiplied as a pair."""
    if a.shape[0] == 1:
        out[:] = (np.concatenate([a, a]) @ b)[:1]
        return out
    return np.matmul(a, b, out=out)


class _Fold:
    """Steering factors of one control mode with its two rules folded in.

    The drive factorises as g = g_x (x) g_y, so with a full schedule's
    coefficients U (rows, cols) harmonic h radiates A_u diag(g_x) U
    diag(g_y) A_v^T. The mode writes U = R_h C E^T from its control block C
    (p, q): R_h stacks the identity over (-1)^h times the flipped identity
    when the mode is mirrored (a rise half a period later multiplies u^h by
    (-1)^h) and is the identity otherwise; E is a column of ones when the
    mode is column-wise and the identity otherwise. So the field is
    L_h C R^T with L_h = A_u diag(g_x) R_h (n, p) and R = A_v diag(g_y) E
    (n, q), and a node's row is the outer product of its rows of L_h and R.

    left_t[h] is L_h^T on the grid's u (p, nu) and right_t R^T on the
    grid's v (q, nv); r_max (q,) holds the largest |R| of each column there,
    and r_shape (nv,) is (|R| / max |R|)^2 of the first column, for q = 1.
    points[h] (p * q, n_points) holds the rows of harmonic h's point nodes
    as columns, cells of the block row-major; points gives each node by its
    (u, v) rows of rows_g and cols_g.
    """

    def __init__(self, mode: ControlMode, rows_g: np.ndarray, cols_g: np.ndarray,
                 nu: int, nv: int, points: tuple):
        half = rows_g.shape[1] // 2
        right = cols_g.sum(axis=1, keepdims=True) if mode.columnwise else cols_g
        if mode.mirrored:
            flipped = rows_g[:, ::-1][:, :half]
            left = (rows_g[:, :half] + flipped, rows_g[:, :half] - flipped)
        else:
            left = (rows_g, rows_g)
        self.shape = (left[0].shape[1], right.shape[1])
        self.left_t = tuple(np.ascontiguousarray(x[:nu].T) for x in left)
        self.right_t = np.ascontiguousarray(right[:nv].T)
        self.r_max = np.abs(right[:nv]).max(axis=0)
        self.r_shape = (np.abs(right[:nv, 0]) / self.r_max[0])**2
        n_cells = self.shape[0] * self.shape[1]
        self.points = tuple(np.ascontiguousarray(
            (x[iu, :, None] * right[iv, None, :]).reshape(-1, n_cells).T)
            for x, (iu, iv) in zip(left, points))


def _spans(start: list) -> list:
    """(design, lo, hi) for each design with blocks, from phi_batch's start."""
    return [(e, lo, hi) for e, (lo, hi) in enumerate(zip(start, start[1:])) if lo < hi]


class CostEvaluator:
    """Precomputed mask-violation cost Phi for one scenario on the masks' grid.

    Phi = sum over harmonics h in {0, 1} and visible grid nodes of
    w * max(P_h - upper_h, 0) + w * max(lower_h - P_h, 0), with w the grid-cell
    weight, plus the same terms at the masks' exact-direction anchors. Phi is
    0 exactly when every bound is met.

    phi_batch scores the control blocks of a mode (ModeCodec.control_shape):
    the mode's two rules are folded into the separable steering factors
    once, at the mode's first call (see _Fold), so no call decodes a
    schedule, and a mirrored mode radiates half the rows. One
    route serves every mode and mask. On the grid, harmonic h of a block C
    radiates F = T R^T with T = L_h C (nu, q), so every node of u-row u has
    |F(u, v)|^2 <= (sum_q |T[u, q]| max_v |R[v, q]|)^2. A (u-row, block)
    pair whose bound, raised by BOUND_SLACK against its rounding, lies at or
    below the row's lowest ceiling adds exactly 0 to the ceiling terms, so
    only the other pairs are radiated, a design's in one product. The point
    nodes (each harmonic's grid nodes with a lower bound, then every anchor)
    are radiated and scored against both of their bounds. With a limit the
    terms come in stages, each for the blocks the ones before left below
    their limits.

    A block's cost is rounded the same at any position in a batch of any
    size: each product that spans blocks holds them in its rows, and a lone
    row is multiplied as a pair (_matmul_rows).

    A stack of evaluators (stack) holds them as its designs, so that one
    call scores blocks of every design (phi_batch's counts), in any mode.
    A design's blocks are one span of rows, and every step reads the span's
    tables from that design's own evaluator: its folds, |d| and beta, row
    ceilings, point bounds and grid ceilings, which broadcast over the
    span. No table is joined or gathered per block, so a stack of one
    scores as its evaluator does, and each design's costs equal its own
    evaluator's bit for bit. The grid-ceiling stage, the largest, scores
    one design's span at a time (_ceiling_terms), so its temporaries hold
    one design's blocks at most.

    The bounds, weights and factors are never mutated after construction.
    A call allocates its temporaries for itself and mutates nothing but its
    designs' fold caches: a mode's fold is added to a design's evaluator at
    its first call.
    """

    def __init__(self, geometry: EmsGeometry, states: ReflectionStates,
                 incidence: PlaneWaveIncidence, masks: MaskSet, period_s: float):
        self.geometry = geometry
        self.grid = grid = masks.grid
        self.states = states
        self.incidence = incidence
        self.masks = masks
        self.period_s = float(period_s)
        anchors = masks.anchor_uv
        n_anchors = anchors.shape[0]
        # an anchor is a hard point requirement, so it weighs as much as a
        # main-lobe box worth of grid nodes, not a single cell
        fn = 1.0 / (geometry.rows * geometry.cell_size_wl)
        self.anchor_weight = (4.0 * fn) * (4.0 * fn)
        # A cell radiates g * (delta_h0 * b + u^h * d) with d = a - b (see
        # fields.state_sources) and g its incident drive. Split b into
        # beta * d / |d| plus a part beta_perp orthogonal to d: then
        #   P_h = |K(g * (delta_h0 * beta + |d| * u^h))|^2 + delta_h0 * |beta_perp K(g)|^2
        # with K the far-field kernel. The second term does not depend on the
        # schedule, so it shifts the h = 0 bounds instead of every power.
        a, b = state_sources(states, incidence)
        d = a - b
        d_norm = float(np.linalg.norm(d))
        e = d / d_norm if d_norm > 0.0 else np.array([1.0 + 0j, 0j])
        self._d_norm = d_norm
        self._beta = complex(np.vdot(e, b))
        beta_perp2 = abs(e[0] * b[1] - e[1] * b[0]) ** 2
        # the separable factors with the drive g = g_x (x) g_y folded in:
        # rows for the grid's u (v), then the anchors' u (v)
        nu, nv = grid.shape
        a_u, a_v = steering_factors(geometry, np.concatenate([grid.u, anchors[:, 0]]),
                                    np.concatenate([grid.v, anchors[:, 1]]))
        k0 = geometry.k0
        g_x = np.exp(1j * k0 * incidence.u * geometry.row_x_m) * incidence.amplitude_v_m
        g_y = np.exp(1j * k0 * incidence.v * geometry.col_y_m)
        rows_g = a_u * g_x
        cols_g = a_v * g_y
        # K(g) = (A_u g_x) (x) (A_v g_y) on the grid, their product at anchors
        f_x, f_y = rows_g.sum(axis=1), cols_g.sum(axis=1)
        s0 = np.concatenate([np.outer(f_x[:nu], f_y[:nv]).ravel(), f_x[nu:] * f_y[nv:]])
        carrier_floor = beta_perp2 * (s0.real**2 + s0.imag**2)
        # bounds of every node, the nu * nv grid row-major, then the anchors
        vis = grid.visible.ravel()
        n = vis.size
        lower = np.concatenate([np.where(vis, masks.lower.reshape(2, n), 0.0),
                                masks.anchor_lower], axis=1)
        upper = np.concatenate([np.where(vis, masks.upper.reshape(2, n), np.inf),
                                masks.anchor_upper], axis=1)
        # the point nodes of harmonic h: its grid nodes with a lower bound
        # (the rows score their ceilings), then every anchor
        anchor = n + np.arange(n_anchors)
        nodes = [np.concatenate([np.flatnonzero(lower[h, :n] > 0.0), anchor]) for h in (0, 1)]
        lower[0] -= carrier_floor
        upper[0] -= carrier_floor
        # the grid ceilings are _grid_upper (2, nu, nv), their lowest per
        # u-row _row_ceiling (2, nu), and _point_bounds[h] stacks harmonic
        # h's point nodes' lower and upper bounds and weights
        self._grid_upper = upper[:, :n].reshape(2, nu, nv)
        self._row_ceiling = self._grid_upper.min(axis=2) / (1.0 + BOUND_SLACK)
        self._point_bounds = tuple(
            np.array([lower[h, idx], np.where(idx < n, np.inf, upper[h, idx]),
                      np.where(idx < n, grid.cell_weight, self.anchor_weight)])
            for h, idx in enumerate(nodes))
        # a node's rows of rows_g and cols_g: (u, v) on the grid, (nu + k,
        # nv + k) for anchor k
        uv = [np.where(idx < n, np.divmod(idx, nv), idx - n + np.array([[nu], [nv]]))
              for idx in nodes]
        self._factors = (rows_g, cols_g, nu, nv, uv)
        self._folds = {}
        self._members = ()  # a stack's evaluators; a lone one never refers to itself

    @staticmethod
    def stack(evaluators: Sequence["CostEvaluator"]) -> "CostEvaluator":
        """An evaluator of evaluators[0]'s design whose design e is also
        evaluators[e]'s, for phi_batch calls that score blocks of several
        designs. The evaluators share the geometry's size and the grid's."""
        if len({(ev.geometry.rows, ev.geometry.cols, ev.grid.shape, ev.grid.cell_weight)
                for ev in evaluators}) != 1:
            raise ValueError("a stack needs one or more evaluators that share the geometry's "
                             "and the grid's size")
        stacked = copy.copy(evaluators[0])
        stacked._members = tuple(evaluators)
        return stacked

    def _designs(self) -> tuple:
        """The evaluator of each design: a stack's members, or this one."""
        return self._members or (self,)

    def _fold(self, mode: ControlMode) -> list:
        """The mode's fold of each design, built at its first use and kept
        by that design's evaluator."""
        if not isinstance(mode, ControlMode):
            raise ValueError(f"unknown control mode {mode!r}")
        folds = []
        for ev in self._designs():
            fold = ev._folds.get(mode)
            if fold is None:
                if mode.mirrored:
                    check_delta_applicable(ev.geometry.rows)
                fold = ev._folds[mode] = _Fold(mode, *ev._factors)
            folds.append(fold)
        return folds

    def _coefficients(self, h: int, rises: np.ndarray, duties: np.ndarray, tables: list,
                      spans: list) -> np.ndarray:
        """Source coefficients |d| u^h + delta_h0 beta of stacked blocks,
        shaped as the blocks, with the |d| and beta of each span's design.
        u^0 is the duty itself, so h = 0 needs no exponential; phi_batch
        has checked the blocks' ranges."""
        if h == 0:
            u = np.empty(rises.shape, complex)
            for e, lo, hi in spans:
                ev = tables[e][0]
                np.add(duties[lo:hi] * ev._d_norm, ev._beta, out=u[lo:hi])
            return u
        u = sideband_coefficients(rises, duties, h)
        for e, lo, hi in spans:
            u[lo:hi] *= tables[e][0]._d_norm
        return u

    def phi_batch(self, rises: np.ndarray, duties: np.ndarray,
                  mode: ControlMode = ControlMode.FULL,
                  counts: Optional[Sequence[int]] = None,
                  limit: Optional[np.ndarray] = None) -> np.ndarray:
        """Costs of a stack of the mode's control blocks, given as rises and
        duties of shape (batch,) + ModeCodec.control_shape; under FULL a
        block is the whole (rows, cols) schedule. On a stack of evaluators
        (stack), counts (a list, tuple or array) gives each design's number
        of blocks, non-negative integers summing to the batch, and design
        e's blocks follow those of the designs before it; by default every
        block is design 0. With a limit (batch,) of floats, not NaN, a block
        whose cost is at least its limit may return any value in [limit,
        cost]; the others return their cost. The rises and duties of every
        block are range-checked, also of those that their limit drops. No
        blocks cost an empty array."""
        folds = self._fold(mode)
        p, q = folds[0].shape
        if rises.shape[1:] != (p, q) or duties.shape != rises.shape:
            raise ValueError(f"expected {mode.value} blocks of shape (batch, {p}, {q}), "
                             f"got {rises.shape} and {duties.shape}")
        rises, duties = np.asarray(rises, dtype=float), np.asarray(duties, dtype=float)
        check_pulses(rises, duties)
        batch = rises.shape[0]
        if limit is not None:
            limit = np.asarray(limit)
            if limit.shape != (batch,) or limit.dtype.kind != "f" or np.isnan(limit).any():
                raise ValueError(f"limit must give each of the {batch} blocks a non-NaN float")
        # each design's evaluator and fold
        tables = list(zip(self._designs(), folds))
        if counts is None:
            counts = [batch] + [0] * (len(tables) - 1)
        if (not isinstance(counts, (list, tuple, np.ndarray)) or len(counts) != len(tables)
                or not all((type(n) is int or isinstance(n, np.integer)) and n >= 0
                           for n in counts) or sum(counts) != batch):
            raise ValueError(f"counts must give each of the {len(tables)} designs a non-negative "
                             f"integer count of blocks, summing to the {batch} blocks")
        if not batch:
            return np.empty(0)
        # design e's blocks are rows start[e]:start[e + 1]. The terms come
        # in stages: a block costs ((P0 + C0) + P1) + C1 with P_h, C_h >= 0
        # its point and grid-ceiling terms at harmonic h, so P0 <= P0 + P1
        # <= cost (rounded addition is monotone). Every block scores P0;
        # only the blocks with P0 below their limit form their h = 1
        # coefficients and score P1, and only those with P0 + P1 below it
        # radiate the ceilings. A block dropped at a stage returns its bound
        # there.
        start = [0, *itertools.accumulate(counts)]
        spans = _spans(start)
        total = np.empty(batch)
        rows = slice(None)  # the rows of total that the live blocks fill
        coefs, points = [], []
        for h in (0, 1):
            coefs.append(self._coefficients(h, rises, duties, tables, spans))
            points.append(self._point_terms(h, coefs[h], tables, spans))
            if limit is None:
                continue
            bound = points[0] if h == 0 else points[0] + points[1]
            live = (bound < limit).nonzero()[0]
            if live.size == len(bound):
                continue
            total[rows] = bound
            if live.size == 0:
                return total
            # the live blocks, with their own spans
            rows = live if isinstance(rows, slice) else rows[live]
            coefs = [coef.take(live, axis=0) for coef in coefs]
            points = [point[live] for point in points]
            if h == 0:
                rises, duties = rises.take(live, axis=0), duties.take(live, axis=0)
                limit = limit[live]
            start = live.searchsorted(start).tolist()
            spans = _spans(start)
        ceilings = np.empty((2, len(points[0])))
        for e, lo, hi in spans:
            ceilings[:, lo:hi] = self._ceiling_terms([coef[lo:hi] for coef in coefs], *tables[e])
        total[rows] = ((points[0] + ceilings[0]) + points[1]) + ceilings[1]
        return total

    def _point_terms(self, h: int, coef: np.ndarray, tables: list, spans: list) -> np.ndarray:
        """Harmonic h's point nodes, against both bounds, one design's span
        of blocks at a time: one term per block."""
        blocks = coef.reshape(len(coef), -1)
        total = np.empty(len(coef))
        for e, lo, hi in spans:
            ev, fold = tables[e]
            lower, upper, w = ev._point_bounds[h]
            f = np.empty((hi - lo, lower.size), complex)
            _matmul_rows(blocks[lo:hi], fold.points[h], f)
            p = f.real**2 + f.imag**2
            over = np.maximum(lower - p, p - upper)
            over = np.maximum(over, 0.0, out=over) * w
            np.add.reduce(over, axis=1, out=total[lo:hi])
        return total

    def _ceiling_terms(self, coefs: list, ev: "CostEvaluator", fold: _Fold) -> np.ndarray:
        """Both harmonics' grid ceilings, (2, batch), of one design's blocks,
        on the rows whose bound can reach them, from that design's evaluator
        ev and fold alone. T = L_h C of each block is held transposed, (2,
        batch, q, nu), so that the blocks are the products' rows; the pairs
        of both harmonics are radiated together."""
        batch = len(coefs[0])
        _, nu, nv = ev._grid_upper.shape
        q = fold.shape[1]
        t = np.empty((2, batch * q, nu), complex)
        for h, coef in enumerate(coefs):
            _matmul_rows(coef.transpose(0, 2, 1).reshape(batch * q, -1), fold.left_t[h], t[h])
        t = t.reshape(2, batch, q, nu)
        bound = np.matmul(fold.r_max, np.abs(t))
        bound *= bound
        # hk indexes (harmonic, block) pairs as h * batch + block
        hk, uu = (bound > ev._row_ceiling[:, None]).reshape(2 * batch, nu).nonzero()
        n = hk.size
        if n == 0:
            return np.zeros((2, batch))
        if q == 1:  # |T R|^2 = |T|^2 |R|^2 = bound |R|^2 / max |R|^2
            power = bound.reshape(2 * batch, nu)[hk, uu][:, None] * fold.r_shape
        else:
            x = t.reshape(2 * batch, q, nu)[hk, :, uu]  # each pair's row of T, (n, q)
            f = _matmul_rows(x, fold.right_t, np.empty((n, nv), complex))
            power = f.real * f.real
            power += np.square(f.imag)
        # each pair's row of the grid ceilings, of its harmonic
        power -= ev._grid_upper.reshape(2 * nu, nv).take(uu + nu * (hk >= batch), axis=0)
        over = np.add.reduce(np.maximum(power, 0.0, out=power), axis=1)
        ceilings = np.bincount(hk, weights=over, minlength=2 * batch) * ev.grid.cell_weight
        return ceilings.reshape(2, batch)

    def phi(self, schedule: PulseSchedule) -> float:
        """Cost of a single full schedule."""
        if schedule.shape != (self.geometry.rows, self.geometry.cols):
            raise ValueError("schedule shape does not match the geometry")
        return float(self.phi_batch(schedule.rise[None], schedule.duty[None])[0])


@dataclass(frozen=True)
class ModeCodec:
    """Bijection between a search vector in [0,1]^dim and a full schedule.

    The vector holds the rises, then the duties, of a control block: the
    first half of the rows when the mode is mirrored, the first column when
    it is column-wise. blocks splits vectors into blocks, which is what the
    cost scores (CostEvaluator.phi_batch applies the mode's rules itself).
    Decoding, for writing schedules, mirrors the rows, then tiles the
    columns; encoding keeps the block and drops the derived cells.
    """

    mode: ControlMode
    rows: int
    cols: int

    def __post_init__(self):
        check_integer("codec rows", self.rows, 0)
        check_integer("codec cols", self.cols, 0)
        if self.rows == 0 or self.cols == 0:
            raise ValueError("empty search space")
        if self.mode.mirrored:
            check_delta_applicable(self.rows)

    @cached_property
    def control_shape(self) -> tuple:
        """(rows, cols) of the cells the search vector sets directly."""
        return (self.rows // 2 if self.mode.mirrored else self.rows,
                1 if self.mode.columnwise else self.cols)

    @cached_property
    def dim(self) -> int:
        p, q = self.control_shape
        return 2 * p * q

    def blocks(self, x: np.ndarray):
        """(batch, dim) vectors -> (rises, duties) of the control block,
        each (batch,) + control_shape."""
        x = np.asarray(x, dtype=float)
        if x.ndim == 1:
            x = x[None, :]
        if x.shape[1] != self.dim:
            raise ValueError(f"expected vectors of length {self.dim}, got {x.shape[1]}")
        shape = (x.shape[0],) + self.control_shape
        half = self.dim // 2
        return x[:, :half].reshape(shape), x[:, half:].reshape(shape)

    def decode_batch(self, x: np.ndarray):
        """(batch, dim) vectors -> (rises, duties), each (batch, rows, cols)."""
        rise, duty = self.blocks(x)
        if self.mode.mirrored:
            rise = np.concatenate([rise, mirror_rise(rise)[:, ::-1]], axis=1)
            duty = np.concatenate([duty, duty[:, ::-1]], axis=1)
        if self.mode.columnwise:
            rise = np.repeat(rise, self.cols, axis=2)
            duty = np.repeat(duty, self.cols, axis=2)
        return rise, duty

    def decode(self, x: np.ndarray, period_s: float) -> PulseSchedule:
        rise, duty = self.decode_batch(np.asarray(x))
        return PulseSchedule(period_s=period_s, rise=rise[0], duty=duty[0])

    def encode(self, rise: np.ndarray, duty: np.ndarray) -> np.ndarray:
        """Full (rows, cols) arrays -> search vector of the control block."""
        rise = np.asarray(rise, dtype=float)
        duty = np.asarray(duty, dtype=float)
        if rise.shape != (self.rows, self.cols) or duty.shape != rise.shape:
            raise ValueError("rise/duty shape does not match the codec")
        p, q = self.control_shape
        return np.concatenate([rise[:p, :q].ravel(), duty[:p, :q].ravel()])


@dataclass(frozen=True)
class PsoConfig:
    swarm_size: int = 20
    iterations: int = 1000
    inertia: float = 0.4
    cognitive: float = 2.0
    social: float = 2.0
    seed: int = 1
    stagnation_window: int = 100
    stagnation_rtol: float = 1e-6
    velocity_clamp: float = 0.5

    def __post_init__(self):
        for name, low in (("swarm_size", 1), ("iterations", 0), ("stagnation_window", 0)):
            check_integer(name, getattr(self, name), low)
        check_integer("seed", self.seed, 0, 2**64 - 1)  # a codebook stores it as a u64
        # written so that NaN fails every range test
        for name in ("inertia", "cognitive", "social", "stagnation_rtol"):
            if not (0.0 <= getattr(self, name) < np.inf):
                raise ValueError(f"{name} must be finite and non-negative")
        if not (0.0 < self.velocity_clamp < np.inf):
            raise ValueError("velocity_clamp must be positive and finite")


@dataclass
class PsoResult:
    best_x: np.ndarray
    best_value: float
    history: np.ndarray
    iterations: int
    stop_reason: str


def _wrap_unit(x: np.ndarray) -> np.ndarray:
    """x mod 1 into [0, 1), in place.

    x - floor(x) is the correctly rounded x mod 1, as np.mod(x, 1.0) is, so
    the two agree bit for bit. A negative x within half an ulp of 0 rounds up
    to exactly 1.0 (np.mod(-5.551115123125783e-17, 1.0) == 1.0), which is no
    valid rise; that result maps to 0.0, the point it stands for on the torus.
    """
    x -= np.floor(x)
    np.copyto(x, 0.0, where=x == 1.0)
    return x


def _checked_costs(objective, x: np.ndarray, counts: list,
                   limit: Optional[np.ndarray] = None) -> np.ndarray:
    """objective on the stacked swarms x (swarms, dim, particles), each
    design's count of them as a tuple, and their limits (swarms,
    particles), as (swarms, particles) costs."""
    swarms, dim, particles = x.shape
    f = np.asarray(objective(x.transpose(0, 2, 1).reshape(-1, dim), tuple(counts),
                             None if limit is None else limit.reshape(-1)), dtype=float)
    if f.shape != (swarms * particles,):
        raise ValueError("objective must return one value per particle")
    if not np.isfinite(f).all():
        i = int(np.flatnonzero(~np.isfinite(f))[0])
        raise ValueError(f"non-finite cost {float(f[i])} for particle {i}")
    return f.reshape(swarms, particles)


def minimize_swarms(objective, dim: int, config: PsoConfig,
                    seeds: Sequence[Sequence[int]],
                    n_wrap: int = 0,
                    init: Optional[np.ndarray] = None) -> list:
    """Global-best PSO over [0, 1]^dim with seeded, order-fixed random draws,
    for several designs, each with several seeds, at once: one independent
    swarm per (design, seed), all advanced in lockstep. config.seed is not
    used.

    Args:
        objective: batched callable objective(x, counts, limit), below;
            its costs must be finite.
        dim: search dimensionality (>= 1).
        config: swarm hyperparameters; the velocity clamp is a fraction of
            the unit coordinate range.
        seeds: seeds[d] lists design d's seeds, one swarm each.
        n_wrap: how many leading coordinates are periodic (wrap mod 1,
            shortest-path attraction), in [0, dim]; the rest reflect at
            the unit bounds.
        init: optional (designs, dim) deterministic starts; row d is placed
            on particle 0 of each of design d's swarms (the rest stays
            random) and consumes no random draws.

    Returns one list per design holding one PsoResult per seed in order:
    the best vector, its cost, the per-iteration best-cost history
    (monotone non-increasing, entry 0 is the initial swarm), the number of
    update iterations performed, and why the swarm stopped.

    Every swarm draws from its own default_rng(seed) in a fixed order (its
    initial positions, then two vectors per particle per iteration, drawn as
    one (swarm, 2, dim) block) and keeps its own best, history and stop
    rule. Each iteration calls objective(x, counts, limit) once: x stacks
    the positions of every swarm still running ((running * swarm, dim)),
    the swarms of a design adjacent and in seed order, designs in order;
    counts, a tuple, gives each design's number of running swarms; limit
    holds the particles' personal-best costs flattened as x (None for the
    initial swarm). Where a cost is at least its limit the objective may
    return any value in [limit, cost], which improves no particle. A
    stopped swarm is neither scored nor drawn for again. So a swarm's
    result depends on its seed and design alone whenever the objective
    scores a particle independently of its batch and by its swarm's design
    alone.
    """
    if dim < 1:
        raise ValueError("empty search space")
    check_integer("n_wrap", n_wrap, 0, dim)
    if any(len(s) < 1 for s in seeds):
        raise ValueError("every design needs at least one seed")
    if not seeds:
        return []
    owner = [(d, i) for d, s in enumerate(seeds) for i in range(len(s))]  # of each swarm
    rngs = [np.random.default_rng(seed) for s in seeds for seed in s]
    c = config.swarm_size

    # state arrays carry a leading swarm axis over the running swarms only,
    # the swarms of a design adjacent and in seed order; x is (swarms, dim,
    # particles), so the periodic and the reflecting coordinates are two
    # contiguous blocks, and a swarm's (particles, dim) draws are transposed
    x = np.empty((len(rngs), c, dim))
    for rng, xs in zip(rngs, x):
        rng.random(out=xs)
    x = x.transpose(0, 2, 1).copy()
    if init is not None:
        start = np.array(init, dtype=float)
        if start.shape != (len(seeds), dim):
            raise ValueError(f"init must have shape ({len(seeds)}, {dim})")
        _wrap_unit(start[:, :n_wrap])
        np.clip(start[:, n_wrap:], 0.0, 1.0, out=start[:, n_wrap:])
        x[:, :, 0] = start[[d for d, _ in owner]]
    running = list(range(len(rngs)))  # swarm index of each state row
    counts = [len(s) for s in seeds]  # running swarms of each design

    vel = np.zeros_like(x)
    f = _checked_costs(objective, x, counts)
    # the two targets of every particle: best[:, :, 0] is its own best,
    # best[:, :, 1] its swarm's, so best is (swarms, dim, 2, particles)
    best = np.empty((len(rngs), dim, 2, c))
    best[:, :, 0] = x
    pbest_f = f.copy()
    swarms = np.arange(len(rngs))
    ig = np.argmin(pbest_f, axis=1)  # ties resolve to the lowest index
    best[:, :, 1] = x[swarms, :, ig][:, :, None]
    # a history's last entry is its swarm's best cost
    histories = [[value] for value in pbest_f[swarms, ig].tolist()]
    results = [[None] * len(s) for s in seeds]
    draws = np.empty((len(rngs), c, 2, dim))
    r, delta = np.empty_like(best), np.empty_like(best)
    coefs = np.array([config.cognitive, config.social])[:, None]
    clamp = config.velocity_clamp
    w = config.stagnation_window
    it = 0

    def finish(row: int, stop_reason: str):
        k = running[row]
        d, i = owner[k]
        counts[d] -= 1
        results[d][i] = PsoResult(
            best_x=best[row, :, 1, 0].copy(), best_value=histories[k][-1],
            history=np.asarray(histories[k]), iterations=it, stop_reason=stop_reason)

    for it in range(1, config.iterations + 1):
        for k, out in zip(running, draws):
            rngs[k].random(out=out)
        # inertia * vel + cognitive * r0 * d0 + social * r1 * d1 in place, in
        # the expression's order of operations, so bit for bit the same
        np.multiply(draws[:len(running)].transpose(0, 3, 2, 1), coefs, out=r)
        # both pulls at once, each the shorter way round on the torus
        np.subtract(best, x[:, :, None], out=delta)
        t = delta[:, :n_wrap]
        t += 0.5
        t -= np.floor(t)
        t -= 0.5
        r *= delta
        vel *= config.inertia
        vel += r[:, :, 0]
        vel += r[:, :, 1]
        np.minimum(vel, clamp, out=vel)
        np.maximum(vel, -clamp, out=vel)
        x += vel
        _wrap_unit(x[:, :n_wrap])
        # the duties reflect off the walls at 0 and 1
        xd, vd = x[:, n_wrap:], vel[:, n_wrap:]
        low = xd < 0.0
        np.negative(xd, out=xd, where=low)
        high = xd > 1.0
        np.subtract(2.0, xd, out=xd, where=high)
        np.negative(vd, out=vd, where=low ^ high)

        f = _checked_costs(objective, x, counts, pbest_f)
        improved = f < pbest_f
        if improved.any():
            np.copyto(best[:, :, 0], x, where=improved[:, None])
            np.copyto(pbest_f, f, where=improved)

        keep = []
        for row, i in enumerate(np.argmin(pbest_f, axis=1).tolist()):
            history = histories[running[row]]
            value = history[-1]
            top = float(pbest_f[row, i])
            if top < value:
                best[row, :, 1] = best[row, :, 0, i, None]
                value = top
            history.append(value)
            if value == 0.0:
                finish(row, "zero_cost")
            elif w > 0 and it >= w and (
                    history[-w - 1] - value
                    <= config.stagnation_rtol * max(abs(history[-w - 1]), 1e-300)):
                finish(row, "stagnation")
            else:
                keep.append(row)
        if len(keep) < len(running):
            if not keep:
                break
            # drop the stopped swarms; a copy once per stop, not per iteration
            x, vel, best, pbest_f = (a[keep] for a in (x, vel, best, pbest_f))
            r, delta = r[:len(keep)], delta[:len(keep)]
            running = [running[row] for row in keep]
    else:  # no break: the swarms still running used every iteration
        for row in range(len(running)):
            finish(row, "max_iterations")
    return results


@dataclass
class SynthesisResult:
    schedule: PulseSchedule
    phi: float
    history: np.ndarray
    iterations: int
    stop_reason: str
    seed: int


def conjugate_guess(evaluator: CostEvaluator, codec: ModeCodec) -> np.ndarray:
    """Deterministic warm start matching the anchor calibration reference.

    Duties come from the steer-compensated conjugate carrier design (the same
    one the beam-shaping anchors are calibrated against, so the carrier
    pattern of this start sits at the center of the anchor tube). Rises are
    picked so the first-harmonic coefficient carries the same steering phase
    with a sign flip across the row axis, a monopulse-style split that puts a
    dip near the beam direction with lobes flanking it. The swarm refines
    this seed; starting one particle here keeps the search away from locally
    optimal but off-target beams.
    """
    geom = evaluator.geometry
    ref = evaluator.masks.beam_ref
    duty = ref.duty.ravel()
    flip = (geom.cell_xy_m[:, 0] < 0.0).astype(float)
    # first-harmonic coefficient is exp(-j*pi*(2*rise + duty)) * sin(pi*duty)/pi
    rise = np.mod((ref.phase / np.pi - flip - duty) / 2.0, 1.0)
    shape = (geom.rows, geom.cols)
    return codec.encode(rise.reshape(shape), duty.reshape(shape))


def pso_optimize(evaluators: Sequence[CostEvaluator], mode: ControlMode, config: PsoConfig,
                 seeds: Optional[Sequence[Sequence[int]]] = None) -> list:
    """Search the mode's schedule space for the lowest mask-violation cost
    of each evaluator, once per seed of that evaluator (seeds[i]; config.seed
    alone by default), every swarm of every evaluator in one loop
    (minimize_swarms); one list of SynthesisResults per evaluator, one per
    seed in order. The evaluators share the geometry's size.

    Each iteration scores the running swarms of every evaluator in one
    phi_batch call on a stack of the evaluators (CostEvaluator.stack), a
    lone evaluator's stack of one included, with each design's count of
    blocks (its running swarms times the swarm size). The stack holds the
    evaluators and reads each design's tables from its own; it lives as
    long as the search. Each particle's personal best is its limit, so that
    only the particles that can beat it are scored whole.
    That call rounds a particle's cost as its own evaluator does, at any
    position in a batch of any size (measured with OpenBLAS 0.3.31 on an
    AVX-512 x86-64 CPU), so every result equals the run of its evaluator and
    seed alone bit for bit.
    """
    if not evaluators:
        return []
    geometry = evaluators[0].geometry
    codec = ModeCodec(mode=mode, rows=geometry.rows, cols=geometry.cols)
    if seeds is None:
        seeds = [(config.seed,)] * len(evaluators)
    if len(seeds) != len(evaluators):
        raise ValueError("one seed list per evaluator is required")
    init = np.array([conjugate_guess(ev, codec) for ev in evaluators])
    stack = CostEvaluator.stack(evaluators)

    def objective(x, counts, limit):
        return stack.phi_batch(*codec.blocks(x), codec.mode,
                               [n * config.swarm_size for n in counts], limit=limit)

    # the rises, periodic, come first
    runs = minimize_swarms(objective, codec.dim, config, seeds, n_wrap=codec.dim // 2, init=init)
    return [[SynthesisResult(schedule=codec.decode(res.best_x, ev.period_s), phi=res.best_value,
                             history=res.history, iterations=res.iterations,
                             stop_reason=res.stop_reason, seed=seed)
             for seed, res in zip(ev_seeds, ev_runs)]
            for ev, ev_seeds, ev_runs in zip(evaluators, seeds, runs)]
