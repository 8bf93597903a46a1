"""Mask-violation cost and seeded particle-swarm search over pulse schedules.

The search space is the unit hypercube: every coordinate is either a rise
instant (periodic, evolves on the torus [0, 1)) or a duty (reflecting walls
at 0 and 1). A control mode maps the vector onto per-cell pulses; the cost is
the grid-integrated one-sided violation of the power masks at harmonics 0
and 1.
"""

import copy
import math
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
    mirror_rise,
    pulse_fourier_coefficients,
)


# A (u-row, particle) pair is radiated only when its power bound, raised by
# this relative slack against the bound's own rounding, exceeds the row's
# lowest ceiling (CostEvaluator).
BOUND_SLACK = 1e-9

# A phi_batch call on blocks of several designs scores them in passes of
# whole designs, each of at most this many block columns (blocks times the
# columns of a block) unless one design alone has more: so the buffers of a
# call on many designs in a mode with many columns stay those of one pass.
PASS_COLUMNS = 512


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
        self.mode = mode
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


def _group_points(evaluators: Sequence["CostEvaluator"]) -> tuple:
    """For each harmonic, the evaluators' designs grouped by point count:
    (members, bounds) per count, bounds (3, len(members), count) stacking
    the members' point bounds (CostEvaluator._point_bounds) in order."""
    groups = []
    for h in (0, 1):
        members = {}
        for e, ev in enumerate(evaluators):
            members.setdefault(ev._point_bounds[h].shape[1], []).append(e)
        groups.append(tuple((m, np.stack([evaluators[e]._point_bounds[h] for e in m], axis=1))
                            for m in members.values()))
    return tuple(groups)


def _spans(start: list) -> list:
    """(design, lo, hi) for each design with blocks, from phi_batch's start."""
    return [(e, lo, hi) for e, (lo, hi) in enumerate(zip(start, start[1:])) if lo < hi]


def _for_blocks(table: np.ndarray, designs: np.ndarray) -> np.ndarray:
    """A table with a leading design axis, for each block: the lone
    design's entry, which broadcasts over the blocks, or else each block's
    design's."""
    return table[0] if len(table) == 1 else table[designs]


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
    only the other pairs are radiated, all in one product. The point nodes
    (each harmonic's grid nodes with a lower bound, then every anchor) are
    radiated for every block and scored against both of their bounds.

    A block's cost is rounded the same at any position in a batch of any
    size: each product that spans blocks holds them in its rows, and a lone
    row is multiplied as a pair (_matmul_rows).

    A stack of several evaluators (stack) holds them as its designs, so
    that one call scores blocks of every design (phi_batch's designs), in
    any mode, in passes of whole designs (PASS_COLUMNS). It reads each
    design's folds and grid ceilings from that design's evaluator and joins
    only the tables gathered per block: |d|, beta, the row ceilings and the
    point bounds. In a pass the products stay per design, each writing its
    rows of shared buffers, and the elementwise steps run once over all
    rows, with each design's bounds gathered per row. A design's costs then
    equal those of its own evaluator bit for bit: its point rows are summed
    with those of designs that have as many point nodes, never padded.

    The bounds, weights and factors are never mutated after construction
    (a mode's fold is added to its design's evaluator at its first call). A
    call writes into the evaluator's own scratch buffers, grown to the
    largest pass it has scored (_view), so an evaluator is used by one
    thread at a time, and once warm a call allocates little more than its
    blocks' Fourier coefficients.
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
        self._d_norm = np.array([d_norm])
        self._beta = np.array([np.vdot(e, b)])
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
        # u-row _row_ceiling[h][e] for design e, and _point_bounds[h] stacks
        # the point nodes' lower and upper bounds and weights
        self._grid_upper = upper[:, :n].reshape(2, nu, nv)
        self._row_ceiling = (self._grid_upper.min(axis=2) / (1.0 + BOUND_SLACK))[:, None]
        self._point_bounds = tuple(
            np.array([lower[h, idx], np.where(idx < n, np.inf, upper[h, idx]),
                      np.where(idx < n, grid.cell_weight, self.anchor_weight)])
            for h, idx in enumerate(nodes))
        self._point_groups = _group_points((self,))
        # a node's rows of rows_g and cols_g: (u, v) on the grid, (nu + k,
        # nv + k) for anchor k
        uv = [np.where(idx < n, np.divmod(idx, nv), idx - n + np.array([[nu], [nv]]))
              for idx in nodes]
        self._factors = (rows_g, cols_g, nu, nv, uv)
        self._folds = {}
        self._buffers = {}
        self._members = ()  # a stack's evaluators; a lone one never refers to itself

    @staticmethod
    def stack(evaluators: Sequence["CostEvaluator"]) -> "CostEvaluator":
        """An evaluator of evaluators[0]'s design whose design e is also
        evaluators[e]'s, for phi_batch calls that score blocks of several
        designs. The evaluators share the geometry's size and the grid's."""
        first = evaluators[0]
        size = (first.geometry.rows, first.geometry.cols, first.grid.shape, first.grid.cell_weight)
        if any((ev.geometry.rows, ev.geometry.cols, ev.grid.shape, ev.grid.cell_weight) != size
               for ev in evaluators):
            raise ValueError("stacked evaluators must share the geometry's and the grid's size")
        stacked = copy.copy(first)
        stacked._members = tuple(evaluators)
        stacked._d_norm, stacked._beta = (np.concatenate([getattr(ev, name) for ev in evaluators])
                                          for name in ("_d_norm", "_beta"))
        stacked._row_ceiling = np.concatenate([ev._row_ceiling for ev in evaluators], axis=1)
        stacked._point_groups = _group_points(evaluators)
        stacked._buffers = {}
        return stacked

    def _designs(self) -> tuple:
        """The evaluator of each design: a stack's members, or this one."""
        return self._members or (self,)

    def _view(self, name: str, shape: tuple, dtype=float) -> np.ndarray:
        """The leading part of the scratch buffer name, a flat array that
        only grows, shaped so that it is C-contiguous; a name is taken again
        only once its last view is spent."""
        n = math.prod(shape)
        buf = self._buffers.get(name)
        if buf is None or buf.size < n:
            buf = self._buffers[name] = np.empty(n, dtype=dtype)
        return buf[:n].reshape(shape)

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

    def _coefficients(self, rises: np.ndarray, duties: np.ndarray, designs: np.ndarray) -> tuple:
        """Source coefficients |d| u^h + delta_h0 beta of stacked blocks for
        h = 0 and 1, each shaped as the blocks, with each block's design's
        |d| and beta. The h = 1 coefficients check the blocks' ranges; u^0
        is the duty itself."""
        at = designs[:, None, None]
        d_norm = _for_blocks(self._d_norm, at)
        u1 = pulse_fourier_coefficients(rises, duties, 1) * d_norm
        u0 = duties * d_norm + _for_blocks(self._beta, at)
        return u0, u1

    def phi_batch(self, rises: np.ndarray, duties: np.ndarray,
                  mode: ControlMode = ControlMode.FULL,
                  designs: Optional[np.ndarray] = None,
                  limit: Optional[np.ndarray] = None) -> np.ndarray:
        """Costs of a stack of the mode's control blocks, given as rises and
        duties of shape (batch,) + ModeCodec.control_shape; under FULL a
        block is the whole (rows, cols) schedule. designs (batch,) gives
        each block's design, in nondecreasing order, for a stack of
        evaluators (stack); by default every block is design 0. With a
        limit (batch,) of floats, not NaN, a block whose cost is at least
        its limit may return any value in [limit, cost]; the others return
        their cost."""
        folds = self._fold(mode)
        p, q = folds[0].shape
        if rises.shape[1:] != (p, q) or duties.shape != rises.shape:
            raise ValueError(f"expected {mode.value} blocks of shape (batch, {p}, {q}), "
                             f"got {rises.shape} and {duties.shape}")
        batch = rises.shape[0]
        if limit is not None:
            limit = np.asarray(limit)
            if limit.shape != (batch,) or limit.dtype.kind != "f" or np.isnan(limit).any():
                raise ValueError(f"limit must give each of the {batch} blocks a non-NaN float")
        n_designs = len(self._d_norm)
        # design e's blocks are rows start[e]:start[e + 1]; a pass takes
        # whole designs while they fit in PASS_COLUMNS, or one design
        if designs is None:
            designs, start = np.zeros(batch, dtype=np.intp), [0] + [batch] * n_designs
        else:
            designs = np.asarray(designs)
            if (designs.shape != (batch,) or designs.dtype.kind not in "iu"
                    or batch and (designs[0] < 0 or designs[-1] >= n_designs
                                  or np.any(designs[1:] < designs[:-1]))):
                raise ValueError(f"designs must give each of the {batch} blocks a design in "
                                 f"[0, {n_designs}), in nondecreasing order")
            start = designs.searchsorted(np.arange(n_designs + 1)).tolist()
        cuts = [0]
        for lo, hi in zip(start, start[1:]):
            if hi > lo > cuts[-1] and (hi - cuts[-1]) * q > PASS_COLUMNS:
                cuts.append(lo)
        if len(cuts) == 1:
            return self._pass(rises, duties, folds, designs, start, limit)
        total = np.empty(batch)
        for lo, hi in zip(cuts, cuts[1:] + [batch]):
            total[lo:hi] = self._pass(rises[lo:hi], duties[lo:hi], folds, designs[lo:hi],
                                      [min(max(s, lo), hi) - lo for s in start],
                                      None if limit is None else limit[lo:hi])
        return total

    def _pass(self, rises: np.ndarray, duties: np.ndarray, folds: list,
              designs: np.ndarray, start: list, limit: Optional[np.ndarray]) -> np.ndarray:
        """phi_batch on the blocks of one pass: a block costs ((P0 + C0) +
        P1) + C1 with P_h, C_h >= 0 its point and grid-ceiling terms at
        harmonic h, so P0 + P1 <= cost (rounded addition is monotone), and
        only the blocks with P0 + P1 below their limit radiate the ceilings."""
        spans = _spans(start)
        batch = len(designs)
        coefs = self._coefficients(rises, duties, designs)
        points = np.zeros((2, batch))
        for h, coef in enumerate(coefs):
            self._add_point_terms(points[h], h, coef.reshape(batch, -1), folds, designs, spans)
        bound = points[0] + points[1]
        live = slice(None)
        if limit is not None:
            live = np.flatnonzero(bound < limit)
            if live.size == 0:
                return bound
            if live.size < batch:  # the live blocks, with their own designs and spans
                coefs = tuple(coef[live] for coef in coefs)
                designs = designs[live]
                start = live.searchsorted(start).tolist()
                spans = _spans(start)
        ceilings = np.zeros((2, len(designs)))
        for h, coef in enumerate(coefs):
            self._add_ceiling_terms(ceilings[h], h, coef, folds, designs, start, spans)
        p0, p1 = points[:, live]
        bound[live] = ((p0 + ceilings[0]) + p1) + ceilings[1]
        return bound

    def _add_point_terms(self, total, h, blocks, folds, designs, spans):
        """Harmonic h's point nodes, against both bounds, one group of
        designs with as many nodes at a time."""
        for members, bounds in self._point_groups[h]:
            if len(members) == len(self._d_norm):  # every block, in order
                live, rows, local, n = spans, None, designs, len(total)
            else:  # the blocks of the members, by their place in the group
                live = [span for span in spans if span[0] in members]
                if not live:
                    continue
                rows = np.concatenate([np.arange(lo, hi) for _, lo, hi in live])
                local, n = np.searchsorted(members, designs[rows]), rows.size
            f = self._view("points", (n, bounds.shape[2]), complex)
            at = 0
            for e, lo, hi in live:
                _matmul_rows(blocks[lo:hi], folds[e].points[h], f[at:at + hi - lo])
                at += hi - lo
            p = f.real**2 + f.imag**2
            lower, upper, w = bounds[:, 0] if len(members) == 1 else bounds[:, local]
            over = np.maximum(lower - p, p - upper)
            over = (np.maximum(over, 0.0, out=over) * w).sum(axis=1)
            if rows is None:
                total += over
            else:
                total[rows] += over

    def _add_ceiling_terms(self, total, h, coef, folds, designs, start, spans):
        """Harmonic h's grid ceilings, on the rows whose bound can reach
        them. T = L_h C of each block is held transposed, (batch, q, nu), so
        that the blocks are the product's rows."""
        batch = len(total)
        nu, nv = self.grid.shape
        q = folds[0].shape[1]
        view = self._view
        blocks = coef.transpose(0, 2, 1).reshape(batch * q, -1)
        t = view("t", (batch * q, nu), complex)
        for e, lo, hi in spans:
            _matmul_rows(blocks[lo * q:hi * q], folds[e].left_t[h], t[lo * q:hi * q])
        t = t.reshape(batch, q, nu)
        size = np.abs(t, out=view("size", (batch, q, nu)))
        bound = np.empty((batch, nu))
        for e, lo, hi in spans:
            np.matmul(folds[e].r_max, size[lo:hi], out=bound[lo:hi])
        bound *= bound
        ceiling = self._row_ceiling[h]
        if len(ceiling) > 1:  # each block's row, into the spent buffer of |T|
            ceiling = np.take(ceiling, designs, axis=0, out=view("size", (batch, nu)),
                              mode="clip")
        kk, uu = np.nonzero(bound > ceiling)
        n = kk.size
        if n == 0:
            return
        # the pairs, in kk's order, run design by design
        if len(spans) == 1:
            pairs = [(spans[0][0], 0, n)]
        else:
            cut = np.searchsorted(kk, start).tolist()
            pairs = [(e, cut[e], cut[e + 1]) for e, _, _ in spans if cut[e] < cut[e + 1]]
        power = view("power", (n, nv))
        if q == 1:  # |T R|^2 = |T|^2 |R|^2 = bound |R|^2 / max |R|^2
            peak = bound[kk, uu][:, None]
            for e, a, b in pairs:
                np.multiply(peak[a:b], folds[e].r_shape, out=power[a:b])
        else:
            x = t[kk, :, uu]  # each pair's row of T, (n, q)
            f = view("field", (n, nv), complex)
            for e, a, b in pairs:
                _matmul_rows(x[a:b], folds[e].right_t, f[a:b])
            np.multiply(f.real, f.real, out=power)
            power += np.square(f.imag, out=view("scratch", (n, nv)))
        upper = view("scratch", (n, nv))
        evaluators = self._designs()
        for e, a, b in pairs:
            np.take(evaluators[e]._grid_upper[h], uu[a:b], axis=0, out=upper[a:b], mode="clip")
        power -= upper
        over = np.maximum(power, 0.0, out=power).sum(axis=1)
        total += np.bincount(kk, weights=over, minlength=batch) * self.grid.cell_weight

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


def _checked_costs(objective, x: np.ndarray, designs: np.ndarray,
                   limit: Optional[np.ndarray] = None) -> np.ndarray:
    """objective on the stacked swarms x (swarms, particles, dim) and their
    limits (swarms, particles), as (swarms, particles) costs."""
    f = np.asarray(objective(x.reshape(-1, x.shape[2]), designs,
                             None if limit is None else limit.reshape(-1)), dtype=float)
    if f.shape != (x.shape[0] * x.shape[1],):
        raise ValueError("objective must return one value per particle")
    if not np.isfinite(f).all():
        i = int(np.flatnonzero(~np.isfinite(f))[0])
        raise ValueError(f"non-finite cost {float(f[i])} for particle {i}")
    return f.reshape(x.shape[:2])


def minimize_swarms(objective, dim: int, config: PsoConfig,
                    seeds: Sequence[Sequence[int]],
                    n_wrap: int = 0,
                    init: Optional[np.ndarray] = None) -> list:
    """Global-best PSO over [0, 1]^dim with seeded, order-fixed random draws,
    for several designs, each with several seeds, at once: one independent
    swarm per (design, seed), all advanced in lockstep. config.seed is not
    used.

    Args:
        objective: batched callable objective(x, designs, limit), below;
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
    rule. Each iteration calls objective(x, designs, limit) once: x stacks
    the positions of every swarm still running ((running * swarm, dim)),
    the swarms of a design adjacent and in seed order, designs in order;
    designs (running,) gives each of those swarms' design; limit holds the
    particles' personal-best costs flattened as x (None for the initial
    swarm). Where a cost is at least its limit the objective may return any
    value in [limit, cost], which improves no particle. A stopped swarm is
    neither scored nor drawn for again. So a swarm's result depends on its
    seed and design alone whenever the objective scores a particle
    independently of its batch and by its swarm's design alone.
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
    # the swarms of a design adjacent and in seed order
    x = np.empty((len(rngs), c, dim))
    for rng, xs in zip(rngs, x):
        rng.random(out=xs)
    if init is not None:
        start = np.array(init, dtype=float)
        if start.shape != (len(seeds), dim):
            raise ValueError(f"init must have shape ({len(seeds)}, {dim})")
        _wrap_unit(start[:, :n_wrap])
        np.clip(start[:, n_wrap:], 0.0, 1.0, out=start[:, n_wrap:])
        x[:, 0] = start[[d for d, _ in owner]]
    running = list(range(len(rngs)))  # swarm index of each state row
    designs = np.array([d for d, _ in owner])  # design of each state row

    vel = np.zeros_like(x)
    f = _checked_costs(objective, x, designs)
    # the two targets of every particle: best[:, :, 0] is its own best,
    # best[:, :, 1] its swarm's
    best = np.empty((len(rngs), c, 2, dim))
    best[:, :, 0] = x
    pbest_f = f.copy()
    swarms = np.arange(len(rngs))
    ig = np.argmin(pbest_f, axis=1)  # ties resolve to the lowest index
    best[:, :, 1] = x[swarms, ig][:, None]
    # a history's last entry is its swarm's best cost
    histories = [[value] for value in pbest_f[swarms, ig].tolist()]
    results = [[None] * len(s) for s in seeds]
    r = np.empty_like(best)
    delta = np.empty_like(best)
    coefs = np.array([[config.cognitive], [config.social]])
    clamp = config.velocity_clamp
    w = config.stagnation_window
    it = 0

    def finish(row: int, stop_reason: str):
        k = running[row]
        d, i = owner[k]
        results[d][i] = PsoResult(
            best_x=best[row, 0, 1].copy(), best_value=histories[k][-1],
            history=np.asarray(histories[k]), iterations=it, stop_reason=stop_reason)

    for it in range(1, config.iterations + 1):
        for k, out in zip(running, r):
            rngs[k].random(out=out)
        # both pulls at once, each the shorter way round on the torus
        np.subtract(best, x[:, :, None], out=delta)
        t = delta[..., :n_wrap]
        t += 0.5
        t -= np.floor(t)
        t -= 0.5
        # inertia * vel + cognitive * r0 * d0 + social * r1 * d1 in place, in
        # the expression's order of operations, so bit for bit the same
        r *= coefs
        r *= delta
        vel *= config.inertia
        vel += r[:, :, 0]
        vel += r[:, :, 1]
        np.minimum(vel, clamp, out=vel)
        np.maximum(vel, -clamp, out=vel)
        x += vel
        _wrap_unit(x[..., :n_wrap])
        # the duties reflect off the walls at 0 and 1
        xd, vd = x[..., n_wrap:], vel[..., n_wrap:]
        low = xd < 0.0
        np.negative(xd, out=xd, where=low)
        high = xd > 1.0
        np.subtract(2.0, xd, out=xd, where=high)
        np.negative(vd, out=vd, where=low ^ high)

        f = _checked_costs(objective, x, designs, pbest_f)
        improved = f < pbest_f
        np.copyto(best[:, :, 0], x, where=improved[..., None])
        np.copyto(pbest_f, f, where=improved)

        keep = []
        for row, i in enumerate(np.argmin(pbest_f, axis=1).tolist()):
            history = histories[running[row]]
            value = history[-1]
            top = float(pbest_f[row, i])
            if top < value:
                best[row, :, 1] = best[row, i, 0]
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
            x, vel, best, pbest_f, designs = (a[keep] for a in (x, vel, best, pbest_f, designs))
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
    seed in order. The evaluators share the geometry's size, and each is
    used by one thread at a time.

    Each iteration scores the running swarms of every evaluator in one
    phi_batch call, on the evaluator itself when there is one and on a stack
    of them (CostEvaluator.stack) otherwise. The stack holds the evaluators
    and reads each design's tables from its own; it lives as long as the
    search, with its cost buffers. Each particle's personal best is its
    limit, so that only the particles that can beat it are scored whole.
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
    stack = CostEvaluator.stack(evaluators) if len(evaluators) > 1 else evaluators[0]

    def objective(x, designs, limit):
        # a stack takes each block's design
        rows = (np.repeat(designs, config.swarm_size),) if len(evaluators) > 1 else ()
        return stack.phi_batch(*codec.blocks(x), codec.mode, *rows, limit=limit)

    # the rises, periodic, come first
    runs = minimize_swarms(objective, codec.dim, config, seeds, n_wrap=codec.dim // 2, init=init)
    return [[SynthesisResult(schedule=codec.decode(res.best_x, ev.period_s), phi=res.best_value,
                             history=res.history, iterations=res.iterations,
                             stop_reason=res.stop_reason, seed=seed)
             for seed, res in zip(ev_seeds, ev_runs)]
            for ev, ev_seeds, ev_runs in zip(evaluators, seeds, runs)]
