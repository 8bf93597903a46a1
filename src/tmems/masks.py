"""Power masks that encode the beam-shaping requirements on a direction grid.

The carrier (h=0) gets one main-lobe box with an upper ripple bound and a
sidelobe ceiling everywhere else. The first harmonic (h=1) gets the same main
region plus floors inside two flanking lobe boxes. All levels are decibels
relative to the coherent reference power R0 of the fully phase-conjugated
ideal aperture. Beams are steered in the u direction (v = 0).

Point requirements that must hold at exact directions, not just at grid
nodes, are carried as anchors: the carrier power floor and the
first-harmonic null depth, both at the exact beam direction. A deep null
over a finite box is unreachable for a plain zero-crossing pattern (one grid
cell away from a perfect null the power is already within ~12 dB of the
lobes), so the null is pinned at its exact direction instead.

Only the levels are parameters. The widths scale with the standard beamwidth
lambda/D of the uniform aperture, per axis, and the anchor positions with the
half-power half-width of the beam; both are fixed constants below.
"""

from dataclasses import dataclass, fields

import numpy as np

from .fields import (DirectionGrid, PlaneWaveIncidence, incident_phase_factors, state_sources,
                     steering_factors, steering_rows)
from .geometry import EmsGeometry, check_real
from .modulation import ReflectionStates

# box sizes in units of lambda/D per axis: the main box's half-width, and the
# u offset and the half-width of the two first-harmonic lobe boxes
MAIN_HALFWIDTH = 2.0
LOBE_OFFSET = 0.75
LOBE_HALFWIDTH = 0.2
# beam-shaping anchors: (offset in half-power half-widths, margin in dB) of
# the shoulder caps and of the flank floors
SHOULDER = (1.2, 0.7)
FLANK = (0.5, 0.2)


def reference_power(geometry: EmsGeometry, amplitude_v_m: float) -> float:
    """Coherent power reference: |j k0 / 4 pi|^2 (E0 * P * Q * A_cell)^2."""
    if not (amplitude_v_m > 0.0):
        raise ValueError("amplitude must be positive")
    k = geometry.k0 / (4.0 * np.pi)
    return (k * amplitude_v_m * geometry.n_cells * geometry.cell_area_m2) ** 2


def half_power_halfwidth(n: int, cell_size_wl: float) -> float:
    """Direction-cosine offset where the uniform n-element beam is 3 dB down."""
    return 0.4429 / (n * cell_size_wl)


@dataclass(frozen=True, eq=False)
class BeamReference:
    """Analytic carrier-beam design used to calibrate beam-shaping anchors.

    A cell of duty D radiates g * (b + D d) on the carrier, with a and b the
    state sources (fields.state_sources), d = a - b and g the cell's drive.
    With b = m d + b_perp, b_perp orthogonal to d, the carrier power is
    |d|^2 |K(g (m + D))|^2 + beta_perp2 |K g|^2 for the far-field kernel K,
    exactly, for every state pair. The duty makes the part along d follow
    the conjugate cosine at half swing, D = clip(cos(phase) / 2 - Re m, 0, 1),
    toward an internally adjusted steer direction. That part is real up to
    the constant Im m, so a beam steered off specular always comes with a
    mirror lobe, whose skirt shifts the main lobe's apex by a few hundredths
    in direction cosine; the steer is chosen so that the resulting apex,
    mirror interference and element-gain tilt included, lands exactly on the
    requested beam direction. Anchors derived from this shape describe a
    pattern that a schedule reaches, unlike an isolated-lobe model.
    """

    geometry: EmsGeometry
    steer_u: float
    duty: np.ndarray
    phase: np.ndarray
    weights: np.ndarray
    drive: np.ndarray
    d_norm2: float
    beta_perp2: float

    def __post_init__(self):
        for name in ("duty", "phase", "weights", "drive"):
            getattr(self, name).setflags(write=False)

    def power_at(self, u, v) -> np.ndarray:
        """Carrier power of the reference design at exact directions."""
        rows = steering_rows(self.geometry, u, v)
        f, kg = rows @ self.weights, rows @ self.drive
        return self.d_norm2 * (f.real**2 + f.imag**2) + self.beta_perp2 * (kg.real**2 + kg.imag**2)


def beam_reference(geometry: EmsGeometry, incidence: PlaneWaveIncidence, beam_u: float,
                   states: ReflectionStates) -> BeamReference:
    """Build the steer-compensated conjugate carrier design for a beam at
    (beam_u, 0) from the states' sources, as the cost sees them."""
    if beam_u**2 > 1.0:
        raise ValueError("beam direction outside the visible disc")
    a, b = state_sources(states, incidence)
    d = a - b
    d_norm2 = np.vdot(d, d).real
    if d_norm2 < 1e-24:
        raise ValueError("reflection states are identical; no carrier contrast")
    # m = vdot(d, b) / |d|^2 by real division: ideal states give exactly -1/2
    p = np.vdot(d, b)
    m = complex(p.real / d_norm2, p.imag / d_norm2)
    beta_perp2 = abs(d[0] * b[1] - d[1] * b[0]) ** 2 / d_norm2
    g = incident_phase_factors(incidence, geometry) * incidence.amplitude_v_m
    phase0, x = np.angle(g)[:, None], geometry.cell_xy_m[:, :1]

    def make(steers: np.ndarray):
        """Phases, duties and weights of the designs, each (n_cells, n_steers)."""
        phase = phase0 + geometry.k0 * (x * steers)
        duty = np.clip(0.5 * np.cos(phase) - m.real, 0.0, 1.0)
        return phase, duty, (m + duty) * g[:, None]

    fn = 1.0 / (geometry.rows * geometry.cell_size_wl)
    us, step = np.linspace(beam_u - 0.6 * fn, beam_u + 0.6 * fn, 241, retstep=True)
    us = us[us * us < 1.0]
    if not us.size:
        raise ValueError("beam window has no visible directions")
    a_u, a_v = steering_factors(geometry, us, np.zeros(1))
    kg = a_u @ (a_v[0] @ g.reshape(geometry.rows, geometry.cols, 1))
    p_perp = beta_perp2 * (kg.real**2 + kg.imag**2)

    def scan(steers: np.ndarray):
        """Apex offsets from beam_u and apex powers of the steers' lobes, each
        apex refined by a parabola through the three samples around the
        maximum; both NaN where the maximum sits on the window edge."""
        # separable line: sum each row's cells at v = 0, then radiate the rows
        f = a_u @ (a_v[0] @ make(steers)[2].reshape(geometry.rows, geometry.cols, -1))
        p = d_norm2 * (f.real**2 + f.imag**2) + p_perp
        i, k = np.argmax(p, axis=0), np.arange(steers.size)
        lo, mid, hi = p[i - 1, k], p[i, k], p[(i + 1) % us.size, k]
        inside = (i > 0) & (i < us.size - 1)
        # the first maximum of an interior sample has lo < mid >= hi: d2 < 0
        d2 = np.where(inside, hi - 2.0 * mid + lo, -1.0)
        return np.where(inside, (us[i] - 0.5 * (hi - lo) / d2 * step - beam_u, mid), np.nan)

    # The apex offset moves smoothly and monotonically with the steer inside
    # one lobe width: scan for a sign change, then zoom in on it with its ends,
    # two even steps and the secant root, a few points per zoom step. Lobes
    # below half the tallest have collapsed (a beam merging with its mirror)
    # and are dropped.
    s = beam_u + np.linspace(-0.5, 0.5, 21) * fn
    f, pk = scan(s)
    if np.isnan(f).all():
        raise ValueError("conjugate reference lobe not found near the beam direction")
    floor, kept = 0.5 * np.nanmax(pk), []
    for _ in range(12):
        kept.append([a[pk >= floor] for a in (s, f, pk)])
        s, f, pk = kept[-1]
        cross = np.flatnonzero(f[:-1] * f[1:] < 0.0)
        if not cross.size or np.abs(f).min() < 1e-7:
            break
        (sa, sb), (fa, fb) = s[cross[0]:cross[0] + 2], f[cross[0]:cross[0] + 2]
        s = np.sort(np.append(np.linspace(sa, sb, 4), sa - fa * (sb - sa) / (fb - fa)))
        f, pk = scan(s)
    steers, offsets, peaks = map(np.concatenate, zip(*kept))
    # on target first, then the taller lobe, then the steer nearer beam_u: a
    # mirror-symmetric scan, where every offset reads 0, keeps the centred lobe
    best = np.lexsort((np.abs(steers - beam_u), -peaks, np.abs(offsets)))[0]
    phase, duty, weights = (a[:, 0] for a in make(steers[best:best + 1]))
    return BeamReference(geometry=geometry, steer_u=float(steers[best]),
                         duty=duty.reshape(geometry.rows, geometry.cols),
                         phase=phase, weights=weights, drive=g, d_norm2=float(d_norm2),
                         beta_perp2=float(beta_perp2))


@dataclass(frozen=True)
class MaskParams:
    """Mask levels in dB relative to the reference power R0."""

    sidelobe_db: float = -10.0
    peak_floor_db: float = -3.0
    ripple_db: float = 3.0
    null_depth_db: float = -40.0
    lobe_floor_db: float = -12.0

    def __post_init__(self):
        for f in fields(self):
            check_real(f.name, getattr(self, f.name), 0.0 if f.name == "ripple_db" else -np.inf)


@dataclass(frozen=True, eq=False)
class MaskSet:
    """Resolved lower/upper power bounds per harmonic over one grid.

    lower and upper have shape (2, nu, nv) for harmonics (0, 1); inactive
    bounds are 0 (lower) and +inf (upper). anchor_uv lists exact directions
    with their own bounds in anchor_lower and anchor_upper, both shaped
    (2, n_anchors). beam_ref is the reference design the anchors were
    calibrated against.
    """

    grid: DirectionGrid
    lower: np.ndarray
    upper: np.ndarray
    anchor_uv: np.ndarray
    anchor_lower: np.ndarray
    anchor_upper: np.ndarray
    beam_ref: BeamReference

    def __post_init__(self):
        for name in ("lower", "upper", "anchor_uv", "anchor_lower", "anchor_upper"):
            getattr(self, name).setflags(write=False)


def _box_nodes(grid: DirectionGrid, center_u, center_v, hw_u, hw_v, full_v: bool):
    """Visible-node mask of a rectangular box; never empty (falls back to the
    nearest visible node when the box slips between grid nodes)."""
    uu, vv = np.meshgrid(grid.u, grid.v, indexing="ij")
    sel = np.abs(uu - center_u) <= hw_u + 1e-12
    if not full_v:
        sel &= np.abs(vv - center_v) <= hw_v + 1e-12
    sel &= grid.visible
    if not sel.any():
        iu, iv = grid.nearest_index(center_u, center_v)
        if not grid.visible[iu, iv]:
            raise ValueError("mask box center has no visible grid node")
        sel = np.zeros(grid.shape, dtype=bool)
        sel[iu, iv] = True
    return sel


def build_masks(grid: DirectionGrid, geometry: EmsGeometry, incidence: PlaneWaveIncidence,
                states: ReflectionStates, params: MaskParams, beam_u: float,
                full_v: bool = False) -> MaskSet:
    """Materialize mask arrays and anchors on a grid for a beam at (beam_u, 0).

    The carrier beam and the first-harmonic null share that direction. The
    beam-shaping anchor levels are calibrated against the steer-compensated
    conjugate reference design (see BeamReference), and structurally forced
    mirror lobes get their own ripple-bounded boxes. full_v drops every
    bound along v, for column-wise schedules that cannot steer in v.

    Raises ValueError when a lower bound exceeds its upper bound, e.g. a lobe
    floor above the ripple bound.
    """
    ref = beam_reference(geometry, incidence, beam_u, states)
    r0 = reference_power(geometry, incidence.amplitude_v_m)

    fn_u = 1.0 / (geometry.rows * geometry.cell_size_wl)
    fn_v = 1.0 / (geometry.cols * geometry.cell_size_wl)
    hw_u, hw_v = MAIN_HALFWIDTH * fn_u, MAIN_HALFWIDTH * fn_v
    lobe_off = LOBE_OFFSET * fn_u
    lobe_hw_u, lobe_hw_v = LOBE_HALFWIDTH * fn_u, LOBE_HALFWIDTH * fn_v

    sidelobe = r0 * 10.0 ** (params.sidelobe_db / 10.0)
    ripple = r0 * 10.0 ** (params.ripple_db / 10.0)
    peak_floor = r0 * 10.0 ** (params.peak_floor_db / 10.0)
    null_depth = r0 * 10.0 ** (params.null_depth_db / 10.0)
    lobe_floor = r0 * 10.0 ** (params.lobe_floor_db / 10.0)

    nu, nv = grid.shape
    vis = grid.visible
    lower = np.zeros((2, nu, nv))
    upper = np.full((2, nu, nv), np.inf)

    # both harmonics: a sidelobe ceiling, raised to the ripple bound in the main box
    main = _box_nodes(grid, beam_u, 0.0, hw_u, hw_v, full_v)
    upper[:, vis] = sidelobe
    upper[:, main] = ripple

    # Mirror-lobe boxes. The carrier coefficient of an on/off pulse is real,
    # so the carrier pattern of any schedule is mirror-symmetric about the
    # specular direction (in the incidence-shifted coordinate w = u + u_inc),
    # and the row-mirrored difference constraint imposes the same symmetry on
    # the first harmonic about its null. Wherever that mirror, or one of its
    # grating aliases at multiples of lambda/d, lands inside the visible disc
    # it carries main-lobe-level power no schedule can remove, so it gets the
    # same ripple allowance as the lobe it images instead of the sidelobe
    # ceiling. Mirroring acts along u only (the rows run along x); v-axis
    # aliases stay invisible for sub-wavelength cells.
    period = 1.0 / geometry.cell_size_wl
    w_c = beam_u + incidence.u
    for n in range(-2, 3):
        for w_img in (w_c + n * period, -w_c + n * period):
            c_u = w_img - incidence.u
            if abs(c_u - beam_u) <= fn_u or abs(c_u) > 1.0 + hw_u:
                continue
            box = _box_nodes(grid, c_u, 0.0, hw_u, hw_v, full_v)
            upper[:, box] = np.maximum(upper[:, box], ripple)

    lobes = np.zeros(grid.shape, dtype=bool)
    for sign in (-1.0, 1.0):
        lobes |= _box_nodes(grid, beam_u + sign * lobe_off, 0.0, lobe_hw_u, lobe_hw_v, False)
    lower[1][lobes] = lobe_floor

    # exact-direction requirements: carrier floor at the beam, h=1 ceiling at
    # the null; two rows although both sit at the beam direction, since one
    # row would reorder the cost's sums and move PSO runs at rounding level
    anchor_uv = [[beam_u, 0.0], [beam_u, 0.0]]
    anchor_lower = [[peak_floor, 0.0], [0.0, 0.0]]
    anchor_upper = [[np.inf, np.inf], [np.inf, null_depth]]

    # beam-shaping anchors on both flanks of the main lobe: a tube of floors
    # and caps around the lobe of the conjugate reference design. Caps alone
    # or floors alone cannot pin the peak of a smooth lobe: a cap with margin
    # m still admits an apex tilted by ~m/slope, and a floor still admits a
    # taller bulge on the opposite side. A floor+cap pair on each flank holds
    # the whole lobe, apex included, at the target direction.
    beam_axes = [(geometry.rows, 1.0, 0.0)]
    if not full_v:
        beam_axes.append((geometry.cols, 0.0, 1.0))
    for n, eu, ev in beam_axes:
        hp = half_power_halfwidth(n, geometry.cell_size_wl)
        for (scale, margin), is_cap in ((SHOULDER, True), (FLANK, False)):
            d = scale * hp
            for sign in (-1.0, 1.0):
                su = beam_u + sign * d * eu
                sv = sign * d * ev
                if su**2 + sv**2 > 1.0:
                    continue
                level = float(ref.power_at(su, sv)[0])
                lo = 0.0 if is_cap else level * 10.0 ** (-margin / 10.0)
                up = level * 10.0 ** (margin / 10.0) if is_cap else np.inf
                anchor_uv.append([su, sv])
                anchor_lower.append([lo, 0.0])
                anchor_upper.append([up, np.inf])

    anchor_uv = np.array(anchor_uv)
    anchor_lower = np.array(anchor_lower).T
    anchor_upper = np.array(anchor_upper).T

    # the anchors' bounds are ordered by construction; a grid floor can
    # still pass its ceiling
    if np.any(lower > upper):
        raise ValueError("mask lower bound exceeds upper bound")
    return MaskSet(grid=grid, lower=lower, upper=upper, anchor_uv=anchor_uv,
                   anchor_lower=anchor_lower, anchor_upper=anchor_upper, beam_ref=ref)
