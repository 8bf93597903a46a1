"""Deterministic text exports: patterns, schedules, sweeps, run summaries.

Floats are rendered with %.17g (shortest exact round-trip for doubles), rows
are emitted in a fixed order, and files always use "\n" line endings, so a
rerun with identical inputs reproduces every file byte for byte.
"""

import json

import numpy as np

from .fields import DB_FLOOR, HarmonicPattern, power_db
from .isac import best_sample
from .modulation import PulseSchedule


def format_float(x) -> str:
    return "%.17g" % float(x)


def _write_text(path, text: str) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)


def write_pattern_csv(path, pattern: HarmonicPattern, reference: float) -> None:
    """Power pattern over the full grid, one row per (u, v) node.

    Rows are row-major in (u, v); invisible nodes carry zero power and are
    flagged by the visible column. power_db is relative to the reference and
    floored at DB_FLOOR.
    """
    grid = pattern.grid
    power = pattern.power
    db = power_db(power, reference)
    lines = [
        f"# harmonic: {pattern.harmonic}",
        f"# omega_rad_s: {format_float(pattern.omega_rad_s)}",
        f"# reference_power: {format_float(reference)}",
        f"# db_floor: {format_float(DB_FLOOR)}",
        "u,v,visible,power_linear,power_db\n",
    ]
    # Each axis value is formatted once and a row's power pairs in one %
    # call; rows are paired and streamed one at a time, so neither the
    # grid's pairs nor the file sit in memory whole.
    sv = [format_float(x) for x in grid.v]
    pairs_fmt = "%.17g,%.17g\n" * grid.v.size
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines))
        for u, flags, p_row, db_row in zip(grid.u, grid.visible.tolist(), power, db):
            su = format_float(u)
            heads = [f"{su},{v},{'1' if f else '0'}," for v, f in zip(sv, flags)]
            row = np.column_stack((p_row, db_row)).ravel()
            cells = (pairs_fmt % tuple(row.tolist())).splitlines(keepends=True)
            fh.write("".join(map(str.__add__, heads, cells)))


def write_schedule_csv(path, schedule: PulseSchedule) -> None:
    """Per-cell pulse parameters, one row per cell, row-major, 1-based."""
    p, q = schedule.shape
    lines = [
        f"# rows: {p}",
        f"# cols: {q}",
        f"# period_s: {format_float(schedule.period_s)}",
        "p,q,rise,duty",
    ]
    for i in range(p):
        for j in range(q):
            lines.append(",".join((
                str(i + 1), str(j + 1),
                format_float(schedule.rise[i, j]),
                format_float(schedule.duty[i, j]),
            )))
    _write_text(path, "\n".join(lines) + "\n")


def read_schedule_csv(path) -> PulseSchedule:
    period_s = None
    rows = cols = None
    entries = {}
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            if line.startswith("#"):
                key, _, value = line[1:].partition(":")
                key = key.strip()
                if key == "rows":
                    rows = int(value)
                elif key == "cols":
                    cols = int(value)
                elif key == "period_s":
                    period_s = float(value)
                continue
            if line.startswith("p,"):
                continue
            p_s, q_s, rise_s, duty_s = line.split(",")
            cell = (int(p_s) - 1, int(q_s) - 1)
            if cell in entries:
                raise ValueError(f"{path}: cell ({cell[0] + 1}, {cell[1] + 1}) is listed twice")
            entries[cell] = (float(rise_s), float(duty_s))
    if rows is None or cols is None or period_s is None:
        raise ValueError(f"{path} is missing rows/cols/period_s headers")
    if rows < 1 or cols < 1:
        raise ValueError(f"{path} declares an empty surface ({rows} x {cols})")
    for i, j in entries:
        if not (0 <= i < rows and 0 <= j < cols):
            raise ValueError(f"{path}: cell ({i + 1}, {j + 1}) lies outside p in 1..{rows}, q in 1..{cols}")
    if len(entries) != rows * cols:
        raise ValueError(f"{path} holds {len(entries)} cells, expected {rows * cols}")
    rise = np.empty((rows, cols))
    duty = np.empty((rows, cols))
    for (i, j), (r, d) in entries.items():
        rise[i, j] = r
        duty[i, j] = d
    return PulseSchedule(period_s=period_s, rise=rise, duty=duty)


def write_convergence_csv(path, history) -> None:
    history = np.asarray(history, dtype=float)
    lines = ["iteration,best_cost"]
    for i, value in enumerate(history):
        lines.append(f"{i},{format_float(value)}")
    _write_text(path, "\n".join(lines) + "\n")


_SWEEP_COLUMNS = "kind,angle_deg,phi,xi,p_sigma,p_delta,floored,iterations,stop_reason,source"


def write_sweep_csv(path, samples, vary: str) -> None:
    """Sweep or localization samples plus one trailing summary row: the
    best_sample with the iterations of all samples."""
    lines = [f"# vary: {vary}", _SWEEP_COLUMNS]

    def row(kind, s, iterations, stop_reason, source):
        return ",".join((
            kind,
            format_float(s.angle_deg),
            format_float(s.phi),
            format_float(s.xi),
            format_float(s.p_sigma),
            format_float(s.p_delta),
            "1" if s.floored else "0",
            str(iterations),
            stop_reason,
            source,
        ))

    for s in samples:
        lines.append(row("sample", s, s.iterations, s.stop_reason, s.source))
    if samples:
        total_iters = sum(s.iterations for s in samples)
        lines.append(row("summary", best_sample(samples), total_iters, "", "argmax_xi"))
    _write_text(path, "\n".join(lines) + "\n")


def _jsonable(obj):
    """Strict-JSON copy: non-finite floats become strings, arrays become lists."""
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj.tolist()]
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, (int, np.integer)):
        return int(obj)
    if isinstance(obj, (float, np.floating)):
        v = float(obj)
        return v if np.isfinite(v) else format_float(v)
    return obj


def write_json(path, payload: dict) -> None:
    text = json.dumps(_jsonable(payload), sort_keys=True, indent=2, allow_nan=False)
    _write_text(path, text + "\n")
