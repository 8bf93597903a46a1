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
    # A u-row is one % call on a template of its nodes' lines, joined with
    # the row's u in front of each. An invisible node whose pair is that of
    # zero power (a sum of squares is never -0) is fixed text, formatted
    # once (kind 2); every other node, invisible (0) or visible (1), takes
    # its pair by "%.17g,%.17g". Rows are streamed one at a time, so neither
    # the grid's pairs nor the file sit in memory whole.
    zero_db = power_db(0.0, reference)
    kinds = grid.visible.astype(np.int8)
    kinds[~grid.visible & (power == 0.0) & (db == zero_db)] = 2
    pieces = np.array([[f"{format_float(v)},{flag},{pair}\n" for v in grid.v]
                       for flag, pair in (("0", "%.17g,%.17g"), ("1", "%.17g,%.17g"),
                                          ("0", "%.17g,%.17g" % (0.0, zero_db)))],
                      dtype=object)
    columns = np.arange(grid.v.size)
    pairs = np.empty((grid.v.size, 2))
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines))
        for u, kind, p_row, db_row in zip(grid.u, kinds, power, db):
            head = format_float(u) + ","
            template = head + head.join(pieces[kind, columns])
            pairs[:, 0], pairs[:, 1] = p_row, db_row
            fh.write(template % tuple(pairs[kind != 2].ravel().tolist()))


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


# each field read_schedule_csv takes: its type, a range test written so
# that NaN fails it (None: checked against the surface), and the range
_FIELDS = {
    "rows": (int, lambda n: n >= 1, "be at least 1"),
    "cols": (int, lambda n: n >= 1, "be at least 1"),
    "period_s": (float, lambda x: 0.0 < x < np.inf, "be positive and finite"),
    "p": (int, None, ""),
    "q": (int, None, ""),
    "rise": (float, lambda x: 0.0 <= x < 1.0, "lie in [0, 1)"),
    "duty": (float, lambda x: 0.0 <= x <= 1.0, "lie in [0, 1]"),
}
_HEADERS = ("rows", "cols", "period_s")


def _parse_field(where: str, name: str, text: str):
    """text as the field name's type, or a ValueError naming where and the
    field when it is not one or lies outside the field's range."""
    kind, in_range, wanted = _FIELDS[name]
    try:
        value = kind(text)
    except ValueError:
        noun = "an integer" if kind is int else "a number"
        raise ValueError(f"{where}: {name} {text.strip()!r} is not {noun}") from None
    if in_range is not None and not in_range(value):
        raise ValueError(f"{where}: {name} {text.strip()} must {wanted}")
    return value


def read_schedule_csv(path) -> PulseSchedule:
    """The schedule write_schedule_csv wrote; a malformed line, an out-of-range
    value or a repeated header raises a ValueError naming path:line and the
    field."""
    headers = {}
    header_lines = {}
    entries = {}
    with open(path, "r", encoding="utf-8") as fh:
        for number, line in enumerate(fh, 1):
            where = f"{path}:{number}"
            line = line.strip()
            if not line or line.startswith("p,"):
                continue
            if line.startswith("#"):
                key, _, value = line[1:].partition(":")
                key = key.strip()
                if key in _HEADERS:
                    if key in headers:
                        raise ValueError(f"{where}: {key} is declared again "
                                         f"(first on line {header_lines[key]})")
                    headers[key] = _parse_field(where, key, value)
                    header_lines[key] = number
                continue
            fields = line.split(",")
            if len(fields) != 4:
                raise ValueError(f"{where}: expected the 4 fields p,q,rise,duty, "
                                 f"got {len(fields)}")
            p, q, rise, duty = (_parse_field(where, name, text)
                                for name, text in zip(("p", "q", "rise", "duty"), fields))
            if (p - 1, q - 1) in entries:
                raise ValueError(f"{where}: cell ({p}, {q}) is listed twice")
            entries[p - 1, q - 1] = (rise, duty)
    rows, cols, period_s = (headers.get(key) for key in _HEADERS)
    if rows is None or cols is None or period_s is None:
        raise ValueError(f"{path} is missing rows/cols/period_s headers")
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
