"""Binary codebook of synthesized schedules keyed by steering angle.

Layout (little-endian throughout):

    offset  size  field
    0       8     magic "TMEMSCB1"
    8       2     format version (u16, currently 1)
    10      2     control-mode code (u16)
    12      2     surface rows (u16)
    14      2     surface cols (u16)
    16      4     record count (u32)
    20      8     master seed (u64)
    28      8     modulation period in seconds (f64)
    36      8     carrier frequency in Hz (f64)
    44      32    scenario digest (SHA-256)
    76      ...   records, sorted by angle

Each record is: steering angle in millidegrees (i32, 0 to 90000), pair count
(u32), achieved cost (f64), then pair count x (rise f64, duty f64). Full-surface
modes store rows x cols pairs in row-major order; column-wise modes store one
pair per row. The digest binds the file to the exact scenario it was built
for; a mismatch on load is an error, never a silent fallback.
"""

import hashlib
import json
import struct
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .geometry import EmsGeometry
from .modulation import ControlMode, PulseSchedule

MAGIC = b"TMEMSCB1"
FORMAT_VERSION = 1

_MODE_CODES = {
    ControlMode.FULL: 0,
    ControlMode.DELTA: 1,
    ControlMode.COLWISE: 2,
    ControlMode.COLWISE_DELTA: 3,
}
_CODE_MODES = {v: k for k, v in _MODE_CODES.items()}

_HEADER = struct.Struct("<8sHHHHIQdd32s")
_RECORD_HEAD = struct.Struct("<iId")
# candidate angles lie in [0, 90) degrees and round to millidegrees
_MAX_ANGLE_MDEG = 90_000
# largest values of the header's u16, u32 and u64 fields
_U16_MAX = 2**16 - 1
_U32_MAX = 2**32 - 1
_U64_MAX = 2**64 - 1


class CodebookError(ValueError):
    """Raised for malformed, truncated, or stale codebook files."""


def scenario_digest(payload: dict) -> bytes:
    """SHA-256 of a canonical JSON rendering of the scenario parameters."""
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).digest()


def pairs_per_record(mode: ControlMode, rows: int, cols: int) -> int:
    return rows if mode.columnwise else rows * cols


@dataclass(frozen=True)
class CodebookEntry:
    angle_mdeg: int
    phi: float
    rise: np.ndarray
    duty: np.ndarray

    @property
    def angle_deg(self) -> float:
        return self.angle_mdeg / 1000.0

    def schedule(self, geometry: EmsGeometry, mode: ControlMode,
                 period_s: float) -> PulseSchedule:
        """Expand the stored pairs back into a full per-cell schedule."""
        p, q = geometry.rows, geometry.cols
        if self.rise.size != pairs_per_record(mode, p, q):
            raise CodebookError("entry size does not match the geometry and mode")
        # one column per row in column-wise modes, every cell otherwise
        rise = np.broadcast_to(self.rise.reshape(p, -1), (p, q))
        duty = np.broadcast_to(self.duty.reshape(p, -1), (p, q))
        return PulseSchedule(period_s=period_s, rise=rise, duty=duty)


@dataclass(frozen=True)
class Codebook:
    mode: ControlMode
    rows: int
    cols: int
    seed: int
    period_s: float
    f0_hz: float
    digest: bytes
    entries: tuple

    def angles_deg(self) -> list:
        return [e.angle_deg for e in self.entries]

    def entry_for(self, angle_deg: float) -> Optional[CodebookEntry]:
        target = to_mdeg(angle_deg)
        for e in self.entries:
            if e.angle_mdeg == target:
                return e
        return None


def to_mdeg(angle_deg: float) -> int:
    """The angle rounded to whole millidegrees, as records key it."""
    return int(round(float(angle_deg) * 1000.0))


def entry_from_schedule(angle_deg: float, phi: float, schedule: PulseSchedule,
                        mode: ControlMode) -> CodebookEntry:
    """Compress a schedule to its mode-native pair list."""
    rise, duty = schedule.rise, schedule.duty
    if mode.columnwise:
        rise, duty = rise[:, :1], duty[:, :1]
        if not (np.all(schedule.rise == rise) and np.all(schedule.duty == duty)):
            raise ValueError("schedule is not column-wise; refusing lossy storage")
    rise = rise.flatten()
    duty = duty.flatten()
    rise.setflags(write=False)
    duty.setflags(write=False)
    return CodebookEntry(angle_mdeg=to_mdeg(angle_deg), phi=float(phi),
                         rise=rise, duty=duty)


def _check_values(rows: int, cols: int, seed: int, period_s: float, f0_hz: float,
                  entries) -> None:
    """Value checks shared by the reader and the writer: everything the
    header's fields must hold, then every record; each comparison is written
    so that NaN fails it."""
    if rows < 1 or cols < 1:
        raise CodebookError("header declares an empty surface")
    if rows > _U16_MAX or cols > _U16_MAX:
        raise CodebookError(f"surface of {rows} x {cols} cells exceeds {_U16_MAX} rows or cols")
    if len(entries) > _U32_MAX:
        raise CodebookError(f"{len(entries)} records exceed the limit of {_U32_MAX}")
    if not (0 <= seed <= _U64_MAX):
        raise CodebookError(f"seed {seed} lies outside 0..2**64-1")
    if not (0.0 < period_s < np.inf and 0.0 < f0_hz < np.inf):
        raise CodebookError("header holds an invalid period or carrier frequency")
    for e in entries:
        if not (0 <= e.angle_mdeg <= _MAX_ANGLE_MDEG):
            raise CodebookError(f"record angle {e.angle_mdeg} mdeg lies outside "
                                f"0..{_MAX_ANGLE_MDEG} mdeg")
        if not (np.all((e.rise >= 0.0) & (e.rise < 1.0))
                and np.all((e.duty >= 0.0) & (e.duty <= 1.0))):
            raise CodebookError("record holds out-of-range rise or duty values")
        if not (np.isfinite(e.phi) and e.phi >= 0.0):
            raise CodebookError("record holds an invalid cost value")


def write_codebook(path, book: Codebook) -> None:
    """Write a book; refuses, before touching the file, anything the reader
    would reject."""
    if len(book.digest) != 32:
        raise ValueError("digest must be 32 bytes")
    if book.mode not in _MODE_CODES:
        raise ValueError(f"unknown control mode {book.mode!r}")
    n_pairs = pairs_per_record(book.mode, book.rows, book.cols)
    entries = sorted(book.entries, key=lambda e: e.angle_mdeg)
    for a, b in zip(entries, entries[1:]):
        if a.angle_mdeg == b.angle_mdeg:
            raise ValueError(f"duplicate angle {a.angle_deg} deg")
    for e in entries:
        if e.rise.shape != (n_pairs,) or e.duty.shape != (n_pairs,):
            raise ValueError("entry size does not match the header geometry")
    _check_values(book.rows, book.cols, book.seed, book.period_s, book.f0_hz, entries)
    blob = bytearray()
    blob += _HEADER.pack(MAGIC, FORMAT_VERSION, _MODE_CODES[book.mode],
                         book.rows, book.cols, len(entries), book.seed,
                         book.period_s, book.f0_hz, book.digest)
    for e in entries:
        blob += _RECORD_HEAD.pack(e.angle_mdeg, n_pairs, e.phi)
        blob += np.column_stack([e.rise, e.duty]).astype("<f8").tobytes()
    with open(path, "wb") as fh:
        fh.write(bytes(blob))


def read_codebook(path, expected_digest: Optional[bytes] = None) -> Codebook:
    """Load and validate a codebook; digest mismatches raise CodebookError."""
    with open(path, "rb") as fh:
        blob = fh.read()
    if len(blob) < _HEADER.size:
        raise CodebookError("file too short for a codebook header")
    magic, version, mode_code, rows, cols, count, seed, period_s, f0_hz, digest = (
        _HEADER.unpack_from(blob, 0))
    if magic != MAGIC:
        raise CodebookError("bad magic; not a codebook file")
    if version != FORMAT_VERSION:
        raise CodebookError(f"unsupported codebook version {version}")
    if mode_code not in _CODE_MODES:
        raise CodebookError(f"unknown control-mode code {mode_code}")
    mode = _CODE_MODES[mode_code]
    # the record size depends on the surface, so this one check cannot wait
    # for _check_values
    if rows < 1 or cols < 1:
        raise CodebookError("header declares an empty surface")
    if expected_digest is not None and digest != expected_digest:
        raise CodebookError(
            "scenario digest mismatch; the codebook was built for different parameters")
    n_pairs = pairs_per_record(mode, rows, cols)
    rec_size = _RECORD_HEAD.size + 16 * n_pairs
    if len(blob) != _HEADER.size + count * rec_size:
        raise CodebookError("file length does not match the declared record count")
    entries = []
    off = _HEADER.size
    prev = None
    for _ in range(count):
        angle_mdeg, got_pairs, phi = _RECORD_HEAD.unpack_from(blob, off)
        off += _RECORD_HEAD.size
        if got_pairs != n_pairs:
            raise CodebookError("record pair count disagrees with the header")
        pairs = np.frombuffer(blob, dtype="<f8", count=2 * n_pairs, offset=off)
        off += 16 * n_pairs
        pairs = pairs.reshape(n_pairs, 2).astype(float)
        rise, duty = pairs[:, 0].copy(), pairs[:, 1].copy()
        if prev is not None and angle_mdeg <= prev:
            raise CodebookError("records are not sorted by strictly increasing angle")
        prev = angle_mdeg
        rise.setflags(write=False)
        duty.setflags(write=False)
        entries.append(CodebookEntry(angle_mdeg=angle_mdeg, phi=phi, rise=rise, duty=duty))
    _check_values(rows, cols, seed, period_s, f0_hz, entries)
    return Codebook(mode=mode, rows=rows, cols=cols, seed=seed, period_s=period_s,
                    f0_hz=f0_hz, digest=digest, entries=tuple(entries))
