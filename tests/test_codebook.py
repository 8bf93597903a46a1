"""Binary codebook file format: round trips and hostile-input rejection."""

import struct

import numpy as np
import pytest

from tmems.cli import main
from tmems.codebook import (
    Codebook,
    CodebookEntry,
    CodebookError,
    _check_values,
    entry_from_schedule,
    pairs_per_record,
    read_codebook,
    scenario_digest,
    write_codebook,
)
from tmems.modulation import ControlMode, PulseSchedule

HEADER_SIZE = 76
RECORD_HEAD_SIZE = 16


def make_book(rng, mode=ControlMode.DELTA, rows=4, cols=3, angles=(5.0, 10.0)):
    n = pairs_per_record(mode, rows, cols)
    entries = []
    for i, a in enumerate(angles):
        rise = rng.random(n)
        duty = rng.random(n)
        if i == 0:
            duty[0] = 1.0  # duty may sit exactly on the closed upper bound
        sched_rise = rise.reshape(rows, cols) if n == rows * cols else \
            np.repeat(rise[:, None], cols, axis=1)
        sched_duty = duty.reshape(rows, cols) if n == rows * cols else \
            np.repeat(duty[:, None], cols, axis=1)
        sched = PulseSchedule(period_s=1e-6, rise=sched_rise, duty=sched_duty)
        entries.append(entry_from_schedule(a, 0.25 * i, sched, mode))
    return Codebook(mode=mode, rows=rows, cols=cols, seed=42, period_s=1e-6,
                    f0_hz=5.5e9, digest=scenario_digest({"k": 1}),
                    entries=tuple(entries))


def test_round_trip_bit_identical(tmp_path, rng):
    book = make_book(rng)
    path = tmp_path / "book.tmcb"
    write_codebook(path, book)
    loaded = read_codebook(path)
    assert (loaded.mode, loaded.rows, loaded.cols) == (book.mode, book.rows, book.cols)
    assert loaded.seed == book.seed
    assert loaded.period_s == book.period_s and loaded.f0_hz == book.f0_hz
    assert loaded.digest == book.digest
    assert [e.angle_deg for e in loaded.entries] == [5.0, 10.0]
    for got, want in zip(loaded.entries, sorted(book.entries, key=lambda e: e.angle_mdeg)):
        assert got.angle_mdeg == want.angle_mdeg
        assert got.phi == want.phi
        assert np.array_equal(got.rise, want.rise)
        assert np.array_equal(got.duty, want.duty)
    # writing the loaded book back reproduces the file byte for byte
    path2 = tmp_path / "book2.tmcb"
    write_codebook(path2, loaded)
    assert path2.read_bytes() == path.read_bytes()


def test_read_with_expected_digest(tmp_path, rng):
    book = make_book(rng)
    path = tmp_path / "book.tmcb"
    write_codebook(path, book)
    assert read_codebook(path, expected_digest=book.digest).digest == book.digest
    with pytest.raises(CodebookError, match="digest mismatch"):
        read_codebook(path, expected_digest=bytes(32))


def patched(blob: bytes, offset: int, fmt: str, value) -> bytes:
    out = bytearray(blob)
    struct.pack_into(fmt, out, offset, value)
    return bytes(out)


@pytest.fixture
def book_bytes(tmp_path, rng):
    path = tmp_path / "book.tmcb"
    write_codebook(path, make_book(rng))
    return path.read_bytes()


def reject(tmp_path, blob: bytes, message: str):
    path = tmp_path / "bad.tmcb"
    path.write_bytes(blob)
    with pytest.raises(CodebookError, match=message):
        read_codebook(path)


def test_read_rejects_corrupt_files(tmp_path, book_bytes):
    blob = book_bytes
    reject(tmp_path, blob[:50], "file too short")
    reject(tmp_path, b"NOTMAGIC" + blob[8:], "bad magic")
    reject(tmp_path, patched(blob, 8, "<H", 2), "unsupported codebook version 2")
    reject(tmp_path, patched(blob, 10, "<H", 9), "unknown control-mode code 9")
    reject(tmp_path, patched(blob, 12, "<H", 0), "empty surface")
    reject(tmp_path, blob + b"\x00", "does not match the declared record count")
    reject(tmp_path, blob[:-1], "does not match the declared record count")
    reject(tmp_path, patched(blob, HEADER_SIZE + 4, "<I", 5), "pair count disagrees")
    # first record's first rise value pushed out of [0, 1)
    reject(tmp_path, patched(blob, HEADER_SIZE + RECORD_HEAD_SIZE, "<d", 1.0),
           "out-of-range rise or duty")
    reject(tmp_path, patched(blob, HEADER_SIZE + RECORD_HEAD_SIZE + 8, "<d", -0.1),
           "out-of-range rise or duty")
    reject(tmp_path, patched(blob, HEADER_SIZE + 8, "<d", -1.0), "invalid cost")
    reject(tmp_path, patched(blob, HEADER_SIZE + 8, "<d", float("nan")), "invalid cost")
    # bump the first record's angle past the second record's
    reject(tmp_path, patched(blob, HEADER_SIZE, "<i", 20000), "not sorted")
    reject(tmp_path, patched(blob, HEADER_SIZE, "<i", 10000), "not sorted")
    # angles a candidate cannot round to: below 0, above 90 deg, and bit 30
    # of the last record's 10000 mdeg flipped (1073751.824 deg)
    last = HEADER_SIZE + RECORD_HEAD_SIZE + 16 * 12
    reject(tmp_path, patched(blob, HEADER_SIZE, "<i", -1), r"-1 mdeg lies outside 0\.\.90000")
    reject(tmp_path, patched(blob, last, "<i", 90001), "lies outside")
    reject(tmp_path, patched(blob, last, "<i", 10000 | 1 << 30), "1073751824 mdeg lies outside")
    # NaN fails every comparison, so a NaN-blind range test let it through
    for offset in (HEADER_SIZE + RECORD_HEAD_SIZE, HEADER_SIZE + RECORD_HEAD_SIZE + 8):
        reject(tmp_path, patched(blob, offset, "<d", float("nan")), "out-of-range rise or duty")
    for offset in (28, 36):  # period_s, f0_hz
        for value in (float("nan"), float("inf"), 0.0, -1.0):
            reject(tmp_path, patched(blob, offset, "<d", value),
                   "invalid period or carrier frequency")


def test_cli_export_reports_a_bad_header(tmp_path, book_bytes, capsys):
    # tmems export used to fail later, in PulseSchedule, with its message
    (tmp_path / "bad.tmcb").write_bytes(patched(book_bytes, 28, "<d", -1e-6))
    assert main(["export", "--codebook", str(tmp_path / "bad.tmcb"),
                 "--out", str(tmp_path / "x")]) == 2
    assert "invalid period or carrier frequency" in capsys.readouterr().err


def test_write_rejects_inconsistent_books(tmp_path, rng):
    book = make_book(rng)
    path = tmp_path / "x.tmcb"
    with pytest.raises(ValueError, match="32 bytes"):
        write_codebook(path, Codebook(**{**book.__dict__, "digest": b"short"}))
    dup = Codebook(**{**book.__dict__, "entries": (book.entries[0], book.entries[0])})
    with pytest.raises(ValueError, match="duplicate angle"):
        write_codebook(path, dup)
    small = make_book(rng, rows=2, cols=2)
    mixed = Codebook(**{**book.__dict__, "entries": small.entries})
    with pytest.raises(ValueError, match="entry size"):
        write_codebook(path, mixed)
    with pytest.raises(ValueError, match="unknown control mode"):
        write_codebook(path, Codebook(**{**book.__dict__, "mode": book.mode.value}))
    # the writer refuses, leaving no file, every book the reader would reject
    with pytest.raises(ValueError, match="empty surface"):
        write_codebook(path, Codebook(**{**book.__dict__, "rows": 0, "entries": ()}))
    assert not path.exists()
    entry = book.entries[0]

    def refused(message, **changes):
        entries = (CodebookEntry(**{**entry.__dict__, **changes.pop("entry", {})}),)
        bad = Codebook(**{**book.__dict__, "entries": entries, **changes})
        with pytest.raises(CodebookError, match=message):
            write_codebook(path, bad)
        assert not path.exists()

    nan = float("nan")
    # all four defects at once, then each one alone
    refused("invalid period", period_s=nan, f0_hz=-1.0,
            entry={"rise": np.full(12, 1.5), "duty": np.full(12, nan)})
    for value in (nan, float("inf"), 0.0, -1.0):
        refused("invalid period or carrier frequency", period_s=value)
        refused("invalid period or carrier frequency", f0_hz=value)
    refused("out-of-range rise or duty", entry={"rise": np.full(12, 1.5)})
    refused("out-of-range rise or duty", entry={"duty": np.full(12, nan)})
    refused("invalid cost", entry={"phi": nan})
    refused("invalid cost", entry={"phi": -1.0})
    refused("lies outside", entry={"angle_mdeg": -5000})
    refused("lies outside", entry={"angle_mdeg": 90001})
    # header fields the format cannot hold: a CodebookError, not struct.error
    for changes in ({"rows": 70000, "entries": ()}, {"cols": 2**16, "entries": ()}):
        with pytest.raises(CodebookError, match="exceeds 65535 rows or cols"):
            write_codebook(path, Codebook(**{**book.__dict__, **changes}))
    for seed in (2**64, -1):
        with pytest.raises(CodebookError, match=f"seed {seed} lies outside 0..2\\*\\*64-1"):
            write_codebook(path, Codebook(**{**book.__dict__, "seed": seed}))
    assert not path.exists()

    class Huge(tuple):
        def __len__(self):
            return 2**32

    with pytest.raises(CodebookError, match="records exceed the limit of 4294967295"):
        _check_values(4, 3, 0, 1e-6, 5.5e9, Huge())
    write_codebook(path, Codebook(**{**book.__dict__, "seed": 2**64 - 1}))
    assert read_codebook(path).seed == 2**64 - 1


def test_pairs_per_record():
    assert pairs_per_record(ControlMode.FULL, 4, 3) == 12
    assert pairs_per_record(ControlMode.DELTA, 4, 3) == 12
    assert pairs_per_record(ControlMode.COLWISE, 4, 3) == 4
    assert pairs_per_record(ControlMode.COLWISE_DELTA, 4, 3) == 4


def test_entry_from_schedule_colwise_guard(rng):
    full = PulseSchedule(period_s=1e-6, rise=rng.random((4, 3)), duty=rng.random((4, 3)))
    with pytest.raises(ValueError, match="not column-wise"):
        entry_from_schedule(0.0, 0.0, full, ControlMode.COLWISE)
    col = PulseSchedule(period_s=1e-6,
                        rise=np.repeat(rng.random((4, 1)), 3, axis=1),
                        duty=np.repeat(rng.random((4, 1)), 3, axis=1))
    entry = entry_from_schedule(12.3456, 0.5, col, ControlMode.COLWISE)
    assert entry.rise.shape == (4,)
    assert entry.angle_mdeg == 12346  # rounded to millidegrees
    assert entry.angle_deg == pytest.approx(12.346)


def test_entry_schedule_expansion(rng):
    def book(mode, rows=4):
        return Codebook(mode=mode, rows=rows, cols=3, seed=0, period_s=1e-6, f0_hz=5.5e9,
                        digest=bytes(32), entries=())

    col = PulseSchedule(period_s=1e-6,
                        rise=np.repeat(rng.random((4, 1)), 3, axis=1),
                        duty=np.repeat(rng.random((4, 1)), 3, axis=1))
    entry = entry_from_schedule(5.0, 0.0, col, ControlMode.COLWISE)
    back = book(ControlMode.COLWISE).schedule(entry)
    assert back.period_s == 1e-6
    assert np.array_equal(back.rise, col.rise)
    assert np.array_equal(back.duty, col.duty)
    with pytest.raises(CodebookError, match="entry size"):
        book(ControlMode.COLWISE, rows=6).schedule(entry)
    full = PulseSchedule(period_s=1e-6, rise=rng.random((4, 3)), duty=rng.random((4, 3)))
    fe = entry_from_schedule(5.0, 0.0, full, ControlMode.FULL)
    fback = book(ControlMode.FULL).schedule(fe)
    assert np.array_equal(fback.rise, full.rise)
    assert np.array_equal(fback.duty, full.duty)
