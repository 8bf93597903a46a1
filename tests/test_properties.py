"""Property tests: the mode decoder, the mirror rule, and the two file
formats' round trips and hostile-input handling, over generated inputs."""

import numpy as np
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from tmems.codebook import (
    Codebook,
    CodebookEntry,
    CodebookError,
    pairs_per_record,
    read_codebook,
    write_codebook,
)
from tmems.export import read_schedule_csv, write_schedule_csv
from tmems.geometry import EmsGeometry
from tmems.modulation import ControlMode, PulseSchedule
from tmems.synthesis import ModeCodec

MODES = st.sampled_from(list(ControlMode))
RISE = st.floats(0.0, 1.0, exclude_max=True)
DUTY = st.floats(0.0, 1.0)
POSITIVE = st.floats(0.0, exclude_min=True, allow_infinity=False)


def pulses(n):
    return st.tuples(arrays(float, n, elements=RISE), arrays(float, n, elements=DUTY))


@st.composite
def codec_vectors(draw, modes=MODES):
    """A codec over an even row count and a search vector in its unit cube."""
    codec = ModeCodec(mode=draw(modes), rows=2 * draw(st.integers(1, 6)),
                      cols=draw(st.integers(1, 8)))
    rise, duty = draw(pulses(codec.dim // 2))
    return codec, np.concatenate([rise, duty])


@given(codec_vectors())
def test_encode_inverts_decode(case):
    codec, x = case
    rise, duty = codec.decode_batch(x)
    assert rise.shape == duty.shape == (1, codec.rows, codec.cols)
    back = codec.encode(rise[0], duty[0])
    assert back.tobytes() == x.tobytes()
    # a decoded schedule is a fixed point of decode(encode(.))
    again = codec.decode_batch(back)
    assert again[0].tobytes() == rise.tobytes() and again[1].tobytes() == duty.tobytes()


@given(codec_vectors(st.sampled_from([m for m in ControlMode if m.mirrored])))
def test_mirrored_rows_negate_the_first_harmonic(case):
    codec, x = case
    sched = codec.decode(x, 1e-6)
    u1 = sched.fourier_coefficients(1)
    u0 = sched.fourier_coefficients(0)
    assert np.abs(u1[::-1] + u1).max() <= 1e-14
    assert u0[::-1].tobytes() == u0.tobytes()


@st.composite
def schedules(draw):
    shape = (draw(st.integers(1, 6)), draw(st.integers(1, 6)))
    rise, duty = draw(pulses(shape[0] * shape[1]))
    return PulseSchedule(period_s=draw(POSITIVE), rise=rise.reshape(shape),
                         duty=duty.reshape(shape))


@given(schedules())
def test_schedule_csv_round_trip_is_bit_exact(tmp_path_factory, sched):
    path = tmp_path_factory.getbasetemp() / "schedule.csv"
    write_schedule_csv(path, sched)
    back = read_schedule_csv(path)
    assert np.float64(back.period_s).tobytes() == np.float64(sched.period_s).tobytes()
    assert back.rise.tobytes() == sched.rise.tobytes()
    assert back.duty.tobytes() == sched.duty.tobytes()


@st.composite
def codebooks(draw, max_side=4, max_entries=4):
    mode = draw(MODES)
    rows, cols = draw(st.integers(1, max_side)), draw(st.integers(1, max_side))
    n = pairs_per_record(mode, rows, cols)
    angles = draw(st.lists(st.integers(0, 90_000), min_size=1, max_size=max_entries,
                           unique=True))
    entries = []
    for a in angles:
        rise, duty = draw(pulses(n))
        phi = draw(st.floats(0.0, allow_infinity=False))
        entries.append(CodebookEntry(angle_mdeg=a, phi=phi, rise=rise, duty=duty))
    return Codebook(mode=mode, rows=rows, cols=cols, seed=draw(st.integers(0, 2**64 - 1)),
                    period_s=draw(POSITIVE), f0_hz=draw(POSITIVE),
                    digest=draw(st.binary(min_size=32, max_size=32)), entries=tuple(entries))


def float_bits(x) -> bytes:
    return np.float64(x).tobytes()


@given(codebooks())
def test_codebook_round_trip_is_bit_exact(tmp_path_factory, book):
    path = tmp_path_factory.getbasetemp() / "book.tmcb"
    write_codebook(path, book)
    back = read_codebook(path, expected_digest=book.digest)
    assert (back.mode, back.rows, back.cols, back.seed) == (book.mode, book.rows, book.cols,
                                                           book.seed)
    assert float_bits(back.period_s) == float_bits(book.period_s)
    assert float_bits(back.f0_hz) == float_bits(book.f0_hz)
    want = sorted(book.entries, key=lambda e: e.angle_mdeg)
    assert [e.angle_mdeg for e in back.entries] == [e.angle_mdeg for e in want]
    for got, exp in zip(back.entries, want):
        assert float_bits(got.phi) == float_bits(exp.phi)
        assert got.rise.tobytes() == exp.rise.tobytes()
        assert got.duty.tobytes() == exp.duty.tobytes()
    again = path.with_name("again.tmcb")
    write_codebook(again, back)
    assert again.read_bytes() == path.read_bytes()


def assert_usable(book: Codebook):
    """Every value finite and in range: the book exports as `tmems export` does,
    and every angle is one a candidate in [0, 90) degrees rounds to."""
    assert 0.0 < book.period_s < np.inf and 0.0 < book.f0_hz < np.inf
    geometry = EmsGeometry(rows=book.rows, cols=book.cols, f0_hz=book.f0_hz)
    for entry in book.entries:
        assert 0 <= entry.angle_mdeg <= 90_000
        assert 0.0 <= entry.phi < np.inf
        entry.schedule(geometry, book.mode, book.period_s)


@settings(max_examples=8)
@given(codebooks(max_side=3, max_entries=2))
def test_damaged_codebook_is_rejected_or_usable(tmp_path_factory, book):
    # every truncation and every single-bit flip of each generated file
    good = tmp_path_factory.getbasetemp() / "good.tmcb"
    write_codebook(good, book)
    blob = good.read_bytes()
    damaged = [blob[:n] for n in range(len(blob))]
    for bit in range(8 * len(blob)):
        flipped = bytearray(blob)
        flipped[bit // 8] ^= 1 << (bit % 8)
        damaged.append(bytes(flipped))
    path = good.with_name("damaged.tmcb")
    for data in damaged:
        path.write_bytes(data)
        try:
            loaded = read_codebook(path)
        except CodebookError:
            continue
        assert_usable(loaded)

