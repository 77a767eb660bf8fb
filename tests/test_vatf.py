import struct

import numpy as np
import pytest

from scenevat.audio import decode_wav
from scenevat.errors import InputError
from scenevat.manifest import read_manifest
from scenevat.vat import read_ordering, read_pgm
from scenevat.vatf import (
    atomic_write_bytes,
    parse_vatf,
    read_file,
    read_vatf,
    write_vatf,
)


def vatf_bytes(values) -> bytes:
    """VATF bytes of a 2-D array, built independently of write_vatf."""
    x = np.asarray(values, dtype="<f8")
    n, d = x.shape
    return b"VATF" + struct.pack("<III", 1, n, d) + x.tobytes(order="C")


def read_wav(path):
    """A WAV file read as the feature extractor reads it."""
    return read_file(path, "WAV file", decode_wav)


def test_round_trip_is_bit_exact(tmp_path):
    rng = np.random.Generator(np.random.Philox(key=11))
    m = rng.normal(size=(13, 7))
    path = tmp_path / "m.vatf"
    write_vatf(path, m)
    back = read_vatf(path)
    assert back.dtype == np.float64
    assert np.array_equal(back, m)
    assert back.tobytes() == m.tobytes()


def test_read_views_its_one_buffer(tmp_path):
    # A read holds one copy of the matrix: a writable view of the bytes
    # read_file read, which the analysis may overwrite.
    m = np.arange(12.0).reshape(4, 3)
    write_vatf(tmp_path / "m.vatf", m)
    back = read_vatf(tmp_path / "m.vatf")
    assert back.flags.writeable and back.flags.c_contiguous
    assert not back.flags.owndata and np.array_equal(back, m)
    raw = bytearray(vatf_bytes(m))
    view = parse_vatf(raw)
    view[0, 0] = -1.0
    assert raw[16:24] == struct.pack("<d", -1.0)
    # an immutable buffer is copied, so the matrix is writable still
    copied = parse_vatf(vatf_bytes(m))
    assert copied.flags.writeable and np.array_equal(copied, m)


def test_header_layout():
    m = np.array([[1.5, -2.0]])
    raw = vatf_bytes(m)
    assert raw[:4] == b"VATF"
    version, n, d = struct.unpack("<III", raw[4:16])
    assert (version, n, d) == (1, 1, 2)
    assert raw[16:] == struct.pack("<dd", 1.5, -2.0)


def test_bad_magic_rejected():
    with pytest.raises(InputError, match="magic"):
        parse_vatf(b"XATF" + b"\x00" * 12)


def test_bad_version_rejected():
    raw = bytearray(vatf_bytes(np.zeros((1, 1))))
    raw[4] = 2
    with pytest.raises(InputError, match="version"):
        parse_vatf(bytes(raw))


def test_truncated_payload_rejected(tmp_path):
    # The sizes are the payload's, after the 16-byte header, and a read
    # names the file.
    raw = vatf_bytes(np.zeros((2, 3)))
    message = "VATF payload is 40 bytes, expected 48 for 2x3"
    with pytest.raises(InputError) as err:
        parse_vatf(raw[:-8])
    assert str(err.value) == message
    path = tmp_path / "short.vatf"
    path.write_bytes(raw[:-8])
    with pytest.raises(InputError) as err:
        read_vatf(path)
    assert str(err.value) == f"{path}: {message}"


def test_trailing_bytes_rejected():
    raw = vatf_bytes(np.zeros((2, 3)))
    with pytest.raises(InputError):
        parse_vatf(raw + b"\x00")


def test_special_values_survive():
    m = np.array([[0.0, -0.0, 1e-300, 1e300]])
    back = parse_vatf(vatf_bytes(m))
    assert back.tobytes() == m.tobytes()  # signed zero preserved


def test_write_is_atomic_no_partial_file(tmp_path):
    target = tmp_path / "out.vatf"
    write_vatf(target, np.ones((2, 2)))
    first = target.read_bytes()
    write_vatf(target, np.zeros((3, 3)))  # overwrite via rename
    assert target.read_bytes() != first
    assert read_vatf(target).shape == (3, 3)
    leftovers = [p for p in tmp_path.iterdir() if p != target]
    assert leftovers == []


def test_write_matches_vatf_bytes_for_any_layout(tmp_path):
    rng = np.random.Generator(np.random.Philox(key=12))
    m = rng.normal(size=(9, 6))
    for values in (m, np.asfortranarray(m), m[::2, ::3], m.astype(">f8"),
                   np.arange(6).reshape(2, 3), np.zeros((0, 4))):
        path = tmp_path / "m.vatf"
        write_vatf(path, values)
        assert path.read_bytes() == vatf_bytes(values)


def _failing_bands(m):
    yield m[:2].tobytes()
    raise InputError("band 2 failed")


@pytest.mark.parametrize("bands, problem", [
    (_failing_bands, "band 2 failed"),
    (lambda m: [m[:2].tobytes(), None], "bytes-like object is required"),
])
def test_a_stream_that_fails_leaves_the_old_file_and_no_temp_file(
        tmp_path, bands, problem):
    # A chunk that raises while it is made, or that cannot be written.
    target = tmp_path / "m.vatf"
    write_vatf(target, np.ones((1, 1)))
    before = target.read_bytes()
    with pytest.raises((InputError, TypeError), match=problem):
        atomic_write_bytes(target, bands(np.zeros((4, 3))))
    assert target.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["m.vatf"]


@pytest.mark.parametrize("read, kind", [
    (read_vatf, "VATF file"),
    (read_pgm, "PGM file"),
    (read_ordering, "ordering file"),
    (read_manifest, "manifest"),
    (read_wav, "WAV file"),
], ids=["read_vatf", "read_pgm", "read_ordering", "read_manifest", "read_wav"])
def test_readers_name_the_file(tmp_path, read, kind):
    # Every reader goes through read_file: the two message forms.
    missing = tmp_path / "missing.in"
    with pytest.raises(InputError) as err:
        read(missing)
    assert str(err.value).startswith(f"cannot read {kind} {missing}: ")
    bad = tmp_path / "bad.in"
    bad.write_bytes(b"junk")
    with pytest.raises(InputError) as err:
        read(bad)
    assert str(err.value).startswith(f"{bad}: ")
