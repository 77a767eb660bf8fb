"""Shared fixtures: hand-rolled WAV bytes and small data helpers.

The WAV builder writes containers byte by byte with struct, independent of
the package's decoder, so decode tests are not circular.
"""

import struct

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse.linalg

# GUID 00000001-0000-0010-8000-00AA00389B71 minus the leading format tag
_SUBFORMAT_TAIL = bytes.fromhex("0000" + "0010" + "8000" + "00aa00389b71")


def _fmt_payload(tag, channels, rate, bits, extensible):
    block_align = channels * (bits // 8)
    byte_rate = rate * block_align
    base = struct.pack("<HHIIHH", 0xFFFE if extensible else tag,
                       channels, rate, byte_rate, block_align, bits)
    if not extensible:
        return base
    guid = struct.pack("<H", tag) + b"\x00\x00" + _SUBFORMAT_TAIL
    return base + struct.pack("<HHI", 22, bits, 0) + guid


def _encode(samples, bits, float_fmt):
    if float_fmt:
        return np.asarray(samples, dtype="<f4").tobytes()
    ints = np.asarray(samples, dtype=np.int64)
    if bits == 16:
        return ints.astype("<i2").tobytes()
    if bits == 32:
        return ints.astype("<i4").tobytes()
    if bits == 24:
        # The low three bytes of each little-endian two's-complement word.
        return ints.astype("<i4").view(np.uint8).reshape(-1, 4)[:, :3].tobytes()
    raise AssertionError(f"unsupported test bit depth {bits}")


def make_wav(samples, rate, bits=16, float_fmt=False, extensible=False,
             extra_chunk=None):
    """Build WAV bytes from integer sample values (or floats if float_fmt).

    ``samples`` is (n,) mono or (n, channels).  Integer values are written
    raw, so tests control exact sample words.
    """
    samples = np.atleast_1d(np.asarray(samples))
    if samples.ndim == 1:
        samples = samples[:, np.newaxis]
    channels = samples.shape[1]
    tag = 3 if float_fmt else 1
    fmt = _fmt_payload(tag, channels, rate, bits, extensible)
    data = _encode(samples, bits, float_fmt)
    chunks = b"fmt " + struct.pack("<I", len(fmt)) + fmt
    if extra_chunk is not None:
        cid, payload = extra_chunk
        chunks += cid + struct.pack("<I", len(payload)) + payload
        if len(payload) % 2:
            chunks += b"\x00"
    chunks += b"data" + struct.pack("<I", len(data)) + data
    if len(data) % 2:
        chunks += b"\x00"
    return b"RIFF" + struct.pack("<I", 4 + len(chunks)) + b"WAVE" + chunks


def sine(freq, seconds, rate, amp=0.5):
    t = np.arange(int(round(seconds * rate))) / float(rate)
    return amp * np.sin(2.0 * np.pi * freq * t)


def sine_wav(freq, seconds, rate, amp=0.5):
    """16-bit mono PCM WAV of a sine tone."""
    x = sine(freq, seconds, rate, amp)
    ints = np.round(x * 32767.0).astype(np.int64)
    return make_wav(ints, rate, bits=16)


@pytest.fixture
def wav_builder():
    return make_wav


def random_dissim(rng, n):
    """Random valid dissimilarity matrix with distinct off-diagonal values."""
    raw = rng.uniform(0.1, 10.0, size=(n, n))
    m = np.triu(raw, 1)
    m = m + m.T
    np.fill_diagonal(m, 0.0)
    return m


def overflow_in_last_band(n=600):
    """Features whose one overflowing distance joins rows 580 and 590.

    Each of the two is about 1e154 from every other row, which squares to
    about 1e308 and stays finite; only their own distance, about 2e154,
    overflows when squared.  So only the last band overflows: at n = 600,
    bands of 218 rows put both in rows 436 to 599.
    """
    f = np.random.Generator(np.random.Philox(key=12)).normal(size=(n, 4))
    f[580, 0], f[590, 0] = 1e154, -1e154
    return f


def count_solvers(monkeypatch, eigsh=None):
    """Record the matrix shape of each eigensolver call ``_eigen_topk`` makes.

    Keys: ``lanczos`` (ARPACK's ``eigsh``, replaced by ``eigsh`` when
    given), ``subset`` (evr through ``scipy.linalg.eigh``) and ``full``
    (``np.linalg.eigh``).  Patch a solver before this call to count the
    patched one.
    """
    calls = {"lanczos": [], "subset": [], "full": []}
    for mod, name, kind in [(scipy.sparse.linalg, "eigsh", "lanczos"),
                            (scipy.linalg, "eigh", "subset"),
                            (np.linalg, "eigh", "full")]:
        solve = eigsh if kind == "lanczos" and eigsh else getattr(mod, name)

        def counted(a, *args, _solve=solve, _kind=kind, **kwargs):
            calls[_kind].append(np.shape(a))
            return _solve(a, *args, **kwargs)

        monkeypatch.setattr(mod, name, counted)
    return calls


# One line per acceptance criterion, echoed after the run so the verdicts
# are visible even with output capture on.
ACCEPTANCE_LINES = []


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)
