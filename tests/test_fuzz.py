"""Seeded fuzzing of every input reader.

Each property starts from a valid file and mutates it with byte flips,
deletions, insertions and truncations.  A reader must return its value or
raise InputError.  At the CLI a mutated input exits 0 or 2, and an exit 2
prints ``error: `` and the file's name.  WAV files also go through
``extract_features``, whose resampler sizes its output by the ``fmt ``
chunk's rate.
"""

import contextlib
import io
import struct
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scenevat.audio import decode_wav, extract_features
from scenevat.cli import main
from scenevat.errors import InputError
from scenevat.manifest import parse_manifest
from scenevat.synth import block_dissim
from scenevat.vat import (
    odi_from,
    ordering_from_json,
    ordering_to_json,
    parse_pgm,
    vat_order,
)
from scenevat.vatf import parse_vatf, write_vatf

from conftest import make_wav, sine

# Fixed examples, so every run tries the same files; at 100 a reader's
# property finds the bare CR that once broke the manifest reader.
FUZZ = settings(derandomize=True, deadline=None, max_examples=100)

DISSIM = block_dissim([3, 3], 0.1, 1.0)
ORDERING = vat_order(DISSIM)
SEEDS = {
    "manifest": b"path,scene,city\n" + b"".join(
        f"c{i}.wav,{'bus' if i % 2 else 'park'},{'london' if i < 3 else 'paris'}\n"
        .encode() for i in range(6)),
    "vatf": b"VATF" + struct.pack("<III", 1, 6, 6) + DISSIM.astype("<f8").tobytes(),
    "pgm": b"P5\n6 6\n255\n" + odi_from(DISSIM, ORDERING).tobytes(),
    "ordering": ordering_to_json(ORDERING).encode(),
    "wav": make_wav(np.round(20000 * sine(440.0, 0.005, 8000)).astype(np.int16), 8000),
}


# Line ends, separators, signs and quotes: the bytes where readers fork.
SPECIAL = [b"\r", b"\n", b",", b"-", b'"', b" ", b"\x00"]


@st.composite
def mutations(draw, seed: bytes) -> bytes:
    """``seed`` after one to four flips, deletions, insertions or cuts."""
    data = bytearray(seed)
    for _ in range(draw(st.integers(1, 4))):
        op = draw(st.sampled_from(["flip", "delete", "insert", "truncate"]))
        pos = draw(st.integers(0, len(data)))
        if op == "flip" and pos < len(data):
            data[pos] ^= 1 << draw(st.integers(0, 7))
        elif op == "delete":
            del data[pos:pos + draw(st.integers(1, 8))]
        elif op == "insert":  # bytes, or one that a format gives meaning
            data[pos:pos] = draw(st.binary(min_size=1, max_size=8)
                                 | st.sampled_from(SPECIAL))
        elif op == "truncate":
            del data[pos:]
    return bytes(data)


@pytest.fixture(scope="module")
def scratch(tmp_path_factory):
    """A directory with a valid manifest and a feature row per record."""
    path = tmp_path_factory.mktemp("fuzz")
    (path / "m.csv").write_bytes(SEEDS["manifest"])
    write_vatf(path / "f.vatf", DISSIM[:, :2])
    return path


READERS = {"manifest": parse_manifest, "vatf": parse_vatf, "pgm": parse_pgm,
           "ordering": ordering_from_json, "wav": decode_wav}


@pytest.mark.parametrize("kind", sorted(READERS))
@FUZZ
@given(data=st.data())
def test_a_mutated_file_parses_or_raises_input_error(kind, data):
    mutated = data.draw(mutations(SEEDS[kind]))
    with contextlib.suppress(InputError):  # read_file passes a bytearray
        READERS[kind](bytearray(mutated))


@FUZZ
@given(data=st.data())
def test_a_mutated_wav_extracts_or_raises_input_error(data):
    with contextlib.suppress(InputError):
        extract_features(bytearray(data.draw(mutations(SEEDS["wav"]))))


# The file each command is fuzzed in, and its arguments; {file} is the
# mutated file, and the other inputs are valid seeds.
COMMANDS = {
    "cce": ("pgm", ["cce", "--image", "{file}"]),
    "stack": ("ordering", ["stack", "--manifest", "{manifest}",
                           "--ordering", "{file}"]),
    "vat": ("vatf", ["vat", "--dissim", "{file}"]),
    "report": ("manifest", ["report", "--manifest", "{file}",
                            "--features", "{features}"]),
}


@pytest.mark.parametrize("command", sorted(COMMANDS))
@settings(FUZZ, max_examples=40)  # a run of main costs about 10 ms
@given(data=st.data())
def test_a_mutated_input_file_exits_0_or_2_naming_it(scratch, command, data):
    kind, argv = COMMANDS[command]
    paths = {"manifest": scratch / "m.csv", "features": scratch / "f.vatf",
             "file": scratch / f"fuzzed.{kind}"}
    paths["file"].write_bytes(data.draw(mutations(SEEDS[kind])))
    argv = [a.format(**paths) for a in argv] + ["--out", str(scratch / "out")]
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(err), warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # skipped subsets
        code = main(argv)
    message = err.getvalue()
    assert code in (0, 2), message
    if code == 2:
        assert message.startswith("error: ") and str(paths["file"]) in message, message
