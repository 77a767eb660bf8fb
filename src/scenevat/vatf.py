"""VATF binary container for real-valued matrices.

Layout: the bytes ``VATF``; little-endian uint32 version (=1), n, d; then
n*d little-endian IEEE-754 float64 values, row-major.  Used for feature
stores (n x d) and, with d = n, for dissimilarity matrices.  Round trips
are bit-exact.

The package's file access lives here too: ``read_file`` reads every input
file, ``naming`` names the file in errors about its contents, and
``atomic_write_bytes`` writes every artifact.
"""

from __future__ import annotations

import contextlib
import os
import struct
import tempfile

import numpy as np

from .errors import InputError

MAGIC = b"VATF"
VERSION = 1

_HEADER = struct.Struct("<4sIII")


def parse_vatf(data) -> np.ndarray:
    """The float64 matrix in VATF bytes.

    A writable buffer (``read_file``'s bytearray) is viewed, not copied:
    the matrix shares its memory, so a read holds one copy.  An immutable
    one (``bytes``) is copied.
    """
    if len(data) < _HEADER.size:
        raise InputError("VATF data shorter than header")
    magic, version, n, d = _HEADER.unpack_from(data)
    if magic != MAGIC:
        raise InputError(f"bad VATF magic {magic!r}")
    if version != VERSION:
        raise InputError(f"unsupported VATF version {version}")
    payload = len(data) - _HEADER.size
    if payload != 8 * n * d:
        raise InputError(
            f"VATF payload is {payload} bytes, expected {8 * n * d} for {n}x{d}"
        )
    flat = np.frombuffer(data, dtype="<f8", offset=_HEADER.size)
    return flat.reshape(n, d).astype(np.float64, copy=not flat.flags.writeable)


def write_vatf(path, values) -> None:
    """Write a 2-D array atomically (temp file + rename), without copying
    the values."""
    values = np.asarray(values)
    if values.ndim != 2:
        raise InputError(f"VATF stores 2-D matrices, got {values.ndim}-D")
    x = np.ascontiguousarray(values, dtype="<f8")
    atomic_write_bytes(path, [_HEADER.pack(MAGIC, VERSION, *x.shape),
                              x.reshape(-1).view(np.uint8)])


def read_vatf(path) -> np.ndarray:
    return read_file(path, "VATF file", parse_vatf)


def read_file(path, kind: str, parse):
    """Return ``parse(data)`` on the bytes of the file at ``path``.

    The one way the package reads an input file.  A file that cannot be
    read raises ``InputError("cannot read <kind> <path>: ...")``, and an
    InputError from ``parse`` is re-raised by ``naming(path)``.  ``parse``
    gets a writable ``bytearray`` that nothing else holds, so it may keep
    a view of it.  Pass ``parse=bytes`` for a copy of the raw bytes, or
    ``parse=memoryview`` for a view of them.
    """
    try:
        with open(path, "rb") as fh:
            # One buffer of the file's size, then whatever a file that grew,
            # or reports no size (a pipe), still holds.
            data = bytearray(os.fstat(fh.fileno()).st_size)
            del data[fh.readinto(data):]
            data += fh.read()
    except OSError as exc:
        raise InputError(f"cannot read {kind} {path}: {exc}") from exc
    with naming(path):
        return parse(data)


@contextlib.contextmanager
def naming(path):
    """Re-raise an InputError from the block as ``"<path>: <message>"``.

    Wrap the code that reads or checks the contents of one file, once, so
    every message about those contents starts with the file's name.
    """
    try:
        yield
    except InputError as exc:
        raise InputError(f"{path}: {exc}") from exc


def atomic_write_bytes(path, chunks) -> None:
    """Write an iterable of bytes-like chunks to a temp file, then rename
    it to path.  An exception while the chunks are made or written removes
    the temp file and leaves path as it was."""
    path = os.fspath(path)
    directory = os.path.dirname(path) or "."
    try:
        fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix="~")
        try:
            with os.fdopen(fd, "wb") as fh:
                fh.writelines(chunks)
            os.replace(tmp, path)
        except BaseException:
            os.unlink(tmp)
            raise
    except OSError as exc:
        raise InputError(f"cannot write {path}: {exc}") from exc


def atomic_write_text(path, text: str) -> None:
    atomic_write_bytes(path, [text.encode("utf-8")])
