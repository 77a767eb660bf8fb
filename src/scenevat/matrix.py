"""Feature matrices, pairwise dissimilarities, and permutation helpers.

Feature matrices are plain float64 arrays of shape (n, d), one row per
record.  Dissimilarity matrices are square, symmetric, nonnegative float64
arrays with an exactly-zero diagonal.  Row order is the canonical record
index order that every downstream ordering permutes.

A symmetric matrix can also be held as its packed upper triangle: the rows
``d[i, i:]`` back to back, diagonal included, n(n+1)/2 floats.  That is
BLAS's lower packed layout (``dspmv(..., lower=1)``), since row i of the
upper triangle is column i of the lower one.
"""

from __future__ import annotations

import numpy as np
from scipy.spatial.distance import cdist, pdist, squareform

from .errors import DistanceOverflow, InputError

# Symmetry tolerance, relative to the largest magnitude in the matrix.
SYMMETRY_RTOL = 1e-12
# Bytes per band of the banded n x n passes (distances, symmetry check,
# affinity, normalization, ODI, Otsu histograms): each temporary holds
# about 1 MiB of float64 rows, whatever n is, and no n x n one exists.
BAND_BYTES = 1 << 20
# Entries must lie below this: the ODI scales by 255 first, which overflows
# from here (this float included) up.
DISSIM_LIMIT = np.finfo(np.float64).max / 255


def bands(n: int, nbytes: int = BAND_BYTES):
    """Row slices that cover ``range(n)`` in order, each ``nbytes`` of
    float64 rows of length n at most, or one row."""
    height = max(1, nbytes // (8 * max(n, 1)))
    for i0 in range(0, n, height):
        yield slice(i0, min(i0 + height, n))


def chunks(size: int):
    """Slices of ``BAND_BYTES`` of float64 entries at most that cover
    ``range(size)`` in order."""
    step = BAND_BYTES // 8
    for i0 in range(0, size, step):
        yield slice(i0, min(i0 + step, size))


def packed_start(n: int, i):
    """Where row i (an int or an int array) of the packed upper triangle of
    an n x n matrix starts; row n's start is its length, n(n+1)/2."""
    return i * (2 * n + 1 - i) // 2


def packed_bands(n: int):
    """``(rows, segment, mask)`` for each band of a pass over the packed
    upper triangle of an n x n matrix, in order.

    ``segment`` is the slice of the triangle that holds the band's packed
    rows, and ``mask`` marks the entries on or right of the diagonal in the
    band's rows from column ``rows.start`` on: its True entries, in
    row-major order, are the segment's.  A pass holds a band's rectangle
    and a masked copy of it, so the bands are a quarter of ``BAND_BYTES``.
    The masks are views of the first band's.
    """
    upper = None
    for rows in bands(n, BAND_BYTES // 4):
        h = rows.stop - rows.start
        if upper is None:
            upper = _upper(h, n)
        yield (rows, slice(packed_start(n, rows.start), packed_start(n, rows.stop)),
               upper[:h, :n - rows.start])


def _upper(h: int, w: int) -> np.ndarray:
    # The h x w mask of the entries on or right of the diagonal.
    return np.arange(w) >= np.arange(h)[:, np.newaxis]


def pack(d: np.ndarray, out=None) -> np.ndarray:
    """The packed upper triangle of the square ``d``, written into ``out``.

    Without ``out`` it is written into the first n(n+1)/2 entries of
    ``d``'s own buffer, which must be C-contiguous, and a view of them is
    returned: a band's rows move to or before where they were, past no
    row not yet read.
    """
    n = d.shape[0]
    if out is None:
        if not d.flags.c_contiguous:
            raise ValueError("packing in place needs a C-contiguous matrix")
        out = d.reshape(-1)[:packed_start(n, n)]
    for rows, segment, mask in packed_bands(n):
        out[segment] = d[rows, rows.start:][mask]
    return out


def unpack(p: np.ndarray, out: np.ndarray) -> np.ndarray:
    """The square symmetric matrix whose packed upper triangle is ``p``,
    written into the C-contiguous n x n ``out`` and returned.

    ``out`` may be the buffer whose first entries ``p`` views: bands are
    placed last first, and each moves to or past where it was, past every
    band not yet placed.  The lower triangle is then mirrored from the
    upper.
    """
    n = out.shape[0]
    for rows, segment, mask in reversed(list(packed_bands(n))):
        # A copy: in place, a band's rows can overlap its own packed rows.
        out[rows, rows.start:][mask] = p[segment].copy()
    for rows in bands(n, BAND_BYTES // 4):
        out[rows, :rows.start] = out[:rows.start, rows].T
        _mirror_block(out[rows], rows)
    return out


def packed_rows(p: np.ndarray, n: int, rows: slice) -> np.ndarray:
    """A new C-ordered band of the full rows ``rows`` of the symmetric
    matrix whose packed upper triangle is ``p``: the square matrix's rows,
    bit for bit."""
    band = _left_of(p, n, rows, np.empty((rows.stop - rows.start, n)))
    band[:, rows.start:][_upper(rows.stop - rows.start, n - rows.start)] = p[
        packed_start(n, rows.start):packed_start(n, rows.stop)]
    _mirror_block(band, rows)
    return band


def _mirror_block(band: np.ndarray, rows: slice) -> None:
    # Below the diagonal of the band's own square block, from above it.
    block = band[:, rows]
    h = rows.stop - rows.start
    np.copyto(block, block.T, where=~_upper(h, h))


def _left_of(p: np.ndarray, n: int, rows: slice, band: np.ndarray) -> np.ndarray:
    # Fills the columns of band, the rows `rows`, left of the band from the
    # packed p, and returns it.  Column j < rows.start of the band is a run
    # of packed row j, so the runs are gathered a few columns at a time, an
    # eighth of BAND_BYTES of index and as much of values, then transposed.
    i0, i1 = rows.start, rows.stop
    j = np.arange(i1)
    lower = packed_start(n, j) - j  # entry (j, i), j <= i, is p[lower[j] + i]
    step = max(1, BAND_BYTES // (64 * (i1 - i0)))
    for j0 in range(0, i0, step):
        j1 = min(j0 + step, i0)
        band[:, j0:j1] = p[lower[j0:j1, np.newaxis] + j[np.newaxis, i0:]].T
    return band


def as_features(values) -> np.ndarray:
    """Validate and return an (n, d) float64 feature matrix.

    1-D input is treated as a single-column matrix.  Rejects empty input and
    non-finite values; the diagnostic names the first offending row.
    """
    x = np.asarray(values, dtype=np.float64)
    if x.ndim == 1:
        x = x[:, np.newaxis]
    if x.ndim != 2:
        raise InputError(f"feature matrix must be 2-D, got {x.ndim}-D")
    n, d = x.shape
    if n < 1 or d < 1:
        raise InputError(f"feature matrix must be at least 1x1, got {n}x{d}")
    finite_rows = np.isfinite(x).all(axis=1)
    if not finite_rows.all():
        bad = int(np.flatnonzero(~finite_rows)[0])
        raise InputError(f"feature row {bad} contains a non-finite value")
    return x


def euclidean_dissim(features) -> np.ndarray:
    """Euclidean distance matrix of the feature rows, valid as returned.

    Symmetric, nonnegative and zero on the diagonal by construction, so no
    ``check_dissim`` is needed; a distance that overflows raises
    DistanceOverflow, an InputError.  The matrix is built in ``bands`` of
    rows: the band's rows against each other (``pdist``) and every later
    row against the band's rows (``cdist``, mirrored above the diagonal).  It has the bits of ``squareform(pdist(x))`` without its
    condensed copy, so the result is the only n x n array; each band is
    checked for overflow as it is built.
    """
    x = as_features(features)
    n = x.shape[0]
    d = np.empty((n, n))
    for rows in bands(n):
        block, below = _distances(x, rows)
        d[rows, rows] = block
        d[rows.stop:, rows] = below
        d[rows, rows.stop:] = below.T
    return d


def euclidean_packed(features, p: np.ndarray):
    """Build the packed upper triangle (see ``pack``) of ``euclidean_dissim``
    into ``p``, n(n+1)/2 floats, band by band.

    Yields each band's ``(rows, full rows)`` once its packed rows are in
    ``p``: the rows of ``euclidean_dissim(features)``, bit for bit, in one
    buffer of about ``BAND_BYTES`` that the next band overwrites.  A band
    whose distances overflow raises DistanceOverflow before it is yielded.
    """
    x = as_features(features)
    n = x.shape[0]
    # The band's rows and the later rows' distances to them, each in one
    # buffer for every band: new ones each time are fresh pages to fault.
    size = next(bands(n)).stop * n
    band_buf, below_buf = np.empty(size), np.empty(size)
    for rows in bands(n):
        h = rows.stop - rows.start
        band = _left_of(p, n, rows, band_buf[:h * n].reshape(h, n))
        block, below = _distances(
            x, rows, below_buf[:(n - rows.stop) * h].reshape(n - rows.stop, h))
        band[:, rows] = block
        band[:, rows.stop:] = below.T
        s = packed_start(n, rows.start)
        for a, i in enumerate(range(rows.start, rows.stop)):
            p[s:s + n - i] = band[a, i:]
            s += n - i
        yield rows, band


def _distances(x: np.ndarray, rows: slice, below=None):
    # The band's rows against each other (pdist: cdist would compute its
    # pairs twice), and every later row against the band's rows, into
    # below when given.  The later rows come first: cdist runs about 20 %
    # faster with few rows second (n = 4000, 128 dimensions), and a pair's
    # bits do not depend on its order.
    block = squareform(pdist(x[rows]))
    below = cdist(x[rows.stop:], x[rows], out=below)
    if not (np.isfinite(block.max()) and np.isfinite(below.max(initial=0.0))):
        raise DistanceOverflow("feature distances overflow: distances above "
                               "about 1.3e154 overflow when squared")
    return block, below


def check_symmetric(m) -> np.ndarray:
    """Return ``m`` as an exactly symmetric float64 array, or raise InputError.

    ``m`` must be square, nonempty, finite and symmetric to ``SYMMETRY_RTOL``
    times its largest magnitude.  It is returned as it is when exactly
    symmetric, else as a new ``0.5*m + 0.5*m.T``; ``m`` is never changed.
    """
    return _symmetric(_square_finite(m, "symmetric matrix"), "symmetric matrix")


def check_dissim(m) -> np.ndarray:
    """Return ``m`` as a valid dissimilarity matrix, or raise InputError.

    As ``check_symmetric``, plus an exactly zero diagonal (checked before
    symmetry), no negative entry and every entry below ``DISSIM_LIMIT``
    (about 7.05e305), so that the ODI can scale it.  The message names the
    first invariant violated and where.
    """
    x = _square_finite(m, "dissimilarity matrix")
    nz = np.flatnonzero(np.diagonal(x))
    if nz.size:
        i = int(nz[0])
        raise InputError(f"invalid dissimilarity matrix: diagonal entry at ({i}, {i}) "
                         f"is {float(x[i, i])}, expected exactly 0")
    sym = _symmetric(x, "dissimilarity matrix")
    if x.min() < 0:
        i, j = np.argwhere(x < 0)[0]
        raise InputError(f"invalid dissimilarity matrix: negative entry at ({i}, {j}): "
                         f"{float(x[i, j])}")
    if x.max() >= DISSIM_LIMIT:
        i, j = np.argwhere(x >= DISSIM_LIMIT)[0]
        raise InputError(f"invalid dissimilarity matrix: entry at ({i}, {j}) is "
                         f"{float(x[i, j])}, not below {DISSIM_LIMIT}: 255 times "
                         "it overflows")
    return sym


def _square_finite(m, what: str) -> np.ndarray:
    x = np.asarray(m, dtype=np.float64)
    if x.ndim != 2 or x.shape[0] != x.shape[1]:
        raise InputError(f"invalid {what}: matrix is not square: shape {x.shape}")
    if x.shape[0] < 1:
        raise InputError(f"invalid {what}: matrix is empty")
    if not np.isfinite(x).all():
        i, j = np.argwhere(~np.isfinite(x))[0]
        raise InputError(f"invalid {what}: non-finite value at ({i}, {j})")
    return x


def _symmetric(x: np.ndarray, what: str) -> np.ndarray:
    # |x - x.T| is symmetric, so the first offender in row-major order lies
    # above the diagonal: scan bands of rows against their mirror columns.
    tol = SYMMETRY_RTOL * max(float(x.max()), -float(x.min()))
    exact = True
    for rows in bands(x.shape[0]):
        i0 = rows.start
        asym = np.abs(x[rows, i0:] - x[i0:, rows].T)
        if asym.max() > tol:
            i, j = np.argwhere(asym > tol)[0] + i0
            raise InputError(f"invalid {what}: asymmetric entry at ({i}, {j}): "
                             f"{float(x[i, j])} vs {float(x[j, i])} (tolerance {tol})")
        exact = exact and not asym.any()
    if exact:
        return x
    out = np.empty(x.shape)  # 0.5*x + 0.5*x.T, which cannot overflow
    for rows in bands(x.shape[0]):
        i0 = rows.start
        out[rows, i0:] = 0.5 * x[rows, i0:] + 0.5 * x[i0:, rows].T
        out[i0:, rows] = out[rows, i0:].T
    return out


def check_permutation(p, n: int) -> np.ndarray:
    """Return ``p`` as an int64 index array, raising if not a bijection on [0, n)."""
    idx = np.asarray(p, dtype=np.int64)
    if idx.ndim != 1:
        raise InputError(f"permutation must be 1-D, got {idx.ndim}-D")
    if idx.shape[0] != n:
        raise InputError(f"permutation length {idx.shape[0]} does not match size {n}")
    if not np.array_equal(np.sort(idx), np.arange(n)):
        raise InputError("permutation is not a bijection on [0, n)")
    return idx


def permute_matrix(m, p) -> np.ndarray:
    """Symmetric reordering: ``out[i][j] = m[p[i]][p[j]]``."""
    x = check_dissim(m)
    idx = check_permutation(p, x.shape[0])
    return x[np.ix_(idx, idx)]
