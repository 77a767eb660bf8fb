"""Feature matrices, pairwise dissimilarities, and permutation helpers.

Feature matrices are plain float64 arrays of shape (n, d), one row per
record.  Dissimilarity matrices are square, symmetric, nonnegative float64
arrays with an exactly-zero diagonal.  Row order is the canonical record
index order that every downstream ordering permutes.
"""

from __future__ import annotations

import numpy as np
from scipy.spatial.distance import cdist, pdist, squareform

from .errors import InputError

# Symmetry tolerance, relative to the largest magnitude in the matrix.
SYMMETRY_RTOL = 1e-12
# Bytes per band of the banded n x n passes (distances, symmetry check,
# affinity, normalization, ODI, Otsu histograms): each temporary holds
# about 1 MiB of float64 rows, whatever n is, and no n x n one exists.
BAND_BYTES = 1 << 20
# Entries must lie below this: the ODI scales by 255 first, which overflows
# from here (this float included) up.
DISSIM_LIMIT = np.finfo(np.float64).max / 255


def bands(n: int):
    """Row slices that cover ``range(n)`` in order, each ``BAND_BYTES`` of
    float64 rows of length n at most, or one row."""
    height = max(1, BAND_BYTES // (8 * max(n, 1)))
    for i0 in range(0, n, height):
        yield slice(i0, min(i0 + height, n))


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


def zscore(features: np.ndarray) -> np.ndarray:
    """Per-dimension standardization; constant dimensions are left unscaled."""
    x = as_features(features)
    mean = x.mean(axis=0)
    sd = x.std(axis=0)
    sd = np.where(sd > 0, sd, 1.0)
    return (x - mean) / sd


def euclidean_dissim(features, *, standardize: bool = False) -> np.ndarray:
    """Euclidean distance matrix of the feature rows, valid as returned.

    Symmetric, nonnegative and zero on the diagonal by construction, so no
    ``check_dissim`` is needed; a distance that overflows raises InputError.
    ``standardize=True`` applies per-dimension z-scoring first (off by
    default; features are used raw).  The matrix is built in ``bands``
    of rows: the band's rows against each other (``pdist``) and every
    later row against the band's rows (``cdist``, mirrored above the
    diagonal).  It has the bits of ``squareform(pdist(x))`` without its
    condensed copy, so the result is the only n x n array; each band is
    checked for overflow as it is built.
    """
    x = zscore(features) if standardize else as_features(features)
    n = x.shape[0]
    d = np.empty((n, n))
    for rows in bands(n):
        # pdist for the band's own block: cdist would compute its pairs twice.
        block = squareform(pdist(x[rows]))
        # The later rows first: cdist runs about 20 % faster with few rows
        # second (n = 4000, 128 dimensions), and a pair's bits do not
        # depend on its order.
        below = cdist(x[rows.stop:], x[rows])
        if not (np.isfinite(block.max()) and np.isfinite(below.max(initial=0.0))):
            raise InputError("feature distances overflow: distances above "
                             "about 1.3e154 overflow when squared")
        d[rows, rows] = block
        d[rows.stop:, rows] = below
        d[rows, rows.stop:] = below.T
    return d


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
