"""Feature matrices, pairwise dissimilarities, and permutation helpers.

Feature matrices are plain float64 arrays of shape (n, d), one row per
record.  Dissimilarity matrices are square, symmetric, nonnegative float64
arrays with an exactly-zero diagonal.  Row order is the canonical record
index order that every downstream ordering permutes.
"""

from __future__ import annotations

from typing import Optional

import numpy as np
from scipy.spatial.distance import pdist, squareform

from .errors import InputError

# Symmetry tolerance, relative to the largest magnitude in the matrix.
SYMMETRY_RTOL = 1e-12
# Rows per band of the six banded n x n passes (symmetry check, affinity,
# normalization, symmetrization, ODI, Otsu histogram): no n x n temporary.
BAND = 256


def bands(n: int) -> list[slice]:
    """Row slices of at most ``BAND`` rows that cover ``range(n)`` in order."""
    return [slice(i0, i0 + BAND) for i0 in range(0, n, BAND)]


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
    """Euclidean distance matrix of the feature rows.

    Exactly symmetric with an exactly-zero diagonal by construction.
    ``standardize=True`` applies per-dimension z-scoring first (off by
    default; features are used raw).
    """
    x = as_features(features)
    if standardize:
        x = zscore(x)
    return squareform(pdist(x, "euclidean"))


def validate_dissim(m) -> Optional[str]:
    """Check dissimilarity-matrix invariants.

    Returns ``None`` when the matrix passes, otherwise a message describing
    the first violated invariant and where it occurs.  Symmetry is checked
    to ``SYMMETRY_RTOL`` times the largest magnitude in the matrix.
    """
    x = np.asarray(m, dtype=np.float64)
    if x.ndim != 2 or x.shape[0] != x.shape[1]:
        return f"matrix is not square: shape {x.shape}"
    if x.shape[0] < 1:
        return "matrix is empty"
    if not np.isfinite(x).all():
        i, j = np.argwhere(~np.isfinite(x))[0]
        return f"non-finite value at ({i}, {j})"
    diag = np.diagonal(x)
    nz = np.flatnonzero(diag != 0.0)
    if nz.size:
        i = int(nz[0])
        return f"diagonal entry at ({i}, {i}) is {float(diag[i])}, expected exactly 0"
    x_min = float(x.min())
    tol = SYMMETRY_RTOL * max(float(x.max()), -x_min)
    # |x - x.T| is symmetric, so the first offender in row-major order lies
    # above the diagonal: scan bands of rows against their mirror columns.
    for rows in bands(x.shape[0]):
        i0 = rows.start
        asym = x[rows, i0:] - x[i0:, rows].T
        np.abs(asym, out=asym)
        if asym.max() > tol:
            i, j = np.argwhere(asym > tol)[0] + i0
            return (
                f"asymmetric entry at ({i}, {j}): "
                f"{float(x[i, j])} vs {float(x[j, i])} (tolerance {tol})"
            )
    if x_min < 0:
        i, j = np.argwhere(x < 0)[0]
        return f"negative entry at ({i}, {j}): {float(x[i, j])}"
    return None


def check_dissim(m) -> np.ndarray:
    """Return ``m`` as a float64 array, raising InputError if invalid."""
    x = np.asarray(m, dtype=np.float64)
    problem = validate_dissim(x)
    if problem is not None:
        raise InputError(f"invalid dissimilarity matrix: {problem}")
    return x


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
