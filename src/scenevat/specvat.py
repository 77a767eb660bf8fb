"""Spectral re-embedding of a dissimilarity matrix and VAT on the result.

The matrix is mapped to a locally-scaled Gaussian affinity, symmetrically
normalized, and decomposed; the rows of the top-k eigenvectors (unit
normalized) form an embedded space whose Euclidean distances are reordered
with VAT.  Using the largest eigenvectors of the normalized affinity is
equivalent to using the smallest eigenvectors of the normalized Laplacian.

``a_specvat_select_k`` scans k and keeps the image that binarizes most
cleanly, scored by Otsu's normalized between-class variance.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
import scipy.linalg
from scipy.spatial.distance import cdist

from .cce import otsu_effectiveness
from .errors import DegenerateImageError, InputError, NumericError
from .matrix import bands, check_dissim
from .vat import VatOrdering, _odi, _vat_order

EIGEN_SYMMETRY_ATOL = 1e-10
SIGN_TOL = 1e-12


@dataclass(frozen=True)
class SpecVatConfig:
    """Fixed SpecVAT settings; the eigenvector count k is an argument."""

    k_max: int = 10
    knn_scale: int = 7
    sigma_floor: float = 1e-12

    def __post_init__(self):
        if self.k_max < 2:
            raise InputError(f"k_max={self.k_max} must be at least 2")
        if self.knn_scale < 1:
            raise InputError(f"knn_scale={self.knn_scale} must be at least 1")
        if not self.sigma_floor > 0:
            raise InputError(f"sigma_floor={self.sigma_floor} must be positive")


@dataclass(frozen=True)
class SpecVatResult:
    embedding: np.ndarray
    d_prime: np.ndarray
    ordering: VatOrdering
    image: np.ndarray


def local_scale_affinity(m, cfg: SpecVatConfig = SpecVatConfig()) -> np.ndarray:
    """Gaussian affinity with per-point bandwidths.

    ``A[i, j] = exp(-d_ij^2 / (sigma_i * sigma_j))`` where ``sigma_i`` is the
    distance from i to its ``knn_scale``-th nearest neighbour (clamped to the
    available n-1 neighbours), floored at ``sigma_floor``.  Diagonal is 0.
    """
    d = check_dissim(m)
    if d.shape[0] < 2:
        raise InputError("affinity needs at least 2 points")
    return _affinity(d, cfg)


def _affinity(d: np.ndarray, cfg: SpecVatConfig) -> np.ndarray:
    # The diagonal is exactly 0 and no entry is negative, so the kth entry
    # of a sorted row is its kth nearest neighbour other than itself.  Row
    # bands keep every temporary at BAND x n.
    n = d.shape[0]
    kth = min(cfg.knn_scale, n - 1)
    sigma = np.empty(n)
    for rows in bands(n):
        sigma[rows] = np.partition(d[rows], kth, axis=1)[:, kth]
    np.maximum(sigma, cfg.sigma_floor, out=sigma)
    a = np.empty((n, n))
    for rows in bands(n):
        band = a[rows]
        np.multiply(d[rows], d[rows], out=band)
        np.negative(band, out=band)
        band /= np.outer(sigma[rows], sigma)
        np.exp(band, out=band)
    np.fill_diagonal(a, 0.0)
    return a


def normalized_affinity(a) -> np.ndarray:
    """Symmetric normalization ``S^(-1/2) A S^(-1/2)`` with S = diag(row sums).

    Rows summing to zero (isolated points) map to zero rows/columns.  The
    largest eigenvectors of the result are the smallest eigenvectors of the
    normalized Laplacian ``I - S^(-1/2) A S^(-1/2)``.
    """
    x = np.array(a, dtype=np.float64)  # a copy: _normalize scales in place
    if x.ndim != 2 or x.shape[0] != x.shape[1]:
        raise InputError(f"affinity must be square, got shape {x.shape}")
    if not np.isfinite(x).all():
        raise InputError("affinity must be finite")
    if np.abs(x - x.T).max(initial=0.0) > EIGEN_SYMMETRY_ATOL:
        raise InputError("affinity must be symmetric")
    if (x < 0).any():
        raise InputError("affinity must be nonnegative")
    return _normalize(x)


def _normalize(x: np.ndarray) -> np.ndarray:
    # Scales x in place, one row band at a time, and returns it.
    s = x.sum(axis=1)
    # Kernel entries lie in [0, 1], so a row sum is non-finite exactly when
    # its row holds a NaN: _affinity's inf / inf once d*d overflows.
    if not np.isfinite(s).all():
        i = int(np.flatnonzero(~np.isfinite(s))[0])
        raise NumericError(
            f"affinity row {i} is not finite: distances above about 1.3e154 "
            "overflow when squared"
        )
    inv_sqrt = np.where(s > 0, 1.0 / np.sqrt(np.where(s > 0, s, 1.0)), 0.0)
    for rows in bands(x.shape[0]):
        x[rows] *= np.outer(inv_sqrt[rows], inv_sqrt)
    return x


def sym_eigen_topk(n_mat, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Top-k eigenpairs of a symmetric matrix, eigenvalues descending.

    The matrix is symmetrized as ``0.5 * (N + N.T)`` in a copy, so ``n_mat``
    is never changed.  Only the top k pairs are solved for (LAPACK's ``evr``
    driver through ``scipy.linalg.eigh(subset_by_index=...)``).  When that
    solver returns fewer than k pairs -- the subset boundary splits a
    cluster of exactly tied eigenvalues -- the full ``np.linalg.eigh`` is
    sliced instead.  Eigenvectors are orthonormal columns with a
    deterministic sign: the first component larger than 1e-12 in magnitude
    is made positive.  Residuals satisfy ``|N v - lambda v| <= 1e-8 * |N|_F``.
    """
    x = np.asarray(n_mat, dtype=np.float64)
    if x.ndim != 2 or x.shape[0] != x.shape[1]:
        raise InputError(f"matrix must be square, got shape {x.shape}")
    n = x.shape[0]
    if not 1 <= k <= n:
        raise InputError(f"k={k} must satisfy 1 <= k <= n (n={n})")
    if np.abs(x - x.T).max(initial=0.0) > EIGEN_SYMMETRY_ATOL:
        raise InputError("matrix is not symmetric within 1e-10")
    return _eigen_topk(lambda: 0.5 * (x + x.T), k)


def _spectrum(d: np.ndarray, cfg: SpecVatConfig, k: int):
    # Affinity, normalization and solve share one n x n buffer.
    return _eigen_topk(lambda: _symmetrize(_normalize(_affinity(d, cfg))), k)


def _symmetrize(x: np.ndarray) -> np.ndarray:
    # 0.5 * (x + x.T) in place, band by band.  It is x bit for bit when d is
    # exactly symmetric; when d is symmetric only within check_dissim's
    # tolerance, so is the affinity, and this keeps the solver's input.
    for rows in bands(x.shape[0]):
        i0 = rows.start
        band = x[rows, i0:] + x[i0:, rows].T
        band *= 0.5
        x[rows, i0:] = band
        x[i0:, rows] = band.T
    return x


def _eigen_topk(build, k: int) -> tuple[np.ndarray, np.ndarray]:
    # build() returns a new symmetric matrix.  The subset solve reads x.T,
    # F-ordered for a C-ordered x, so scipy makes no copy and overwrites x;
    # the fallback calls build() again, whose bits are the same.
    x = build()
    n = x.shape[0]
    try:
        vals, vecs = scipy.linalg.eigh(
            x.T, overwrite_a=True, subset_by_index=[n - k, n - 1],
            check_finite=False,
        )
        if vecs.shape[1] < k:  # tied eigenvalues across the boundary
            x = None
            vals, vecs = np.linalg.eigh(build())
    except np.linalg.LinAlgError as exc:
        raise NumericError(f"eigendecomposition failed: {exc}") from exc
    # The subset solve's last bits depend on k: callers that must agree
    # with each other ask for the same k and slice.
    vals = vals[::-1][:k].copy()
    vecs = vecs[:, ::-1][:, :k].copy()
    for c in range(k):
        col = vecs[:, c]
        nz = np.flatnonzero(np.abs(col) > SIGN_TOL)
        if nz.size and col[nz[0]] < 0:
            vecs[:, c] = -col
    return vals, vecs


def spectral_embedding(m, k: int, cfg: SpecVatConfig = SpecVatConfig()) -> np.ndarray:
    """Row-normalized top-k eigenvectors of the normalized affinity.

    ``k`` must satisfy 1 <= k <= n-1.  Zero rows (all eigenvector
    coordinates below machine zero) are kept as zero rather than
    normalized, and flagged with a warning.
    """
    return _embed(check_dissim(m), cfg, k)


def _embed(d: np.ndarray, cfg: SpecVatConfig, k: int) -> np.ndarray:
    # Every explicit k enters here.  It solves for as many pairs as the k
    # scan, so both embed the same columns at that k bit for bit.
    n = d.shape[0]
    if not 1 <= k <= n - 1:
        raise InputError(f"k={k} must satisfy 1 <= k <= n-1 (n={n})")
    vecs = _spectrum(d, cfg, max(k, min(cfg.k_max, n - 1)))[1]
    return _unit_rows(vecs[:, :k])


def _unit_rows(vecs: np.ndarray) -> np.ndarray:
    norms = np.linalg.norm(vecs, axis=1)
    zero_rows = norms == 0.0
    if zero_rows.any():
        warnings.warn(
            f"{int(zero_rows.sum())} embedding row(s) are identically zero "
            "(isolated points); left unnormalized",
            stacklevel=4,
        )
    scale = np.where(zero_rows, 1.0, norms)
    return vecs / scale[:, np.newaxis]


def specvat(m, k: int, cfg: SpecVatConfig = SpecVatConfig()) -> SpecVatResult:
    """Embed in k eigenvectors (1 <= k <= n-1) and run VAT on their distances."""
    return _specvat(_embed(check_dissim(m), cfg, k))


def _specvat(embedding: np.ndarray) -> SpecVatResult:
    # At k <= 10 columns cdist has the bits of squareform(pdist(...)),
    # without pdist's condensed copy.
    d_prime = cdist(embedding, embedding)
    ordering = _vat_order(d_prime)
    return SpecVatResult(embedding, d_prime, ordering, _odi(d_prime, ordering.order))


def a_specvat_select_k(
    m, cfg: SpecVatConfig = SpecVatConfig()
) -> tuple[int, dict[int, float]]:
    """Pick the eigenvector count whose image binarizes most cleanly.

    Scans k = 2 .. k_max (capped at n-1), scoring each SpecVAT image by
    Otsu's between-class variance over total variance, in [0, 1].  The
    score reads only the image's histogram, which a VAT order does not
    change, so candidates are scored unordered and only the winner is
    VAT-ordered.  Returns the best k (smallest on ties) and all scores.
    Structureless input -- constant distances, or images with a single
    intensity -- scores 0 and falls back to k = 2 with a warning.
    """
    return _select_k(check_dissim(m), cfg)[:2]


def _select_k(d: np.ndarray, cfg: SpecVatConfig):
    # Also returns the winner's SpecVatResult.  One spectrum serves every k:
    # the affinity does not depend on k and the sign rule is per column.
    n = d.shape[0]
    if n < 3:
        raise InputError(f"need at least 3 points to scan k >= 2, got n={n}")
    ks = range(2, min(cfg.k_max, n - 1) + 1)
    vecs = _spectrum(d, cfg, ks[-1])[1]
    # Only the zero diagonal lies below the maximum of a constant matrix.
    if np.count_nonzero(d < d.max()) <= n:
        warnings.warn(
            "constant-distance matrix has no spectral structure; "
            "k selection is degenerate, returning k=2",
            stacklevel=3,
        )
        return 2, dict.fromkeys(ks, 0.0), _specvat(_unit_rows(vecs[:, :2]))

    scores: dict[int, float] = {}
    for k in ks:  # the image in input order has the VAT image's pixels
        e = _unit_rows(vecs[:, :k])
        try:
            scores[k] = otsu_effectiveness(_odi(cdist(e, e), np.arange(n)))
        except DegenerateImageError:
            scores[k] = 0.0
        if k == 2 or scores[k] > scores[best_k]:
            best_k, best_e = k, e
    if all(v == 0.0 for v in scores.values()):
        warnings.warn(
            "every candidate k produced a degenerate image; returning k=2",
            stacklevel=3,
        )
    return best_k, scores, _specvat(best_e)
