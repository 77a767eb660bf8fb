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
from dataclasses import dataclass, replace
from typing import Callable, Optional

import numpy as np

from .cce import otsu_effectiveness
from .errors import DegenerateImageError, InputError, NumericError
from .matrix import check_dissim, euclidean_dissim
from .vat import VatOrdering, _odi, _vat_order

EIGEN_SYMMETRY_ATOL = 1e-10
SIGN_TOL = 1e-12


@dataclass(frozen=True)
class SpecVatConfig:
    k: int = 2
    k_max: int = 10
    knn_scale: int = 7
    sigma_floor: float = 1e-12

    def validate(self, n: int) -> None:
        if not 1 <= self.k <= n - 1:
            raise InputError(f"k={self.k} must satisfy 1 <= k <= n-1 (n={n})")
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
    n = d.shape[0]
    if n < 2:
        raise InputError("affinity needs at least 2 points")
    if cfg.knn_scale < 1:
        raise InputError(f"knn_scale={cfg.knn_scale} must be at least 1")
    if not cfg.sigma_floor > 0:
        raise InputError(f"sigma_floor={cfg.sigma_floor} must be positive")
    return _affinity(d, cfg)


def _affinity(d: np.ndarray, cfg: SpecVatConfig) -> np.ndarray:
    kth = min(cfg.knn_scale, d.shape[0] - 1)
    offdiag = d.copy()
    np.fill_diagonal(offdiag, np.inf)
    sigma = np.partition(offdiag, kth - 1, axis=1)[:, kth - 1]
    sigma = np.maximum(sigma, cfg.sigma_floor)
    a = np.exp(-(d * d) / np.outer(sigma, sigma))
    np.fill_diagonal(a, 0.0)
    return a


def normalized_affinity(a) -> np.ndarray:
    """Symmetric normalization ``S^(-1/2) A S^(-1/2)`` with S = diag(row sums).

    Rows summing to zero (isolated points) map to zero rows/columns.  The
    largest eigenvectors of the result are the smallest eigenvectors of the
    normalized Laplacian ``I - S^(-1/2) A S^(-1/2)``.
    """
    x = np.asarray(a, dtype=np.float64)
    if x.ndim != 2 or x.shape[0] != x.shape[1]:
        raise InputError(f"affinity must be square, got shape {x.shape}")
    if np.abs(x - x.T).max(initial=0.0) > EIGEN_SYMMETRY_ATOL:
        raise InputError("affinity must be symmetric")
    if (x < 0).any():
        raise InputError("affinity must be nonnegative")
    return _normalize(x)


def _normalize(x: np.ndarray) -> np.ndarray:
    s = x.sum(axis=1)
    inv_sqrt = np.where(s > 0, 1.0 / np.sqrt(np.where(s > 0, s, 1.0)), 0.0)
    return x * np.outer(inv_sqrt, inv_sqrt)


def sym_eigen_topk(n_mat, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Top-k eigenpairs of a symmetric matrix, eigenvalues descending.

    Eigenvectors are orthonormal columns with a deterministic sign: the
    first component larger than 1e-12 in magnitude is made positive.
    Residuals satisfy ``|N v - lambda v| <= 1e-8 * |N|_F``.
    """
    x = np.asarray(n_mat, dtype=np.float64)
    if x.ndim != 2 or x.shape[0] != x.shape[1]:
        raise InputError(f"matrix must be square, got shape {x.shape}")
    n = x.shape[0]
    if not 1 <= k <= n:
        raise InputError(f"k={k} must satisfy 1 <= k <= n (n={n})")
    if np.abs(x - x.T).max(initial=0.0) > EIGEN_SYMMETRY_ATOL:
        raise InputError("matrix is not symmetric within 1e-10")
    return _eigen_topk(x, k)


def _eigen_topk(x: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    sym = 0.5 * (x + x.T)
    try:
        vals, vecs = np.linalg.eigh(sym)
    except np.linalg.LinAlgError as exc:
        raise NumericError(f"eigendecomposition failed: {exc}") from exc
    vals = vals[::-1][:k].copy()
    vecs = vecs[:, ::-1][:, :k].copy()
    for c in range(k):
        col = vecs[:, c]
        nz = np.flatnonzero(np.abs(col) > SIGN_TOL)
        if nz.size and col[nz[0]] < 0:
            vecs[:, c] = -col
    return vals, vecs


def spectral_embedding(m, cfg: SpecVatConfig) -> np.ndarray:
    """Row-normalized top-k eigenvectors of the normalized affinity.

    Zero rows (all eigenvector coordinates below machine zero) are kept as
    zero rather than normalized, and flagged with a warning.
    """
    d = check_dissim(m)
    cfg.validate(d.shape[0])
    return _embed(d, cfg)


def _embed(d: np.ndarray, cfg: SpecVatConfig) -> np.ndarray:
    _, vecs = _eigen_topk(_normalize(_affinity(d, cfg)), cfg.k)
    norms = np.linalg.norm(vecs, axis=1)
    zero_rows = norms == 0.0
    if zero_rows.any():
        warnings.warn(
            f"{int(zero_rows.sum())} embedding row(s) are identically zero "
            "(isolated points); left unnormalized",
            stacklevel=3,
        )
    scale = np.where(zero_rows, 1.0, norms)
    return vecs / scale[:, np.newaxis]


def specvat(m, cfg: SpecVatConfig = SpecVatConfig()) -> SpecVatResult:
    """Embed, re-measure distances, and run VAT on the embedded space."""
    d = check_dissim(m)
    cfg.validate(d.shape[0])
    return _specvat(d, cfg)


def _specvat(d: np.ndarray, cfg: SpecVatConfig) -> SpecVatResult:
    embedding = _embed(d, cfg)
    d_prime = euclidean_dissim(embedding)
    ordering = _vat_order(d_prime)
    return SpecVatResult(embedding, d_prime, ordering, _odi(d_prime, ordering.order))


def a_specvat_select_k(
    m,
    cfg: SpecVatConfig = SpecVatConfig(),
    score_fn: Optional[Callable[[np.ndarray], float]] = None,
) -> tuple[int, dict[int, float]]:
    """Pick the eigenvector count whose image binarizes most cleanly.

    Scans k = 2 .. k_max (capped at n-1), scoring each SpecVAT image with
    ``score_fn`` (default: Otsu between-class variance over total variance,
    in [0, 1]).  Returns the best k (smallest on ties) and all scores.
    Structureless input -- constant distances, or images with a single
    intensity -- scores 0 and falls back to k = 2 with a warning.
    """
    return _select_k(check_dissim(m), cfg, score_fn)


def _select_k(d: np.ndarray, cfg: SpecVatConfig, score_fn=None):
    n = d.shape[0]
    if n < 3:
        raise InputError(f"need at least 3 points to scan k >= 2, got n={n}")
    replace(cfg, k=2).validate(n)  # once for the scan; k <= k_hi <= n-1
    k_hi = min(cfg.k_max, n - 1)
    if score_fn is None:
        score_fn = otsu_effectiveness

    ks = range(2, k_hi + 1)
    offdiag = d[~np.eye(n, dtype=bool)]
    if offdiag.size and offdiag.max() == offdiag.min():
        warnings.warn(
            "constant-distance matrix has no spectral structure; "
            "k selection is degenerate, returning k=2",
            stacklevel=3,
        )
        return 2, {k: 0.0 for k in ks}

    scores: dict[int, float] = {}
    for k in ks:
        image = _specvat(d, replace(cfg, k=k)).image
        try:
            scores[k] = float(score_fn(image))
        except DegenerateImageError:
            scores[k] = 0.0
    best_k = min(ks)
    for k in ks:
        if scores[k] > scores[best_k]:
            best_k = k
    if all(v == 0.0 for v in scores.values()):
        warnings.warn(
            "every candidate k produced a degenerate image; returning k=2",
            stacklevel=3,
        )
    return best_k, scores
