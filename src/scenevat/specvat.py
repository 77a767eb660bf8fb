"""Spectral re-embedding of a dissimilarity matrix and VAT on the result.

The matrix is mapped to a locally-scaled Gaussian affinity, symmetrically
normalized, and decomposed; the rows of the top-k eigenvectors (unit
normalized) form an embedded space whose Euclidean distances are reordered
with VAT.  Using the largest eigenvectors of the normalized affinity is
equivalent to using the smallest eigenvectors of the normalized Laplacian.

``a_specvat_select_k`` scans k and keeps the image that binarizes most
cleanly, scored by Otsu's normalized between-class variance.  Each
candidate is scored from the 256-bin histogram of its condensed embedded
distances, which the image in any order shares, so no image is built for a
candidate.
"""

from __future__ import annotations

import inspect
import warnings
from dataclasses import dataclass

import numpy as np
import scipy.linalg
import scipy.sparse.linalg
from scipy.spatial.distance import cdist, pdist

from .cce import _otsu
from .errors import DegenerateImageError, InputError, NumericError
from .matrix import bands, check_dissim, check_symmetric
from .vat import Analysis, _draw, _pixel_histogram, _vat_order

SIGN_TOL = 1e-12
# Matrices this large go to ARPACK.  The crossover was measured for the
# scan's 10 pairs of a SpecVAT affinity, single-thread CPU: ARPACK and evr
# both take 0.09 s at n = 1000, and 0.55 s against 1.45 s at n = 2500.
ARPACK_MIN_N = 1024
ARPACK_SEED = 0
# Acceptance 6's bounds, checked on every ARPACK result: the residual
# relative to |N|_F, and the largest deviation of V^T V from I.
EIGEN_RESIDUAL_RTOL = 1e-8
EIGEN_ORTH_ATOL = 1e-8
# eigsh draws ARPACK's restart vectors from its rng.  An eigsh without one
# (scipy 1.10) leaves them to Fortran ARPACK, whose seed lives as long as
# the process: a solve's bits would depend on the solves before it, so evr
# solves every matrix there.
_SEEDABLE_ARPACK = "rng" in inspect.signature(scipy.sparse.linalg.eigsh).parameters
# The smallest local scale: identical neighbours give an affinity of 1.
SIGMA_FLOOR = 1e-12


@dataclass(frozen=True)
class SpecVatConfig:
    """Fixed SpecVAT settings; the eigenvector count k is an argument."""

    k_max: int = 10
    knn_scale: int = 7

    def __post_init__(self):
        if self.k_max < 2:
            raise InputError(f"k_max={self.k_max} must be at least 2")
        if self.knn_scale < 1:
            raise InputError(f"knn_scale={self.knn_scale} must be at least 1")


def local_scale_affinity(m, cfg: SpecVatConfig = SpecVatConfig()) -> np.ndarray:
    """Gaussian affinity with per-point bandwidths.

    ``A[i, j] = exp(-d_ij^2 / (sigma_i * sigma_j))`` where ``sigma_i`` is the
    distance from i to its ``knn_scale``-th nearest neighbour (clamped to the
    available n-1 neighbours), floored at ``SIGMA_FLOOR``.  Diagonal is 0.
    """
    d = _checked_copy(m)
    if d.shape[0] < 2:
        raise InputError("affinity needs at least 2 points")
    return _affinity(d, cfg)


def _checked_copy(m) -> np.ndarray:
    # A checked, C-ordered copy of m for the private steps, which overwrite
    # their input: a public function never changes its argument.
    return np.array(check_dissim(m), order="C")


def _affinity(d: np.ndarray, cfg: SpecVatConfig) -> np.ndarray:
    # Overwrites d with its affinity, one row band at a time, and returns
    # it: a band of the kernel reads only the same band of d, once every
    # local scale is known.  The diagonal is exactly 0 and no entry is
    # negative, so the kth entry of a sorted row is its kth nearest
    # neighbour other than itself.  Row bands keep every temporary at
    # about BAND_BYTES.
    n = d.shape[0]
    kth = min(cfg.knn_scale, n - 1)
    sigma = np.empty(n)
    for rows in bands(n):
        sigma[rows] = np.partition(d[rows], kth, axis=1)[:, kth]
    np.maximum(sigma, SIGMA_FLOOR, out=sigma)
    for rows in bands(n):
        band = d[rows]
        np.multiply(band, band, out=band)
        np.negative(band, out=band)
        band /= np.outer(sigma[rows], sigma)
        np.exp(band, out=band)
    np.fill_diagonal(d, 0.0)
    return d


def normalized_affinity(a) -> np.ndarray:
    """Symmetric normalization ``S^(-1/2) A S^(-1/2)`` with S = diag(row sums).

    ``a`` is checked and symmetrized as by ``check_symmetric`` and must be
    nonnegative.  Rows summing to zero (isolated points) map to zero
    rows/columns.  The largest eigenvectors of the result are the smallest
    eigenvectors of the normalized Laplacian ``I - S^(-1/2) A S^(-1/2)``.
    """
    # A C-ordered copy: _normalize scales in place, and its row sums take
    # their bits from the layout.
    x = np.array(check_symmetric(a), order="C")
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

    The matrix must pass ``check_symmetric`` (finite, and symmetric to 1e-12
    times its largest magnitude), whose result no solver writes to, so
    ``n_mat`` is never changed.  Only the top k pairs are solved for.  From
    n = 1024 (``ARPACK_MIN_N``) on, with k < n-1, ARPACK's Lanczos solver
    (``scipy.sparse.linalg.eigsh``) runs first, from a fixed start vector
    and seeded restarts, and capped at about n/3 matrix-vector products; its
    result is kept only if its eigenvalues are positive and it meets the
    residual and orthonormality bounds below.  Where eigsh cannot seed its
    restarts (it takes no ``rng``, as in scipy 1.10), it is not used.
    Otherwise, and for every smaller matrix, LAPACK's ``evr`` driver
    (``scipy.linalg.eigh(subset_by_index=...)``) solves it.  When that
    solver returns fewer than k pairs -- the subset boundary splits a
    cluster of exactly tied eigenvalues -- the full ``np.linalg.eigh`` is
    sliced instead.  Eigenvectors are orthonormal columns
    (``|V^T V - I| <= 1e-8``) with a deterministic sign: the first
    component larger than 1e-12 in magnitude is made positive.  Residuals
    satisfy ``|N v - lambda v| <= 1e-8 * |N|_F``.
    """
    x = check_symmetric(n_mat)
    n = x.shape[0]
    if not 1 <= k <= n:
        raise InputError(f"k={k} must satisfy 1 <= k <= n (n={n})")
    # ARPACK's products take their bits from the layout: solve C order.
    return _eigen_topk(np.ascontiguousarray(x), k)


def _spectrum(d: np.ndarray, cfg: SpecVatConfig, k: int):
    # Affinity, normalization and solve use d's own buffer, so d holds the
    # normalized affinity afterwards.  An exactly symmetric d gives an
    # exactly symmetric normalized affinity: entries (i, j) and (j, i) are
    # the same products in swapped order.
    return _eigen_topk(_normalize(_affinity(d, cfg)), k)


def _eigen_topk(x: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    # No solver writes to the symmetric x.  ARPACK only multiplies by it,
    # so when its result is refused, evr solves the same x.  evr works in
    # a copy (overwrite_a=False), so the full fallback still has x; it
    # reads x.T, F-ordered for a C-ordered x, which copies without a
    # transpose.
    n = x.shape[0]
    arpack = _SEEDABLE_ARPACK and n >= ARPACK_MIN_N and k < n - 1
    pairs = _lanczos(x, k) if arpack else None
    if pairs is None:
        try:
            pairs = scipy.linalg.eigh(
                x.T, overwrite_a=False, subset_by_index=[n - k, n - 1],
                check_finite=False,
            )
            if pairs[1].shape[1] < k:  # tied eigenvalues across the boundary
                pairs = np.linalg.eigh(x)
        except np.linalg.LinAlgError as exc:
            raise NumericError(f"eigendecomposition failed: {exc}") from exc
    # Both solvers return ascending pairs, whose last bits depend on k, so
    # an explicit k and the scan's first k columns agree only to rounding.
    vals = pairs[0][::-1][:k].copy()
    vecs = pairs[1][:, ::-1][:, :k].copy()
    for c in range(k):
        col = vecs[:, c]
        nz = np.flatnonzero(np.abs(col) > SIGN_TOL)
        if nz.size and col[nz[0]] < 0:
            vecs[:, c] = -col
    return vals, vecs


def _lanczos(x: np.ndarray, k: int):
    # The top k pairs from ARPACK, or None when it fails, stalls or misses
    # a bound.  Every random draw is seeded, so a rerun gives the same bits:
    # ARPACK draws a restart vector whenever the Krylov space goes
    # invariant, as it does on ideal blocks.  Each update iteration costs
    # at most ncv - k matrix-vector products, so maxiter caps the work at
    # about n/3 products, about one evr solve (n/4 products at n = 1000
    # to 2500).  Uncapped, ideal blocks of 400, 300, 500 and 200 records
    # took 56k products before ARPACK gave up.
    n = x.shape[0]
    ncv = min(n, max(2 * k + 1, 20))  # eigsh's default
    rng = np.random.default_rng(ARPACK_SEED)
    try:
        vals, vecs = scipy.sparse.linalg.eigsh(
            x, k, which="LA", v0=rng.uniform(-1.0, 1.0, n), ncv=ncv,
            maxiter=max(1, n // (3 * (ncv - k))), rng=rng,
        )
    except scipy.sparse.linalg.ArpackError:  # ArpackNoConvergence included
        return None
    # ARPACK searches the range of x, which holds no eigenvector of
    # eigenvalue 0 (an isolated record's, for one), so a spectrum reaching
    # down to 0 may have skipped some.  Above 0, the vectors are exactly
    # zero on an isolated record's row, as evr's are.
    if not vals.min() > 0:
        return None
    residual = np.linalg.norm(x @ vecs - vecs * vals, axis=0).max()
    orth = np.abs(vecs.T @ vecs - np.eye(k)).max()
    if residual <= EIGEN_RESIDUAL_RTOL * np.linalg.norm(x) and orth <= EIGEN_ORTH_ATOL:
        return vals, vecs
    return None


def spectral_embedding(m, k: int, cfg: SpecVatConfig = SpecVatConfig()) -> np.ndarray:
    """Row-normalized top-k eigenvectors of the normalized affinity.

    ``k`` must satisfy 1 <= k <= n-1.  Zero rows (all eigenvector
    coordinates below machine zero) are kept as zero rather than
    normalized, and flagged with a warning.
    """
    return _embed(_checked_copy(m), cfg, k)


def _embed(d: np.ndarray, cfg: SpecVatConfig, k: int) -> np.ndarray:
    # Overwrites d (see _spectrum).  Every explicit k enters here and
    # solves for exactly k pairs: pairs past the planted k lie in a
    # near-tied bulk, for which ARPACK pays about 10 times the products of
    # the k it reads.  So an explicit k and the scan's first k columns span
    # the same subspace wherever the spectrum has a gap after the kth, but
    # do not share last bits.
    n = d.shape[0]
    if not 1 <= k <= n - 1:
        raise InputError(f"k={k} must satisfy 1 <= k <= n-1 (n={n})")
    return _unit_rows(_spectrum(d, cfg, k)[1])


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


def specvat(m, k: int, cfg: SpecVatConfig = SpecVatConfig()) -> Analysis:
    """Embed in k eigenvectors (1 <= k <= n-1) and run VAT on their distances.

    ``m`` is never changed.  The image is a view of one n x n float64 copy
    of it, in which every step runs; ``d_prime`` is computed again from the
    embedding when read.
    """
    d = _checked_copy(m)
    return _specvat(_embed(d, cfg, k), d)


def _specvat(embedding: np.ndarray, out: np.ndarray,
             k_scores: dict | None = None) -> Analysis:
    # out is a C-contiguous n x n float64 buffer.  VAT orders d_prime in
    # it (at k <= 10 columns cdist has the bits of squareform(pdist(...)),
    # without pdist's condensed copy).  The image then goes into out's
    # first n * n bytes, band by band from the embedding in VAT order:
    # cdist's bits for a pair do not depend on the pairs computed with it,
    # so each band holds the bits of d_prime's ordered rows, and d_prime is
    # not read again once its maximum is known.
    n = embedding.shape[0]
    d_prime = cdist(embedding, embedding, out=out)
    ordering = _vat_order(d_prime)
    eo = embedding[ordering.order]
    img = out.reshape(-1).view(np.uint8)[:n * n].reshape(n, n)
    _draw(img, d_prime.max(), lambda rows: cdist(eo[rows], eo))
    return Analysis(ordering, img, embedding.shape[1], k_scores, embedding)


def a_specvat_select_k(
    m, cfg: SpecVatConfig = SpecVatConfig()
) -> tuple[int, dict[int, float]]:
    """Pick the eigenvector count whose image binarizes most cleanly.

    Scans k = 2 .. k_max (capped at n-1), scoring each SpecVAT image by
    Otsu's between-class variance over total variance, in [0, 1].  The
    score reads only the image's histogram, which a VAT order does not
    change, so each candidate is scored from the histogram of its
    condensed embedded distances (``pdist``): no n x n image is built and
    none is VAT-ordered (``report.analyze`` orders and renders only the
    winner).  Returns the best k (smallest on ties) and all scores.
    Structureless input -- constant distances, or images with a single
    intensity -- scores 0 and falls back to k = 2 with a warning.
    """
    best_e, scores = _select_k(_checked_copy(m), cfg)
    return best_e.shape[1], scores


def _select_k(d: np.ndarray, cfg: SpecVatConfig) -> tuple[np.ndarray, dict]:
    # The winner's embedding, unordered, with every score; overwrites d
    # (see _spectrum).  One spectrum serves every k: the affinity does not
    # depend on k and the sign rule is per column.
    n = d.shape[0]
    if n < 3:
        raise InputError(f"need at least 3 points to scan k >= 2, got n={n}")
    ks = range(2, min(cfg.k_max, n - 1) + 1)
    # Only the zero diagonal lies below the maximum of a constant matrix.
    constant = np.count_nonzero(d < d.max()) <= n
    vecs = _spectrum(d, cfg, ks[-1])[1]
    if constant:
        warnings.warn(
            "constant-distance matrix has no spectral structure; "
            "k selection is degenerate, returning k=2",
            stacklevel=3,
        )
        return _unit_rows(vecs[:, :2]), dict.fromkeys(ks, 0.0)

    scores: dict[int, float] = {}
    for k in ks:  # every order's image, the VAT one too, has this histogram
        e = _unit_rows(vecs[:, :k])
        try:
            scores[k] = _otsu(_pixel_histogram(pdist(e), n))[1]
        except DegenerateImageError:
            scores[k] = 0.0
        if k == 2 or scores[k] > scores[best_k]:
            best_k, best_e = k, e
    if all(v == 0.0 for v in scores.values()):
        warnings.warn(
            "every candidate k produced a degenerate image; returning k=2",
            stacklevel=3,
        )
    return best_e, scores
