"""Spectral re-embedding of a dissimilarity matrix and VAT on the result.

The matrix is mapped to a locally-scaled Gaussian affinity, symmetrically
normalized, and decomposed; the rows of the top-k eigenvectors (unit
normalized) form an embedded space whose Euclidean distances are reordered
with VAT.  Using the largest eigenvectors of the normalized affinity is
equivalent to using the smallest eigenvectors of the normalized Laplacian.

Every step works on the matrix's packed upper triangle (see
``matrix.pack``), n(n+1)/2 floats, in place: distances, affinity and
normalization, one packed row at a time, then the scan's condensed
distances and the image in its first bytes.  The local scales and row
sums are read from full rows gathered in bands.  ARPACK multiplies by the
triangle with BLAS ``dspmv``; evr solves a square unpacked from it.  The
public functions take and return square matrices, and pack a checked copy.

``a_specvat_select_k`` scans k and keeps the image that binarizes most
cleanly, scored by Otsu's normalized between-class variance.  Each
candidate is scored from the 256-bin histogram of its condensed embedded
distances, which the image in any order shares, so no image is built for a
candidate.
"""

from __future__ import annotations

import inspect
import math
import warnings

import numpy as np
import scipy.linalg
import scipy.sparse.linalg
from scipy.linalg.blas import dspmv
from scipy.spatial.distance import cdist, pdist

from .cce import _otsu, _pixel_histogram
from .errors import DegenerateImageError, InputError, NumericError
from .matrix import (_packed_rows, bands, check_dissim, check_symmetric, chunks,
                     full_rows, pack, packed_start, unpack)
from .vat import Analysis, _draw, _prim

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
# The default settings: the scan's largest k, and the neighbour rank whose
# distance is a record's local scale.
K_MAX = 10
KNN_SCALE = 7


def local_scale_affinity(m, *, knn_scale: int = KNN_SCALE) -> np.ndarray:
    """Gaussian affinity with per-point bandwidths.

    ``A[i, j] = exp(-d_ij^2 / (sigma_i * sigma_j))`` where ``sigma_i`` is the
    distance from i to its ``knn_scale``-th nearest neighbour (clamped to the
    available n-1 neighbours), floored at ``SIGMA_FLOOR``.  Diagonal is 0.
    A ``knn_scale`` below 1 raises InputError, here and in every SpecVAT
    function that takes it.
    """
    d = _checked_copy(m)
    n = d.shape[0]
    if n < 2:
        raise InputError("affinity needs at least 2 points")
    return unpack(_affinity(*_scaled(pack(d), knn_scale)), d)


def _checked_copy(m) -> np.ndarray:
    # A checked, C-ordered copy of m for the private steps, which overwrite
    # their input: a public function never changes its argument.
    return np.array(check_dissim(m), order="C")


def _scaled(p: np.ndarray, knn_scale: int = KNN_SCALE):
    # The packed distances p and their local scales: the one entry to the
    # private steps, and so where knn_scale is checked.  The diagonal is
    # exactly 0 and no entry is negative, so the kth entry of a sorted full
    # row is its kth nearest neighbour other than itself.
    if knn_scale < 1:
        raise InputError(f"knn_scale={knn_scale} must be at least 1")
    n = (math.isqrt(8 * p.size + 1) - 1) // 2
    sigma = np.empty(n)
    kth = min(knn_scale, n - 1)
    for rows, band in full_rows(p, n):
        band.partition(kth, axis=1)  # the next band overwrites it
        sigma[rows] = np.maximum(band[:, kth], SIGMA_FLOOR)
    return p, sigma


def _affinity(p: np.ndarray, sigma: np.ndarray) -> np.ndarray:
    # Overwrites the packed distances p with their affinity, row by row,
    # and returns it.  Entry (i, j) is computed as the square kernel
    # computes it, exp(-(d*d) / (sigma_i*sigma_j)), so it has the same bits.
    for i, x in _packed_rows(p, sigma.size):
        x *= x
        np.negative(x, out=x)
        x /= sigma[i] * sigma[i:]
        np.exp(x, out=x)
        x[0] = 0.0  # the diagonal
    return p


def normalized_affinity(a) -> np.ndarray:
    """Symmetric normalization ``S^(-1/2) A S^(-1/2)`` with S = diag(row sums).

    ``a`` is checked and symmetrized as by ``check_symmetric`` and must be
    nonnegative.  Rows summing to zero (isolated points) map to zero
    rows/columns.  The largest eigenvectors of the result are the smallest
    eigenvectors of the normalized Laplacian ``I - S^(-1/2) A S^(-1/2)``.
    """
    x = np.array(check_symmetric(a), order="C")  # packed in place below
    if (x < 0).any():
        raise InputError("affinity must be nonnegative")
    return unpack(_normalize(pack(x), x.shape[0]), x)


def _normalize(p: np.ndarray, n: int) -> np.ndarray:
    # Scales the packed p in place, row by row, and returns it.
    # Each row sum is taken over the full row, gathered in bands, as
    # x.sum(axis=1) takes it over a C-ordered square: the same bits.
    s = np.empty(n)
    for rows, band in full_rows(p, n):
        s[rows] = band.sum(axis=1)
    # Kernel entries lie in [0, 1], so a row sum is non-finite exactly when
    # its row holds a NaN: _affinity's inf / inf once d*d overflows.
    if not np.isfinite(s).all():
        i = int(np.flatnonzero(~np.isfinite(s))[0])
        raise NumericError(
            f"affinity row {i} is not finite: distances above about 1.3e154 "
            "overflow when squared"
        )
    inv_sqrt = np.where(s > 0, 1.0 / np.sqrt(np.where(s > 0, s, 1.0)), 0.0)
    for i, row in _packed_rows(p, n):
        row *= inv_sqrt[i] * inv_sqrt[i:]
    return p


def sym_eigen_topk(n_mat, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Top-k eigenpairs of a symmetric matrix, eigenvalues descending.

    The matrix must pass ``check_symmetric`` (finite, and symmetric to 1e-12
    times its largest magnitude).  Its packed upper triangle is copied out,
    so ``n_mat`` is never changed.  Only the top k pairs are solved for.
    From n = 1024 (``ARPACK_MIN_N``) on, with k < n-1, ARPACK's Lanczos
    solver (``scipy.sparse.linalg.eigsh``) runs first, multiplying by the
    packed triangle (BLAS ``dspmv``), from a fixed start vector and seeded
    restarts, and capped at about n/3 matrix-vector products; its result is
    kept only if its eigenvalues are positive and it meets the residual and
    orthonormality bounds below.  Where eigsh cannot seed its restarts (it
    takes no ``rng``, as in scipy 1.10), it is not used.  Otherwise, and
    for every smaller matrix, LAPACK's ``evr`` driver
    (``scipy.linalg.eigh(subset_by_index=...)``) solves the square
    unpacked from the triangle.  When that solver returns fewer than k
    pairs -- the subset boundary splits a cluster of exactly tied
    eigenvalues -- or fails outright, as it can on such a spectrum, the
    full ``np.linalg.eigh`` is sliced instead.
    Eigenvectors are orthonormal columns (``|V^T V - I| <= 1e-8``) with a
    deterministic sign: the first component larger than 1e-12 in magnitude
    is made positive.  Residuals satisfy ``|N v - lambda v| <= 1e-8 *
    |N|_F``.
    """
    x = check_symmetric(n_mat)
    n = x.shape[0]
    if not 1 <= k <= n:
        raise InputError(f"k={k} must satisfy 1 <= k <= n (n={n})")
    return _eigen_topk(pack(x, np.empty(packed_start(n, n))), n, k)


def _spectrum(p: np.ndarray, sigma: np.ndarray, k: int):
    # Affinity, normalization and solve work in the packed distances p, so
    # p holds the packed normalized affinity afterwards.
    n = sigma.size
    return _eigen_topk(_normalize(_affinity(p, sigma), n), n, k)


def _eigen_topk(p: np.ndarray, n: int, k: int) -> tuple[np.ndarray, np.ndarray]:
    # No solver writes to the packed p.  ARPACK only multiplies by it, so
    # when its result is refused, evr solves the square unpacked from it.
    # evr overwrites that square (overwrite_a); the full fallback unpacks
    # p again.  evr reads x.T, which is F-ordered for the C-ordered x, so
    # it needs no copy.
    arpack = _SEEDABLE_ARPACK and n >= ARPACK_MIN_N and k < n - 1
    pairs = _lanczos(p, n, k) if arpack else None
    if pairs is None:
        x = unpack(p, np.empty((n, n)))
        try:
            pairs = scipy.linalg.eigh(
                x.T, overwrite_a=True, subset_by_index=[n - k, n - 1],
                check_finite=False,
            )
        except np.linalg.LinAlgError:  # as evr can on a tied spectrum
            pairs = None
        # Short of k pairs: tied eigenvalues across the boundary.
        if pairs is None or pairs[1].shape[1] < k:
            try:
                pairs = np.linalg.eigh(unpack(p, x))
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


def _lanczos(p: np.ndarray, n: int, k: int):
    # The top k pairs from ARPACK, or None when it fails, stalls or misses
    # a bound.  Every random draw is seeded, so a rerun gives the same bits:
    # ARPACK draws a restart vector whenever the Krylov space goes
    # invariant, as it does on ideal blocks.  Each update iteration costs
    # at most ncv - k matrix-vector products, so maxiter caps the work at
    # about n/3 products, about one evr solve (n/4 products at n = 1000
    # to 2500).  Uncapped, ideal blocks of 400, 300, 500 and 200 records
    # took 56k products before ARPACK gave up.
    op = scipy.sparse.linalg.LinearOperator(
        (n, n), matvec=lambda v: dspmv(n, 1.0, p, v.reshape(-1), lower=1),
        dtype=np.float64,
    )
    ncv = min(n, max(2 * k + 1, 20))  # eigsh's default
    rng = np.random.default_rng(ARPACK_SEED)
    try:
        vals, vecs = scipy.sparse.linalg.eigsh(
            op, k, which="LA", v0=rng.uniform(-1.0, 1.0, n), ncv=ncv,
            maxiter=max(1, n // (3 * (ncv - k))), rng=rng,
        )
    except scipy.sparse.linalg.ArpackError:  # ArpackNoConvergence included
        return None
    # ARPACK searches the range of the matrix, which holds no eigenvector
    # of eigenvalue 0 (an isolated record's, for one), so a spectrum
    # reaching down to 0 may have skipped some.  Above 0, the vectors are
    # exactly zero on an isolated record's row, as evr's are.
    if not vals.min() > 0:
        return None
    residual = np.linalg.norm(op @ vecs - vecs * vals, axis=0).max()
    orth = np.abs(vecs.T @ vecs - np.eye(k)).max()
    # |N|_F from the triangle: every off-diagonal entry counts twice.
    diagonal = p[packed_start(n, np.arange(n))]
    norm = np.sqrt(2.0 * np.dot(p, p) - np.dot(diagonal, diagonal))
    if residual <= EIGEN_RESIDUAL_RTOL * norm and orth <= EIGEN_ORTH_ATOL:
        return vals, vecs
    return None


def spectral_embedding(m, k: int, *, knn_scale: int = KNN_SCALE) -> np.ndarray:
    """Row-normalized top-k eigenvectors of the normalized affinity.

    ``k`` must satisfy 1 <= k <= n-1; the affinity's local scales are
    read at ``knn_scale``, as in ``local_scale_affinity``.  Zero rows (all
    eigenvector coordinates below machine zero) are kept as zero rather
    than normalized, and flagged with a warning.
    """
    return _embed(*_scaled(pack(_checked_copy(m)), knn_scale), k)


def _embed(p: np.ndarray, sigma: np.ndarray, k: int) -> np.ndarray:
    # Overwrites p (see _spectrum).  Every explicit k enters here and
    # solves for exactly k pairs: pairs past the planted k lie in a
    # near-tied bulk, for which ARPACK pays about 10 times the products of
    # the k it reads.  So an explicit k and the scan's first k columns span
    # the same subspace wherever the spectrum has a gap after the kth, but
    # do not share last bits.
    n = sigma.size
    if not 1 <= k <= n - 1:
        raise InputError(f"k={k} must satisfy 1 <= k <= n-1 (n={n})")
    return _unit_rows(_spectrum(p, sigma, k)[1])


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


def specvat(m, k: int, *, knn_scale: int = KNN_SCALE) -> Analysis:
    """Embed in k eigenvectors (1 <= k <= n-1) and run VAT on their distances.

    ``m`` is never changed.  The image is a view of one n x n float64 copy
    of it, in which every step runs.  The embedded distances that were
    ordered are not kept: they are ``cdist(result.embedding,
    result.embedding)``, bit for bit.
    """
    p, sigma = _scaled(pack(_checked_copy(m)), knn_scale)
    return _specvat(_embed(p, sigma, k), p)


def _analysis(p: np.ndarray, k: int | None) -> Analysis:
    # SpecVAT of the packed distances p with the default settings, at k
    # eigenvectors or, when k is None, at the scan's pick up to K_MAX.
    # Every step overwrites p, and the image views its buffer.
    p, sigma = _scaled(p)
    if k is None:
        e, scores = _select_k(p, sigma)
        return _specvat(e, p, scores)
    return _specvat(_embed(p, sigma, k), p)


def _specvat(embedding: np.ndarray, out: np.ndarray,
             k_scores: dict | None = None) -> Analysis:
    # out is a C-contiguous float64 buffer of at least n * n bytes; its
    # values are not read.  The embedded distances are never held: one
    # banded pass over their upper triangle finds their maximum and where
    # VAT starts, and VAT then computes each row it reads.  The image goes
    # into out's first n * n bytes, band by band from the embedding in VAT
    # order.  cdist's bits for a pair do not depend on the pairs computed
    # with it, so every row and band holds the bits of cdist(embedding,
    # embedding) (at k <= 10 columns, those of squareform(pdist(...))).
    n = embedding.shape[0]
    start, dmax = 0, -np.inf
    for rows in bands(n):
        # VAT starts at the row of the first maximum in row-major order:
        # the smallest i of a pair (i, j >= i) at the maximum, which the
        # first maximum of the upper triangle's rows, in that order, has.
        upper = cdist(embedding[rows], embedding[rows.start:])
        i = int(np.argmax(upper))
        if upper.flat[i] > dmax:
            start, dmax = rows.start + i // upper.shape[1], upper.flat[i]
        del upper  # before the next one is built
    ordering = _prim(n, start, lambda i: cdist(embedding[i:i + 1], embedding)[0])
    eo = embedding[ordering.order]
    img = out.reshape(-1).view(np.uint8)[:n * n].reshape(n, n)
    _draw(img, dmax, lambda rows, out: cdist(eo[rows], eo, out=out))
    return Analysis(ordering, img, k_scores, embedding)


def a_specvat_select_k(
    m, *, k_max: int = K_MAX, knn_scale: int = KNN_SCALE
) -> tuple[int, dict[int, float]]:
    """Pick the eigenvector count whose image binarizes most cleanly.

    Scans k = 2 .. ``k_max`` (at least 2, capped at n-1; ``knn_scale`` as
    in ``local_scale_affinity``), scoring each SpecVAT image by
    Otsu's between-class variance over total variance, in [0, 1].  The
    score reads only the image's histogram, which a VAT order does not
    change, so each candidate is scored from the histogram of its
    condensed embedded distances (``pdist``): no n x n image is built and
    none is VAT-ordered (``report.analyze`` orders and renders only the
    winner).  Returns the best k (smallest on ties) and all scores.
    Structureless input -- constant distances, or images with a single
    intensity -- scores 0 and falls back to k = 2 with a warning.
    """
    best_e, scores = _select_k(*_scaled(pack(_checked_copy(m)), knn_scale), k_max)
    return best_e.shape[1], scores


def _select_k(p: np.ndarray, sigma: np.ndarray,
              k_max: int = K_MAX) -> tuple[np.ndarray, dict]:
    # The winner's embedding, unordered, with every score; overwrites the
    # packed distances p (see _spectrum).  One spectrum serves every k: the
    # affinity does not depend on k and the sign rule is per column.  Once
    # it is solved, p is free: each candidate's condensed distances go into
    # its first n(n-1)/2 entries.
    if k_max < 2:
        raise InputError(f"k_max={k_max} must be at least 2")
    n = sigma.size
    if n < 3:
        raise InputError(f"need at least 3 points to scan k >= 2, got n={n}")
    ks = range(2, min(k_max, n - 1) + 1)
    # Only the zero diagonal lies below the maximum of a constant matrix.
    dmax = p.max()
    constant = sum(np.count_nonzero(p[c] < dmax) for c in chunks(p.size)) <= n
    vecs = _spectrum(p, sigma, ks[-1])[1]
    condensed = p[:n * (n - 1) // 2]
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
            scores[k] = _otsu(_pixel_histogram(pdist(e, out=condensed), n))[1]
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
