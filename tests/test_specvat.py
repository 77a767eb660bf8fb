import hashlib
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse.linalg
from scipy.spatial.distance import cdist, pdist, squareform

import scenevat
import scenevat.specvat as specvat_mod
from scenevat.cce import cce_count, otsu_effectiveness
from scenevat.errors import DegenerateImageError, InputError, NumericError
from scenevat.matrix import check_dissim, euclidean_dissim, permute_matrix, unpack
from scenevat.manifest import parse_manifest
from scenevat.report import analyze, run_report
from scenevat.specvat import (
    K_MAX,
    KNN_SCALE,
    SIGMA_FLOOR,
    a_specvat_select_k,
    local_scale_affinity,
    normalized_affinity,
    spectral_embedding,
    specvat,
    sym_eigen_topk,
)
from scenevat.synth import block_dissim, gaussian_blobs
from scenevat.vat import (Analysis, VatOrdering, _odi, odi_from, read_ordering,
                          read_pgm, vat_order)

from conftest import count_solvers, random_dissim


def _spectrum(d, k, knn_scale=KNN_SCALE):
    """The private spectrum of the square d, which it overwrites, through
    the packed path every SpecVAT takes."""
    return specvat_mod._spectrum(*specvat_mod._packed(d, knn_scale), k)


def line_dissim(points):
    p = np.asarray(points, dtype=np.float64)
    return np.abs(p[:, None] - p[None, :])


def test_package_attribute_is_the_specvat_module():
    # The package root re-exports nothing, so the function ``specvat`` no
    # longer hides the submodule of the same name.
    assert scenevat.specvat is sys.modules["scenevat.specvat"]
    assert specvat_mod.specvat is specvat


# --------------------------------------------------------------------------
# affinity


def test_affinity_identical_points_hits_sigma_floor():
    m = np.zeros((3, 3))
    a = local_scale_affinity(m)
    off = a[~np.eye(3, dtype=bool)]
    assert np.all(off == 1.0)  # exp(0)
    assert not a.diagonal().any()


def test_affinity_hand_evaluated_kernel():
    m = line_dissim([0.0, 1.0, 10.0, 11.0])
    a = local_scale_affinity(m, knn_scale=1)
    assert a[0, 1] == pytest.approx(np.exp(-1.0), rel=1e-12)
    assert a[0, 2] == pytest.approx(np.exp(-100.0), rel=1e-9)
    assert np.array_equal(a, a.T)
    assert a.max() <= 1.0 and a.min() >= 0.0


def test_affinity_knn_rank_clamped_to_available():
    m = line_dissim([0.0, 1.0])
    a = local_scale_affinity(m, knn_scale=7)
    # only one neighbour exists, so sigma = 1 for both
    assert a[0, 1] == pytest.approx(np.exp(-1.0), rel=1e-12)


def test_affinity_needs_two_points():
    with pytest.raises(InputError):
        local_scale_affinity(np.zeros((1, 1)))


# --------------------------------------------------------------------------
# normalization


def test_normalized_unit_row_sums_identity_case():
    a = np.array([[0.0, 1.0], [1.0, 0.0]])
    assert np.allclose(normalized_affinity(a), a, atol=1e-15)


def test_normalized_zero_row_stays_zero():
    a = np.zeros((3, 3))
    a[0, 1] = a[1, 0] = 1.0
    n = normalized_affinity(a)
    assert not n[2].any() and not n[:, 2].any()


def test_normalized_disconnected_blocks_stay_blockwise():
    a = np.zeros((4, 4))
    a[0, 1] = a[1, 0] = 2.0
    a[2, 3] = a[3, 2] = 5.0
    n = normalized_affinity(a)
    expect = np.zeros((4, 4))
    expect[0, 1] = expect[1, 0] = 1.0
    expect[2, 3] = expect[3, 2] = 1.0
    assert np.allclose(n, expect, atol=1e-15)


def test_normalized_rejects_negative():
    a = np.array([[0.0, -1.0], [-1.0, 0.0]])
    with pytest.raises(InputError):
        normalized_affinity(a)


def test_normalized_symmetry_tolerance_scales_with_magnitude():
    # An absolute 1e-10 rejected the first, off by 1e-15 relative, and
    # accepted the second, asymmetric throughout.
    a = 1e12 * (np.ones((4, 4)) - np.eye(4))
    a[0, 1] += 1e-3
    assert np.array_equal(normalized_affinity(a),
                          normalized_affinity(0.5 * a + 0.5 * a.T))
    tiny = 1e-12 * np.random.Generator(np.random.Philox(key=45)).uniform(size=(4, 4))
    with pytest.raises(InputError, match="asymmetric"):
        normalized_affinity(tiny)


# --------------------------------------------------------------------------
# eigen


def test_eigen_diagonal_case():
    vals, vecs = sym_eigen_topk(np.diag([3.0, 1.0]), 2)
    assert vals.tolist() == [3.0, 1.0]
    assert np.allclose(vecs, np.eye(2), atol=1e-12)


def test_eigen_two_point_exchange():
    vals, vecs = sym_eigen_topk(np.array([[0.0, 1.0], [1.0, 0.0]]), 2)
    assert np.allclose(vals, [1.0, -1.0], atol=1e-12)
    r = 1.0 / np.sqrt(2.0)
    assert np.allclose(vecs[:, 0], [r, r], atol=1e-12)
    assert np.allclose(vecs[:, 1], [r, -r], atol=1e-12)


def test_eigen_orthonormal_and_residual_on_random():
    rng = np.random.Generator(np.random.Philox(key=41))
    for _ in range(20):
        n = int(rng.integers(3, 30))
        raw = rng.normal(size=(n, n))
        sym = 0.5 * (raw + raw.T)
        k = int(rng.integers(1, n + 1))
        vals, vecs = sym_eigen_topk(sym, k)
        assert np.abs(vecs.T @ vecs - np.eye(k)).max() <= 1e-8
        fro = np.linalg.norm(sym, "fro")
        for c in range(k):
            res = np.linalg.norm(sym @ vecs[:, c] - vals[c] * vecs[:, c])
            assert res <= 1e-8 * fro
        assert np.all(np.diff(vals) <= 1e-12)  # descending


def test_eigen_sign_convention_first_nonzero_positive():
    rng = np.random.Generator(np.random.Philox(key=42))
    raw = rng.normal(size=(8, 8))
    _, vecs = sym_eigen_topk(0.5 * (raw + raw.T), 8)
    for c in range(8):
        col = vecs[:, c]
        nz = np.flatnonzero(np.abs(col) > 1e-12)
        assert col[nz[0]] > 0


def test_eigen_rejects_asymmetric():
    with pytest.raises(InputError):
        sym_eigen_topk(np.array([[0.0, 1.0], [0.0, 0.0]]), 1)


def test_eigen_symmetry_tolerance_scales_with_magnitude():
    # An absolute 1e-10 rejected the first, off by about 2e-16 relative,
    # and accepted the second, asymmetric throughout.
    rng = np.random.Generator(np.random.Philox(key=46))
    raw = rng.normal(size=(6, 6))
    x = 1e12 * (raw + raw.T)
    x[0, 1] += 1e-3
    got = sym_eigen_topk(x, 3)
    ref = sym_eigen_topk(0.5 * x + 0.5 * x.T, 3)
    assert all(a.tobytes() == b.tobytes() for a, b in zip(got, ref))
    with pytest.raises(InputError, match="asymmetric"):
        sym_eigen_topk(1e-12 * raw, 3)


@pytest.mark.parametrize("x", [
    [[np.nan, 0.0], [0.0, 1.0]],
    [[0.0, np.inf], [np.inf, 0.0]],
])
def test_eigen_rejects_non_finite(x):
    # The symmetry check alone passes both: a NaN difference is not > tol.
    with pytest.raises(InputError, match="finite"):
        sym_eigen_topk(np.array(x), 1)


def test_eigen_symmetrizes_huge_entries_without_overflow():
    # 0.5 * (x + x.T) overflows to inf; 0.5*x + 0.5*x.T does not.  The
    # second matrix is symmetric only within the tolerance.
    for x in ([[1e308, 1.0], [1.0, 1e308]],
              [[1.0, 1e308], [np.nextafter(1e308, 0.0), 1.0]]):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            vals, vecs = sym_eigen_topk(np.array(x), 1)
        assert np.isfinite(vals).all() and np.isfinite(vecs).all()
        assert vals[0] == pytest.approx(1e308)


# --------------------------------------------------------------------------
# embedding + full pipeline


def test_embedding_rows_unit_norm():
    m = random_dissim(np.random.Generator(np.random.Philox(key=43)), 12)
    emb = spectral_embedding(m, 3)
    norms = np.linalg.norm(emb, axis=1)
    assert np.abs(norms - 1.0).max() <= 1e-9


def test_embedding_components_collapse_to_identical_rows():
    m = block_dissim([6, 6, 6], 0.01, 1.0)
    emb = spectral_embedding(m, 3, knn_scale=3)
    for blk in range(3):
        rows = emb[blk * 6 : (blk + 1) * 6]
        assert np.abs(rows - rows[0]).max() <= 1e-6


def test_specvat_two_ideal_blocks_geometry():
    m = block_dissim([8, 8], 0.0, 10.0)
    res = specvat(m, 2, knn_scale=3)
    labels = np.repeat([0, 1], 8)
    same = labels[:, None] == labels[None, :]
    off = ~np.eye(16, dtype=bool)
    d_prime = cdist(res.embedding, res.embedding)
    assert d_prime[same & off].max() <= 1e-6
    between = d_prime[~same]
    assert np.abs(between - np.sqrt(2.0)).max() <= 1e-3


def test_specvat_k1_rows_map_to_unit_scalars():
    # connected two-cluster matrix: top eigenvector is strictly positive,
    # so every row normalizes to +1 and embedded distances vanish
    m = block_dissim([5, 5], 0.01, 1.0)
    assert np.allclose(np.abs(spectral_embedding(m, 1)), 1.0, atol=1e-9)
    e = specvat(m, 1).embedding
    vals = np.unique(np.round(cdist(e, e), 6))
    assert set(vals.tolist()) <= {0.0, 2.0}


def test_specvat_three_blocks_cce_roundtrip():
    m = block_dissim([10, 10, 10], 0.01, 1.0)
    res = specvat(m, 3)
    assert cce_count(res.image).cluster_count == 3


def test_specvat_d_prime_is_valid_dissim():
    m = random_dissim(np.random.Generator(np.random.Philox(key=44)), 15)
    res = specvat(m, 4)
    d_prime = cdist(res.embedding, res.embedding)
    assert check_dissim(d_prime) is d_prime


def test_specvat_invariant_to_input_order():
    rng = np.random.Generator(np.random.Philox(key=45))
    m = block_dissim([7, 7, 7], 0.01, 1.0)
    labels = np.repeat([0, 1, 2], 7)
    p = rng.permutation(21)
    res = specvat(permute_matrix(m, p), 3)
    lab = labels[p][res.ordering.order]
    assert (np.diff(lab) != 0).sum() == 2  # three contiguous label blocks


# --------------------------------------------------------------------------
# k selection


def test_select_k_three_ideal_blocks():
    m = block_dissim([10, 10, 10], 0.01, 1.0)
    k, scores = a_specvat_select_k(m, k_max=6, knn_scale=10)
    assert k == 3
    assert set(scores) == {2, 3, 4, 5, 6}
    assert all(0.0 <= v <= 1.0 for v in scores.values())


def test_select_k_constant_distances_degenerate():
    m = np.ones((8, 8)) - np.eye(8)
    with pytest.warns(UserWarning, match="degenerate"):
        k, scores = a_specvat_select_k(m)
    assert k == 2
    assert all(v == 0.0 for v in scores.values())


def test_select_k_smallest_on_ties(monkeypatch):
    # a scorer forcing a tie across every k: the scan reads _otsu's score
    monkeypatch.setattr(specvat_mod, "_otsu", lambda hist: (0, 0.5))
    m = block_dissim([6, 6, 6], 0.01, 1.0)
    k, scores = a_specvat_select_k(m, k_max=5)
    assert k == 2
    assert all(v == 0.5 for v in scores.values())


def test_select_k_cap_at_n_minus_1():
    m = block_dissim([2, 2], 0.01, 1.0)  # n = 4 caps the scan at k = 3
    k, scores = a_specvat_select_k(m, k_max=10, knn_scale=2)
    assert set(scores) <= {2, 3}
    assert k in scores


def _isolated_blocks():
    # Three ideal blocks and two far points.  The far points' affinities to
    # the blocks underflow, but they are linked to each other (normalized
    # affinity 1): a fourth component, so eigenvalue 1 is 4-fold.  The zero
    # embedding rows come from the basis evr picks inside that tied
    # eigenvalue, not from isolation.
    m = np.full((20, 20), 50.0)
    m[:18, :18] = block_dissim([6, 6, 6], 0.01, 1.0)
    np.fill_diagonal(m, 0.0)
    return m


# Each fixture's matrix and the scan's keyword arguments.
DEFAULTS = dict(k_max=K_MAX, knn_scale=KNN_SCALE)
SCAN_FIXTURES = {
    "three_ideal_blocks": (
        lambda: block_dissim([10, 10, 10], 0.01, 1.0),
        dict(k_max=6, knn_scale=10),
    ),
    "isolated_points": (_isolated_blocks, dict(k_max=6, knn_scale=3)),
    "n4_capped": (
        lambda: block_dissim([2, 2], 0.01, 1.0),
        dict(k_max=10, knn_scale=2),
    ),
    "blobs_240": (
        lambda: euclidean_dissim(gaussian_blobs(4, 60, 8, 4.0, seed=5)[0]),
        DEFAULTS,
    ),
    "constant": (lambda: np.ones((8, 8)) - np.eye(8), DEFAULTS),
    "blobs_1024_arpack": (  # ARPACK_MIN_N records: the ARPACK path
        lambda: euclidean_dissim(gaussian_blobs(4, 256, 8, 4.0, seed=5)[0]),
        DEFAULTS,
    ),
}


def _analyze_scan(m, scan):
    """analyze(m, "specvat"), which scans with the defaults; with other
    settings, the steps it runs.  Overwrites m."""
    if scan == DEFAULTS:
        return analyze(m, "specvat")
    p, sigma = specvat_mod._packed(m, scan["knn_scale"])
    e, scores = specvat_mod._select_k(p, sigma, scan["k_max"])
    return specvat_mod._specvat(e, p, scores)


def _per_k_specvat(m, scan):
    """Public specvat at each k of the scan, as the reference."""
    n = m.shape[0]
    return {k: specvat(m, k, knn_scale=scan["knn_scale"])
            for k in range(2, min(scan["k_max"], n - 1) + 1)}


def _score(image):
    try:
        return float(otsu_effectiveness(image))
    except DegenerateImageError:
        return 0.0


def _unit_rows_reference(cols):
    norms = np.linalg.norm(cols, axis=1)
    return cols / np.where(norms == 0.0, 1.0, norms)[:, np.newaxis]


def _scan_spectrum(m, scan):
    """The scan's one solve, min(k_max, n-1) pairs, through public steps."""
    k_hi = min(scan["k_max"], m.shape[0] - 1)
    a = local_scale_affinity(m, knn_scale=scan["knn_scale"])
    return sym_eigen_topk(normalized_affinity(a), k_hi)


def _scan_reference(m, scan):
    """Each candidate's embedding: the first k columns of the scan's solve."""
    top = _scan_spectrum(m, scan)[1]
    return {k: _unit_rows_reference(top[:, :k]) for k in range(2, top.shape[1] + 1)}


def _input_order_image(e):
    n = e.shape[0]
    return odi_from(squareform(pdist(e)), VatOrdering(np.arange(n), np.zeros(n)))


@pytest.mark.filterwarnings("ignore::UserWarning")
@pytest.mark.parametrize("name", sorted(SCAN_FIXTURES))
def test_select_k_scan_equals_per_k_specvat(name):
    # The scores are Otsu's of each candidate's image in input order, bit for
    # bit; the chosen k is also the best of public specvat at each k, whose
    # eigenvectors agree with the scan's to rounding.
    make, settings = SCAN_FIXTURES[name]
    m = make()
    k, scores = a_specvat_select_k(m, **settings)
    scan = _scan_reference(m, settings)
    if name == "constant":
        expect = dict.fromkeys(scan, 0.0)
    else:
        expect = {kk: _score(_input_order_image(e)) for kk, e in scan.items()}
        per_k = {kk: _score(r.image)
                 for kk, r in _per_k_specvat(m, settings).items()}
        assert k == max(per_k, key=per_k.get)
    assert scores == expect
    assert k == max(expect, key=expect.get)  # first, so smallest, of the best


@pytest.mark.filterwarnings("ignore::UserWarning")
@pytest.mark.parametrize("name", sorted(SCAN_FIXTURES))
def test_analyze_scan_winner_matches_specvat_bitwise(name):
    # The winner is _specvat of its scan columns bit for bit.  Public
    # specvat at that k solves k pairs: the same image, link distances to
    # rounding, and the same order except where embedded rows are exactly
    # equal (ideal blocks), so VAT's tie-break follows the last bits.
    make, settings = SCAN_FIXTURES[name]
    m = make()
    got = _analyze_scan(m.copy(), settings)
    ref = specvat_mod._specvat(_scan_reference(m, settings)[got.k],
                               np.empty(m.shape))
    for a, b in [(got.ordering.order, ref.ordering.order),
                 (got.ordering.link_dist, ref.ordering.link_dist),
                 (got.image, ref.image),
                 (cdist(got.embedding, got.embedding),
                  cdist(ref.embedding, ref.embedding))]:
        assert a.dtype == b.dtype and a.shape == b.shape
        assert a.tobytes() == b.tobytes()
    if name == "constant":
        return
    public = specvat(m, got.k, knn_scale=settings["knn_scale"])
    assert got.image.tobytes() == public.image.tobytes()
    link = got.ordering.link_dist
    assert np.abs(link - public.ordering.link_dist).max() <= 1e-12 * link.max()
    if name != "three_ideal_blocks":
        assert np.array_equal(got.ordering.order, public.ordering.order)


def test_specvat_and_analyze_return_one_analysis_type():
    m = block_dissim([5, 5, 5], 0.01, 1.0)
    explicit, scanned = specvat(m, 3), analyze(m.copy(), "specvat")
    plain = analyze(m, "vat")
    assert type(explicit) is type(scanned) is type(plain) is Analysis
    assert (explicit.k, explicit.k_scores) == (3, None)
    assert (scanned.k, scanned.k_scores) == a_specvat_select_k(m)
    assert (plain.k, plain.k_scores, plain.embedding) == (None, None, None)


def _count_calls(monkeypatch, name, key):
    """Record ``key`` of the first argument of each call of specvat's
    ``name``: the size n that ``_prim`` orders, the shape of the image that
    ``_draw`` fills."""
    calls = []
    original = getattr(specvat_mod, name)

    def counting(first, *args):
        calls.append(key(first))
        return original(first, *args)

    monkeypatch.setattr(specvat_mod, name, counting)
    return calls


@pytest.mark.filterwarnings("ignore::UserWarning")
@pytest.mark.parametrize("name", sorted(SCAN_FIXTURES))
def test_analyze_scan_vat_orders_only_the_winner(name, monkeypatch):
    calls = _count_calls(monkeypatch, "_prim", int)
    make, settings = SCAN_FIXTURES[name]
    m = make()
    _analyze_scan(m.copy(), settings)
    assert calls == [m.shape[0]]


@pytest.mark.filterwarnings("ignore::UserWarning")
@pytest.mark.parametrize("name", sorted(SCAN_FIXTURES))
def test_analyze_scan_renders_only_the_winner(name, monkeypatch):
    # Candidates are scored from histograms; only the winner gets an image.
    calls = _count_calls(monkeypatch, "_draw", np.shape)
    make, settings = SCAN_FIXTURES[name]
    m = make()
    _analyze_scan(m.copy(), settings)
    assert calls == [m.shape]


def _image_scores(d, scan):
    """The reference: each candidate's score read from its n x n image in
    input order, through the public ``otsu_effectiveness``."""
    n = d.shape[0]
    vecs = _spectrum(d.copy(), min(scan["k_max"], n - 1), scan["knn_scale"])[1]
    scores = {}
    for k in range(2, vecs.shape[1] + 1):
        e = specvat_mod._unit_rows(vecs[:, :k])
        scores[k] = _score(_odi(cdist(e, e), np.arange(n)))
    return scores


@pytest.mark.filterwarnings("ignore::UserWarning")
@pytest.mark.parametrize("name", sorted(set(SCAN_FIXTURES) - {"constant"}))
def test_select_k_scores_equal_image_scores(name):
    make, settings = SCAN_FIXTURES[name]
    m = make()
    assert a_specvat_select_k(m, **settings)[1] == _image_scores(m, settings)


def test_select_k_scores_a_degenerate_candidate_zero(monkeypatch):
    # Equal rows in the first two columns: the k = 2 embedding collapses to
    # one point, whose image has a single intensity.
    m = block_dissim([4, 4, 4], 0.01, 1.0)
    settings = dict(k_max=4, knn_scale=KNN_SCALE)
    vecs = np.random.default_rng(3).uniform(0.5, 1.0, size=(12, 4))
    vecs[:, :2] = [0.6, 0.8]
    monkeypatch.setattr(specvat_mod, "_spectrum", lambda p, s, k: (None, vecs))
    e = specvat_mod._unit_rows(vecs[:, :2])
    with pytest.raises(DegenerateImageError):
        otsu_effectiveness(_odi(cdist(e, e), np.arange(12)))
    k, scores = a_specvat_select_k(m, **settings)
    assert scores == _image_scores(m, settings)
    assert scores[2] == 0.0 and min(scores[3], scores[4]) > 0.0
    assert k == max(scores, key=scores.get)


@pytest.mark.filterwarnings("ignore::UserWarning")
@pytest.mark.parametrize("name", sorted(SCAN_FIXTURES))
def test_public_scan_vat_orders_nothing(name, monkeypatch):
    # a_specvat_select_k returns k and the scores, which need no order.
    calls = _count_calls(monkeypatch, "_prim", int)
    make, settings = SCAN_FIXTURES[name]
    a_specvat_select_k(make(), **settings)
    assert calls == []


def test_select_k_warns_zero_rows_once_per_candidate():
    m, settings = _isolated_blocks(), dict(k_max=6, knn_scale=3)

    def zero_row_messages(fn):
        with warnings.catch_warnings(record=True) as rec:
            warnings.simplefilter("always")
            fn()
        return [str(w.message) for w in rec if "identically zero" in str(w.message)]

    scan = zero_row_messages(lambda: a_specvat_select_k(m, **settings))
    per_k = zero_row_messages(lambda: _per_k_specvat(m, settings))
    assert scan and scan == per_k


def test_config_validation_bounds():
    m = block_dissim([2, 2], 0.01, 1.0)
    with pytest.raises(InputError, match=r"k=5 must satisfy 1 <= k <= n-1 \(n=4\)"):
        specvat(m, 5)
    with pytest.raises(InputError, match="k_max=1 must be at least 2"):
        a_specvat_select_k(m, k_max=1)
    for call in (lambda: local_scale_affinity(m, knn_scale=0),
                 lambda: spectral_embedding(m, 2, knn_scale=0),
                 lambda: specvat(m, 2, knn_scale=0),
                 lambda: a_specvat_select_k(m, knn_scale=0)):
        with pytest.raises(InputError, match="knn_scale=0 must be at least 1"):
            call()


# --------------------------------------------------------------------------
# references: the affinity with copies, and the full eigensolve


# Up to n = 362 the rows are one band; 363 and 600 take two and three.
BAND_EDGE_SIZES = (1, 2, 3, 255, 256, 257, 362, 363, 600)


def _blobs(n, seed=7):
    feats = gaussian_blobs(4, -(-n // 4), 8, 4.0, seed=seed)[0]
    return euclidean_dissim(feats[:n])


def _affinity_reference(d, knn_scale=KNN_SCALE):
    """The affinity as computed with an ``offdiag`` copy, as the reference."""
    kth = min(knn_scale, d.shape[0] - 1)
    offdiag = d.copy()
    np.fill_diagonal(offdiag, np.inf)
    sigma = np.partition(offdiag, kth - 1, axis=1)[:, kth - 1]
    sigma = np.maximum(sigma, SIGMA_FLOOR)
    a = np.exp(-(d * d) / np.outer(sigma, sigma))
    np.fill_diagonal(a, 0.0)
    return a


def test_affinity_matches_reference_bitwise():
    rng = np.random.Generator(np.random.Philox(key=90))
    signed_zero_diag = random_dissim(rng, 12)
    np.fill_diagonal(signed_zero_diag, -0.0)
    cases = [
        (random_dissim(rng, 2), KNN_SCALE),
        (random_dissim(rng, 40), KNN_SCALE),
        (random_dissim(rng, 40), 1),
        (random_dissim(rng, 9), 50),  # clamped
        (signed_zero_diag, 3),
        (block_dissim([6, 6, 6], 0.01, 1.0), 5),
        (block_dissim([4, 4], 0.0, 1.0), 2),  # floor
        (np.ones((5, 5)) - np.eye(5), KNN_SCALE),
        (1e100 * (np.ones((4, 4)) - np.eye(4)), 1),
        (euclidean_dissim(gaussian_blobs(3, 30, 8, 4.0, seed=3)[0]),
         KNN_SCALE),
    ]
    # sizes around the one-band edge
    cases += [(random_dissim(rng, n), KNN_SCALE) for n in BAND_EDGE_SIZES[1:]]
    cases += [(_blobs(600), 12)]
    for d, knn_scale in cases:
        got = local_scale_affinity(d, knn_scale=knn_scale)
        ref = _affinity_reference(d, knn_scale)
        assert got.tobytes() == ref.tobytes()


def _three_block_permutations():
    """The 100 permuted three-block matrices of acceptance 5, normalized."""
    base = block_dissim([15, 15, 15], 0.01, 1.0)
    rng = np.random.Generator(np.random.Philox(key=123))
    for _ in range(100):
        m = permute_matrix(base, rng.permutation(45))
        yield normalized_affinity(local_scale_affinity(m))


def test_eigen_topk_tied_boundary_returns_k_pairs():
    # Eigenvalue -1/14 has multiplicity 42, so the top 10 and the top 31
    # split a tied cluster; the subset solver may then return fewer than k
    # pairs, or fail outright (LinAlgError on the 76th matrix at k = 31,
    # with scipy 1.17), where the full eigh solves.
    for x in _three_block_permutations():
        for k in (10, 31):
            vals, vecs = sym_eigen_topk(x, k)
            assert vals.shape == (k,) and vecs.shape == (45, k)
            full = np.linalg.eigvalsh(x)[::-1][:k]
            assert np.abs(vals - full).max() <= 1e-12
            assert np.abs(vecs.T @ vecs - np.eye(k)).max() <= 1e-8


def test_eigen_topk_short_subset_falls_back_to_full_eigh(monkeypatch):
    x = next(_three_block_permutations())  # n = 45, below ARPACK_MIN_N
    original = scipy.linalg.eigh

    def short(a, *args, **kwargs):
        vals, vecs = original(a, *args, **kwargs)
        return vals[1:], vecs[:, 1:]  # one pair short, as at a tied boundary

    monkeypatch.setattr(scipy.linalg, "eigh", short)
    calls = count_solvers(monkeypatch)
    vals, vecs = sym_eigen_topk(x, 10)
    assert calls == {"lanczos": [], "subset": [(45, 45)], "full": [(45, 45)]}
    full_vals, full_vecs = np.linalg.eigh(x)
    assert vals.tobytes() == full_vals[::-1][:10].tobytes()
    assert np.array_equal(np.abs(vecs), np.abs(full_vecs[:, ::-1][:, :10]))


# The k below k_hi whose eigenvalue gap lambda_k - lambda_k+1 is at rounding
# level: a candidate there cuts an exactly tied eigenvalue, so any basis of
# the tie is a valid answer, and the k and k_hi solves may pick different
# ones (ROADMAP open item 4).  On isolated_points, k = 1 cuts the 4-fold
# eigenvalue 1 too, and happens to agree.
TIED_K = {
    "constant": {2, 3, 4, 5, 6},
    "isolated_points": {1, 2, 3, 5},
    "three_ideal_blocks": {2, 4, 5},
}


@pytest.mark.filterwarnings("ignore::UserWarning")
@pytest.mark.parametrize("name", sorted(SCAN_FIXTURES))
def test_explicit_k_embeds_first_columns_of_scan_spectrum(name):
    # An explicit k solves for exactly k pairs: its embedding is the unit
    # rows of that solve bit for bit, and spans the subspace of the scan's
    # first k columns wherever the spectrum has a gap after the kth.
    make, settings = SCAN_FIXTURES[name]
    m = make()
    x = normalized_affinity(local_scale_affinity(m, knn_scale=settings["knn_scale"]))
    vals, top = _scan_spectrum(m, settings)
    k_hi, tied = vals.size, set()
    for k in range(1, k_hi + 1):
        vecs = sym_eigen_topk(x, k)[1]
        expect = _unit_rows_reference(vecs)
        e = spectral_embedding(m, k, knn_scale=settings["knn_scale"])
        assert e.tobytes() == expect.tobytes()
        if k < k_hi and vals[k - 1] - vals[k] <= 1e-8:
            tied.add(k)
            continue
        assert scipy.linalg.subspace_angles(vecs, top[:, :k]).max() <= 1e-10
    assert tied == TIED_K.get(name, set())


# --------------------------------------------------------------------------
# the banded, in-place spectral path against out-of-place references


def _normalize_reference(x):
    """The out-of-place normalization, as the reference."""
    s = x.sum(axis=1)
    inv_sqrt = np.where(s > 0, 1.0 / np.sqrt(np.where(s > 0, s, 1.0)), 0.0)
    return x * np.outer(inv_sqrt, inv_sqrt)


def _sym_reference(d):
    x = _normalize_reference(_affinity_reference(d))
    return 0.5 * (x + x.T)


def _descending_reference(vals, vecs, k):
    vecs = vecs[:, ::-1][:, :k].copy()
    for c in range(k):
        nz = np.flatnonzero(np.abs(vecs[:, c]) > 1e-12)
        if nz.size and vecs[nz[0], c] < 0:
            vecs[:, c] *= -1
    return vals[::-1][:k].copy(), vecs


def _spectrum_reference(d, k):
    """Affinity, normalization and solve with a copy at every step."""
    sym = _sym_reference(d)
    n = sym.shape[0]
    vals, vecs = scipy.linalg.eigh(sym, subset_by_index=[n - k, n - 1],
                                   check_finite=False)
    if vecs.shape[1] < k:
        vals, vecs = np.linalg.eigh(sym)
    return _descending_reference(vals, vecs, k)


def _specvat_reference(d, k):
    """Explicit-k SpecVAT with a condensed pdist, as the reference."""
    e = _unit_rows_reference(_spectrum_reference(d, k)[1])
    d_prime = squareform(pdist(e))
    ordering = vat_order(d_prime)
    return ordering, odi_from(d_prime, ordering), d_prime


def _within_tolerance_asymmetric(n):
    # Symmetric only to 1e-13 relative: check_dissim accepts it and returns
    # a symmetrized copy.
    d = _blobs(n, seed=2)
    rng = np.random.Generator(np.random.Philox(key=5))
    d += np.triu(rng.uniform(-1e-13, 1e-13, d.shape) * d.max(), 1)
    assert check_dissim(d) is not d
    return d


@pytest.mark.parametrize("knn_scale", [1, 7, 12])
@pytest.mark.parametrize("n", [2, 3, 255, 256, 257, 600, 1024])
def test_exactly_symmetric_dissim_gives_exactly_symmetric_affinity(n, knn_scale):
    # The spectral path solves the normalized affinity as built, with no
    # symmetrizing pass.  It builds the packed upper triangle, whose square
    # has the bits of the square reference: entries (i, j) and (j, i) of
    # the reference are the same products, so it is exactly symmetric too.
    d = _blobs(n)
    assert check_dissim(d) is d
    p, sigma = specvat_mod._packed(d.copy(), knn_scale)
    x = specvat_mod._normalize(specvat_mod._affinity(p, sigma), n)
    ref = _normalize_reference(_affinity_reference(d, knn_scale))
    assert np.array_equal(ref, ref.T)
    assert unpack(x, np.empty((n, n))).tobytes() == ref.tobytes()


def test_normalize_matches_reference_bitwise():
    rng = np.random.Generator(np.random.Philox(key=91))
    cases = [np.zeros((1, 1)), np.ones((2, 2)) - np.eye(2)]
    cases += [local_scale_affinity(random_dissim(rng, n)) for n in BAND_EDGE_SIZES[2:]]
    isolated = np.ones((5, 5)) - np.eye(5)
    isolated[3] = isolated[:, 3] = 0.0  # a zero row stays zero
    cases.append(isolated)
    for a in cases:
        assert normalized_affinity(a).tobytes() == _normalize_reference(a).tobytes()


@pytest.mark.parametrize("n", [3, 257, 600])
@pytest.mark.parametrize("symmetric", [True, False])
def test_analyze_specvat_matches_copying_reference_bitwise(n, symmetric):
    # analyze takes the matrix check_dissim returns, as the CLI does.
    d = _blobs(n) if symmetric else _within_tolerance_asymmetric(n)
    k = min(3, n - 1)
    got = analyze(check_dissim(d.copy()), "specvat", k=k)
    ordering, image, d_prime = _specvat_reference(0.5 * d + 0.5 * d.T, k)
    for a, b in [(got.ordering.order, ordering.order),
                 (got.ordering.link_dist, ordering.link_dist),
                 (got.image, image),
                 (cdist(got.embedding, got.embedding), d_prime)]:
        assert a.dtype == b.dtype and a.shape == b.shape
        assert a.tobytes() == b.tobytes()


@pytest.mark.parametrize("n", [40, 600])
def test_run_report_specvat_matches_the_copying_reference_bitwise(tmp_path, n):
    # A report subset builds the packed triangle from the features, streams
    # its rows and reads their local scales; below ARPACK_MIN_N its
    # artifacts have the bits of the square, copying reference.  Its scan
    # picks the k, and has the scores, of analyze on the square matrix.
    feats = gaussian_blobs(3, -(-n // 3), 8, 4.0, seed=6)[0][:n]
    manifest = parse_manifest("path,scene,city\n" + "".join(
        f"c{i}.wav,bus,paris\n" for i in range(n)))
    d = euclidean_dissim(feats)
    ordering, image, _ = _specvat_reference(d, 3)
    scanned = analyze(d.copy(), "specvat")
    for k, (order, link, img) in [
            (3, (ordering.order, ordering.link_dist, image)),
            (None, (scanned.ordering.order, scanned.ordering.link_dist,
                    scanned.image))]:
        out = tmp_path / f"k{k}"
        report = run_report(manifest, feats, "all", str(out), method="specvat",
                            k=k)
        assert read_pgm(out / "all" / "odi.pgm").tobytes() == img.tobytes()
        got = read_ordering(out / "all" / "ordering.json")
        assert got.order.tobytes() == order.tobytes()
        assert got.link_dist.tobytes() == link.tobytes()
    assert report["subsets"][0]["k_scores"] == {
        str(kk): v for kk, v in sorted(scanned.k_scores.items())}


@pytest.mark.parametrize("n", BAND_EDGE_SIZES)
def test_embedded_distances_match_condensed_pdist_bitwise(n):
    rng = np.random.Generator(np.random.Philox(key=n))
    for k in range(2, 11):
        e = rng.standard_normal((n, k))
        e /= np.linalg.norm(e, axis=1)[:, np.newaxis]
        got = specvat_mod._specvat(e, np.empty((n, n)))
        want = squareform(pdist(e))
        assert cdist(got.embedding, got.embedding).tobytes() == want.tobytes()
        # The image, drawn in bands from the embedding, has the pixels of
        # the ordered d_prime.
        assert got.image.tobytes() == odi_from(want, got.ordering).tobytes()


def test_private_fallback_rebuilds_the_overwritten_matrix(monkeypatch):
    # The subset solve works in a copy of the matrix, so the full fallback
    # solves the matrix as built.  The reference is the full eigh of a copy.
    d = _blobs(120)  # below ARPACK_MIN_N
    top = _descending_reference(*np.linalg.eigh(_sym_reference(d)), 3)[1]
    d_prime = squareform(pdist(_unit_rows_reference(top)))
    ordering = vat_order(d_prime)
    original = scipy.linalg.eigh

    def short(a, *args, **kwargs):
        vals, vecs = original(a, *args, **kwargs)
        return vals[1:], vecs[:, 1:]  # one pair short, as at a tied boundary

    monkeypatch.setattr(scipy.linalg, "eigh", short)
    calls = count_solvers(monkeypatch)
    got = analyze(d, "specvat", k=3)
    assert calls == {"lanczos": [], "subset": [(120, 120)], "full": [(120, 120)]}
    assert cdist(got.embedding, got.embedding).tobytes() == d_prime.tobytes()
    assert got.ordering.order.tobytes() == ordering.order.tobytes()
    assert got.image.tobytes() == odi_from(d_prime, ordering).tobytes()


def test_public_steps_leave_their_inputs_unchanged():
    d = _blobs(300)
    d_before = d.copy()
    a = local_scale_affinity(d)
    a_before = a.copy()
    x = normalized_affinity(a)
    x_before = x.copy()
    sym_eigen_topk(x, 4)
    sym_eigen_topk(np.asfortranarray(x), 4)
    assert d.tobytes() == d_before.tobytes()
    assert a.tobytes() == a_before.tobytes()
    assert x.tobytes() == x_before.tobytes()


def test_public_steps_do_not_depend_on_memory_layout():
    # An F-ordered copy gives the same bits: ARPACK's products (n >= 1024)
    # and the row sums of the normalization depend on the layout.
    d = _blobs(LARGE_N)
    x = normalized_affinity(local_scale_affinity(d))
    f = np.asfortranarray
    assert normalized_affinity(f(x)).tobytes() == normalized_affinity(x).tobytes()
    for got, want in zip(sym_eigen_topk(f(x), 4), sym_eigen_topk(x, 4)):
        assert got.tobytes() == want.tobytes()
    assert spectral_embedding(f(d), 4).tobytes() == spectral_embedding(d, 4).tobytes()


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("k", [2, None])
def test_overflowing_distances_raise_numeric_error(k):
    # d*d overflows to inf and so do the local scales: inf / inf is NaN.
    d = 1e200 * (np.ones((4, 4)) - np.eye(4))
    with pytest.raises(NumericError, match="1.3e154"):
        analyze(d, "specvat", k=k)


def test_normalized_affinity_rejects_non_finite_input():
    a = np.ones((3, 3)) - np.eye(3)
    a[0, 1] = a[1, 0] = np.nan
    with pytest.raises(InputError, match="finite"):
        normalized_affinity(a)


# --------------------------------------------------------------------------
# the ARPACK path, from ARPACK_MIN_N records on, and its evr fallback

LARGE_N = specvat_mod.ARPACK_MIN_N
_EIGSH = scipy.sparse.linalg.eigsh
arpack_path = pytest.mark.skipif(
    not specvat_mod._SEEDABLE_ARPACK,
    reason="this eigsh cannot seed ARPACK's restarts, so evr solves every matrix",
)


def _no_convergence(x, k, **kwargs):
    raise scipy.sparse.linalg.ArpackNoConvergence("no convergence", [], [])


def _arpack_error(x, k, **kwargs):
    raise scipy.sparse.linalg.ArpackError(3)  # as eigsh raised on n = 45


def _residual_miss(x, k, **kwargs):
    vals, vecs = _EIGSH(x, k, **kwargs)
    return vals + 1e-6, vecs


def _orthonormality_miss(x, k, **kwargs):
    vals, vecs = _EIGSH(x, k, **kwargs)
    vals[0], vecs[:, 0] = vals[1], vecs[:, 1]  # residuals still tiny
    return vals, vecs


@arpack_path
@pytest.mark.parametrize("eigsh", [_no_convergence, _arpack_error,
                                   _residual_miss, _orthonormality_miss])
def test_refused_arpack_result_falls_back_to_evr_bitwise(monkeypatch, eigsh):
    d = _blobs(LARGE_N)
    ref = _spectrum_reference(d, 10)
    calls = count_solvers(monkeypatch, eigsh)
    vals, vecs = _spectrum(d, 10)
    shape = (LARGE_N, LARGE_N)
    assert calls == {"lanczos": [shape], "subset": [shape], "full": []}
    assert vals.tobytes() == ref[0].tobytes()
    assert vecs.tobytes() == ref[1].tobytes()


@arpack_path
def test_arpack_spectrum_reaching_eigenvalue_0_falls_back_to_evr(monkeypatch):
    # Four ideal blocks and an isolated record: evr's top 10 hold the
    # record's eigenvalue 0, which ARPACK, searching the range of the
    # matrix, never finds; it returns a fifth -1/255 instead.
    n = 4 * 256 + 1
    d = np.full((n, n), 1e4)
    d[:-1, :-1] = block_dissim([256] * 4, 0.01, 1.0)
    np.fill_diagonal(d, 0.0)
    ref = _spectrum_reference(d, 10)
    assert np.count_nonzero(ref[0] == 0.0) == 1
    calls = count_solvers(monkeypatch)
    vals, vecs = _spectrum(d, 10)
    assert calls == {"lanczos": [(n, n)], "subset": [(n, n)], "full": []}
    assert vals.tobytes() == ref[0].tobytes()
    assert vecs.tobytes() == ref[1].tobytes()


@arpack_path
def test_arpack_result_meets_the_bounds_and_agrees_with_evr(monkeypatch):
    d = _blobs(LARGE_N)
    x = _sym_reference(d)
    calls = count_solvers(monkeypatch)
    vals, vecs = _spectrum(d.copy(), 10)
    assert calls == {"lanczos": [(LARGE_N, LARGE_N)], "subset": [], "full": []}
    res = np.linalg.norm(x @ vecs - vecs * vals, axis=0)
    assert res.max() <= 1e-8 * np.linalg.norm(x)
    assert np.abs(vecs.T @ vecs - np.eye(10)).max() <= 1e-8
    ref_vals, ref_vecs = _spectrum_reference(d, 10)
    assert np.abs(vals - ref_vals).max() <= 1e-12
    # the same signed eigenvectors: these eigenvalues are not tied
    assert np.abs(vecs - ref_vecs).max() <= 1e-8


@arpack_path
def test_stalled_arpack_stays_under_the_work_cap(monkeypatch):
    # Ideal blocks tie hundreds of eigenvalues at the 10th: without a cap,
    # ARPACK took 56k matrix-vector products here before giving up.
    d = block_dissim([400, 300, 500, 200], 0.01, 1.0)
    n, products = d.shape[0], []

    def counted(x, k, **kwargs):
        def matvec(v):
            products.append(1)
            return x @ v
        op = scipy.sparse.linalg.LinearOperator(x.shape, matvec, dtype=x.dtype)
        return _EIGSH(op, k, **kwargs)

    ref = _spectrum_reference(d, 10)
    calls = count_solvers(monkeypatch, counted)
    vals, vecs = _spectrum(d, 10)
    assert calls == {"lanczos": [(n, n)], "subset": [(n, n)], "full": []}
    assert 0 < len(products) <= n // 3 + 21  # 21: the first Lanczos basis
    assert vals.tobytes() == ref[0].tobytes()
    assert vecs.tobytes() == ref[1].tobytes()


@arpack_path
def test_arpack_keeps_an_isolated_record_zero(monkeypatch):
    feats = gaussian_blobs(4, LARGE_N // 4, 8, 4.0, seed=7)[0]
    d = euclidean_dissim(np.vstack([feats, np.full((1, 8), 1e5)]))
    assert not local_scale_affinity(d)[-1].any()  # its affinities underflow
    calls = count_solvers(monkeypatch)
    with pytest.warns(UserWarning, match="1 embedding row"):
        e = spectral_embedding(d, 4)
    assert calls["lanczos"] and not calls["subset"]  # ARPACK's result kept
    assert not e[-1].any()
    assert np.abs(np.linalg.norm(e[:-1], axis=1) - 1.0).max() <= 1e-12


@pytest.mark.parametrize("n", [pytest.param(240, id="evr"),
                               pytest.param(LARGE_N, id="arpack", marks=arpack_path)])
def test_explicit_k_solves_exactly_k_pairs(monkeypatch, n):
    # Not min(k_max, n-1) pairs, as the scan does: past the planted k the
    # spectrum is a near-tied bulk, where ARPACK pays about 10 times the
    # products of the pairs an explicit k reads.
    d = _blobs(n)
    x = _sym_reference(d)
    asked = []
    eigh, eigsh = scipy.linalg.eigh, scipy.sparse.linalg.eigsh

    def recording_eigh(a, *args, **kwargs):
        asked.append(("evr", kwargs.get("subset_by_index")))
        return eigh(a, *args, **kwargs)

    def recording_eigsh(a, k, **kwargs):
        asked.append(("arpack", k))
        return eigsh(a, k, **kwargs)

    monkeypatch.setattr(scipy.linalg, "eigh", recording_eigh)
    monkeypatch.setattr(scipy.sparse.linalg, "eigsh", recording_eigsh)
    for k in (1, 2, 4):
        asked.clear()
        spectral_embedding(d, k)
        expect = [("arpack", k)] if n >= LARGE_N else [("evr", [n - k, n - 1])]
        assert asked == expect
        # acceptance 6's bounds hold for every k, k = 1 on ARPACK included
        vals, vecs = _spectrum(d.copy(), k)
        res = np.linalg.norm(x @ vecs - vecs * vals, axis=0)
        assert res.max() <= 1e-8 * np.linalg.norm(x)
        assert np.abs(vecs.T @ vecs - np.eye(k)).max() <= 1e-8


@pytest.mark.parametrize("k", [LARGE_N - 1, LARGE_N])
def test_arpack_never_gets_k_of_n_minus_1(monkeypatch, k):
    # eigsh would warn and call eigh itself, or refuse k = n.
    x = normalized_affinity(local_scale_affinity(_blobs(LARGE_N)))
    calls = count_solvers(monkeypatch)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        vals, vecs = sym_eigen_topk(x, k)
    assert calls["lanczos"] == [] and vecs.shape == (LARGE_N, k)


# Sixteen ideal blocks of 64: eigenvalue 1 is 16-fold, so the top 10 are
# a basis inside it that depends on every vector ARPACK starts from.  Its
# Krylov space goes invariant and it draws a restart vector; unseeded, the
# bits differ from call to call.
_DIGEST = """
import hashlib, sys
sys.path.insert(0, sys.argv[1])
from scenevat.specvat import _packed, _spectrum
from scenevat.synth import block_dissim
vals, vecs = _spectrum(*_packed(block_dissim([64] * 16, 0.01, 1.0)), 10)
print(hashlib.sha256(vals.tobytes() + vecs.tobytes()).hexdigest())
"""


@arpack_path
def test_arpack_path_repeats_its_bits(monkeypatch):
    calls = count_solvers(monkeypatch)
    d = block_dissim([64] * 16, 0.01, 1.0)
    runs = [_spectrum(d.copy(), 10) for _ in range(2)]
    assert calls["subset"] == [] and len(calls["lanczos"]) == 2
    digests = {hashlib.sha256(v.tobytes() + u.tobytes()).hexdigest()
               for v, u in runs}
    src = os.path.dirname(os.path.dirname(specvat_mod.__file__))
    for _ in range(2):
        fresh = subprocess.run([sys.executable, "-c", _DIGEST, src],
                               capture_output=True, text=True, check=True)
        digests.add(fresh.stdout.strip())
    assert len(digests) == 1
    assert np.abs(runs[0][0] - 1.0).max() <= 1e-12
