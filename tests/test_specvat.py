import sys
import warnings
from dataclasses import replace

import numpy as np
import pytest
import scipy.linalg
from scipy.spatial.distance import pdist, squareform

import scenevat
import scenevat.specvat as specvat_mod
from scenevat.cce import cce_count, otsu_effectiveness
from scenevat.errors import DegenerateImageError, InputError, NumericError
from scenevat.matrix import euclidean_dissim, permute_matrix, validate_dissim
from scenevat.report import analyze
from scenevat.specvat import (
    SpecVatConfig,
    a_specvat_select_k,
    local_scale_affinity,
    normalized_affinity,
    spectral_embedding,
    specvat,
    sym_eigen_topk,
)
from scenevat.synth import BlobSpec, block_dissim, gaussian_blobs
from scenevat.vat import odi_from, vat_order

from conftest import random_dissim


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
    a = local_scale_affinity(m, SpecVatConfig())
    off = a[~np.eye(3, dtype=bool)]
    assert np.all(off == 1.0)  # exp(0)
    assert not a.diagonal().any()


def test_affinity_hand_evaluated_kernel():
    m = line_dissim([0.0, 1.0, 10.0, 11.0])
    a = local_scale_affinity(m, SpecVatConfig(knn_scale=1))
    assert a[0, 1] == pytest.approx(np.exp(-1.0), rel=1e-12)
    assert a[0, 2] == pytest.approx(np.exp(-100.0), rel=1e-9)
    assert np.array_equal(a, a.T)
    assert a.max() <= 1.0 and a.min() >= 0.0


def test_affinity_knn_rank_clamped_to_available():
    m = line_dissim([0.0, 1.0])
    a = local_scale_affinity(m, SpecVatConfig(knn_scale=7))
    # only one neighbour exists, so sigma = 1 for both
    assert a[0, 1] == pytest.approx(np.exp(-1.0), rel=1e-12)


def test_affinity_needs_two_points():
    with pytest.raises(InputError):
        local_scale_affinity(np.zeros((1, 1)), SpecVatConfig())


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


# --------------------------------------------------------------------------
# embedding + full pipeline


def test_embedding_rows_unit_norm():
    m = random_dissim(np.random.Generator(np.random.Philox(key=43)), 12)
    emb = spectral_embedding(m, SpecVatConfig(k=3))
    norms = np.linalg.norm(emb, axis=1)
    assert np.abs(norms - 1.0).max() <= 1e-9


def test_embedding_components_collapse_to_identical_rows():
    m = block_dissim([6, 6, 6], 0.01, 1.0)
    emb = spectral_embedding(m, SpecVatConfig(k=3, knn_scale=3))
    for blk in range(3):
        rows = emb[blk * 6 : (blk + 1) * 6]
        assert np.abs(rows - rows[0]).max() <= 1e-6


def test_specvat_two_ideal_blocks_geometry():
    m = block_dissim([8, 8], 0.0, 10.0)
    res = specvat(m, SpecVatConfig(k=2, knn_scale=3))
    labels = np.repeat([0, 1], 8)
    same = labels[:, None] == labels[None, :]
    off = ~np.eye(16, dtype=bool)
    assert res.d_prime[same & off].max() <= 1e-6
    between = res.d_prime[~same]
    assert np.abs(between - np.sqrt(2.0)).max() <= 1e-3


def test_specvat_k1_rows_map_to_unit_scalars():
    # connected two-cluster matrix: top eigenvector is strictly positive,
    # so every row normalizes to +1 and embedded distances vanish
    m = block_dissim([5, 5], 0.01, 1.0)
    res = specvat(m, SpecVatConfig(k=1))
    assert np.allclose(np.abs(res.embedding), 1.0, atol=1e-9)
    vals = np.unique(np.round(res.d_prime, 6))
    assert set(vals.tolist()) <= {0.0, 2.0}


def test_specvat_three_blocks_cce_roundtrip():
    m = block_dissim([10, 10, 10], 0.01, 1.0)
    res = specvat(m, SpecVatConfig(k=3))
    assert cce_count(res.image).cluster_count == 3


def test_specvat_d_prime_is_valid_dissim():
    m = random_dissim(np.random.Generator(np.random.Philox(key=44)), 15)
    res = specvat(m, SpecVatConfig(k=4))
    assert validate_dissim(res.d_prime) is None


def test_specvat_invariant_to_input_order():
    rng = np.random.Generator(np.random.Philox(key=45))
    m = block_dissim([7, 7, 7], 0.01, 1.0)
    labels = np.repeat([0, 1, 2], 7)
    p = rng.permutation(21)
    res = specvat(permute_matrix(m, p), SpecVatConfig(k=3))
    lab = labels[p][res.ordering.order]
    assert (np.diff(lab) != 0).sum() == 2  # three contiguous label blocks


# --------------------------------------------------------------------------
# k selection


def test_select_k_three_ideal_blocks():
    m = block_dissim([10, 10, 10], 0.01, 1.0)
    k, scores = a_specvat_select_k(m, SpecVatConfig(k_max=6, knn_scale=10))
    assert k == 3
    assert set(scores) == {2, 3, 4, 5, 6}
    assert all(0.0 <= v <= 1.0 for v in scores.values())


def test_select_k_constant_distances_degenerate():
    m = np.ones((8, 8)) - np.eye(8)
    with pytest.warns(UserWarning, match="degenerate"):
        k, scores = a_specvat_select_k(m, SpecVatConfig())
    assert k == 2
    assert all(v == 0.0 for v in scores.values())


def test_select_k_smallest_on_ties(monkeypatch):
    # a scorer forcing a tie across every k
    monkeypatch.setattr(specvat_mod, "otsu_effectiveness", lambda img: 0.5)
    m = block_dissim([6, 6, 6], 0.01, 1.0)
    k, scores = a_specvat_select_k(m, SpecVatConfig(k_max=5))
    assert k == 2
    assert all(v == 0.5 for v in scores.values())


def test_select_k_cap_at_n_minus_1():
    m = block_dissim([2, 2], 0.01, 1.0)  # n = 4 caps the scan at k = 3
    k, scores = a_specvat_select_k(m, SpecVatConfig(k_max=10, knn_scale=2))
    assert set(scores) <= {2, 3}
    assert k in scores


def _isolated_blocks():
    # two far points whose affinities underflow: zero embedding rows
    m = np.full((20, 20), 50.0)
    m[:18, :18] = block_dissim([6, 6, 6], 0.01, 1.0)
    np.fill_diagonal(m, 0.0)
    return m


SCAN_FIXTURES = {
    "three_ideal_blocks": (
        lambda: block_dissim([10, 10, 10], 0.01, 1.0),
        SpecVatConfig(k_max=6, knn_scale=10),
    ),
    "isolated_points": (_isolated_blocks, SpecVatConfig(k_max=6, knn_scale=3)),
    "n4_capped": (
        lambda: block_dissim([2, 2], 0.01, 1.0),
        SpecVatConfig(k_max=10, knn_scale=2),
    ),
    "blobs_240": (
        lambda: euclidean_dissim(gaussian_blobs(BlobSpec(4, 60, 8, 4.0, seed=5))[0]),
        SpecVatConfig(),
    ),
    "constant": (lambda: np.ones((8, 8)) - np.eye(8), SpecVatConfig()),
}


def _per_k_specvat(m, cfg):
    """Public specvat at each k of the scan, as the reference."""
    n = m.shape[0]
    return {k: specvat(m, replace(cfg, k=k))
            for k in range(2, min(cfg.k_max, n - 1) + 1)}


def _score(image):
    try:
        return float(otsu_effectiveness(image))
    except DegenerateImageError:
        return 0.0


@pytest.mark.filterwarnings("ignore::UserWarning")
@pytest.mark.parametrize("name", sorted(SCAN_FIXTURES))
def test_select_k_scan_equals_per_k_specvat(name):
    make, cfg = SCAN_FIXTURES[name]
    m = make()
    k, scores = a_specvat_select_k(m, cfg)
    if name == "constant":
        expect = {kk: 0.0 for kk in _per_k_specvat(m, cfg)}
    else:
        expect = {kk: _score(r.image) for kk, r in _per_k_specvat(m, cfg).items()}
    assert scores == expect
    assert k == max(expect, key=expect.get)  # first, so smallest, of the best


@pytest.mark.filterwarnings("ignore::UserWarning")
@pytest.mark.parametrize("name", sorted(SCAN_FIXTURES))
def test_analyze_scan_winner_matches_specvat_bitwise(name):
    make, cfg = SCAN_FIXTURES[name]
    m = make()
    got = analyze(m, "specvat", cfg)
    ref = specvat(m, replace(cfg, k=got.k))
    for a, b in [(got.ordering.order, ref.ordering.order),
                 (got.ordering.link_dist, ref.ordering.link_dist),
                 (got.image, ref.image),
                 (got.d_prime, ref.d_prime)]:
        assert a.dtype == b.dtype and a.shape == b.shape
        assert a.tobytes() == b.tobytes()


@pytest.mark.filterwarnings("ignore::UserWarning")
@pytest.mark.parametrize("name", sorted(SCAN_FIXTURES))
def test_analyze_scan_vat_orders_only_the_winner(name, monkeypatch):
    calls = []
    original = specvat_mod._vat_order

    def counting(d):
        calls.append(d.shape)
        return original(d)

    monkeypatch.setattr(specvat_mod, "_vat_order", counting)
    make, cfg = SCAN_FIXTURES[name]
    m = make()
    analyze(m, "specvat", cfg)
    assert calls == [m.shape]


def test_select_k_warns_zero_rows_once_per_candidate():
    m, cfg = _isolated_blocks(), SpecVatConfig(k_max=6, knn_scale=3)

    def zero_row_messages(fn):
        with warnings.catch_warnings(record=True) as rec:
            warnings.simplefilter("always")
            fn()
        return [str(w.message) for w in rec if "identically zero" in str(w.message)]

    scan = zero_row_messages(lambda: a_specvat_select_k(m, cfg))
    per_k = zero_row_messages(lambda: _per_k_specvat(m, cfg))
    assert scan and scan == per_k


def test_config_validation_bounds():
    cfg = SpecVatConfig(k=5)
    with pytest.raises(InputError):
        cfg.validate(4)
    with pytest.raises(InputError):
        SpecVatConfig(knn_scale=0).validate(10)
    with pytest.raises(InputError):
        SpecVatConfig(sigma_floor=0.0).validate(10)


# --------------------------------------------------------------------------
# references: the affinity with copies, and the full eigensolve


BAND_EDGE_SIZES = (1, 2, 3, 255, 256, 257, 600)


def _blobs(n, seed=7):
    feats = gaussian_blobs(BlobSpec(4, -(-n // 4), 8, 4.0, seed=seed))[0]
    return euclidean_dissim(feats[:n])


def _affinity_reference(d, cfg):
    """The affinity as computed with an ``offdiag`` copy, as the reference."""
    kth = min(cfg.knn_scale, d.shape[0] - 1)
    offdiag = d.copy()
    np.fill_diagonal(offdiag, np.inf)
    sigma = np.partition(offdiag, kth - 1, axis=1)[:, kth - 1]
    sigma = np.maximum(sigma, cfg.sigma_floor)
    a = np.exp(-(d * d) / np.outer(sigma, sigma))
    np.fill_diagonal(a, 0.0)
    return a


def test_affinity_matches_reference_bitwise():
    rng = np.random.Generator(np.random.Philox(key=90))
    signed_zero_diag = random_dissim(rng, 12)
    np.fill_diagonal(signed_zero_diag, -0.0)
    cases = [
        (random_dissim(rng, 2), SpecVatConfig()),
        (random_dissim(rng, 40), SpecVatConfig()),
        (random_dissim(rng, 40), SpecVatConfig(knn_scale=1)),
        (random_dissim(rng, 9), SpecVatConfig(knn_scale=50)),  # clamped
        (signed_zero_diag, SpecVatConfig(knn_scale=3)),
        (block_dissim([6, 6, 6], 0.01, 1.0), SpecVatConfig(knn_scale=5)),
        (block_dissim([4, 4], 0.0, 1.0), SpecVatConfig(knn_scale=2)),  # floor
        (np.ones((5, 5)) - np.eye(5), SpecVatConfig()),
        (1e100 * (np.ones((4, 4)) - np.eye(4)), SpecVatConfig(knn_scale=1)),
        (euclidean_dissim(gaussian_blobs(BlobSpec(3, 30, 8, 4.0, seed=3))[0]),
         SpecVatConfig()),
    ]
    # sizes around the 256-row band edge
    cases += [(random_dissim(rng, n), SpecVatConfig()) for n in BAND_EDGE_SIZES[1:]]
    cases += [(_blobs(600), SpecVatConfig(knn_scale=12))]
    for d, cfg in cases:
        got = local_scale_affinity(d, cfg)
        ref = _affinity_reference(d, cfg)
        assert got.tobytes() == ref.tobytes()


def _three_block_permutations():
    """The 100 permuted three-block matrices of acceptance 5, normalized."""
    base = block_dissim([15, 15, 15], 0.01, 1.0)
    rng = np.random.Generator(np.random.Philox(key=123))
    for _ in range(100):
        m = permute_matrix(base, rng.permutation(45))
        yield normalized_affinity(local_scale_affinity(m, SpecVatConfig(k=3)))


def test_eigen_topk_tied_boundary_returns_k_pairs():
    # Eigenvalue -1/14 has multiplicity 42, so the top 10 split a tied
    # cluster; the subset solver may then return fewer than 10 pairs.
    for x in _three_block_permutations():
        vals, vecs = sym_eigen_topk(x, 10)
        assert vals.shape == (10,) and vecs.shape == (45, 10)
        full = np.linalg.eigvalsh(x)[::-1][:10]
        assert np.abs(vals - full).max() <= 1e-12
        assert np.abs(vecs.T @ vecs - np.eye(10)).max() <= 1e-8


def test_eigen_topk_short_subset_falls_back_to_full_eigh(monkeypatch):
    x = next(_three_block_permutations())
    original = scipy.linalg.eigh

    def short(a, *args, **kwargs):
        vals, vecs = original(a, *args, **kwargs)
        return vals[1:], vecs[:, 1:]  # one pair short, as at a tied boundary

    monkeypatch.setattr(scipy.linalg, "eigh", short)
    vals, vecs = sym_eigen_topk(x, 10)
    full_vals, full_vecs = np.linalg.eigh(x)
    assert vals.tobytes() == full_vals[::-1][:10].tobytes()
    assert np.array_equal(np.abs(vecs), np.abs(full_vecs[:, ::-1][:, :10]))


@pytest.mark.filterwarnings("ignore::UserWarning")
@pytest.mark.parametrize("name", sorted(SCAN_FIXTURES))
def test_explicit_k_embeds_first_columns_of_scan_spectrum(name):
    # The scan solves for min(k_max, n-1) pairs once; an explicit k solves
    # for as many and slices, so the two agree bit for bit.
    make, cfg = SCAN_FIXTURES[name]
    m = make()
    k_hi = min(cfg.k_max, m.shape[0] - 1)
    top = sym_eigen_topk(normalized_affinity(local_scale_affinity(m, cfg)), k_hi)[1]
    for k in range(1, k_hi + 1):
        cols = top[:, :k]
        norms = np.linalg.norm(cols, axis=1)
        expect = cols / np.where(norms == 0.0, 1.0, norms)[:, np.newaxis]
        assert spectral_embedding(m, replace(cfg, k=k)).tobytes() == expect.tobytes()


# --------------------------------------------------------------------------
# the banded, in-place spectral path against out-of-place references


def _normalize_reference(x):
    """The out-of-place normalization, as the reference."""
    s = x.sum(axis=1)
    inv_sqrt = np.where(s > 0, 1.0 / np.sqrt(np.where(s > 0, s, 1.0)), 0.0)
    return x * np.outer(inv_sqrt, inv_sqrt)


def _sym_reference(d, cfg):
    x = _normalize_reference(_affinity_reference(d, cfg))
    return 0.5 * (x + x.T)


def _descending_reference(vals, vecs, k):
    vecs = vecs[:, ::-1][:, :k].copy()
    for c in range(k):
        nz = np.flatnonzero(np.abs(vecs[:, c]) > 1e-12)
        if nz.size and vecs[nz[0], c] < 0:
            vecs[:, c] *= -1
    return vals[::-1][:k].copy(), vecs


def _spectrum_reference(d, cfg, k):
    """Affinity, normalization and solve with a copy at every step."""
    sym = _sym_reference(d, cfg)
    n = sym.shape[0]
    vals, vecs = scipy.linalg.eigh(sym, subset_by_index=[n - k, n - 1],
                                   check_finite=False)
    if vecs.shape[1] < k:
        vals, vecs = np.linalg.eigh(sym)
    return _descending_reference(vals, vecs, k)


def _embedding_reference(cols):
    norms = np.linalg.norm(cols, axis=1)
    return cols / np.where(norms == 0.0, 1.0, norms)[:, np.newaxis]


def _specvat_reference(d, cfg):
    """Explicit-k SpecVAT with a condensed pdist, as the reference."""
    k_hi = max(cfg.k, min(cfg.k_max, d.shape[0] - 1))
    e = _embedding_reference(_spectrum_reference(d, cfg, k_hi)[1][:, :cfg.k])
    d_prime = squareform(pdist(e))
    ordering = vat_order(d_prime)
    return ordering, odi_from(d_prime, ordering), d_prime


def _within_tolerance_asymmetric(n):
    # Symmetric only to 1e-13 relative: check_dissim accepts it, and the
    # affinity built from it is not exactly symmetric.
    d = _blobs(n, seed=2)
    rng = np.random.Generator(np.random.Philox(key=5))
    d += np.triu(rng.uniform(-1e-13, 1e-13, d.shape) * d.max(), 1)
    assert validate_dissim(d) is None and not np.array_equal(d, d.T)
    return d


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
    d = _blobs(n) if symmetric else _within_tolerance_asymmetric(n)
    cfg = SpecVatConfig(k=min(3, n - 1))
    got = analyze(d, "specvat", cfg, k=cfg.k)
    ordering, image, d_prime = _specvat_reference(d, cfg)
    for a, b in [(got.ordering.order, ordering.order),
                 (got.ordering.link_dist, ordering.link_dist),
                 (got.image, image), (got.d_prime, d_prime)]:
        assert a.dtype == b.dtype and a.shape == b.shape
        assert a.tobytes() == b.tobytes()


@pytest.mark.parametrize("n", BAND_EDGE_SIZES)
def test_embedded_distances_match_condensed_pdist_bitwise(n):
    rng = np.random.Generator(np.random.Philox(key=n))
    for k in range(2, 11):
        e = rng.standard_normal((n, k))
        e /= np.linalg.norm(e, axis=1)[:, np.newaxis]
        got = specvat_mod._specvat(e).d_prime
        assert got.tobytes() == squareform(pdist(e)).tobytes()


def test_private_fallback_rebuilds_the_overwritten_matrix(monkeypatch):
    # The subset solve overwrites the matrix it is given, so the fallback
    # must rebuild it from d.  The reference is the full eigh of a copy.
    d = _blobs(120)
    cfg = SpecVatConfig(k=3)
    k_hi = min(cfg.k_max, d.shape[0] - 1)
    top = _descending_reference(*np.linalg.eigh(_sym_reference(d, cfg)), k_hi)[1]
    d_prime = squareform(pdist(_embedding_reference(top[:, :3])))
    ordering = vat_order(d_prime)
    original = scipy.linalg.eigh
    original_full = np.linalg.eigh
    full_calls = []

    def short(a, *args, **kwargs):
        vals, vecs = original(a, *args, **kwargs)
        return vals[1:], vecs[:, 1:]  # one pair short, as at a tied boundary

    def counted_full(a, *args, **kwargs):
        full_calls.append(a.shape)
        return original_full(a, *args, **kwargs)

    monkeypatch.setattr(scipy.linalg, "eigh", short)
    monkeypatch.setattr(np.linalg, "eigh", counted_full)
    got = analyze(d, "specvat", cfg, k=3)
    assert full_calls == [(120, 120)]
    assert got.d_prime.tobytes() == d_prime.tobytes()
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


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("k", [2, None])
def test_overflowing_distances_raise_numeric_error(k):
    # d*d overflows to inf and so do the local scales: inf / inf is NaN.
    d = 1e200 * (np.ones((4, 4)) - np.eye(4))
    with pytest.raises(NumericError, match="1.3e154"):
        analyze(d, "specvat", SpecVatConfig(), k=k)


def test_normalized_affinity_rejects_non_finite_input():
    a = np.ones((3, 3)) - np.eye(3)
    a[0, 1] = a[1, 0] = np.nan
    with pytest.raises(InputError, match="finite"):
        normalized_affinity(a)
