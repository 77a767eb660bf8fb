import numpy as np
import pytest
from scipy.spatial.distance import cdist, pdist, squareform

from scenevat.errors import InputError
from scenevat.matrix import (
    as_features,
    check_dissim,
    check_permutation,
    check_symmetric,
    euclidean_dissim,
    permute_matrix,
    zscore,
)

from conftest import overflow_in_last_band, random_dissim


def test_euclidean_right_triangle():
    m = euclidean_dissim(np.array([[0.0, 0.0], [3.0, 4.0]]))
    assert m.tolist() == [[0.0, 5.0], [5.0, 0.0]]


def test_euclidean_identical_rows():
    m = euclidean_dissim(np.array([[1.0, 2.0], [1.0, 2.0]]))
    assert m[0, 1] == 0.0


def test_euclidean_three_rows():
    f = np.array([[1.0, 2.0, 2.0], [0.0, 0.0, 0.0], [1.0, 0.0, 0.0]])
    m = euclidean_dissim(f)
    assert m[0, 1] == pytest.approx(3.0, abs=1e-12)
    assert m[0, 2] == pytest.approx(2.8284271, abs=1e-7)
    assert m[1, 2] == pytest.approx(1.0, abs=1e-12)


def test_euclidean_rejects_nonfinite_naming_row():
    f = np.ones((4, 3))
    f[2, 1] = np.nan
    with pytest.raises(InputError, match="row 2"):
        euclidean_dissim(f)


def test_euclidean_one_dimensional_input_is_column():
    m = euclidean_dissim(np.array([0.0, 1.0, 10.0]))
    assert m.shape == (3, 3)
    assert m[0, 2] == 10.0


def _dissim_problem(m):
    """The invariant ``check_dissim`` names, or None when it accepts ``m``."""
    try:
        check_dissim(m)
    except InputError as exc:
        return str(exc).removeprefix("invalid dissimilarity matrix: ")
    return None


def test_validate_passes_on_euclidean_outputs():
    rng = np.random.Generator(np.random.Philox(key=1))
    for _ in range(20):
        f = rng.normal(size=(rng.integers(1, 30), rng.integers(1, 6)))
        d = euclidean_dissim(f)
        assert check_dissim(d) is d


def test_validate_names_asymmetry():
    m = np.zeros((2, 2))
    m[0, 1] = 1.0
    msg = _dissim_problem(m)
    assert msg is not None and "(0, 1)" in msg and "symmetr" in msg


def test_validate_names_negative_entry():
    m = np.zeros((2, 2))
    m[0, 1] = m[1, 0] = -1.0
    msg = _dissim_problem(m)
    assert msg is not None and "negative" in msg


def test_validate_names_nonzero_diagonal():
    m = np.zeros((2, 2))
    m[1, 1] = 0.5
    assert "diagonal" in _dissim_problem(m)


def test_check_symmetric_allows_what_only_a_dissimilarity_forbids():
    m = np.array([[1.0, -2.0], [-2.0, 3.0]])
    assert check_symmetric(m) is m
    with pytest.raises(InputError, match=r"symmetric matrix: asymmetric entry at \(0, 1\)"):
        check_symmetric(np.array([[1.0, -2.0], [2.0, 3.0]]))


def test_triangle_inequality_on_random_features():
    rng = np.random.Generator(np.random.Philox(key=2))
    f = rng.normal(size=(40, 5))
    m = euclidean_dissim(f)
    for _ in range(300):
        i, j, k = rng.integers(0, 40, size=3)
        assert m[i, k] <= m[i, j] + m[j, k] + 1e-9


def test_permute_identity():
    m = random_dissim(np.random.Generator(np.random.Philox(key=3)), 5)
    assert np.array_equal(permute_matrix(m, np.arange(5)), m)


def test_permute_swap_2x2():
    m = np.array([[0.0, 2.0], [2.0, 0.0]])
    assert np.array_equal(permute_matrix(m, [1, 0]), m)


def test_permute_3x3_index_chase():
    m = random_dissim(np.random.Generator(np.random.Philox(key=4)), 3)
    p = [2, 0, 1]
    out = permute_matrix(m, p)
    for i in range(3):
        for j in range(3):
            assert out[i, j] == m[p[i], p[j]]


def test_permute_then_inverse_is_exact():
    rng = np.random.Generator(np.random.Philox(key=5))
    m = random_dissim(rng, 17)
    p = rng.permutation(17)
    back = permute_matrix(permute_matrix(m, p), np.argsort(p))
    assert np.array_equal(back, m)


def test_permute_preserves_entry_multiset():
    rng = np.random.Generator(np.random.Philox(key=6))
    m = random_dissim(rng, 12)
    p = rng.permutation(12)
    out = permute_matrix(m, p)
    assert np.array_equal(np.sort(out.ravel()), np.sort(m.ravel()))


def test_permute_length_mismatch():
    m = random_dissim(np.random.Generator(np.random.Philox(key=7)), 4)
    with pytest.raises(InputError):
        permute_matrix(m, [0, 1, 2])


def test_check_permutation_rejects_repeats():
    with pytest.raises(InputError):
        check_permutation([0, 1, 1], 3)


def _tiled_euclidean(features, standardize=False, tile=1024):
    """The former tiled kernel: cdist on upper-triangle tiles, mirrored."""
    x = as_features(features)
    if standardize:
        x = zscore(x)
    n = x.shape[0]
    out = np.empty((n, n))
    for i0 in range(0, n, tile):
        i1 = min(i0 + tile, n)
        for j0 in range(i0, n, tile):
            j1 = min(j0 + tile, n)
            block = cdist(x[i0:i1], x[j0:j1], metric="euclidean")
            if i0 == j0:
                block = np.triu(block)
                block = block + block.T - np.diag(np.diagonal(block))
            out[i0:i1, j0:j1] = block
            if i0 != j0:
                out[j0:j1, i0:i1] = block.T
    np.fill_diagonal(out, 0.0)
    return out


@pytest.mark.parametrize("standardize", [False, True])
@pytest.mark.parametrize("n", [1, 137, 255, 256, 257, 513, 1100])
def test_euclidean_matches_tiled_kernel_bitwise(n, standardize):
    # n at and around the 256-row bands, and the bits of the condensed
    # pdist that the banded build replaced.
    rng = np.random.Generator(np.random.Philox(key=8))
    for dims in (23, 128):
        f = rng.normal(loc=2.0, scale=5.0, size=(n, dims))
        got = euclidean_dissim(f, standardize=standardize)
        assert np.array_equal(got, _tiled_euclidean(f, standardize))
        x = zscore(f) if standardize else f
        assert got.tobytes() == squareform(pdist(x)).tobytes()


def test_euclidean_overflow_in_the_last_band_raises():
    f = overflow_in_last_band()
    assert np.isfinite(euclidean_dissim(np.delete(f, 590, axis=0))).all()
    with pytest.raises(InputError, match=r"^feature distances overflow: distances "
                       r"above about 1\.3e154 overflow when squared$"):
        euclidean_dissim(f)


def test_zscore_standardizes_and_keeps_constant_dims():
    rng = np.random.Generator(np.random.Philox(key=9))
    f = rng.normal(loc=3.0, scale=2.0, size=(50, 3))
    f[:, 2] = 7.0  # constant dimension stays put
    z = zscore(f)
    assert np.abs(z[:, :2].mean(axis=0)).max() < 1e-12
    assert np.abs(z[:, :2].std(axis=0) - 1.0).max() < 1e-12
    assert np.array_equal(z[:, 2], np.zeros(50))


def test_standardize_flag_changes_distances():
    f = np.array([[0.0, 0.0], [1.0, 100.0]])
    raw = euclidean_dissim(f)
    std = euclidean_dissim(f, standardize=True)
    assert raw[0, 1] > 50.0
    assert std[0, 1] == pytest.approx(np.sqrt(2.0) * 2.0, rel=1e-12)


def test_check_dissim_raises_with_message():
    with pytest.raises(InputError):
        check_dissim(np.array([[0.0, 1.0], [2.0, 0.0]]))


def test_symmetry_tolerance_scales_with_magnitude():
    m = np.array([[0.0, 1e7], [np.nextafter(1e7, np.inf), 0.0]])
    assert _dissim_problem(m) is None  # 1 ulp at 1e7
    m[1, 0] = 1e7 * (1.0 + 1e-9)
    msg = _dissim_problem(m)
    assert msg is not None and "asymmetric" in msg
    assert "np.float64" not in msg and "10000000.0 vs" in msg


def _validate_dissim_reference(m):
    """The full-matrix check (one n x n ``x - x.T``), as the reference."""
    x = np.asarray(m, dtype=np.float64)
    if x.ndim != 2 or x.shape[0] != x.shape[1]:
        return f"matrix is not square: shape {x.shape}"
    if x.shape[0] < 1:
        return "matrix is empty"
    bad = np.argwhere(~np.isfinite(x))
    if bad.size:
        i, j = bad[0]
        return f"non-finite value at ({i}, {j})"
    diag = np.diagonal(x)
    nz = np.flatnonzero(diag != 0.0)
    if nz.size:
        i = int(nz[0])
        return f"diagonal entry at ({i}, {i}) is {float(diag[i])}, expected exactly 0"
    tol = 1e-12 * max(float(x.max()), -float(x.min()))
    asym = np.abs(x - x.T)
    if asym.max() > tol:
        i, j = np.argwhere(asym > tol)[0]
        return (
            f"asymmetric entry at ({i}, {j}): "
            f"{float(x[i, j])} vs {float(x[j, i])} (tolerance {tol})"
        )
    neg = np.argwhere(x < 0)
    if neg.size:
        i, j = neg[0]
        return f"negative entry at ({i}, {j}): {float(x[i, j])}"
    return None


@pytest.mark.parametrize("n", [1, 2, 7, 256, 257, 600])
def test_validate_messages_match_full_matrix_check(n):
    # Bands of 256 rows: 257 and 600 put offenders in later bands and
    # mirror pairs across band boundaries.
    rng = np.random.Generator(np.random.Philox(key=500 + n))
    base = random_dissim(rng, n)
    strided = np.zeros((2 * n, 2 * n))
    strided[::2, ::2] = base
    cases = [base, base.T.copy(order="F"), strided[::2, ::2]]
    for _ in range(12):
        m = base.copy()
        for _ in range(int(rng.integers(1, 4))):
            i, j = rng.integers(0, n, size=2)
            kind = rng.integers(0, 5)
            if kind == 0 and i != j:
                m[i, j] += 1e-3  # asymmetric pair (i, j) / (j, i)
            elif kind == 1 and i != j:
                m[i, j] = m[j, i] = -m[i, j]  # symmetric but negative
            elif kind == 2:
                m[i, i] = 0.5
            elif kind == 3:
                m[i, j] = [np.nan, np.inf, -np.inf][int(rng.integers(0, 3))]
            elif i != j:
                m[i, j] *= 1.0 + 1e-13  # within the symmetry tolerance
        cases.append(m)
    if n >= 2:
        m = base.copy()
        m[n - 1, 0] *= 1.0 + 1e-13  # within tolerance, last band against the first
        cases.append(m)
    for m in cases:
        assert _dissim_problem(m) == _validate_dissim_reference(m)
    hit = [_dissim_problem(m) for m in cases]
    if n >= 7:
        assert any(h and "asymmetric" in h for h in hit)
    # An accepted matrix comes back as it is when exactly symmetric, and as
    # a new 0.5*m + 0.5*m.T, bit for bit, when symmetric within tolerance.
    accepted = [m for m, h in zip(cases, hit) if h is None]
    assert accepted[0] is base
    for m in accepted:
        before = m.copy()
        got = check_dissim(m)
        assert (got is m) == np.array_equal(m, m.T)
        assert got.tobytes() == (0.5 * m + 0.5 * m.T).tobytes()
        assert m.tobytes() == before.tobytes()
    if n >= 2:
        assert check_dissim(cases[-1]) is not cases[-1]
