import math

import numpy as np
import pytest
from scipy.linalg.blas import dspmv
from scipy.spatial.distance import cdist, pdist, squareform

import scenevat.matrix as matrix_mod
from scenevat.errors import DistanceOverflow, InputError
from scenevat.matrix import (
    BAND_BYTES,
    _packed_rows,
    as_features,
    bands,
    check_dissim,
    check_permutation,
    check_symmetric,
    chunks,
    euclidean_dissim,
    euclidean_packed,
    full_rows,
    pack,
    packed_start,
    permute_matrix,
    unpack,
)
from scenevat.specvat import ARPACK_MIN_N

from conftest import overflow_in_last_band, random_dissim

# The largest n whose rows fit one band: a float64 row of n entries is 8n
# bytes, so n rows fit BAND_BYTES up to n = 362.
ONE_BAND = math.isqrt(BAND_BYTES // 8)


@pytest.mark.parametrize("n", [1, 2, ONE_BAND - 1, ONE_BAND, ONE_BAND + 1, 1000,
                               BAND_BYTES // 8, BAND_BYTES // 8 + 1, 10**6])
def test_bands_cover_the_rows_in_order_within_the_budget(n):
    # Arithmetic only: no matrix of n rows is allocated.
    heights, stop = [], 0
    for rows in bands(n):
        assert rows.step is None and rows.start == stop < rows.stop
        stop = rows.stop
        heights.append(rows.stop - rows.start)
        assert heights[-1] * 8 * n <= BAND_BYTES or heights[-1] == 1
    assert stop == n
    # As tall as the budget allows: one row more would exceed it.
    h = heights[0]
    assert set(heights[:-1]) <= {h} and heights[-1] <= h
    assert (h + 1) * 8 * n > BAND_BYTES or len(heights) == 1


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


def _tiled_euclidean(features, tile=1024):
    """The former tiled kernel: cdist on upper-triangle tiles, mirrored."""
    x = as_features(features)
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


@pytest.mark.parametrize("n", [1, 137, 255, 256, 257, ONE_BAND - 1, ONE_BAND,
                               ONE_BAND + 1, 513, 1100])
def test_euclidean_matches_tiled_kernel_bitwise(n):
    # n at and around the edge of one band (ONE_BAND + 1 is two bands, of
    # 361 rows and 2), several bands of 217 to 119 rows from n = 513 on,
    # and the bits of the condensed pdist that the banded build replaced.
    rng = np.random.Generator(np.random.Philox(key=8))
    for dims in (23, 128):
        f = rng.normal(loc=2.0, scale=5.0, size=(n, dims))
        got = euclidean_dissim(f)
        assert np.array_equal(got, _tiled_euclidean(f))
        assert got.tobytes() == squareform(pdist(f)).tobytes()


def test_euclidean_overflow_in_the_last_band_raises():
    f = overflow_in_last_band()
    assert np.isfinite(euclidean_dissim(np.delete(f, 590, axis=0))).all()
    with pytest.raises(InputError, match=r"^feature distances overflow: distances "
                       r"above about 1\.3e154 overflow when squared$"):
        euclidean_dissim(f)


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


@pytest.mark.parametrize("n", [1, 2, 7, 256, 257, ONE_BAND + 1, 600])
def test_validate_messages_match_full_matrix_check(n):
    # One band up to ONE_BAND rows: ONE_BAND + 1 (two bands) and 600 (three
    # of up to 218 rows) put offenders in later bands and mirror pairs
    # across band boundaries.
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


# --------------------------------------------------------------------------
# the packed upper triangle

# Around the one-band edge (362 rows fit one band), several bands, and
# around the size from which ARPACK solves.
PACKED_SIZES = (1, 2, 3, 255, 256, 257, 362, 363, 600,
                ARPACK_MIN_N - 1, ARPACK_MIN_N, ARPACK_MIN_N + 1)


def _symmetric(n, seed=0):
    a = np.random.Generator(np.random.Philox(key=seed)).normal(size=(n, n))
    return a + a.T


def _packed_reference(a):
    """The rows a[i, i:] back to back, built with concatenate."""
    return np.concatenate([a[i, i:] for i in range(a.shape[0])])


@pytest.mark.parametrize("n", PACKED_SIZES)
def test_packed_rows_walk_the_triangle_in_order(n):
    # Row i is a view of n - i entries, and the rows end to end are p.
    p = np.arange(packed_start(n, n), dtype=np.float64)
    walked = list(_packed_rows(p, n))
    assert [i for i, _ in walked] == list(range(n))
    for i, row in walked:
        assert row.size == n - i and np.shares_memory(row, p)
    assert np.concatenate([row for _, row in walked]).tobytes() == p.tobytes()


@pytest.mark.parametrize("n", PACKED_SIZES)
def test_pack_and_unpack_round_trip_in_and_out_of_place(n):
    a = _symmetric(n, seed=n)
    want = _packed_reference(a)
    assert packed_start(n, n) == want.size == n * (n + 1) // 2
    out = pack(a, np.empty(want.size))
    assert out.tobytes() == want.tobytes()
    assert unpack(out, np.empty((n, n))).tobytes() == a.tobytes()
    buf = a.copy()
    packed = pack(buf)  # in place: a view of buf's first n(n+1)/2 entries
    assert np.shares_memory(packed, buf) and packed.tobytes() == want.tobytes()
    assert unpack(packed, buf) is buf and buf.tobytes() == a.tobytes()


def test_pack_in_place_needs_a_c_contiguous_matrix():
    with pytest.raises(ValueError, match="C-contiguous"):
        pack(np.asfortranarray(_symmetric(4)))


@pytest.mark.parametrize("n", PACKED_SIZES)
def test_packed_rows_are_the_square_rows_bitwise(n):
    # full_rows gathers them from the triangle, in the order of bands(n).
    a = _symmetric(n, seed=n)
    p = pack(a, np.empty(packed_start(n, n)))
    seen = []
    for rows, band in full_rows(p, n):
        assert band.flags.c_contiguous and band.tobytes() == a[rows].tobytes()
        band[:] = np.nan  # the next band overwrites every entry
        seen.append(rows)
    assert seen == list(bands(n))


@pytest.mark.parametrize("n", [1, 2, 363, 600])
def test_euclidean_packed_yields_the_square_rows_and_packs_them(n):
    # The triangle it returns is the square's, and so are its full rows.
    f = np.random.Generator(np.random.Philox(key=n)).normal(size=(n, 23))
    d = euclidean_dissim(f)
    p = euclidean_packed(f)
    assert p.tobytes() == _packed_reference(d).tobytes()
    seen = []
    for rows, band in full_rows(p, n):
        assert band.tobytes() == d[rows].tobytes()
        seen.append(rows)
    assert seen == list(bands(n))


def test_euclidean_packed_overflow_in_the_last_band_raises_there(monkeypatch):
    built = []
    distances = matrix_mod._distances

    def spy(x, rows, below=None):
        built.append(rows)
        return distances(x, rows, below)

    monkeypatch.setattr(matrix_mod, "_distances", spy)
    with pytest.raises(DistanceOverflow, match="^feature distances overflow"):
        euclidean_packed(overflow_in_last_band())
    assert built == list(bands(600))


@pytest.mark.parametrize("n", [1, 2, 257, ARPACK_MIN_N + 1])
def test_dspmv_on_the_packed_triangle_is_the_square_product(n):
    # BLAS's lower packed layout is the upper triangle's rows back to back.
    a = _symmetric(n, seed=n)
    p = pack(a, np.empty(packed_start(n, n)))
    v = np.random.Generator(np.random.Philox(key=1)).normal(size=n)
    got = dspmv(n, 1.0, p, v, lower=1)
    want = a @ v
    assert np.abs(got - want).max() <= 1e-13 * np.abs(a).sum(axis=1).max()


def test_chunks_cover_a_range_in_order():
    step = BAND_BYTES // 8
    for size in (0, 1, step, step + 1, 3 * step - 1):
        cover = list(chunks(size))
        assert all(c.stop - c.start <= step for c in cover)
        assert [i for c in cover for i in range(c.start, c.stop)] == list(range(size))
