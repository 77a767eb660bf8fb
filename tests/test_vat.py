import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial.distance import squareform

from scenevat.cce import _histogram, _pixel_histogram
from scenevat.errors import InputError
from scenevat.matrix import bands
from scenevat.vat import (
    VatOrdering,
    _odi,
    _vat_order,
    odi_from,
    ordering_from_json,
    ordering_to_json,
    parse_pgm,
    read_pgm,
    vat_order,
    write_pgm,
)

from conftest import random_dissim


# --------------------------------------------------------------------------
# Independent oracles, written directly from the algorithm definitions.


def prim_oracle(d):
    """Prim vertex-addition order and link weights with the declared
    tie-breaks: start at the smaller index of the lexicographically first
    maximum-distance pair; next point is the unplaced index with minimal
    distance to the placed set, smallest index on ties."""
    n = len(d)
    if n == 1:
        return [0], [0.0]
    best_val, start = -1.0, 0
    for i in range(n):
        for j in range(n):
            if d[i][j] > best_val:
                best_val, start = d[i][j], i
    order = [start]
    link = [0.0]
    placed = {start}
    while len(order) < n:
        cand, cdist = None, None
        for u in range(n):
            if u in placed:
                continue
            du = min(d[u][v] for v in placed)
            if cdist is None or du < cdist or (du == cdist and u < cand):
                cand, cdist = u, du
        order.append(cand)
        link.append(cdist)
        placed.add(cand)
    return order, link


def kruskal_weight(d):
    n = len(d)
    edges = sorted(
        (d[i][j], i, j) for i in range(n) for j in range(i + 1, n)
    )
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    total = 0.0
    for w, i, j in edges:
        ri, rj = find(i), find(j)
        if ri != rj:
            parent[ri] = rj
            total += w
    return total


# --------------------------------------------------------------------------


def test_singleton():
    o = vat_order(np.zeros((1, 1)))
    assert o.order.tolist() == [0]
    assert o.link_dist.tolist() == [0.0]


def test_two_points():
    m = np.array([[0.0, 3.5], [3.5, 0.0]])
    o = vat_order(m)
    assert o.order.tolist() == [0, 1]
    assert o.link_dist.tolist() == [0.0, 3.5]


def test_three_points_on_a_line():
    pts = np.array([0.0, 1.0, 10.0])
    m = np.abs(pts[:, None] - pts[None, :])
    o = vat_order(m)
    assert o.order.tolist() == [0, 1, 2]
    assert o.link_dist.tolist() == [0.0, 1.0, 9.0]


def test_matches_prim_oracle_on_random_matrices():
    rng = np.random.Generator(np.random.Philox(key=21))
    for _ in range(60):
        n = int(rng.integers(2, 65))
        m = random_dissim(rng, n)
        o = vat_order(m)
        order, link = prim_oracle(m.tolist())
        assert o.order.tolist() == order
        assert np.allclose(o.link_dist, link, rtol=0, atol=0)


def test_tie_break_smallest_index():
    # three equidistant points: start must be 0 (lexicographic max pair),
    # then 1, then 2
    m = np.ones((3, 3)) - np.eye(3)
    o = vat_order(m)
    assert o.order.tolist() == [0, 1, 2]


def test_link_sum_equals_kruskal_weight():
    rng = np.random.Generator(np.random.Philox(key=22))
    for _ in range(40):
        n = int(rng.integers(2, 10))
        m = random_dissim(rng, n)
        o = vat_order(m)
        assert abs(o.link_dist.sum() - kruskal_weight(m.tolist())) <= 1e-12


def test_ordered_matrix_preserves_entry_multiset():
    rng = np.random.Generator(np.random.Philox(key=23))
    m = random_dissim(rng, 20)
    o = vat_order(m)
    ordered = m[np.ix_(o.order, o.order)]
    assert np.array_equal(np.sort(ordered.ravel()), np.sort(m.ravel()))


def test_two_blobs_become_contiguous_blocks():
    rng = np.random.Generator(np.random.Philox(key=24))
    a = rng.normal(0.0, 0.5, size=(12, 2))
    b = rng.normal(20.0, 0.5, size=(12, 2))
    f = np.vstack([a, b])
    m = np.sqrt(((f[:, None, :] - f[None, :, :]) ** 2).sum(-1))
    o = vat_order(m)
    labels = (np.asarray(o.order) >= 12).astype(int)
    # one switch between the blob labels along the ordering
    assert (np.diff(labels) != 0).sum() == 1
    ordered = m[np.ix_(o.order, o.order)]
    within_adjacent = max(
        ordered[i, i + 1] for i in range(23) if labels[i] == labels[i + 1]
    )
    between = m[:12, 12:].min()
    assert within_adjacent < between


def test_rejects_invalid_matrix():
    with pytest.raises(InputError):
        vat_order(np.array([[0.0, 1.0], [2.0, 0.0]]))


# --------------------------------------------------------------------------
# image rendering


def test_odi_two_points_scales_to_255():
    m = np.array([[0.0, 5.0], [5.0, 0.0]])
    o = vat_order(m)
    img = odi_from(m, o)
    assert img.tolist() == [[0, 255], [255, 0]]


def test_odi_zero_matrix_all_black():
    m = np.zeros((3, 3))
    img = odi_from(m, vat_order(m))
    assert img.dtype == np.uint8
    assert not img.any()


def test_odi_three_point_quantization():
    pts = np.array([0.0, 1.0, 10.0])
    m = np.abs(pts[:, None] - pts[None, :])
    img = odi_from(m, vat_order(m))
    assert img[0, 2] == 255
    assert img[0, 1] == 26  # 255 * 1/10 = 25.5 rounds away from zero


def test_odi_symmetric_zero_diagonal():
    rng = np.random.Generator(np.random.Philox(key=25))
    m = random_dissim(rng, 9)
    img = odi_from(m, vat_order(m))
    assert np.array_equal(img, img.T)
    assert not img.diagonal().any()


def test_odi_size_mismatch_rejected():
    m = random_dissim(np.random.Generator(np.random.Philox(key=26)), 4)
    bad = VatOrdering(np.arange(3), np.zeros(3))
    with pytest.raises(InputError):
        odi_from(m, bad)


# --------------------------------------------------------------------------
# PGM I/O


def pgm_bytes(img) -> bytes:
    """Binary PGM bytes of an image, built independently of write_pgm."""
    x = np.asarray(img).astype(np.uint8)
    h, w = x.shape
    return b"P5\n%d %d\n255\n" % (w, h) + x.tobytes(order="C")


def test_pgm_bytes_layout(tmp_path):
    img = np.array([[0, 255], [255, 0]], dtype=np.uint8)
    write_pgm(img, tmp_path / "img.pgm")
    assert (tmp_path / "img.pgm").read_bytes() == b"P5\n2 2\n255\n\x00\xff\xff\x00"


def test_pgm_single_zero_pixel(tmp_path):
    write_pgm(np.zeros((1, 1), dtype=np.uint8), tmp_path / "img.pgm")
    raw = (tmp_path / "img.pgm").read_bytes()
    assert raw.endswith(b"\n\x00") and raw[-1:] == b"\x00"


def test_write_pgm_matches_pgm_bytes_for_any_layout(tmp_path):
    rng = np.random.Generator(np.random.Philox(key=28))
    img = rng.integers(0, 256, size=(7, 12)).astype(np.uint8)
    for values in (img, np.asfortranarray(img), img[::2, ::3],
                   img.astype(np.int64), np.asfortranarray(img.astype(np.uint16))):
        path = tmp_path / "img.pgm"
        write_pgm(values, path)
        assert path.read_bytes() == pgm_bytes(values)
        assert np.array_equal(read_pgm(path), values)


def test_pgm_round_trip(tmp_path):
    rng = np.random.Generator(np.random.Philox(key=27))
    img = rng.integers(0, 256, size=(11, 11)).astype(np.uint8)
    path = tmp_path / "img.pgm"
    write_pgm(img, path)
    assert np.array_equal(read_pgm(path), img)


def test_pgm_comment_tolerant_reader():
    img = np.arange(6, dtype=np.uint8).reshape(2, 3)
    raw = b"P5\n# a comment\n3 2\n# another\n255\n" + img.tobytes()
    assert np.array_equal(parse_pgm(raw), img)


def test_pgm_rejects_wrong_maxval():
    with pytest.raises(InputError, match="maxval"):
        parse_pgm(b"P5\n1 1\n127\n\x00")


def test_pgm_rejects_short_payload():
    with pytest.raises(InputError):
        parse_pgm(b"P5\n2 2\n255\n\x00\x01")


# --------------------------------------------------------------------------
# ordering JSON


def test_ordering_json_round_trip():
    o = VatOrdering(np.array([2, 0, 1]), np.array([0.0, 1.5, 2.25]))
    back = ordering_from_json(ordering_to_json(o))
    assert back.order.tolist() == [2, 0, 1]
    assert back.link_dist.tolist() == [0.0, 1.5, 2.25]


def test_ordering_json_shape():
    text = ordering_to_json(VatOrdering(np.array([0]), np.array([0.0])))
    assert text == '{"order": [0], "link_dist": [0.0]}'


def test_ordering_json_rejects_garbage():
    with pytest.raises(InputError):
        ordering_from_json("{}")
    with pytest.raises(InputError):
        ordering_from_json('{"order": [0, 0], "link_dist": [0, 0]}')
    for order in ("[0.9, 1.5]", "[1.0, 0]", "[true, false]", "5", '"01"'):
        with pytest.raises(InputError, match="malformed ordering JSON"):
            ordering_from_json(f'{{"order": {order}, "link_dist": [0, 0]}}')


def _odi_reference(d, order):
    """The out-of-place rendering, as the reference."""
    ordered = d[np.ix_(order, order)]
    dmax = ordered.max()
    if dmax <= 0:
        return np.zeros(ordered.shape, dtype=np.uint8)
    return np.floor(255.0 * ordered / dmax + 0.5).astype(np.uint8)


def test_odi_matches_out_of_place_rendering_bitwise():
    rng = np.random.Generator(np.random.Philox(key=77))
    # points on a line spanning 510: odd distances land on exact half steps
    pos = np.array([0.0, 1.0, 3.0, 7.0, 510.0])
    halves = np.abs(pos[:, None] - pos[None, :])
    # entries near (m + 0.5) * dmax / 255: the rounding depends on the order
    # of the multiply and the divide
    near_half = np.zeros((24, 24))
    iu = np.triu_indices(24, 1)
    near_half[iu] = np.minimum((np.arange(iu[0].size) + 0.5) * 3.7 / 255.0, 3.7)
    near_half += near_half.T
    # one band up to n = 362; 363 and 600 take two and three
    cases = [random_dissim(rng, n)
             for n in (1, 2, 3, 50, 255, 256, 257, 301, 362, 363, 600)]
    cases += [halves, near_half, np.zeros((4, 4)),
              1e300 * (np.ones((3, 3)) - np.eye(3)),
              np.round(random_dissim(rng, 300)), np.zeros((257, 257))]  # ties
    for d in cases:
        # the VAT order, and any other
        for order in (vat_order(d).order, rng.permutation(d.shape[0])):
            got = odi_from(d, VatOrdering(order, np.zeros(d.shape[0])))
            ref = _odi_reference(d, order)
            assert got.dtype == ref.dtype and got.shape == ref.shape
            assert got.tobytes() == ref.tobytes()


# (n, rows in its last band): one band (1, 361 and 362 rows), a full band
# and two rows (363), a last band one row short of full (511), two full
# bands (512), and ten full bands and one row (1141).
_BAND_EDGES = [(1, 1), (361, 361), (362, 362), (363, 2), (511, 255), (512, 256),
               (1141, 1)]


@pytest.mark.parametrize("n,last", _BAND_EDGES)
def test_odi_reused_bands_match_ix_reference_at_band_edges(n, last):
    # Every band is drawn through the same float64 and uint8 band buffers,
    # so a band that left stale rows or columns would show here.
    assert [r.stop - r.start for r in bands(n)][-1] == last
    rng = np.random.Generator(np.random.Philox(key=n))
    d = random_dissim(rng, n)
    for order in (rng.permutation(n), rng.permutation(n), np.arange(n)[::-1]):
        got = odi_from(d, VatOrdering(order, np.zeros(n)))
        assert got.tobytes() == _odi_reference(d, order).tobytes()
    zero = np.zeros((n, n))
    got = odi_from(zero, VatOrdering(rng.permutation(n), np.zeros(n)))
    assert got.tobytes() == bytes(n * n)


@st.composite
def condensed_and_order(draw):
    """A condensed matrix of few levels (many ties) and a random order."""
    n = draw(st.integers(1, 12))
    levels = draw(st.lists(st.integers(0, 5), min_size=n * (n - 1) // 2,
                           max_size=n * (n - 1) // 2))
    # 3.7 / 255 puts entries on exact half steps of the pixel grid
    scale = draw(st.sampled_from([1.0, 0.37, 3.7 / 255.0, 1e300]))
    order = np.asarray(draw(st.permutations(range(n))), dtype=np.int64)
    return np.asarray(levels, dtype=np.float64) * scale, order


@settings(max_examples=200, deadline=None)
@given(condensed_and_order())
def test_odi_row_then_column_gather_matches_ix_reference(case):
    c, order = case
    d = squareform(c)
    assert _odi(d, order).tobytes() == _odi_reference(d, order).tobytes()


@settings(max_examples=200, deadline=None)
@given(condensed_and_order())
def test_pixel_histogram_is_the_odi_histogram(case):
    c, order = case
    n = order.shape[0]
    want = _histogram(_odi(squareform(c), order))
    got = _pixel_histogram(c.copy(), n)
    assert got.dtype == want.dtype and np.array_equal(got, want)


@pytest.mark.parametrize("n", [512, 513, 514, 1100])
def test_pixel_histogram_counts_every_slice(n):
    # Slices of BAND_BYTES / 8 = 131072 entries: one at n = 512, two from
    # n = 513 on, five at n = 1100.
    rng = np.random.Generator(np.random.Philox(key=n))
    c = rng.uniform(0.0, 3.0, n * (n - 1) // 2)
    want = _histogram(_odi(squareform(c), np.arange(n)))
    assert np.array_equal(_pixel_histogram(c, n), want)


@pytest.mark.parametrize("value", [0.0, 2.5])
@pytest.mark.parametrize("n", [1, 2, 5, 300])
def test_pixel_histogram_of_a_constant_matrix(n, value):
    c = np.full(n * (n - 1) // 2, value)
    want = _histogram(_odi(squareform(c), np.arange(n)))
    assert np.array_equal(_pixel_histogram(c, n), want)


def _vat_order_mask_reference(d):
    """The Prim loop that wrote inf through a visited mask at every step."""
    n = d.shape[0]
    order = np.zeros(n, dtype=np.int64)
    link = np.zeros(n)
    if n == 1:
        return order, link
    start = int(np.unravel_index(np.argmax(d), d.shape)[0])
    order[0] = start
    visited = np.zeros(n, dtype=bool)
    visited[start] = True
    best = d[start].copy()
    best[start] = np.inf
    for t in range(1, n):
        nxt = int(np.argmin(best))
        order[t] = nxt
        link[t] = best[nxt]
        visited[nxt] = True
        np.minimum(best, d[nxt], out=best)
        best[visited] = np.inf
    return order, link


def test_vat_order_frontier_matches_mask_reference_bitwise():
    rng = np.random.Generator(np.random.Philox(key=79))
    signed_zeros = np.ones((6, 6)) - np.eye(6)
    signed_zeros[1, 4] = signed_zeros[4, 1] = -0.0
    signed_zeros[2, 3] = signed_zeros[3, 2] = -0.0
    cases = [random_dissim(rng, n) for n in (1, 2, 3, 50, 257)]
    cases += [np.round(random_dissim(rng, 40)),  # ties
              np.zeros((5, 5)), signed_zeros]
    for d in cases:
        got = _vat_order(d)
        order, link = _vat_order_mask_reference(d)
        assert got.order.tobytes() == order.tobytes()
        assert got.link_dist.tobytes() == link.tobytes()
