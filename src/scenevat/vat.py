"""VAT reordering and ordered dissimilarity images.

The reordering starts at an endpoint of a furthest pair and repeatedly
appends the unordered point closest to the ordered set, which is exactly the
vertex-addition order of Prim's algorithm on the complete graph.  Rendered
as an 8-bit grayscale image, dark diagonal blocks suggest clusters.

Tie-breaks are fixed so results are deterministic: among furthest pairs the
lexicographically smallest (i, j) wins and its smaller index starts the
order; among equidistant candidates the smallest index wins.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .errors import InputError
from .matrix import bands, check_dissim, check_permutation
from .vatf import atomic_write_bytes, naming, read_file


@dataclass(frozen=True)
class VatOrdering:
    """Permutation of record indices plus the Prim link distances.

    ``link_dist[0]`` is 0; ``link_dist[i]`` for i >= 1 is the distance from
    ``order[i]`` to its nearest already-ordered point, i.e. the weight of the
    MST edge that attached it.
    """

    order: np.ndarray
    link_dist: np.ndarray

    def __post_init__(self):
        order = np.asarray(self.order, dtype=np.int64)
        link = np.asarray(self.link_dist, dtype=np.float64)
        if order.shape != link.shape or order.ndim != 1:
            raise InputError("order and link_dist must be 1-D and equally long")
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "link_dist", link)

    def __len__(self):
        return self.order.shape[0]


@dataclass(frozen=True)
class Analysis:
    """One matrix's VAT or SpecVAT result: the ordering and its image.

    ``embedding`` (the n x k unit rows whose distances were ordered) and
    ``k`` are set for SpecVAT only; ``k_scores`` only when the scan picked
    k.  A SpecVAT image is a view of the input's buffer.
    """

    ordering: VatOrdering
    image: np.ndarray
    k_scores: dict | None = None
    embedding: np.ndarray | None = None

    @property
    def k(self) -> int | None:
        """SpecVAT's eigenvector count, the embedding's width."""
        return None if self.embedding is None else self.embedding.shape[1]


def vat_order(m) -> VatOrdering:
    """Reorder a dissimilarity matrix so similar records become neighbours."""
    return _vat_order(check_dissim(m))


def _vat_order(d: np.ndarray) -> VatOrdering:
    # The first occurrence of the maximum in row-major scan order is the
    # lexicographically smallest (i, j) pair; its row index is the smaller
    # endpoint because the mirror entry (j, i) appears later.
    n = d.shape[0]
    return _prim(n, int(np.argmax(d)) // n, d.__getitem__)


def _prim(n: int, start: int, row) -> VatOrdering:
    # VAT's order from record start on, where row(i) is row i of the
    # dissimilarity matrix (a view or a new array), read once per step.
    order = np.empty(n, dtype=np.int64)
    link = np.zeros(n, dtype=np.float64)
    order[0] = start
    if n == 1:
        return VatOrdering(order, link)

    # placed[i] is inf once record i is ordered, else -inf: a maximum with
    # it keeps placed records out of the frontier and leaves every other
    # entry's bits alone, without a boolean-mask write per step.
    placed = np.full(n, -np.inf)
    placed[start] = np.inf
    best = np.array(row(start))
    best[start] = np.inf
    for t in range(1, n):
        nxt = int(np.argmin(best))  # first occurrence = smallest index on ties
        order[t] = nxt
        link[t] = best[nxt]
        placed[nxt] = np.inf
        np.minimum(best, row(nxt), out=best)
        np.maximum(best, placed, out=best)
    return VatOrdering(order, link)


def odi_from(m, ordering: VatOrdering) -> np.ndarray:
    """Render the reordered matrix as an 8-bit image (0 black .. 255 white).

    Pixels are ``round(255 * d / dmax)`` with round-half-away-from-zero; a
    zero-range matrix renders all black.
    """
    d = check_dissim(m)
    return _odi(d, check_permutation(ordering.order, d.shape[0]))


def _odi(d: np.ndarray, order: np.ndarray) -> np.ndarray:
    n = d.shape[0]
    # Whole rows, then columns: cheaper than np.ix_'s 2-D gather.  A
    # permutation keeps the maximum.  mode="clip" changes no index of a
    # checked permutation, and spares take's copy of out (mode="raise"
    # always buffers it).
    return _draw(np.empty((n, n), dtype=np.uint8), d.max(),
                 lambda rows, out: np.take(d, order[rows], axis=0, out=out,
                                           mode="clip"),
                 order)


def _draw(img: np.ndarray, dmax: float, fill_rows, cols=None) -> np.ndarray:
    # Fills the n x n uint8 img band by band and returns it.  fill_rows(rows,
    # out) writes a band of the matrix's rows into the float64 out and
    # returns it, in the image's column order or, when cols is given, in the
    # order that cols permutes into it, which is applied to the band's
    # pixels.  dmax is the matrix's maximum; a zero-range matrix renders
    # all black.  One float64 band and one uint8 band serve every band: a
    # fresh 1 MiB array per band is mapped and page-faulted each time.
    if dmax <= 0:
        img.fill(0)
        return img
    n = img.shape[0]
    height = next(bands(n)).stop
    band = np.empty((height, n))
    pixels = np.empty((height, n), dtype=np.uint8) if cols is not None else None
    for rows in bands(n):
        h = rows.stop - rows.start
        x = _quantize(fill_rows(rows, band[:h]), dmax)
        if cols is None:
            img[rows] = x
        else:
            pixels[:h] = x
            np.take(pixels[:h], cols, axis=1, out=img[rows], mode="clip")
    return img


def _quantize(x: np.ndarray, dmax: float) -> np.ndarray:
    # The pixel rule, in place: floor(255 * x / dmax + 0.5) in that order,
    # which is round-half-away-from-zero for nonnegative x.
    x *= 255.0
    x /= dmax
    x += 0.5
    return np.floor(x, out=x)


def check_image(img) -> np.ndarray:
    x = np.asarray(img)
    if x.ndim != 2 or x.size == 0:
        raise InputError(f"image must be a nonempty 2-D array, got shape {x.shape}")
    if x.dtype != np.uint8:
        if not np.issubdtype(x.dtype, np.integer):
            raise InputError(f"image must be integer-typed, got {x.dtype}")
        if x.min() < 0 or x.max() > 255:
            raise InputError("image intensities must lie in [0, 255]")
        x = x.astype(np.uint8)
    return x


def write_pgm(img, path) -> None:
    """Write a binary PGM (P5, maxval 255), atomically, without copying it."""
    with naming(path):
        x = np.ascontiguousarray(check_image(img))
        h, w = x.shape
        atomic_write_bytes(path, [f"P5\n{w} {h}\n255\n".encode("ascii"),
                                  x.reshape(-1)])


def read_pgm(path) -> np.ndarray:
    return read_file(path, "PGM file", parse_pgm)


def parse_pgm(data: bytes) -> np.ndarray:
    pos = 0
    fields = []
    if not data.startswith(b"P5"):
        raise InputError("not a binary PGM (missing P5 magic)")
    pos = 2
    # Header tokens may be separated by whitespace and '#' comments.
    while len(fields) < 3:
        while pos < len(data) and data[pos : pos + 1].isspace():
            pos += 1
        if pos < len(data) and data[pos : pos + 1] == b"#":
            while pos < len(data) and data[pos : pos + 1] != b"\n":
                pos += 1
            continue
        tok = b""
        while pos < len(data) and not data[pos : pos + 1].isspace():
            tok += data[pos : pos + 1]
            pos += 1
        if not tok:
            raise InputError("truncated PGM header")
        fields.append(tok)
    if not all(f.isdigit() for f in fields):  # int() takes "-1", "+1", "1_0"
        raise InputError(f"malformed PGM header fields {fields}")
    w, h, maxval = (int(f) for f in fields)
    if maxval != 255:
        raise InputError(f"unsupported PGM maxval {maxval}")
    pos += 1  # exactly one whitespace byte after maxval
    payload = data[pos:]
    if len(payload) != w * h:
        raise InputError(
            f"PGM payload is {len(payload)} bytes, expected {w * h}"
        )
    return np.frombuffer(payload, dtype=np.uint8).reshape(h, w).copy()


def ordering_to_json(ordering: VatOrdering) -> str:
    return json.dumps(
        {
            "order": [int(i) for i in ordering.order],
            "link_dist": [float(v) for v in ordering.link_dist],
        }
    )


def ordering_from_json(text: str | bytes) -> VatOrdering:
    try:
        doc = json.loads(text)
        order = doc["order"]
        # VatOrdering's int64 cast would truncate 1.5 to 1 and read true as 1.
        if not all(type(i) is int for i in order):
            raise ValueError("order entries must be integers")
        ordering = VatOrdering(np.asarray(order), np.asarray(doc["link_dist"]))
    except (ValueError, KeyError, TypeError, OverflowError) as exc:
        raise InputError(f"malformed ordering JSON: {exc}") from exc
    if not len(ordering):  # no stack or image has a record to show
        raise InputError("ordering has no records")
    check_permutation(ordering.order, len(ordering))
    link = ordering.link_dist
    bad = np.flatnonzero(~((link >= 0) & (link < np.inf)))  # NaN fails both
    if bad.size:
        raise InputError(f"link_dist[{bad[0]}] is {link[bad[0]]}; link "
                         "distances must be finite and nonnegative")
    return ordering


def read_ordering(path) -> VatOrdering:
    return read_file(path, "ordering file", ordering_from_json)
