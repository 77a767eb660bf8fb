"""Cluster count extraction from an ordered dissimilarity image.

The image is binarized with Otsu's threshold, the band of pixels directly
below the diagonal is reduced to a per-column dark count, and the number of
maximal runs above a cutoff is reported as the cluster count.  The cutoff is
half the signal maximum, or ``cce_count``'s ``b`` when given.
"""

from __future__ import annotations

import json
import warnings
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import DegenerateImageError, InputError
from .matrix import chunks
from .vat import _quantize, check_image


@dataclass(frozen=True)
class CceReport:
    otsu_threshold: int
    signal: np.ndarray
    b: int
    cluster_count: int
    run_spans: list  # half-open [start, stop) column intervals
    band_width: int
    min_detectable_block: int

    def to_json(self) -> str:
        return json.dumps(
            {
                "otsu_threshold": self.otsu_threshold,
                "b": self.b,
                "cluster_count": self.cluster_count,
                "band_width": self.band_width,
                "min_detectable_block": self.min_detectable_block,
                "run_spans": [[int(a), int(b)] for a, b in self.run_spans],
                "signal": [int(v) for v in self.signal],
            },
            sort_keys=True,
        )


def otsu_threshold(img) -> int:
    """Threshold maximizing between-class variance; smallest value on ties.

    A pixel is "dark" iff its intensity is <= the returned threshold.  All
    256 split points are screened, and the best are compared in exact
    integer arithmetic, so plateaus resolve deterministically.
    """
    return _otsu(_histogram(check_image(img)))[0]


def otsu_effectiveness(img) -> float:
    """Between-class over total variance at the Otsu threshold, in [0, 1].

    1.0 means the histogram splits into two zero-variance classes (a
    perfectly binary image).  The ratio is exact, read from the 256-bin
    histogram alone and rounded once, so any permutation of the pixels
    gives the same float.  Raises DegenerateImageError on constant images.
    """
    return _otsu(_histogram(check_image(img)))[1]


def _otsu(hist: np.ndarray) -> tuple[int, float]:
    # Between-class variance is (s0*c1 - s1*c0)^2 / (N^2 * c0 * c1) and the
    # total variance is (N*Q - S^2) / N^2.  Every threshold's ratio is
    # screened in float64; the candidates within a relative 1e-9 of the
    # float maximum are then compared, and the ratio formed, with Python
    # ints (exact) and divided once.  A split's class means differ by at
    # least 1 and lie in [0, 255], so the float s0*c1 - s1*c0 is off by at
    # most about 256 times float64's epsilon, relatively, and every exact
    # maximum is a candidate.
    if np.count_nonzero(hist) < 2:
        raise DegenerateImageError(
            "image has a single intensity level; no Otsu threshold exists"
        )
    levels = np.arange(256, dtype=np.int64)
    counts = np.cumsum(hist)
    sums = np.cumsum(hist * levels)
    total_n = int(counts[-1])
    total_s = int(sums[-1])
    total_q = int((hist * levels * levels).sum())

    ts = np.flatnonzero((counts > 0) & (counts < total_n))  # both classes
    fc0, fs0 = counts[ts].astype(np.float64), sums[ts].astype(np.float64)
    ratio = ((fs0 * (total_n - fc0) - (total_s - fs0) * fc0) ** 2
             / (fc0 * (total_n - fc0)))
    best_t = -1
    best_num = -1
    best_den = 1
    for t in ts[ratio >= ratio.max() * (1 - 1e-9)].tolist():
        c0 = int(counts[t])
        c1 = total_n - c0
        s0 = int(sums[t])
        s1 = total_s - s0
        num = (s0 * c1 - s1 * c0) ** 2
        den = c0 * c1
        if num * best_den > best_num * den:
            best_t, best_num, best_den = t, num, den
    n2_total_var = total_n * total_q - total_s * total_s
    return best_t, best_num / (best_den * n2_total_var)


def _histogram(x: np.ndarray) -> np.ndarray:
    # The 256-bin histogram of an integer-valued array in [0, 255], in
    # chunks: bincount casts its input to intp, 8 bytes per entry.
    flat = x.reshape(-1)
    hist = np.zeros(256, dtype=np.int64)
    for c in chunks(flat.size):
        hist += np.bincount(flat[c].astype(np.intp), minlength=256)
    return hist


def _pixel_histogram(condensed: np.ndarray, n: int) -> np.ndarray:
    # The 256-bin histogram of the ODI, in any order, of the n x n matrix
    # whose strict upper triangle is condensed (pdist's layout): each entry
    # is two pixels and the zero diagonal n more.  Overwrites condensed.
    dmax = condensed.max(initial=0.0)
    if dmax > 0:  # a zero-range matrix renders all black
        _quantize(condensed, dmax)
    hist = 2 * _histogram(condensed)
    hist[0] += n
    return hist


def _signal(x: np.ndarray, t: int, w: int) -> np.ndarray:
    # Per-column dark-pixel count over the band just below the diagonal:
    # signal[i] counts pixels <= t among (i+1, i) .. (i+w, i), for i in
    # [0, n-1-w]; values lie in [0, w].
    n = x.shape[0]
    signal = np.zeros(n - w, dtype=np.int64)
    for u in range(1, w + 1):
        signal += np.diagonal(x, offset=-u)[: n - w] <= t
    return signal


def _check_cutoffs(band_width: Optional[int], b: Optional[int]) -> None:
    # The bounds that need no image: ``scenevat cce`` checks its flags
    # with this before it reads the image.
    if band_width is not None and band_width < 1:
        raise InputError(f"band_width must be >= 1, got {band_width}")
    if b is not None and b < 0:
        raise InputError(f"b must be >= 0, got {b}")


def cce_count(img, *, band_width: Optional[int] = None,
              b: Optional[int] = None) -> CceReport:
    """Binarize, extract the sub-diagonal signal, and count runs above b.

    The image must be square.  The band is ``band_width`` pixels below
    the diagonal, max(1, n // 50) when None, and must satisfy
    1 <= band_width <= n-1.  Both are checked before Otsu, so a malformed
    image of one intensity raises InputError.  The cutoff ``b``
    is floor(max(signal) / 2) when None; 0 counts every run of nonzero
    signal, and a negative ``b`` raises InputError.  Blocks smaller than
    ``band_width + 1`` records can be missed; the report carries that limit
    as ``min_detectable_block``.
    """
    _check_cutoffs(band_width, b)
    x = check_image(img)
    n = x.shape[0]
    if n != x.shape[1]:
        raise InputError(f"expected a square image, got {x.shape}")
    w = max(1, n // 50) if band_width is None else int(band_width)
    if not 1 <= w <= n - 1:
        raise InputError(f"band width {w} must satisfy 1 <= w <= n-1 (n={n})")
    t = _otsu(_histogram(x))[0]
    signal = _signal(x, t, w)
    peak = int(signal.max(initial=0))

    b = peak // 2 if b is None else int(b)

    if peak == 0:
        warnings.warn(
            "sub-diagonal signal is identically zero; reporting 0 clusters",
            stacklevel=2,
        )
    spans = _runs_above(signal, b)
    return CceReport(
        otsu_threshold=t,
        signal=signal,
        b=b,
        cluster_count=len(spans),
        run_spans=spans,
        band_width=w,
        min_detectable_block=w + 1,
    )


def _runs_above(signal: np.ndarray, b: int) -> list[tuple[int, int]]:
    # The runs of signal > b as half-open spans: in the zero-padded mask,
    # each rise starts a run and the fall after it ends one.
    mask = np.zeros(signal.size + 2, dtype=np.int8)
    mask[1:-1] = signal > b
    edges = np.flatnonzero(np.diff(mask)).tolist()
    return list(zip(edges[::2], edges[1::2]))
