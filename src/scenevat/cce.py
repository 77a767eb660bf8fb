"""Cluster count extraction from an ordered dissimilarity image.

The image is binarized with Otsu's threshold, the band of pixels directly
below the diagonal is reduced to a per-column dark count, and the number of
maximal runs above a cutoff is reported as the cluster count.  The cutoff is
half the signal maximum, or ``CceConfig.explicit_b`` when given.
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
class CceConfig:
    """band_width defaults to max(1, n // 50) when left as None.

    explicit_b, when given, replaces the cutoff of half the signal maximum;
    0 counts every run of nonzero signal.
    """

    band_width: Optional[int] = None
    explicit_b: Optional[int] = None

    def resolve_band(self, n: int) -> int:
        w = self.band_width if self.band_width is not None else max(1, n // 50)
        if not 1 <= w <= n - 1:
            raise InputError(f"band width {w} must satisfy 1 <= w <= n-1 (n={n})")
        return int(w)

    def __post_init__(self):
        if self.band_width is not None and self.band_width < 1:
            raise InputError(f"band_width must be >= 1, got {self.band_width}")
        if self.explicit_b is not None and self.explicit_b < 0:
            raise InputError(f"explicit_b must be >= 0, got {self.explicit_b}")


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

    A pixel is "dark" iff its intensity is <= the returned threshold.  The
    search is exhaustive over all 256 split points and the comparison is
    done in exact integer arithmetic, so plateaus resolve deterministically.
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
    # total variance is (N*Q - S^2) / N^2; compare candidates and form the
    # ratio with Python ints (exact), then divide once.
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

    best_t = -1
    best_num = -1
    best_den = 1
    for t in range(256):
        c0 = int(counts[t])
        c1 = total_n - c0
        if c0 == 0 or c1 == 0:
            continue
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
    if n != x.shape[1]:
        raise InputError(f"expected a square image, got {x.shape}")
    signal = np.zeros(n - w, dtype=np.int64)
    for u in range(1, w + 1):
        signal += np.diagonal(x, offset=-u)[: n - w] <= t
    return signal


def cce_count(img, cfg: CceConfig = CceConfig()) -> CceReport:
    """Binarize, extract the sub-diagonal signal, and count runs above b.

    ``b`` is floor(max(signal) / 2), or ``cfg.explicit_b`` when given.
    Blocks smaller than ``band_width + 1`` records can be missed; the
    report carries that limit as ``min_detectable_block``.
    """
    x = check_image(img)
    t = _otsu(_histogram(x))[0]
    w = cfg.resolve_band(x.shape[0])
    signal = _signal(x, t, w)
    peak = int(signal.max(initial=0))

    b = peak // 2 if cfg.explicit_b is None else int(cfg.explicit_b)

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
