"""Synthetic data with known cluster structure, for oracles and demos.

Generators are pure functions of their seed.  Randomness comes from numpy's
Philox 4x64 counter-based bit generator, so fixtures are reproducible from
the documented (generator, seed) pair alone.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InputError
from .matrix import DISSIM_LIMIT

# The largest sep * sigma and sigma * sqrt(dim).  numpy's normal draws stay
# below 14 in magnitude, so two points lie at most sqrt(2) sep sigma + 28
# sigma sqrt(dim) < 3e153 apart: below the 1.3e154 past which a distance
# overflows when squared.
_SCALE_LIMIT = 1e152


@dataclass(frozen=True)
class BlobSpec:
    clusters: int
    n_per: int
    dim: int
    sep: float
    sigma: float = 1.0
    seed: int = 0

    def __post_init__(self):
        if self.clusters < 1:
            raise InputError(f"clusters must be >= 1, got {self.clusters}")
        if self.n_per < 1:
            raise InputError(f"n_per must be >= 1, got {self.n_per}")
        if self.dim < 1:
            raise InputError(f"dim must be >= 1, got {self.dim}")
        if not 0 <= self.sep < np.inf:
            raise InputError(f"sep must be finite and >= 0, got {self.sep}")
        if not 0 < self.sigma < np.inf:
            raise InputError(f"sigma must be finite and positive, got {self.sigma}")
        if not self.sep * self.sigma < _SCALE_LIMIT:
            raise InputError(f"sep * sigma must be below {_SCALE_LIMIT:g}, got "
                             f"{self.sep * self.sigma:g}")
        if not self.sigma * np.sqrt(self.dim) < _SCALE_LIMIT:
            raise InputError(f"sigma * sqrt(dim) must be below {_SCALE_LIMIT:g}, "
                             f"got {self.sigma * np.sqrt(self.dim):g}")
        if self.clusters > self.dim:
            raise InputError(
                f"cannot place {self.clusters} axis-aligned centers in "
                f"{self.dim} dimensions; need dim >= clusters"
            )


def blob_centers(spec: BlobSpec) -> np.ndarray:
    """One center per cluster, on the coordinate axes at radius sep*sigma.

    Pairwise center distance is sep*sigma*sqrt(2), so the guarantee is
    "at least sep*sigma apart" with slack; the slack keeps the clusters
    resolvable in higher dimensions, where within-cluster spread grows
    like sigma*sqrt(2*dim).
    """
    scale = spec.sep * spec.sigma
    centers = np.zeros((spec.clusters, spec.dim))
    centers[np.arange(spec.clusters), np.arange(spec.clusters)] = scale
    return centers


def gaussian_blobs(spec: BlobSpec) -> tuple[np.ndarray, np.ndarray]:
    """Isotropic Gaussian clusters; returns (features, integer labels)."""
    centers = blob_centers(spec)
    labels = np.repeat(np.arange(spec.clusters), spec.n_per)
    rng = np.random.Generator(np.random.Philox(key=spec.seed))
    noise = rng.normal(0.0, spec.sigma, size=(labels.size, spec.dim))
    return centers[labels] + noise, labels


def block_dissim(sizes, within: float, between: float) -> np.ndarray:
    """Ideal block-diagonal dissimilarity matrix with a zero diagonal."""
    sizes = [int(s) for s in np.atleast_1d(sizes)]
    if not sizes:
        raise InputError("sizes must be a nonempty sequence")
    if any(s < 1 for s in sizes):
        raise InputError(f"every block size must be >= 1, got {sizes}")
    if not between < DISSIM_LIMIT:
        raise InputError(f"between must be below {DISSIM_LIMIT}, got {between}")
    if within < 0:
        raise InputError(f"within must be >= 0, got {within}")
    # So within is finite too, and every entry a valid dissimilarity.
    if not within < between:
        raise InputError(
            f"within ({within}) must be strictly less than between ({between})"
        )
    n = sum(sizes)
    out = np.full((n, n), float(between))
    start = 0
    for s in sizes:
        out[start : start + s, start : start + s] = within
        start += s
    np.fill_diagonal(out, 0.0)
    return out
