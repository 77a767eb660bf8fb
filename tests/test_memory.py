"""Memory budgets of one analysis, measured with tracemalloc (no timing).

Each n x n pass of ``analyze`` runs in place or in row bands, so the peak
of ``analyze`` plus ``cce_count`` stays a fixed fraction of the input's
8 n^2 bytes: at n = 1536 about 0.46 (VAT), 1.46 (SpecVAT with an explicit
k) and 1.46 (SpecVAT with the k scan) times the input.  The copying
implementation peaked at about 1.13 (VAT) and 3.03 (explicit k); a k scan
that kept a copy of the distances and the best result so far, and scored
each image through a float64 copy, peaked at 5.39.
"""

import tracemalloc

import pytest

from scenevat.cce import cce_count
from scenevat.matrix import euclidean_dissim
from scenevat.report import analyze
from scenevat.specvat import SpecVatConfig
from scenevat.synth import BlobSpec, gaussian_blobs

N = 1536


@pytest.fixture(scope="module")
def blobs():
    return euclidean_dissim(gaussian_blobs(BlobSpec(4, N // 4, 16, 4.0, seed=1))[0])


@pytest.mark.parametrize("method, k, budget", [
    ("vat", None, 0.75),
    ("specvat", 4, 1.75),
    ("specvat", None, 1.75),
])
def test_analysis_peak_within_budget(blobs, method, k, budget):
    tracemalloc.start()
    try:
        result = analyze(blobs, method, SpecVatConfig(), k=k)
        cce_count(result.image)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= budget * blobs.nbytes, f"peak {peak / blobs.nbytes:.2f} x input"


@pytest.mark.filterwarnings("ignore::UserWarning")
@pytest.mark.parametrize("method, k", [("vat", None), ("specvat", 3), ("specvat", None)])
def test_analyze_leaves_its_input_unchanged(method, k):
    d = euclidean_dissim(gaussian_blobs(BlobSpec(3, 100, 8, 4.0, seed=2))[0])
    before = d.copy()
    analyze(d, method, SpecVatConfig(), k=k)
    assert d.tobytes() == before.tobytes()
