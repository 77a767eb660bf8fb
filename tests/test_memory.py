"""Memory budgets of one analysis, measured with tracemalloc (no timing).

Each n x n pass of ``analyze`` runs in place or in row bands, and SpecVAT
works in the buffer of its input, so the peak of ``analyze`` plus
``cce_count`` stays a fixed fraction of the input's 8 n^2 bytes.  At
n = 1536, where ARPACK solves, that is about 0.46 (VAT), 0.46 (SpecVAT
with an explicit k) and 0.68 (SpecVAT with the k scan, whose condensed
distances are 0.5) times the input.  Where evr solves (eigsh cannot be
seeded, as in scipy 1.10), it works in a copy of the matrix: about 1.03
for SpecVAT.  A whole ``run_report`` subset holds its distances too, one
n x n buffer from the distance build to the image: about 1.46 (explicit
k) and 1.68 (scan) with ARPACK.  A SpecVAT with its own affinity buffer
peaked at 1.46 in ``analyze`` and 2.46 in ``run_report``; the copying
implementation at about 1.13 (VAT) and 3.03 (explicit k) in ``analyze``;
a k scan that kept a copy of the distances and the best result so far,
and scored each image through a float64 copy, at 5.39.
"""

import tracemalloc

import numpy as np
import pytest

from scenevat import specvat
from scenevat.cce import cce_count
from scenevat.manifest import CITIES, SCENES, parse_manifest
from scenevat.matrix import euclidean_dissim
from scenevat.report import analyze, run_report
from scenevat.specvat import SpecVatConfig
from scenevat.synth import BlobSpec, gaussian_blobs

N = 1536
ARPACK_SOLVES = specvat._SEEDABLE_ARPACK and N >= specvat.ARPACK_MIN_N


@pytest.fixture(scope="module")
def blob_features():
    return gaussian_blobs(BlobSpec(4, N // 4, 16, 4.0, seed=1))


@pytest.fixture(scope="module")
def blobs(blob_features):
    return euclidean_dissim(blob_features[0])


def _peak(fn):
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("method, k, budget", [
    ("vat", None, 0.75),
    ("specvat", 4, 0.6 if ARPACK_SOLVES else 1.75),
    ("specvat", None, 0.8 if ARPACK_SOLVES else 1.75),
])
def test_analysis_peak_within_budget(blobs, method, k, budget):
    d = blobs.copy()  # SpecVAT overwrites its input

    def run():
        cce_count(analyze(d, method, SpecVatConfig(), k=k).image)

    peak = _peak(run)
    assert peak <= budget * d.nbytes, f"peak {peak / d.nbytes:.2f} x input"


@pytest.mark.filterwarnings("ignore::UserWarning")
@pytest.mark.parametrize("k, budget", [
    (4, 1.6 if ARPACK_SOLVES else 2.25),
    (None, 1.8 if ARPACK_SOLVES else 2.25),
])
def test_run_report_specvat_holds_one_matrix(tmp_path, blob_features, k, budget):
    # One subset of N records: its distances, written to dissim.vatf, are
    # the buffer that SpecVAT then works in.
    feats, labels = blob_features
    lines = ["path,scene,city"] + [
        f"c{i}.wav,{SCENES[lab]},{CITIES[i % len(CITIES)]}"
        for i, lab in enumerate(labels)
    ]
    manifest = parse_manifest("\n".join(lines) + "\n")
    peak = _peak(lambda: run_report(manifest, feats, "all", str(tmp_path),
                                    method="specvat", k=k))
    matrix = 8 * N * N
    assert peak <= budget * matrix, f"peak {peak / matrix:.2f} x one matrix"


@pytest.mark.parametrize("method, k", [("vat", None)])
def test_analyze_leaves_its_input_unchanged(method, k):
    d = euclidean_dissim(gaussian_blobs(BlobSpec(3, 100, 8, 4.0, seed=2))[0])
    before = d.copy()
    analyze(d, method, SpecVatConfig(), k=k)
    assert d.tobytes() == before.tobytes()


@pytest.mark.filterwarnings("ignore::UserWarning")
@pytest.mark.parametrize("k", [3, None])
def test_analyze_specvat_leaves_d_prime_in_its_input(k):
    d = euclidean_dissim(gaussian_blobs(BlobSpec(3, 100, 8, 4.0, seed=2))[0])
    result = analyze(d, "specvat", SpecVatConfig(), k=k)
    assert np.shares_memory(result.d_prime, d)
