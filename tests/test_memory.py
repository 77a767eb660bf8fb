"""Memory budgets of one analysis, measured with tracemalloc (no timing).

Each n x n pass of ``analyze`` runs in place or in row bands of about
``BAND_BYTES``, and SpecVAT works in the buffer of its input, image
included: it packs the input's upper triangle into the buffer's first
half and works there.  So the peak of ``analyze`` plus ``cce_count``
stays a fixed fraction of the input's 8 n^2 bytes.  At n = 1536, where
ARPACK solves, that is about 0.24 (VAT: its image is 0.125), 0.07
(SpecVAT with an explicit k) and 0.07 (SpecVAT with the k scan, which
writes each candidate's condensed distances into the triangle once its
spectrum is solved) times the input.  Where evr solves (eigsh cannot be
seeded, as in scipy 1.10), it solves a square unpacked from the triangle:
about 1.03 for SpecVAT.  A whole ``run_report`` subset builds the packed
triangle from the features, n(n+1)/2 floats, and writes the n x k
``embedding.vatf``: about 0.63 of one n x n matrix with ARPACK (explicit
k and scan alike), as when it streamed the triangle's rows into an n x n
``dissim.vatf`` band by band; ``scenevat specvat --features`` builds the
same triangle and writes the same file, about 0.64, and ``scenevat
specvat --dissim`` about 1.16; both peaked the same when they streamed
the n x n embedded distances into ``d_prime.vatf`` in bands.  A specvat
of features that built the square distances, packed them in place and
built those distances whole peaked at 1.12.
The mel filterbank is built in its result with one temporary of its
size: about 2.1 times the filterbank, against 4.0.  The resampler's
kernel table is built in place in blocks of rows: about 1.1 times the
table, against 5.0.  The audio front end
holds each clip once per stage: about 1.6 times a
clip's float64 samples at 48 kHz, against 4.6 for full-length copies of
the decode, the padded input of the resampler and the STFT's frames and
spectrum.  A subset that held
the square distance matrix as its one buffer peaked at 1.11; a scan that
gave each candidate its own condensed distances (0.5) and tested for a
constant matrix with an n x n mask (0.125) at 0.57 in ``analyze`` and
1.57 in ``run_report``.  A SpecVAT that drew its image into a separate
array, with bands of 256 rows, peaked at 0.46 and 0.68 in ``analyze`` and
1.46 and 1.68 in ``run_report``; one with its own affinity buffer at 1.46
in ``analyze`` and 2.46 in ``run_report``; the copying implementation at
about 1.13 (VAT) and 3.03 (explicit k) in ``analyze``; a k scan that kept
a copy of the distances and the best result so far, and scored each image
through a float64 copy, at 5.39.
"""

import tracemalloc

import numpy as np
import pytest
from scipy.spatial.distance import cdist, pdist, squareform

from scenevat import audio, specvat
from scenevat.audio import N_FFT, N_MELS, extract_features, mel_filterbank
from scenevat.cce import cce_count
from scenevat.cli import main
from scenevat.manifest import CITIES, SCENES, parse_manifest
from scenevat.matrix import euclidean_dissim
from scenevat.report import analyze, run_report
from scenevat.synth import gaussian_blobs
from scenevat.vat import odi_from, vat_order
from scenevat.vatf import write_vatf

from conftest import make_wav

N = 1536
ARPACK_SOLVES = specvat._SEEDABLE_ARPACK and N >= specvat.ARPACK_MIN_N


@pytest.fixture(scope="module")
def blob_features():
    return gaussian_blobs(4, N // 4, 16, 4.0, seed=1)


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
    ("specvat", 4, 0.1 if ARPACK_SOLVES else 1.75),
    ("specvat", None, 0.1 if ARPACK_SOLVES else 1.75),
])
def test_analysis_peak_within_budget(blobs, method, k, budget):
    d = blobs.copy()  # SpecVAT overwrites its input

    def run():
        cce_count(analyze(d, method, k=k).image)

    peak = _peak(run)
    assert peak <= budget * d.nbytes, f"peak {peak / d.nbytes:.2f} x input"


@pytest.mark.filterwarnings("ignore::UserWarning")
@pytest.mark.parametrize("k, budget", [
    (4, 0.65 if ARPACK_SOLVES else 2.25),
    (None, 0.65 if ARPACK_SOLVES else 2.25),
])
def test_run_report_specvat_holds_one_matrix(tmp_path, blob_features, k, budget):
    # One subset of N records: the packed triangle of its distances, whose
    # local scales are read from each band of rows as it is built, is the
    # buffer that SpecVAT then works in.  No n x n float64 array exists
    # with ARPACK, and the subset writes the n x k embedding.vatf.
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


@pytest.mark.parametrize("budget", [1.25 if ARPACK_SOLVES else 2.25])
def test_cli_specvat_holds_one_matrix(tmp_path, blobs, budget):
    # The image views the matrix's buffer: about 1.16 with ARPACK (the
    # check's bands), 1.47 when the embedded distances lived in the buffer
    # beside a separate image.
    write_vatf(tmp_path / "d.vatf", blobs)
    peak = _peak(lambda: main(["specvat", "--dissim", str(tmp_path / "d.vatf"),
                               "--k", "4", "--out", str(tmp_path / "out")]))
    matrix = blobs.nbytes
    assert peak <= budget * matrix, f"peak {peak / matrix:.2f} x one matrix"


@pytest.mark.parametrize("k", [4, None])
def test_cli_specvat_features_holds_the_packed_triangle(tmp_path, blob_features, k):
    # The packed triangle and the local scales, built from the features as
    # a report subset builds them, and the n x k embedding.vatf.
    write_vatf(tmp_path / "f.vatf", blob_features[0])
    argv = ["specvat", "--features", str(tmp_path / "f.vatf"),
            "--out", str(tmp_path / "out")]
    if k is not None:
        argv += ["--k", str(k)]
    peak = _peak(lambda: main(argv))
    budget = 0.75 if ARPACK_SOLVES else 2.25
    matrix = 8 * N * N
    assert peak <= budget * matrix, f"peak {peak / matrix:.2f} x one matrix"


def test_extract_features_holds_each_clip_once_per_stage():
    # The paper's format: 10 s at 48 kHz in 24-bit stereo.  The peak is the
    # resampler's input and output, or the STFT's clip and power matrix,
    # plus buffers of about BUFFER_BYTES.
    rate = 48000
    rng = np.random.Generator(np.random.Philox(key=24))
    frames = rng.integers(-(2**23), 2**23 - 1, size=(10 * rate, 2), endpoint=True)
    data = make_wav(frames, rate, bits=24)
    extract_features(data)  # the kernel table and filterbank, cached once
    clip = 8 * len(frames)  # the decoded clip's float64 samples
    peak = _peak(lambda: extract_features(data))
    assert peak <= 2 * clip, f"peak {peak / clip:.2f} x the decoded clip"


def test_mel_filterbank_holds_its_result_and_one_temporary():
    # The rising slopes are built in the result and the falling ones in one
    # temporary of its size: about 2.1 times the filterbank, against 4.0
    # when each step made a new array.
    size = 8 * N_MELS * (N_FFT // 2 + 1)
    peak = _peak(mel_filterbank.__wrapped__)  # past the cache
    assert peak <= 2.5 * size, f"peak {peak / size:.2f} x the filterbank"


def test_resample_kernel_table_is_built_in_place():
    # 44101 -> 22050 Hz: 22050 phases of 131 taps, 22.0 MiB, within
    # MAX_KERNEL_TABLE_BYTES.  Its rows are built in blocks of about
    # BUFFER_BYTES: about 1.1 times the table, against 5.0 when the offsets,
    # the window and the tap sums' two all-ones copies of the table were
    # whole arrays.
    table = 8 * 22050 * (2 * audio._kernel_radius(44101, 22050) + 1)
    peak = _peak(lambda: audio._phase_kernels.__wrapped__(44101, 22050, 22050))
    assert peak <= 1.25 * table, f"peak {peak / table:.2f} x the table"


@pytest.mark.parametrize("method, k", [("vat", None)])
def test_analyze_leaves_its_input_unchanged(method, k):
    d = euclidean_dissim(gaussian_blobs(3, 100, 8, 4.0, seed=2)[0])
    before = d.copy()
    analyze(d, method, k=k)
    assert d.tobytes() == before.tobytes()


@pytest.mark.filterwarnings("ignore::UserWarning")
@pytest.mark.parametrize("k", [3, None])
def test_analyze_specvat_draws_its_image_in_its_input(k):
    d = euclidean_dissim(gaussian_blobs(3, 100, 8, 4.0, seed=2)[0])
    result = analyze(d, "specvat", k=k)
    assert np.shares_memory(result.image, d)
    want = squareform(pdist(result.embedding))
    assert cdist(result.embedding, result.embedding).tobytes() == want.tobytes()


def test_public_renderers_leave_their_input_unchanged():
    d = euclidean_dissim(gaussian_blobs(3, 100, 8, 4.0, seed=2)[0])
    before = d.copy()
    images = [odi_from(d, vat_order(d)), specvat.specvat(d, 3).image]
    assert d.tobytes() == before.tobytes()
    assert not any(np.shares_memory(img, d) for img in images)
