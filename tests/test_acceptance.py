"""End-to-end acceptance gate.

Each test checks one numbered behavioural guarantee at a fixed tolerance and
emits a single PASS/FAIL line; the lines are echoed in the terminal summary.
Criterion 9 is an optional dataset-scale experiment and never gates.
"""

import json
import os
import time

import numpy as np
import pytest
from scipy.spatial.distance import cdist

import conftest
from conftest import random_dissim, sine
from scenevat.audio import AudioClip, log_mel_mean, resample, stft_power
from scenevat.cce import cce_count, otsu_threshold
from scenevat.cli import main
from scenevat.manifest import CITIES, SCENES, read_manifest, scan_dcase_tree
from scenevat.matrix import euclidean_dissim, permute_matrix
from scenevat.specvat import a_specvat_select_k, specvat, sym_eigen_topk
from scenevat.synth import block_dissim, gaussian_blobs
from scenevat.vat import odi_from, vat_order
from scenevat.vatf import write_vatf

from test_cce import otsu_oracle
from test_vat import kruskal_weight, prim_oracle


def record(num, ok, detail):
    line = f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {detail}"
    print(line)
    conftest.ACCEPTANCE_LINES.append(line)
    assert ok, line


def test_acceptance_1_vat_matches_prim_oracle():
    rng = np.random.Generator(np.random.Philox(key=11))
    t0 = time.perf_counter()
    mismatches = 0
    for _ in range(500):
        n = int(rng.integers(2, 65))
        m = random_dissim(rng, n)
        got = vat_order(m)
        order, link = prim_oracle(m.tolist())
        if got.order.tolist() != order or not np.allclose(
            got.link_dist, link, atol=0.0
        ):
            mismatches += 1
    elapsed = time.perf_counter() - t0
    record(
        1,
        mismatches == 0 and elapsed < 10.0,
        f"500 matrices, {mismatches} mismatches, {elapsed:.2f} s",
    )


def test_acceptance_2_link_sum_is_mst_weight():
    rng = np.random.Generator(np.random.Philox(key=12))
    worst = 0.0
    for _ in range(200):
        n = int(rng.integers(2, 10))
        m = random_dissim(rng, n)
        got = float(vat_order(m).link_dist.sum())
        worst = max(worst, abs(got - kruskal_weight(m.tolist())))
    record(2, worst <= 1e-12, f"200 instances, max |diff| = {worst:.2e}")


def test_acceptance_3_otsu_matches_exhaustive_search():
    rng = np.random.Generator(np.random.Philox(key=13))
    mismatches = 0
    for trial in range(1000):
        h = int(rng.integers(2, 65))
        w = int(rng.integers(2, 65))
        if trial % 3 == 0:
            # few-level palettes force exact ties between thresholds
            levels = rng.integers(0, 256, size=int(rng.integers(2, 5)))
            img = rng.choice(levels, size=(h, w)).astype(np.uint8)
            if np.unique(img).size < 2:
                img.flat[0] = (int(img.flat[1]) + 128) % 256
        else:
            img = rng.integers(0, 256, size=(h, w)).astype(np.uint8)
        if otsu_threshold(img) != otsu_oracle(img):
            mismatches += 1
    record(3, mismatches == 0, f"1000 images, {mismatches} mismatches")


def test_acceptance_4_cce_recovers_blob_count():
    # the band spans n_per - 2 rows: single-row bands sit on the one pixel
    # that carries the tree's bridge between adjacent clusters, while a wide
    # band integrates whole blocks and separates peak from trough cleanly
    per_c = {}
    ok = True
    for c in range(1, 7):
        hits = 0
        for seed in range(100):
            feats, _ = gaussian_blobs(c, 40, 8, 10.0, seed=seed)
            m = euclidean_dissim(feats)
            img = odi_from(m, vat_order(m))
            hits += cce_count(img, band_width=38).cluster_count == c
        per_c[c] = hits
        ok = ok and hits >= 95
    detail = ", ".join(f"c={c}: {h}/100" for c, h in per_c.items())
    record(4, ok, detail)


def test_acceptance_5_specvat_block_fidelity_and_k_selection():
    base = block_dissim([15, 15, 15], 0.01, 1.0)
    labels = np.repeat([0, 1, 2], 15)
    same = labels[:, None] == labels[None, :]
    off = ~np.eye(45, dtype=bool)

    rng = np.random.Generator(np.random.Philox(key=123))
    fidelity = 0
    for _ in range(100):
        p = rng.permutation(45)
        m = permute_matrix(base, p)
        lab = labels[p]
        res = specvat(m, 3)
        s = lab[:, None] == lab[None, :]
        d_prime = cdist(res.embedding, res.embedding)
        if d_prime[s & off].max() < d_prime[~s].min():
            fidelity += 1

    # local scales must reach the 15th neighbour, i.e. across blocks, or
    # every block collapses to an isolated component and the scan between
    # candidate k values loses its signal
    within_mask = same & off
    selected = 0
    for seed in range(100):
        nrng = np.random.Generator(np.random.Philox(key=1000 + seed))
        noise = nrng.normal(0.0, 0.02, size=(45, 45))
        noise = np.triu(noise, 1)
        noise = noise + noise.T
        m = base.copy()
        m[within_mask] = 0.1
        m = m + np.where(within_mask, noise, 0.0)
        m = np.clip(m, 0.0, None)
        np.fill_diagonal(m, 0.0)
        k, _ = a_specvat_select_k(m, knn_scale=15)
        selected += k == 3
    record(
        5,
        fidelity == 100 and selected >= 90,
        f"fidelity {fidelity}/100, k=3 selected {selected}/100",
    )


def test_acceptance_6_eigensolver_residuals():
    rng = np.random.Generator(np.random.Philox(key=14))
    worst_res, worst_orth = 0.0, 0.0
    for _ in range(100):
        raw = rng.normal(size=(50, 50))
        sym = 0.5 * (raw + raw.T)
        vals, vecs = sym_eigen_topk(sym, 50)
        fro = np.linalg.norm(sym, "fro")
        res = np.linalg.norm(sym @ vecs - vecs * vals[np.newaxis, :], axis=0)
        worst_res = max(worst_res, float(res.max() / fro))
        orth = np.abs(vecs.T @ vecs - np.eye(50)).max()
        worst_orth = max(worst_orth, float(orth))
    record(
        6,
        worst_res <= 1e-8 and worst_orth <= 1e-8,
        f"max residual {worst_res:.2e} * ||N||_F, max orth dev {worst_orth:.2e}",
    )


def test_acceptance_7_audio_anchors():
    clip = AudioClip(sine(440.0, 10.0, 22050), 22050)
    power = stft_power(clip)
    feats = log_mel_mean(clip)

    # independent mel-centre table: linear below 1 kHz at 200/3 Hz per mel,
    # exponential above with ratio 6.4 every 27 mels
    logstep = np.log(6.4) / 27.0
    top = 15.0 + np.log(11025.0 / 1000.0) / logstep
    mels = np.linspace(0.0, top, 130)[1:-1]
    centers = np.where(
        mels < 15.0, mels * 200.0 / 3.0, 1000.0 * np.exp(logstep * (mels - 15.0))
    )
    oracle_band = int(np.abs(centers - 440.0).argmin())

    x = sine(1000.0, 10.0, 48000)
    y = resample(AudioClip(x, 48000), 22050).samples
    ref = sine(1000.0, 10.0, 22050)
    n = min(len(y), len(ref))
    corr = float(
        np.dot(y[:n], ref[:n])
        / np.sqrt(np.dot(y[:n], y[:n]) * np.dot(ref[:n], ref[:n]))
    )

    ok = (
        power.shape[0] == 431
        and feats.shape == (128,)
        and int(feats.argmax()) == oracle_band
        and corr >= 0.999
    )
    record(
        7,
        ok,
        f"{power.shape[0]} frames, {feats.shape[0]} dims, "
        f"band {int(feats.argmax())} vs oracle {oracle_band}, corr {corr:.6f}",
    )


def _tree_bytes(root):
    out = {}
    for dirpath, _, names in os.walk(root):
        for name in names:
            p = os.path.join(dirpath, name)
            with open(p, "rb") as fh:
                out[os.path.relpath(p, root)] = fh.read()
    return out


# Most subsets of these random features get Otsu threshold 0, so only the
# diagonal is dark: cce_count warns and counts 0 clusters there.
@pytest.mark.filterwarnings("ignore:sub-diagonal signal is identically zero")
def test_acceptance_8_sixteen_subset_reports(tmp_path):
    lines = ["path,scene,city"]
    for s in SCENES:
        for c in CITIES:
            lines.append(f"clips/{s}-{c}-0-0-a.wav,{s},{c}")
    manifest = tmp_path / "m.csv"
    manifest.write_text("\n".join(lines) + "\n")
    rng = np.random.Generator(np.random.Philox(key=5))
    write_vatf(tmp_path / "f.vatf", rng.normal(size=(60, 8)))

    counts = {}
    deterministic = True
    for group, expect in (("by_scene", 10), ("by_city", 6)):
        outs = []
        for run in (1, 2):
            out = tmp_path / f"{group}_{run}"
            code = main([
                "report", "--manifest", str(manifest),
                "--features", str(tmp_path / "f.vatf"),
                "--group", group, "--out", str(out),
            ])
            assert code == 0
            outs.append(out)
        doc = json.loads((outs[0] / "report.json").read_text())
        counts[group] = len(doc["subsets"])
        deterministic = deterministic and (
            _tree_bytes(outs[0]) == _tree_bytes(outs[1])
        )
    total = counts["by_scene"] + counts["by_city"]
    record(
        8,
        counts["by_scene"] == 10 and counts["by_city"] == 6 and deterministic,
        f"{counts['by_scene']} + {counts['by_city']} = {total} subset "
        f"reports, byte-identical reruns: {deterministic}",
    )


def test_acceptance_9_dataset_scale_counts(tmp_path):
    """Optional full-dataset run; reports counts, never gates."""
    root = os.environ.get("SCENEVAT_DCASE_ROOT")
    if not root:
        line = "ACCEPTANCE 9: SKIP - set SCENEVAT_DCASE_ROOT to run"
        print(line)
        conftest.ACCEPTANCE_LINES.append(line)
        pytest.skip("dataset root not configured")

    manifest = tmp_path / "dataset.csv"
    manifest.write_text(scan_dcase_tree(root))

    out = tmp_path / "dataset_report"
    code = main([
        "report", "--manifest", str(manifest), "--group", "by_city",
        "--cache", os.path.join(str(tmp_path), "cache"),
        "--threads", str(os.cpu_count() or 1), "--out", str(out),
    ])
    doc = json.loads((out / "report.json").read_text())
    per_city = doc["summary"]
    in_range = {k: 6 <= v <= 18 for k, v in per_city.items()}
    deviations = sorted(k for k, ok in in_range.items() if not ok)
    detail = (
        f"{len(read_manifest(manifest))} files, per-city counts {per_city}"
        + (f"; outside 6-18: {deviations}" if deviations else "")
    )
    record(9, code == 0, detail)
