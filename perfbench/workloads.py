"""Seeded synthetic inputs for the benchmark workloads.

Each workload is a set of files the program reads (a manifest plus either
WAV recordings or a VATF feature matrix), the ``scenevat report`` arguments
that analyse them, and the structure planted in them: the cluster count
(and, for SpecVAT, the eigenvector count k) every subset must report.

Generation uses numpy only and writes the file formats directly, so the
inputs do not change when the package under test changes.  The same seed
gives byte-identical files; the amount of work does not depend on the seed.
"""

from __future__ import annotations

import os
import struct

import numpy as np

# Label vocabularies of the manifest format (fixed by the file format).
SCENES = ("airport", "bus", "metro", "metro_station", "park",
          "public_square", "shopping_mall", "street_pedestrian",
          "street_traffic", "tram")
CITIES = ("barcelona", "helsinki", "london", "paris", "stockholm", "vienna")

AUDIO_SECONDS = 2.0
AUDIO_PER_CITY = 6
# 44.1 kHz resamples with one phase, 48 kHz with 147, 22.05 kHz is bypassed.
AUDIO_RATES = (44100, 48000, 22050)
AUDIO_ENCODINGS = ("pcm16_mono", "pcm24_stereo", "float32_mono")
TONE_FAMILIES = (300.0, 1000.0, 2600.0)  # fundamentals; harmonics stay < 9 kHz
BLOB_DIM = 128
BLOB_SEP = 20.0
SCAN_PER_CITY = 500
SCAN_K = (2, 3, 4, 5, 6, 2)  # planted k per city, in CITIES order


def _spec(records, args, expected):
    return {"records": records, "args": args, "expected": expected}


# Why each workload exists is recorded in BENCHMARK.json.  ``args`` use
# {dir} for the input directory and {out}/{cache} for the per-op output and
# feature-cache directories.
WORKLOADS = {
    "audio-manifest": _spec(
        len(CITIES) * AUDIO_PER_CITY,
        ["report", "--manifest", "{dir}/manifest.csv",
         "--audio-root", "{dir}/wav", "--cache", "{cache}",
         "--group", "by_city", "--method", "vat", "--threads", "2",
         "--out", "{out}"],
        {c: {"count": len(TONE_FAMILIES), "k": None} for c in CITIES},
    ),
    "vat-all": _spec(
        4000,
        ["report", "--manifest", "{dir}/manifest.csv",
         "--features", "{dir}/features.vatf", "--group", "all",
         "--method", "vat", "--out", "{out}"],
        {"all": {"count": 4, "k": None}},
    ),
    "specvat-scan": _spec(
        len(CITIES) * SCAN_PER_CITY,
        ["report", "--manifest", "{dir}/manifest.csv",
         "--features", "{dir}/features.vatf", "--group", "by_city",
         "--method", "specvat", "--out", "{out}"],
        {c: {"count": k, "k": k} for c, k in zip(CITIES, SCAN_K)},
    ),
    "specvat-all": _spec(
        2500,
        ["report", "--manifest", "{dir}/manifest.csv",
         "--features", "{dir}/features.vatf", "--group", "all",
         "--method", "specvat", "--k", "4", "--out", "{out}"],
        {"all": {"count": 4, "k": 4}},
    ),
}


def report_args(name: str, in_dir: str, out_dir: str, cache_dir: str) -> list:
    fields = {"dir": in_dir, "out": out_dir, "cache": cache_dir}
    return [a.format(**fields) for a in WORKLOADS[name]["args"]]


def generate(name: str, seed: int, in_dir: str) -> None:
    """Write the inputs of workload ``name`` for ``seed`` into ``in_dir``."""
    os.makedirs(in_dir, exist_ok=True)
    rng = np.random.default_rng([seed, sorted(WORKLOADS).index(name)])
    if name == "audio-manifest":
        _audio_manifest(rng, in_dir)
    elif name == "vat-all":
        _blob_manifest(rng, in_dir, [(None, 4, 4000)])
    elif name == "specvat-scan":
        _blob_manifest(rng, in_dir,
                       [(c, k, SCAN_PER_CITY) for c, k in zip(CITIES, SCAN_K)])
    elif name == "specvat-all":
        _blob_manifest(rng, in_dir, [(None, 4, 2500)])
    else:
        raise KeyError(name)


# --------------------------------------------------------------------------
# feature workloads


def _blob_manifest(rng, in_dir, groups) -> None:
    """Gaussian blobs on the coordinate axes, one group per (city, k, n).

    A group with city None spreads its records over all cities.  Blob sizes
    differ by at most one; rows are shuffled so no input order is planted.
    """
    feats, scenes, cities = [], [], []
    for city, k, n in groups:
        labels = np.repeat(np.arange(k), [len(p) for p in
                                          np.array_split(np.arange(n), k)])
        centers = np.zeros((k, BLOB_DIM))
        centers[np.arange(k), np.arange(k)] = BLOB_SEP
        feats.append(centers[labels] + rng.normal(0.0, 1.0, (n, BLOB_DIM)))
        scenes += [SCENES[lab] for lab in labels]
        if city is None:
            cities += [CITIES[i] for i in rng.integers(0, len(CITIES), n)]
        else:
            cities += [city] * n
    x = np.vstack(feats)
    perm = rng.permutation(x.shape[0])
    _write_vatf(os.path.join(in_dir, "features.vatf"), x[perm])
    rows = [(f"rec{i:05d}.wav", scenes[p], cities[p])
            for i, p in enumerate(perm)]
    _write_manifest(os.path.join(in_dir, "manifest.csv"), rows)


def _write_vatf(path, x) -> None:
    x = np.ascontiguousarray(x, dtype="<f8")
    with open(path, "wb") as fh:
        fh.write(struct.pack("<4sIII", b"VATF", 1, *x.shape))
        fh.write(x.tobytes())


def read_vatf(path) -> np.ndarray:
    with open(path, "rb") as fh:
        magic, version, n, d = struct.unpack("<4sIII", fh.read(16))
        if magic != b"VATF" or version != 1:
            raise ValueError(f"{path}: not a VATF v1 file")
        return np.fromfile(fh, dtype="<f8", count=n * d).reshape(n, d)


def _write_manifest(path, rows) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("path,scene,city\n")
        fh.writelines(f"{p},{s},{c}\n" for p, s, c in rows)


# --------------------------------------------------------------------------
# audio workload


def _audio_manifest(rng, in_dir) -> None:
    """Six recordings per city, two of each tone family.

    Rate and encoding follow fixed cycles so every seed does the same work;
    the seed moves tone frequencies, phases and noise.
    """
    wav_dir = os.path.join(in_dir, "wav")
    os.makedirs(wav_dir, exist_ok=True)
    base = np.array(TONE_FAMILIES) * rng.uniform(0.97, 1.03, len(TONE_FAMILIES))
    rows = []
    for i in range(len(CITIES) * AUDIO_PER_CITY):
        family = i % len(TONE_FAMILIES)
        rate = AUDIO_RATES[(i // 3) % len(AUDIO_RATES)]
        encoding = AUDIO_ENCODINGS[(i // 2) % len(AUDIO_ENCODINGS)]
        t = np.arange(int(AUDIO_SECONDS * rate)) / rate
        f0 = base[family] * rng.uniform(0.995, 1.005)
        x = sum(0.3 / h * np.sin(2 * np.pi * h * f0 * t + rng.uniform(0, 2 * np.pi))
                for h in (1, 2, 3))
        x = x + rng.normal(0.0, 0.01, t.size)
        channels = 2 if encoding == "pcm24_stereo" else 1
        # identical channels, so the decoder's mix keeps the mono noise power
        x = np.repeat(x[:, None], channels, axis=1)
        name = f"rec{i:02d}.wav"
        with open(os.path.join(wav_dir, name), "wb") as fh:
            fh.write(_wav_bytes(x, rate, encoding))
        rows.append((name, SCENES[family], CITIES[i // AUDIO_PER_CITY]))
    _write_manifest(os.path.join(in_dir, "manifest.csv"), rows)


def _wav_bytes(x, rate, encoding) -> bytes:
    """RIFF/WAVE bytes of ``x`` (frames x channels, in [-1, 1])."""
    x = np.clip(x, -1.0, 1.0)
    channels = x.shape[1]
    if encoding == "float32_mono":
        tag, bits, payload = 3, 32, x.astype("<f4").tobytes()
    elif encoding == "pcm16_mono":
        tag, bits = 1, 16
        payload = np.round(x * 32767).astype("<i2").tobytes()
    else:  # pcm24_stereo
        tag, bits = 1, 24
        ints = np.round(x * 8388607).astype("<i4")
        payload = ints.view(np.uint8).reshape(-1, 4)[:, :3].tobytes()
    block = channels * bits // 8
    fmt = struct.pack("<HHIIHH", tag, channels, rate, rate * block, block, bits)
    body = (b"WAVE" + b"fmt " + struct.pack("<I", len(fmt)) + fmt
            + b"data" + struct.pack("<I", len(payload)) + payload)
    return b"RIFF" + struct.pack("<I", len(body)) + body
