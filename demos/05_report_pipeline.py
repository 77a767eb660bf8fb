"""The whole pipeline on a throwaway corpus of synthetic recordings.

Builds thirty short tone WAVs whose frequency depends on the scene label,
writes a manifest, extracts features, and runs the per-scene report.  Each
scene subset gets an ordered image, an ordering JSON, a cluster-count
report, and a label stack colored by city; report.json collects the counts.

Everything lands in --out, laid out the same way the command-line
`scenevat report` lays out real runs.
"""

import argparse
import json
import os
import struct
import tempfile
import warnings

import numpy as np

from scenevat.manifest import parse_manifest
from scenevat.report import features_for_manifest, run_report


def tone_wav(freq, seconds=0.5, rate=22050, seed=0):
    rng = np.random.Generator(np.random.Philox(key=seed))
    t = np.arange(int(seconds * rate)) / rate
    x = 0.5 * np.sin(2 * np.pi * freq * t) + rng.normal(0, 0.01, t.size)
    ints = np.round(np.clip(x, -1, 1) * 32767).astype("<i2").tobytes()
    fmt = struct.pack("<HHIIHH", 1, 1, rate, rate * 2, 2, 16)
    return (b"RIFF" + struct.pack("<I", 36 + len(ints)) + b"WAVE"
            + b"fmt " + struct.pack("<I", 16) + fmt
            + b"data" + struct.pack("<I", len(ints)) + ints)


SCENE_FREQS = {"park": 300.0, "bus": 1100.0, "tram": 3200.0}
CITIES = ("paris", "london", "helsinki")


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out", default="demo_out/report")
    args = ap.parse_args()

    with tempfile.TemporaryDirectory() as clips:
        rows = ["path,scene,city"]
        i = 0
        for scene, freq in SCENE_FREQS.items():
            for rep in range(10):
                name = f"{scene}_{rep}.wav"
                wav = tone_wav(freq + 5.0 * rep, seed=i)
                with open(os.path.join(clips, name), "wb") as fh:
                    fh.write(wav)
                rows.append(f"{name},{scene},{CITIES[rep % 3]}")
                i += 1
        manifest = parse_manifest("\n".join(rows) + "\n")
        feats = features_for_manifest(manifest, audio_root=clips, threads=2)
        print(f"extracted {feats.shape[0]} x {feats.shape[1]} features")

        with warnings.catch_warnings():
            # seven of the ten scene subsets are empty here by construction
            warnings.simplefilter("ignore", UserWarning)
            report = run_report(manifest, feats, "by_scene", args.out)

    print("clusters per scene subset (each holds one tone family):")
    for name, count in sorted(report["summary"].items()):
        print(f"  {name}: {count}")
    skipped = [e["subset"] for e in report["skipped"]]
    print(f"skipped empty subsets: {', '.join(skipped)}")
    print(f"artifacts -> {args.out}/<scene>/ and {args.out}/report.json")
    with open(os.path.join(args.out, "report.json")) as fh:
        assert json.load(fh)["summary"] == report["summary"]


if __name__ == "__main__":
    main()
