"""Dataset-scale experiment: per-city and all-data cluster counts.

Scans a directory of acoustic-scene recordings whose filenames follow the
scene-city-location-segment-device.wav convention, featurizes every clip
(cached, threaded), and reports cluster counts per city plus the all-data
count.  On the full ten-scene six-city corpus, per-city counts have landed
in roughly the 6-18 range and the all-data count runs severalfold above the
ten scene labels; numbers outside those bands are worth a look but are not
errors, since the counts depend on recording conditions and parameters.

This is the one script here meant for real data: point --root at the
extracted development set (tens of GB; the run is feature-extraction bound
on first pass, then cached).  Any tree of clips named that way will do,
and CI runs it on a small generated one.  The front end runs with the
constants of ``scenevat.audio`` (``TARGET_RATE``, ``N_FFT``, ``HOP``,
``N_MELS``), and VAT and CCE with the library defaults; for other
settings, pass a ``SpecVatConfig`` or ``CceConfig`` to ``run_report``.
"""

import argparse
import json
import os

from scenevat.manifest import parse_manifest, scan_dcase_tree
from scenevat.report import features_for_manifest, run_report


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--root", required=True, help="directory of .wav files")
    ap.add_argument("--out", default="demo_out/dataset")
    ap.add_argument("--cache", default="demo_out/feature_cache")
    ap.add_argument("--threads", type=int, default=os.cpu_count() or 1)
    args = ap.parse_args()

    manifest = parse_manifest(scan_dcase_tree(args.root))
    print(f"{len(manifest)} recordings under {args.root}")
    feats = features_for_manifest(manifest, cache_dir=args.cache,
                                  threads=args.threads)

    by_city = run_report(manifest, feats, "by_city",
                         os.path.join(args.out, "by_city"))
    all_data = run_report(manifest, feats, "all", os.path.join(args.out, "all"))

    print("\nper-city cluster counts:")
    for city, count in sorted(by_city["summary"].items()):
        flag = "" if 6 <= count <= 18 else "   <- outside the usual 6-18 band"
        print(f"  {city}: {count}{flag}")
    total = all_data["summary"]["all"]
    print(f"\nall-data cluster count: {total} "
          f"({total / 10:.1f}x the ten scene labels)")
    print(json.dumps({"by_city": by_city["summary"], "all": total}))


if __name__ == "__main__":
    main()
