"""Counting diagonal blocks without looking at the picture.

CCE binarizes the ordered image with Otsu's threshold, sums dark pixels
along a band just below the diagonal, and counts the runs where that signal
rises above half its peak.  Each run is one dark block, i.e. one cluster.

The sweep below regenerates blobs with 1 through 6 clusters and prints the
recovered count next to the truth, then dumps one signal so the plateau
structure is visible as text.
"""

import argparse

from scenevat.cce import cce_count
from scenevat.matrix import euclidean_dissim
from scenevat.synth import gaussian_blobs
from scenevat.vat import odi_from, vat_order


def analyze(c, seed, band_width):
    feats, _ = gaussian_blobs(c, 40, 8, 10.0, seed=seed)
    d = euclidean_dissim(feats)
    img = odi_from(d, vat_order(d))
    return cce_count(img, band_width=band_width)


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--band-width", type=int, default=38,
                    help="rows in the sub-diagonal band; wide bands integrate "
                         "whole blocks instead of single bridge pixels")
    args = ap.parse_args()

    print("true  recovered  otsu_t  b")
    for c in range(1, 7):
        rep = analyze(c, args.seed, args.band_width)
        print(f"{c:4d}  {rep.cluster_count:9d}  {rep.otsu_threshold:6d}  {rep.b}")

    rep = analyze(3, args.seed, args.band_width)
    peak = rep.signal.max()
    bar = "".join("#" if v > rep.b else "." for v in rep.signal)
    print(f"\nsignal for c=3 (peak {peak}, cutoff {rep.b}):")
    print(bar)
    print(f"runs above cutoff: {rep.run_spans}")
    print(f"smallest detectable block: {rep.min_detectable_block} records")


if __name__ == "__main__":
    main()
