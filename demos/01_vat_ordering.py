"""Reordering a shuffled dissimilarity matrix until its clusters show.

Three Gaussian blobs are generated in random order, so the raw distance
matrix looks like noise.  VAT reorders it by the minimum-spanning-tree
vertex-addition order and the three dark diagonal blocks appear.  Both
images are written as PGMs next to this script's output directory.
"""

import argparse
import os

import numpy as np

from scenevat.matrix import euclidean_dissim
from scenevat.synth import gaussian_blobs
from scenevat.vat import VatOrdering, odi_from, vat_order, write_pgm


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out", default="demo_out/vat", help="output directory")
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()

    feats, labels = gaussian_blobs(3, 30, 8, 10.0, seed=args.seed)
    rng = np.random.Generator(np.random.Philox(key=args.seed + 1))
    shuffle = rng.permutation(len(labels))
    feats, labels = feats[shuffle], labels[shuffle]

    d = euclidean_dissim(feats)
    ordering = vat_order(d)

    os.makedirs(args.out, exist_ok=True)
    n = len(labels)
    identity = VatOrdering(np.arange(n), np.zeros(n))
    write_pgm(odi_from(d, identity), os.path.join(args.out, "unordered.pgm"))
    write_pgm(odi_from(d, ordering), os.path.join(args.out, "ordered.pgm"))

    # link distances spike where the tree jumps between clusters
    link = ordering.link_dist
    jumps = np.argsort(link)[-2:]
    print(f"records: {len(labels)}, largest link distances at positions "
          f"{sorted(int(j) for j in jumps)} (values "
          f"{', '.join(f'{link[j]:.2f}' for j in sorted(jumps))})")
    print(f"label sequence along the ordering:")
    print("".join(str(int(labels[i])) for i in ordering.order))
    print(f"images -> {args.out}/unordered.pgm, {args.out}/ordered.pgm")


if __name__ == "__main__":
    main()
