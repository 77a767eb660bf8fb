"""Command-line front end.

Subcommands cover the full pipeline: feature extraction (``features``),
matrix reordering (``vat``, ``specvat``), cluster counting (``cce``),
label stacks (``stack``), synthetic data (``synth``), and the end-to-end
subset analysis (``report``).

The front end runs with the constants of ``scenevat.audio``, and SpecVAT
and CCE with the defaults of ``scenevat.specvat`` and ``cce_count``,
except where a flag (``--k``, ``cce --band-width``, ``cce --b``) says
otherwise; the last two are ``cce_count``'s ``band_width`` and ``b``.
Other SpecVAT settings are keyword arguments of the library functions.

Exit codes: 0 on success, 2 on bad input, 3 on numeric failure, 4 when
memory runs out.  A report that analyses no subset exits with the code of
the first subset it skipped for an overflow, a numeric failure or memory.
"""

from __future__ import annotations

import argparse
import os
import sys

from .cce import _check_cutoffs, cce_count
from .errors import InputError, NumericError
from .manifest import CITIES, SCENES, read_manifest
from .matrix import as_features, check_dissim
from .report import (
    GROUPINGS,
    METHODS,
    _check_method,
    _stack_artifacts,
    _subsets,
    _write_analysis,
    _write_ordering,
    analyze,
    analyze_features,
    features_for_manifest,
    run_report,
)
from .synth import block_dissim, gaussian_blobs
from .vat import read_ordering, read_pgm
from .vatf import atomic_write_text, naming, read_vatf, write_vatf


def _add_out(p, threads=False):
    """Add --out, and --threads to a subcommand that extracts features."""
    if threads:
        p.add_argument("--threads", type=int, default=None, metavar="N",
                       help="feature extraction threads (default: 1)")
    p.add_argument("--out", metavar="DIR", required=True,
                   help="output directory")


def _sizes(text: str) -> list[int]:
    """``--sizes``: comma-separated block sizes; empty entries are skipped."""
    try:
        return [int(s) for s in text.split(",") if s]
    except ValueError as exc:  # names the entry
        raise argparse.ArgumentTypeError(str(exc)) from None


def _matrix_inputs(p):
    g = p.add_mutually_exclusive_group(required=True)
    g.add_argument("--features", metavar="VATF",
                   help="feature matrix, one row per record")
    g.add_argument("--dissim", metavar="VATF", help="precomputed n x n matrix")


# --------------------------------------------------------------------------
# subcommands


def _extract(args, manifest):
    """Features of the manifest's audio, as --audio-root, --cache and
    --threads say."""
    threads = 1 if args.threads is None else args.threads
    return features_for_manifest(manifest, audio_root=args.audio_root,
                                 cache_dir=args.cache, threads=threads)


def cmd_features(args) -> int:
    feats = _extract(args, read_manifest(args.manifest))
    os.makedirs(args.out, exist_ok=True)
    path = os.path.join(args.out, "features.vatf")
    write_vatf(path, feats)
    print(f"{feats.shape[0]} x {feats.shape[1]} features -> {path}")
    return 0


def cmd_matrix(args) -> int:
    """``vat`` and ``specvat``: order one matrix and render its image.

    --k is checked first, by the rule a report applies.  A --dissim matrix
    is checked where it enters; --features goes through the body of a
    report subset, ``analyze_features``.  An error about either names the
    file.
    """
    _check_method(args.method, args.k)
    path = args.features if args.dissim is None else args.dissim
    m = read_vatf(path)
    with naming(path):
        if args.dissim is None:
            result = analyze_features(m, args.method, args.k)
        else:
            m = check_dissim(m)  # a symmetrized copy lets the input go
            result = analyze(m, args.method, args.k)
    if result.k_scores is not None:
        shown = ", ".join(
            f"k={kk}: {s:.4f}" for kk, s in sorted(result.k_scores.items())
        )
        print(f"selected k={result.k} ({shown})")
    os.makedirs(args.out, exist_ok=True)
    _write_analysis(result, args.out)
    ordering, k = result.ordering, result.k
    del m, result  # the image may view the whole matrix: let both go first
    _write_ordering(ordering, args.out)
    with_k = "" if k is None else f" with k={k}"
    print(f"ordered {len(ordering)} records{with_k} -> {args.out}")
    return 0


def cmd_cce(args) -> int:
    _check_cutoffs(args.band_width, args.b)  # before the image is read
    image = read_pgm(args.image)
    with naming(args.image):
        report = cce_count(image, band_width=args.band_width, b=args.b)
    os.makedirs(args.out, exist_ok=True)
    atomic_write_text(os.path.join(args.out, "cce.json"), report.to_json())
    print(f"clusters: {report.cluster_count}")
    return 0


def cmd_stack(args) -> int:
    manifest = read_manifest(args.manifest)
    ordering = read_ordering(args.ordering)
    [(_, idx, _)] = _subsets(manifest, args.group)
    if len(ordering) != len(idx):
        group = "" if args.group == "all" else f"subset {args.group!r} of "
        raise InputError(f"ordering {args.ordering} has {len(ordering)} records "
                         f"but {group}manifest {args.manifest} has {len(idx)}")
    stack = _stack_artifacts((args.label,), manifest, idx,
                             ordering, args.out)[args.label]
    svg = os.path.join(args.out, f"stack_{args.label}.svg")
    print(f"{stack['run_count']} runs, mean length "
          f"{stack['mean_run_length']:.2f} -> {svg}")
    return 0


def cmd_synth(args) -> int:
    if args.mode == "blobs":
        feats, labels = gaussian_blobs(args.clusters, args.n_per, args.dim,
                                       args.sep, sigma=args.sigma,
                                       seed=args.seed)
        os.makedirs(args.out, exist_ok=True)
        path = os.path.join(args.out, "features.vatf")
        write_vatf(path, feats)
        atomic_write_text(
            os.path.join(args.out, "labels.csv"),
            "index,label\n" + "".join(f"{i},{v}\n" for i, v in enumerate(labels)),
        )
        print(f"{feats.shape[0]} x {feats.shape[1]} blob features -> {path}")
    else:
        m = block_dissim(args.sizes, args.within, args.between)
        os.makedirs(args.out, exist_ok=True)
        path = os.path.join(args.out, "dissim.vatf")
        write_vatf(path, m)
        print(f"{m.shape[0]} x {m.shape[0]} block matrix -> {path}")
    return 0


def cmd_report(args) -> int:
    manifest = read_manifest(args.manifest)
    if args.features is None:
        feats = _extract(args, manifest)
    else:
        for flag, value in (("--audio-root", args.audio_root),
                            ("--cache", args.cache),
                            ("--threads", args.threads)):
            if value is not None:
                raise InputError(f"{flag} applies to audio input, not --features")
        feats = read_vatf(args.features)
        with naming(args.features):
            feats = as_features(feats)
            if len(feats) != len(manifest):
                raise InputError(f"{len(feats)} feature rows, but manifest "
                                 f"{args.manifest} has {len(manifest)} records")
    report = run_report(manifest, feats, args.group, args.out,
                        method=args.method, k=args.k)
    for name in sorted(report["summary"]):
        print(f"{name}: {report['summary'][name]}")
    print(f"{len(report['subsets'])} subset report(s) -> {args.out}")
    return 0


# --------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="scenevat",
        description="Cluster-tendency analysis of labeled feature sets.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    f = sub.add_parser("features", help="extract features for a manifest")
    f.add_argument("--manifest", required=True, metavar="CSV")
    f.add_argument("--audio-root", default=None, metavar="DIR")
    f.add_argument("--cache", default=None, metavar="DIR")
    _add_out(f, threads=True)
    f.set_defaults(func=cmd_features)

    v = sub.add_parser("vat", help="reorder a matrix and render the image")
    _matrix_inputs(v)
    _add_out(v)
    v.set_defaults(func=cmd_matrix, method="vat", k=None)

    s = sub.add_parser("specvat", help="spectral embedding before reordering")
    _matrix_inputs(s)
    s.add_argument("--k", type=int, default=None,
                   help="eigenvector count (default: automatic scan)")
    _add_out(s)
    s.set_defaults(func=cmd_matrix, method="specvat")

    c = sub.add_parser("cce", help="count dark blocks in an ordered image")
    c.add_argument("--image", required=True, metavar="PGM")
    c.add_argument("--band-width", type=int, default=None)
    c.add_argument("--b", type=int, default=None,
                   help="explicit cutoff (default: half the signal maximum)")
    _add_out(c)
    c.set_defaults(func=cmd_cce)

    t = sub.add_parser("stack", help="label stack for an existing ordering")
    t.add_argument("--manifest", required=True, metavar="CSV")
    t.add_argument("--ordering", required=True, metavar="JSON")
    t.add_argument("--group", choices=("all",) + SCENES + CITIES,
                   default="all", metavar="GROUP",
                   help="the records the ordering orders: all (the default), "
                        "or a scene or city, as a report subset of that name")
    t.add_argument("--label", choices=("scene", "city"), default="scene")
    _add_out(t)
    t.set_defaults(func=cmd_stack)

    y = sub.add_parser("synth", help="synthetic features or block matrices")
    y.add_argument("--mode", choices=("blobs", "blocks"), default="blobs")
    y.add_argument("--clusters", type=int, default=3)
    y.add_argument("--n-per", type=int, default=40)
    y.add_argument("--dim", type=int, default=8)
    y.add_argument("--sep", type=float, default=10.0)
    y.add_argument("--sigma", type=float, default=1.0)
    y.add_argument("--seed", type=int, default=0)
    y.add_argument("--sizes", type=_sizes, default="15,15,15",
                   help="blocks mode: comma-separated block sizes")
    y.add_argument("--within", type=float, default=0.01)
    y.add_argument("--between", type=float, default=1.0)
    _add_out(y)
    y.set_defaults(func=cmd_synth)

    r = sub.add_parser("report", help="full per-subset analysis")
    r.add_argument("--manifest", required=True, metavar="CSV")
    r.add_argument("--features", default=None, metavar="VATF",
                   help="reuse extracted features instead of reading audio")
    r.add_argument("--audio-root", default=None, metavar="DIR")
    r.add_argument("--cache", default=None, metavar="DIR")
    r.add_argument("--group", choices=GROUPINGS + SCENES + CITIES,
                   default="by_scene", metavar="GROUP",
                   help=f"{', '.join(GROUPINGS)}, or one scene or city "
                        f"(scenes: {', '.join(SCENES)}; "
                        f"cities: {', '.join(CITIES)})")
    r.add_argument("--method", choices=METHODS, default="vat")
    r.add_argument("--k", type=int, default=None)
    _add_out(r, threads=True)
    r.set_defaults(func=cmd_report)
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (InputError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 3
    except MemoryError as exc:  # numpy's message names the array's size
        print(f"out of memory: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
