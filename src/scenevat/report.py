"""Pipeline orchestration: features -> dissimilarity -> ordering -> counts.

``run_report`` reproduces the three analyses: per-scene and per-city subsets
(16 ordered dissimilarity images on the full dataset), an all-data run, and
runs over one scene or city.  Every artifact write is atomic, and
re-running on the same inputs produces byte-identical files.
"""

from __future__ import annotations

import concurrent.futures
import contextlib
import hashlib
import json
import os
import warnings
from typing import Optional

import numpy as np

from .audio import CACHE_KEY, N_MELS, extract_features, mel_filterbank
from .cce import cce_count
from .errors import DistanceOverflow, InputError, NumericError
from .manifest import CITIES, CITY_PALETTE, SCENE_PALETTE, SCENES, LabeledManifest
from .matrix import as_features, euclidean_dissim, euclidean_packed, packed_start
from .specvat import _analysis, _packed, _scales
from .stacks import label_stack, stack_csv, stack_svg
from .vat import (
    Analysis,
    VatOrdering,
    _odi,
    _vat_order,
    ordering_to_json,
    write_pgm,
)
from .vatf import atomic_write_text, naming, read_file, read_vatf, write_vatf

GROUPINGS = ("by_scene", "by_city", "all")
METHODS = ("vat", "specvat")
# Each label kind's names and colours.  ``report --group`` takes a
# grouping, or one name for a run over that one subset.
_LABELS = {"scene": (SCENES, SCENE_PALETTE), "city": (CITIES, CITY_PALETTE)}


# --------------------------------------------------------------------------
# Feature extraction with caching


def features_for_manifest(
    manifest: LabeledManifest,
    *,
    audio_root: Optional[str] = None,
    cache_dir: Optional[str] = None,
    threads: int = 1,
) -> np.ndarray:
    """Extract one feature row per manifest record, in manifest order.

    A manifest with no records raises InputError, and missing audio
    files are enumerated in a single one.  With a cache
    directory, rows are re-used when the file's bytes (by SHA-256) and the
    front end (``audio.CACHE_KEY``) match, so large runs are restartable
    and a rewritten file is never served its old row; a cached row that is
    not one finite row of ``N_MELS`` values raises InputError naming its
    file.
    Results do not depend on thread count.
    """
    if not len(manifest):  # np.vstack of no rows raised ValueError
        raise InputError("manifest has no records")
    if threads < 1:
        raise InputError(f"threads must be at least 1, got {threads}")
    paths = []
    missing = []
    for rec in manifest.records:
        p = rec.path
        if audio_root is not None and not os.path.isabs(p):
            p = os.path.join(audio_root, p)
        if not os.path.isfile(p):
            missing.append(p)
        paths.append(p)
    if missing:
        raise InputError(
            "missing audio file(s): " + ", ".join(missing[:20])
            + (f" ... and {len(missing) - 20} more" if len(missing) > 20 else "")
        )
    if cache_dir is not None:
        os.makedirs(cache_dir, exist_ok=True)
    mel_filterbank()  # cached: built once here, not by every worker

    def one(path: str) -> np.ndarray:
        data = read_file(path, "WAV file", memoryview)
        key = None
        if cache_dir is not None:
            # A cached row is named by the file's bytes and the front end.
            name = f"{hashlib.sha256(data).hexdigest()}-{CACHE_KEY}.vatf"
            key = os.path.join(cache_dir, name)
            if os.path.isfile(key):
                row = read_vatf(key)
                with naming(key):  # one finite row of N_MELS values
                    if row.shape != (1, N_MELS):
                        raise InputError(f"cached feature row has shape "
                                         f"{row.shape}, expected (1, {N_MELS})")
                    return as_features(row)[0]
        with naming(path):
            vec = extract_features(data)
        if key is not None:
            write_vatf(key, vec[np.newaxis, :])
        return vec

    with concurrent.futures.ThreadPoolExecutor(max_workers=threads) as pool:
        return np.vstack(list(pool.map(one, paths)))


# --------------------------------------------------------------------------
# Grouping and reporting


def _subsets(manifest: LabeledManifest,
             grouping: str) -> list[tuple[str, np.ndarray, tuple]]:
    """(name, record indices, label kinds to stack) per subset.

    A scene's subset stacks its cities, a city's its scenes, and ``all``
    both.
    """
    if grouping == "all":
        return [("all", np.arange(len(manifest)), tuple(_LABELS))]
    for kind, (names, _) in _LABELS.items():
        if grouping in names:
            names = (grouping,)
        elif grouping != f"by_{kind}":
            continue
        labels = np.asarray([getattr(r, kind) for r in manifest.records])
        others = tuple(k for k in _LABELS if k != kind)
        return [(name, np.flatnonzero(labels == name), others) for name in names]
    raise InputError(f"unknown grouping {grouping!r}; expected one of "
                     f"{GROUPINGS}, a scene or a city")


def _stack_artifacts(kinds, manifest, idx, ordering, subset_dir):
    """Write stack SVG/CSV for each label kind; return their metadata.

    The one stack writer: ``run_report`` and ``scenevat stack`` both call
    it, so the fixed scene and city palettes colour every stack alike.
    """
    out = {}
    os.makedirs(subset_dir, exist_ok=True)
    for kind in kinds:
        labels = [getattr(manifest.records[i], kind) for i in idx]
        stack = label_stack(ordering.order, labels, _LABELS[kind][1])
        svg_path = os.path.join(subset_dir, f"stack_{kind}.svg")
        csv_path = os.path.join(subset_dir, f"stack_{kind}.csv")
        atomic_write_text(svg_path, stack_svg(stack, ordering.link_dist))
        atomic_write_text(csv_path, stack_csv(stack))
        out[kind] = {
            "run_count": stack.run_count,
            "mean_run_length": stack.mean_run_length,
            "svg": os.path.relpath(svg_path, os.path.dirname(subset_dir)),
            "csv": os.path.relpath(csv_path, os.path.dirname(subset_dir)),
        }
    return out


# The files a report writes in a subset's directory: a VAT subset's
# distances, or a SpecVAT subset's embedding, and the rest for both.
_SUBSET_FILES = ("dissim.vatf", "embedding.vatf", "odi.pgm", "ordering.json",
                 "cce.json") + tuple(
    f"stack_{kind}.{ext}" for kind in _LABELS for ext in ("svg", "csv")
)


def _remove_subset_files(subset_dir: str) -> None:
    """Remove what a report writes for a subset, then the directory if empty.

    A file the report does not write stays.
    """
    for fname in _SUBSET_FILES:
        with contextlib.suppress(FileNotFoundError):
            os.remove(os.path.join(subset_dir, fname))
    if os.path.isdir(subset_dir) and not os.listdir(subset_dir):
        os.rmdir(subset_dir)


def _check_method(method: str, k: Optional[int] = None) -> None:
    """Reject an unknown method, a k with VAT, and a k below 2."""
    if method not in METHODS:
        raise InputError(f"unknown method {method!r}; expected one of {METHODS}")
    if k is not None and method == "vat":
        raise InputError(f"--k {k}: VAT takes no k; use --method specvat")
    # SpecVAT needs k >= 2, so 3 records: with k = 1 every record maps to +1.
    if k is not None and k < 2:
        raise InputError(f"--k {k}: SpecVAT needs k >= 2")


def analyze(d: np.ndarray, method: str, k: Optional[int] = None) -> Analysis:
    """Order and render one dissimilarity matrix with VAT or SpecVAT.

    ``d`` must be a valid, exactly symmetric, C-contiguous float64 matrix
    already: as ``check_dissim`` returned it where it entered, or valid by
    construction (``euclidean_dissim``).  It is not checked again.  VAT
    only reads ``d``.  SpecVAT reads its local scales from ``d``'s rows,
    then packs its upper triangle into the first half of ``d``'s buffer
    and works there: the affinity, its normalization, the scan's condensed
    distances and then the image, in its first n * n bytes, overwrite it
    in turn, so ``result.image`` is a view of ``d``'s buffer and the
    distances are gone.  Pass a copy to keep them.  The embedded distances
    that SpecVAT ordered are ``cdist(result.embedding, result.embedding)``.
    SpecVAT runs with the defaults of ``scenevat.specvat`` and uses ``k``
    eigenvectors, or picks k with the scan when ``k`` is None; a ``k`` with
    VAT, or below 2, raises InputError.
    """
    _check_method(method, k)
    if method == "vat":
        ordering = _vat_order(d)
        return Analysis(ordering, _odi(d, ordering.order))
    return _analysis(*_packed(d), k)


def analyze_features(x, method: str, k: Optional[int] = None, *,
                     path=None) -> Analysis:
    """``analyze`` of the distances between the rows of ``x``: the one
    body of a ``run_report`` subset and of ``scenevat vat|specvat
    --features``.

    The distances are valid by construction.  VAT builds the square
    matrix and writes it to ``path`` (``dissim.vatf``), when given.
    SpecVAT builds the packed upper triangle and the local scales, read
    from each band of square rows as it is built, so no n x n float64
    array exists; its image is drawn from ``result.embedding``, and a
    ``path`` with SpecVAT raises InputError.  An overflow raises
    DistanceOverflow and leaves no file.
    """
    _check_method(method, k)
    if method == "vat":
        d = euclidean_dissim(x)
        if path is not None:
            write_vatf(path, d)
        return analyze(d, method)
    if path is not None:
        raise InputError("SpecVAT writes no distance matrix; its image is "
                         "drawn from the embedding")
    n = len(x)
    p, sigma = np.empty(packed_start(n, n)), np.empty(n)
    for rows, band in euclidean_packed(x, p):
        # Its scales may reorder the band: the next band overwrites it.
        sigma[rows] = _scales(band)
    del band  # it views the build's buffer, which the analysis need not hold
    return _analysis(p, sigma, k)


def _write_analysis(result: Analysis, out_dir: str) -> dict:
    """Write ``odi.pgm`` and, for SpecVAT, the n x k ``embedding.vatf``
    into ``out_dir``; return their names by artifact key.

    With ``_write_ordering``, the one writer of an analysis: ``run_report``
    and ``scenevat vat|specvat`` both call the two, so they write the same
    files for a method.  The caller lets the result go between the two
    calls: its image may view the whole matrix, which then no longer adds
    to the peak while the ordering's text is built.
    """
    files = {"odi": "odi.pgm"}
    write_pgm(result.image, os.path.join(out_dir, files["odi"]))
    if result.embedding is not None:
        files["embedding"] = "embedding.vatf"
        write_vatf(os.path.join(out_dir, files["embedding"]), result.embedding)
    return files


def _write_ordering(ordering: VatOrdering, out_dir: str) -> dict:
    """Write ``ordering.json`` into ``out_dir``; return its name by key."""
    files = {"ordering": "ordering.json"}
    atomic_write_text(os.path.join(out_dir, files["ordering"]),
                      ordering_to_json(ordering))
    return files


def _memory_needed(method: str, n: int) -> str:
    # What a subset's analysis holds at once: VAT's n x n float64 distances
    # and its n x n uint8 image; SpecVAT's packed upper triangle, in whose
    # buffer the image is drawn.
    if method == "vat":
        return (f"{n} records need {8 * n * n} bytes of distances and "
                f"{n * n} of image")
    return f"{n} records need {4 * n * (n + 1)} bytes of packed distances"


def run_report(
    manifest: LabeledManifest,
    features: np.ndarray,
    grouping: str,
    out_dir: str,
    *,
    method: str = "vat",
    k: Optional[int] = None,
) -> dict:
    """Analyze each subset and emit ODI/ordering/stack/count artifacts.

    ``grouping`` is one of ``GROUPINGS``, or a scene or city name, which
    analyses that one subset.  Per subset: the ordered dissimilarity image
    (PGM), the ordering with its link distances (JSON), label stacks (SVG +
    CSV), a cluster-count report (JSON), and the matrix the image is drawn
    from: VAT's distances (``dissim.vatf``) or SpecVAT's n x k embedding
    (``embedding.vatf``).  A summary table of counts per subset is
    returned and written to ``report.json``, which is removed before the
    first subset, so that one is there only when its run finished.
    SpecVAT subsets pick k automatically unless ``k`` is given, which is
    clamped to n-1 with a warning; a ``k`` with VAT, or below 2, raises
    InputError before any subset.  SpecVAT and each count run with their
    defaults: a study that varies a setting calls ``scenevat.specvat`` and
    ``cce_count`` itself.  The features are checked once, here.  Each
    subset goes through ``analyze_features``, which writes a VAT subset's
    ``dissim.vatf``, and lets its matrix go once the image and its count
    are written.  Subsets with fewer than 2 records, or 3 for SpecVAT, are
    skipped with a warning.  A subset leaves all its files or none: an
    earlier run's go first, and one whose analysis or writes raise leaves
    none of them and no empty directory.  A subset whose distances overflow
    (DistanceOverflow), whose analysis fails (NumericError, a degenerate
    image of a single intensity among them) or runs out of memory is
    skipped with a warning and listed under ``skipped`` with a ``reason``;
    an out-of-memory reason states n and the bytes the method needs.  Any
    other exception ends the run, with no ``report.json``.  When no subset
    was analysed and one was skipped so, ``report.json`` is written and the
    first such exception raised, so ``scenevat report`` exits as
    ``vat``/``specvat`` would on that subset.
    """
    _check_method(method, k)
    min_n = 3 if method == "specvat" else 2
    features = as_features(features)  # once, so a bad row has its own index
    if features.shape[0] != len(manifest):
        raise InputError(
            f"feature matrix rows ({features.shape}) do not match manifest "
            f"size {len(manifest)}"
        )
    subsets = _subsets(manifest, grouping)
    os.makedirs(out_dir, exist_ok=True)
    with contextlib.suppress(FileNotFoundError):
        os.remove(os.path.join(out_dir, "report.json"))
    # A SpecVAT image is drawn from the embedding, not from the distances.
    dissim = "dissim.vatf" if method == "vat" else None
    report: dict = {
        "group": grouping,
        "method": method,
        "subsets": [],
        "skipped": [],
        "summary": {},
    }
    failure = None
    for name, idx, stack_kinds in subsets:
        n = int(idx.size)
        subset_dir = os.path.join(out_dir, name)
        _remove_subset_files(subset_dir)
        if n < min_n:
            warnings.warn(f"subset {name!r} has {n} record(s); skipping",
                          stacklevel=2)
            report["skipped"].append({"subset": name, "n": n})
            continue
        k_run = None if k is None else min(k, n - 1)
        if k_run != k:
            warnings.warn(
                f"subset {name!r} has {n} records; k={k} clamped to {k_run}",
                stacklevel=2,
            )
        try:
            os.makedirs(subset_dir, exist_ok=True)
            # A subset of every record reads the features as they are.
            result = analyze_features(
                features if n == len(features) else features[idx],
                method, k_run,
                path=None if dissim is None else os.path.join(subset_dir, dissim))
            cce = cce_count(result.image)
            files = _write_analysis(result, subset_dir)
            ordering = result.ordering
            entry: dict = {"subset": name, "n": n}
            if result.k is not None:
                entry["k"] = int(result.k)
            if result.k_scores is not None:
                entry["k_scores"] = {
                    str(kk): v for kk, v in sorted(result.k_scores.items())
                }
            del result  # the subset's one matrix, which the image may view
            files |= _write_ordering(ordering, subset_dir)
            files["cce"] = "cce.json"
            atomic_write_text(os.path.join(subset_dir, files["cce"]),
                              cce.to_json())
            entry["cluster_count"] = cce.cluster_count
            entry["otsu_threshold"] = cce.otsu_threshold
            entry["b"] = cce.b
            entry["band_width"] = cce.band_width
            entry["stacks"] = _stack_artifacts(
                stack_kinds, manifest, idx, ordering, subset_dir
            )
        except BaseException as exc:  # a subset leaves all its files or none
            result = None  # the analysis, whose image may view its matrix
            _remove_subset_files(subset_dir)
            if not isinstance(exc, (DistanceOverflow, NumericError, MemoryError)):
                raise
            reason = (f"out of memory: {_memory_needed(method, n)}"
                      if isinstance(exc, MemoryError) else str(exc))
            warnings.warn(f"subset {name!r}: {reason}; skipping", stacklevel=2)
            report["skipped"].append({"subset": name, "n": n, "reason": reason})
            if failure is None:  # kept without the frames that hold its matrices
                failure = exc.with_traceback(None)
                failure.__cause__ = failure.__context__ = None
            continue
        if dissim is not None:
            files["dissim"] = dissim
        entry["artifacts"] = {key: f"{name}/{f}" for key, f in files.items()}
        report["subsets"].append(entry)
        report["summary"][name] = cce.cluster_count

    atomic_write_text(
        os.path.join(out_dir, "report.json"),
        json.dumps(report, sort_keys=True, indent=2) + "\n",
    )
    if failure is not None and not report["subsets"]:
        raise failure
    return report
