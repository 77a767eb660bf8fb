"""Pipeline orchestration: features -> dissimilarity -> ordering -> counts.

``run_report`` reproduces the three analyses: per-scene and per-city subsets
(16 ordered dissimilarity images on the full dataset), an all-data run, and
single-subset runs.  Every artifact write is atomic, and re-running on the
same inputs produces byte-identical files.
"""

from __future__ import annotations

import concurrent.futures
import hashlib
import json
import os
import typing
import warnings
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .audio import AudioConfig, extract_features
from .cce import CceConfig, cce_count
from .errors import DegenerateImageError, InputError
from .manifest import CITIES, CITY_PALETTE, SCENE_PALETTE, SCENES, LabeledManifest
from .matrix import check_dissim, euclidean_dissim
from .specvat import SpecVatConfig, _embed, _select_k, _specvat
from .stacks import label_stack, stack_csv, stack_svg
from .vat import VatOrdering, _odi, _vat_order, ordering_to_json, write_pgm
from .vatf import atomic_write_text, read_vatf, write_vatf

GROUPINGS = ("by_scene", "by_city", "all", "single_subset")
METHODS = ("vat", "specvat")


@dataclass(frozen=True)
class ReportConfig:
    audio: AudioConfig
    spec: SpecVatConfig
    cce: CceConfig


DEFAULT_CONFIG = ReportConfig(AudioConfig(), SpecVatConfig(), CceConfig())


def load_config(path: Optional[str]) -> ReportConfig:
    """Read a JSON config with optional ``audio``/``specvat``/``cce`` sections."""
    if path is None:
        return DEFAULT_CONFIG
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise InputError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise InputError(f"config {path} is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise InputError(f"config {path} must be a JSON object")
    unknown = set(doc) - {"audio", "specvat", "cce"}
    if unknown:
        raise InputError(f"config {path}: unknown section(s) {sorted(unknown)}")

    def build(defaults, section):
        fields = doc.get(section, {})
        if not isinstance(fields, dict):
            raise InputError(f"config {path}: section {section!r} must be an object")
        if section == "specvat" and "k" in fields:
            raise InputError(
                f"config {path}: specvat.k is not a config key; "
                "pass the eigenvector count with --k"
            )
        hints = typing.get_type_hints(type(defaults))
        bad = set(fields) - set(hints)
        if bad:
            raise InputError(
                f"config {path}: section {section!r}: unknown key(s) {sorted(bad)}"
            )
        for key, value in fields.items():
            if not _fits(hints[key], value):
                raise InputError(
                    f"config {path}: {section}.{key} must be "
                    f"{defaults.__dataclass_fields__[key].type}, got {value!r}"
                )
        try:
            return replace(defaults, **fields)
        except InputError as exc:
            raise InputError(f"config {path}: {section}: {exc}") from exc

    return ReportConfig(
        audio=build(AudioConfig(), "audio"),
        spec=build(SpecVatConfig(), "specvat"),
        cce=build(CceConfig(), "cce"),
    )


def _fits(hint, value) -> bool:
    """Whether a JSON value suits a config field's annotation.

    ``bool`` is not taken for a number, and an int is taken for a float.
    """
    if typing.get_origin(hint) is typing.Union:
        return any(_fits(arg, value) for arg in typing.get_args(hint))
    if isinstance(value, bool) and hint is not bool:
        return False
    if hint is float:
        return isinstance(value, (int, float))
    return isinstance(value, hint)


# --------------------------------------------------------------------------
# Feature extraction with caching


def feature_cache_key(data: bytes, cfg: AudioConfig) -> str:
    """Name of a cached row: the file's bytes and the front-end config."""
    return f"{hashlib.sha256(data).hexdigest()}-{cfg.cache_key()}"


def features_for_manifest(
    manifest: LabeledManifest,
    cfg: AudioConfig = AudioConfig(),
    *,
    audio_root: Optional[str] = None,
    cache_dir: Optional[str] = None,
    threads: int = 1,
) -> np.ndarray:
    """Extract one feature row per manifest record, in manifest order.

    Missing audio files are enumerated in a single error.  With a cache
    directory, rows are re-used when the file's bytes (by SHA-256) and the
    front-end config match, so large runs are restartable and a rewritten
    file is never served its old row.  Results do not depend on thread count.
    """
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

    def one(path: str) -> np.ndarray:
        with open(path, "rb") as fh:
            data = fh.read()
        key = None
        if cache_dir is not None:
            key = os.path.join(cache_dir, feature_cache_key(data, cfg) + ".vatf")
            if os.path.isfile(key):
                return read_vatf(key)[0]
        try:
            vec = extract_features(data, cfg)
        except InputError as exc:
            raise InputError(f"{path}: {exc}") from exc
        if key is not None:
            write_vatf(key, vec[np.newaxis, :])
        return vec

    with concurrent.futures.ThreadPoolExecutor(max_workers=threads) as pool:
        return np.vstack(list(pool.map(one, paths)))


# --------------------------------------------------------------------------
# Grouping and reporting


def _subsets(manifest: LabeledManifest, grouping: str,
             subset: Optional[str]) -> list[tuple[str, np.ndarray, str]]:
    """Yield (name, record indices, stack label kind) per subset."""
    scenes = np.asarray(manifest.scenes)
    cities = np.asarray(manifest.cities)
    if grouping == "by_scene":
        return [
            (s, np.flatnonzero(scenes == s), "city") for s in SCENES
        ]
    if grouping == "by_city":
        return [
            (c, np.flatnonzero(cities == c), "scene") for c in CITIES
        ]
    if grouping == "all":
        return [("all", np.arange(len(manifest)), "both")]
    if grouping == "single_subset":
        if subset is None:
            raise InputError("grouping 'single_subset' requires a subset name")
        if subset in SCENES:
            return [(subset, np.flatnonzero(scenes == subset), "city")]
        if subset in CITIES:
            return [(subset, np.flatnonzero(cities == subset), "scene")]
        raise InputError(f"subset {subset!r} is neither a scene nor a city")
    raise InputError(f"unknown grouping {grouping!r}; expected one of {GROUPINGS}")


def _stack_artifacts(kind, manifest, idx, ordering, subset_dir):
    """Write stack SVG/CSV for the requested label kind(s); return metadata.

    The one stack writer: ``run_report`` and ``scenevat stack`` both call
    it, so the fixed scene and city palettes colour every stack alike.
    """
    out = {}
    kinds = ("scene", "city") if kind == "both" else (kind,)
    for k in kinds:
        if k == "scene":
            labels = [manifest.records[i].scene for i in idx]
            palette = SCENE_PALETTE
        else:
            labels = [manifest.records[i].city for i in idx]
            palette = CITY_PALETTE
        stack = label_stack(ordering.order, labels, palette)
        os.makedirs(subset_dir, exist_ok=True)
        svg_path = os.path.join(subset_dir, f"stack_{k}.svg")
        csv_path = os.path.join(subset_dir, f"stack_{k}.csv")
        atomic_write_text(svg_path, stack_svg(stack, ordering.link_dist))
        atomic_write_text(csv_path, stack_csv(stack, ordering.order))
        out[k] = {
            "run_count": stack.run_count,
            "mean_run_length": stack.mean_run_length,
            "svg": os.path.relpath(svg_path, os.path.dirname(subset_dir)),
            "csv": os.path.relpath(csv_path, os.path.dirname(subset_dir)),
        }
    return out


@dataclass(frozen=True)
class Analysis:
    """One subset's VAT or SpecVAT result.

    ``k``, ``k_scores`` and ``d_prime`` are set for SpecVAT only;
    ``k_scores`` only when k was picked by the scan.
    """

    ordering: VatOrdering
    image: np.ndarray
    k: Optional[int] = None
    k_scores: Optional[dict] = None
    d_prime: Optional[np.ndarray] = None


def analyze(dissim, method: str, spec_cfg: SpecVatConfig,
            k: Optional[int] = None) -> Analysis:
    """Order and render one dissimilarity matrix with VAT or SpecVAT.

    SpecVAT uses ``k`` eigenvectors, or picks k with the scan when ``k`` is
    None.  The matrix is validated here and nowhere below, and never
    changed: the spectral steps work in a buffer of their own.
    """
    if method not in METHODS:
        raise InputError(f"unknown method {method!r}; expected one of {METHODS}")
    d = check_dissim(dissim)
    if method == "vat":
        ordering = _vat_order(d)
        return Analysis(ordering, _odi(d, ordering.order))
    if k is None:
        k, scores, result = _select_k(d, spec_cfg)
    else:
        scores, result = None, _specvat(_embed(d, spec_cfg, k))
    return Analysis(result.ordering, result.image, k, scores, result.d_prime)


def run_report(
    manifest: LabeledManifest,
    features: np.ndarray,
    grouping: str,
    out_dir: str,
    *,
    method: str = "vat",
    config: ReportConfig = DEFAULT_CONFIG,
    subset: Optional[str] = None,
    k: Optional[int] = None,
    standardize: bool = False,
) -> dict:
    """Analyze each subset and emit ODI/ordering/stack/count artifacts.

    Per subset: the ordered dissimilarity image (PGM), the ordering with its
    link distances (JSON), label stacks (SVG + CSV), and a cluster-count
    report (JSON).  A summary table of counts per subset is returned and
    written to ``report.json``.  SpecVAT subsets pick k automatically unless
    ``k`` is given, which is clamped to n-1.  Subsets with fewer than 2
    records, or 3 for SpecVAT, are skipped with a warning, and so are
    subsets whose image is degenerate (a single intensity), which are
    listed under ``skipped`` with a ``reason``.  DegenerateImageError is
    raised, after ``report.json`` is written, only when no subset could be
    analysed.
    """
    if method not in METHODS:
        raise InputError(f"unknown method {method!r}; expected one of {METHODS}")
    features = np.asarray(features, dtype=np.float64)
    if features.ndim != 2 or features.shape[0] != len(manifest):
        raise InputError(
            f"feature matrix rows ({features.shape}) do not match manifest "
            f"size {len(manifest)}"
        )
    os.makedirs(out_dir, exist_ok=True)

    subsets = _subsets(manifest, grouping, subset)
    report: dict = {
        "group": grouping,
        "method": method,
        "subsets": [],
        "skipped": [],
        "summary": {},
    }
    # SpecVAT needs k >= 2, so 3 records: with k = 1 every record maps to +1.
    min_n = 3 if method == "specvat" else 2
    for name, idx, stack_kind in subsets:
        if idx.size < min_n:
            warnings.warn(
                f"subset {name!r} has {idx.size} record(s); skipping",
                stacklevel=2,
            )
            report["skipped"].append({"subset": name, "n": int(idx.size)})
            continue
        dissim = euclidean_dissim(features[idx], standardize=standardize)
        try:
            result = analyze(dissim, method, config.spec,
                             None if k is None else min(k, idx.size - 1))
            cce = cce_count(result.image, config.cce)
        except DegenerateImageError as exc:
            warnings.warn(f"subset {name!r} is degenerate ({exc}); skipping",
                          stacklevel=2)
            report["skipped"].append(
                {"subset": name, "n": int(idx.size), "reason": str(exc)}
            )
            continue
        ordering = result.ordering
        entry: dict = {"subset": name, "n": int(idx.size)}
        if result.k is not None:
            entry["k"] = int(result.k)
        if result.k_scores is not None:
            entry["k_scores"] = {
                str(kk): v for kk, v in sorted(result.k_scores.items())
            }

        subset_dir = os.path.join(out_dir, name)
        os.makedirs(subset_dir, exist_ok=True)
        write_pgm(result.image, os.path.join(subset_dir, "odi.pgm"))
        atomic_write_text(
            os.path.join(subset_dir, "ordering.json"), ordering_to_json(ordering)
        )
        write_vatf(os.path.join(subset_dir, "dissim.vatf"), dissim)
        atomic_write_text(os.path.join(subset_dir, "cce.json"), cce.to_json())
        entry["cluster_count"] = cce.cluster_count
        entry["otsu_threshold"] = cce.otsu_threshold
        entry["b"] = cce.b
        entry["band_width"] = cce.band_width

        entry["stacks"] = _stack_artifacts(
            stack_kind, manifest, idx, ordering, subset_dir
        )
        entry["artifacts"] = {
            "odi": f"{name}/odi.pgm",
            "ordering": f"{name}/ordering.json",
            "cce": f"{name}/cce.json",
            "dissim": f"{name}/dissim.vatf",
        }
        report["subsets"].append(entry)
        report["summary"][name] = cce.cluster_count

    atomic_write_text(
        os.path.join(out_dir, "report.json"),
        json.dumps(report, sort_keys=True, indent=2) + "\n",
    )
    if not report["subsets"] and any("reason" in e for e in report["skipped"]):
        raise DegenerateImageError(
            f"no subset could be analysed; see {os.path.join(out_dir, 'report.json')}"
        )
    return report
