"""Manifests of labeled recordings and DCASE-style filename parsing.

A manifest is a CSV with header ``path,scene,city``.  Scene and city labels
are validated against the fixed vocabularies of the ten-scene / six-city
acoustic scene dataset.
"""

from __future__ import annotations

import csv
import io
import os
from dataclasses import dataclass

from .errors import InputError
from .vatf import read_file

SCENES = (
    "airport",
    "bus",
    "metro",
    "metro_station",
    "park",
    "public_square",
    "shopping_mall",
    "street_pedestrian",
    "street_traffic",
    "tram",
)

CITIES = (
    "barcelona",
    "helsinki",
    "london",
    "paris",
    "stockholm",
    "vienna",
)

# Fixed qualitative palettes (documented in the README) so label-stack
# images are reproducible byte for byte.
SCENE_PALETTE = {
    "airport": "#1f77b4",
    "bus": "#ff7f0e",
    "metro": "#2ca02c",
    "metro_station": "#d62728",
    "park": "#9467bd",
    "public_square": "#8c564b",
    "shopping_mall": "#e377c2",
    "street_pedestrian": "#7f7f7f",
    "street_traffic": "#bcbd22",
    "tram": "#17becf",
}

CITY_PALETTE = {
    "barcelona": "#66c2a5",
    "helsinki": "#fc8d62",
    "london": "#8da0cb",
    "paris": "#e78ac3",
    "stockholm": "#a6d854",
    "vienna": "#ffd92f",
}


@dataclass(frozen=True)
class ManifestRecord:
    path: str
    scene: str
    city: str


@dataclass(frozen=True)
class LabeledManifest:
    records: tuple

    def __len__(self):
        return len(self.records)


def parse_manifest(data) -> LabeledManifest:
    """Parse and validate manifest CSV bytes (or text).

    Errors carry the 1-based line number: missing/extra columns, unknown
    scene or city labels, and duplicate paths are all rejected.  A leading
    UTF-8 byte-order mark, which spreadsheets write ("CSV UTF-8"), is
    skipped.  A row the CSV reader rejects, such as one with a bare CR
    inside an unquoted field, is an error on its line.
    """
    if not isinstance(data, str):
        try:
            text = data.decode("utf-8-sig")
        except UnicodeDecodeError as exc:
            raise InputError(f"manifest is not valid UTF-8: {exc}") from exc
    else:
        text = data.removeprefix("\ufeff")
    reader = _rows(csv.reader(io.StringIO(text)))
    try:
        header = next(reader)
    except StopIteration:
        raise InputError("manifest is empty; expected header 'path,scene,city'")
    if [h.strip() for h in header] != ["path", "scene", "city"]:
        raise InputError(
            f"line 1: manifest header must be 'path,scene,city', got {header!r}"
        )
    records = []
    seen = {}
    for lineno, row in enumerate(reader, start=2):
        if not row:
            continue
        if len(row) != 3:
            raise InputError(f"line {lineno}: expected 3 columns, got {len(row)}")
        path, scene, city = (f.strip() for f in row)
        if not path:
            raise InputError(f"line {lineno}: empty path")
        if scene not in SCENES:
            raise InputError(f"line {lineno}: unknown scene label {scene!r}")
        if city not in CITIES:
            raise InputError(f"line {lineno}: unknown city label {city!r}")
        if path in seen:
            raise InputError(
                f"line {lineno}: duplicate path {path!r} (first seen on "
                f"line {seen[path]})"
            )
        seen[path] = lineno
        records.append(ManifestRecord(path, scene, city))
    return LabeledManifest(tuple(records))


def _rows(reader):
    # The reader's rows; one it cannot read raises InputError on its line.
    try:
        yield from reader
    except csv.Error as exc:
        raise InputError(f"line {reader.line_num}: {exc}") from exc


def read_manifest(path) -> LabeledManifest:
    return read_file(path, "manifest", parse_manifest)


def parse_dcase_filename(name: str) -> tuple[str, str]:
    """Extract (scene, city) from a ``scene-city-location-segment-device.wav`` name."""
    base = os.path.basename(name)
    stem, dot, ext = base.rpartition(".")
    if dot != "." or ext.lower() != "wav":
        raise InputError(f"{base!r} does not end in .wav")
    parts = stem.split("-")
    if len(parts) != 5:
        raise InputError(
            f"{base!r} does not match scene-city-location-segment-device.wav"
        )
    scene, city = parts[0], parts[1]
    if scene not in SCENES:
        raise InputError(f"{base!r}: unknown scene {scene!r}")
    if city not in CITIES:
        raise InputError(f"{base!r}: unknown city {city!r}")
    return scene, city


def scan_dcase_tree(root) -> str:
    """Manifest CSV text of the DCASE-named WAVs under ``root``, walked in
    sorted order so that a tree gives the same rows on any machine; a name
    that ``parse_dcase_filename`` rejects is left out.  A ``root`` that is
    not a directory raises InputError."""
    if not os.path.isdir(root):
        raise InputError(f"DCASE root {root} is not a directory")
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(("path", "scene", "city"))
    for dirpath, dirnames, names in os.walk(root):
        dirnames.sort()  # os.walk descends in this order
        for name in sorted(names):
            try:
                scene, city = parse_dcase_filename(name)
            except InputError:
                continue
            writer.writerow((os.path.join(dirpath, name), scene, city))
    return out.getvalue()
