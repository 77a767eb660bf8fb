import json
import os
import threading
import warnings
import weakref

import numpy as np
import pytest
from scipy.spatial.distance import cdist

import scenevat.audio
import scenevat.matrix
import scenevat.report
import scenevat.specvat
import scenevat.vat
from scenevat.audio import N_MELS
from scenevat.cli import main
from scenevat.errors import (
    DegenerateImageError,
    DistanceOverflow,
    InputError,
    NumericError,
)
from scenevat.manifest import parse_manifest
from scenevat.matrix import euclidean_dissim
from scenevat.report import (
    analyze,
    analyze_features,
    features_for_manifest,
    run_report,
)
from scenevat.specvat import K_MAX
from scenevat.synth import gaussian_blobs
from scenevat.vat import read_ordering, read_pgm
from scenevat.vatf import read_vatf, write_vatf

from conftest import count_solvers, overflow_in_last_band, sine_wav


# --------------------------------------------------------------------------
# feature extraction over a manifest


def _write_clips(root, specs):
    """specs: {filename: frequency}; writes short 44.1 kHz tones."""
    for name, freq in specs.items():
        (root / name).write_bytes(sine_wav(freq, 0.25, 44100))


def test_features_follow_manifest_order(tmp_path):
    _write_clips(tmp_path, {"lo.wav": 440.0, "hi.wav": 3000.0})
    fwd = parse_manifest(
        "path,scene,city\nlo.wav,park,paris\nhi.wav,bus,london\n"
    )
    rev = parse_manifest(
        "path,scene,city\nhi.wav,bus,london\nlo.wav,park,paris\n"
    )
    a = features_for_manifest(fwd, audio_root=str(tmp_path))
    b = features_for_manifest(rev, audio_root=str(tmp_path))
    assert a.shape == (2, N_MELS)
    assert np.array_equal(a[0], b[1]) and np.array_equal(a[1], b[0])
    assert not np.array_equal(a[0], a[1])


def test_manifest_with_no_records_raises_input_error(tmp_path):
    # np.vstack of no feature rows raised ValueError.
    with pytest.raises(InputError, match="manifest has no records"):
        features_for_manifest(parse_manifest("path,scene,city\n"),
                              audio_root=str(tmp_path))


def test_missing_files_enumerated_in_one_error(tmp_path):
    _write_clips(tmp_path, {"ok.wav": 440.0})
    mf = parse_manifest(
        "path,scene,city\n"
        "ok.wav,park,paris\n"
        "gone1.wav,bus,london\n"
        "gone2.wav,tram,vienna\n"
    )
    with pytest.raises(InputError) as err:
        features_for_manifest(mf, audio_root=str(tmp_path))
    msg = str(err.value)
    assert "gone1.wav" in msg and "gone2.wav" in msg


def test_cache_rewritten_file_yields_fresh_features(tmp_path):
    _write_clips(tmp_path, {"a.wav": 440.0, "b.wav": 880.0})
    mf = parse_manifest("path,scene,city\na.wav,park,paris\nb.wav,bus,london\n")
    cache = tmp_path / "cache"
    first = features_for_manifest(
        mf, audio_root=str(tmp_path), cache_dir=str(cache)
    )
    assert len(list(cache.glob("*.vatf"))) == 2
    # same path and byte size, different contents: the key follows the bytes
    swapped = sine_wav(660.0, 0.25, 44100)
    assert len(swapped) == (tmp_path / "a.wav").stat().st_size
    (tmp_path / "a.wav").write_bytes(swapped)
    second = features_for_manifest(
        mf, audio_root=str(tmp_path), cache_dir=str(cache)
    )
    fresh = features_for_manifest(mf, audio_root=str(tmp_path))
    assert np.array_equal(second, fresh)
    assert not np.array_equal(second[0], first[0])
    assert np.array_equal(second[1], first[1])
    assert len(list(cache.glob("*.vatf"))) == 3


def test_thread_count_does_not_change_result(tmp_path):
    _write_clips(
        tmp_path, {f"t{i}.wav": 300.0 + 100.0 * i for i in range(6)}
    )
    rows = "".join(f"t{i}.wav,park,paris\n" for i in range(6))
    # unique paths, same labels
    mf = parse_manifest("path,scene,city\n" + rows)
    serial = features_for_manifest(mf, audio_root=str(tmp_path))
    threaded = features_for_manifest(
        mf, audio_root=str(tmp_path), threads=3
    )
    assert np.array_equal(serial, threaded)


def test_features_build_one_filterbank_per_config(tmp_path, monkeypatch):
    # The front end has one config, its constants: its filterbank is built
    # once and serves every later call.
    _write_clips(tmp_path, {f"t{i}.wav": 300.0 + 100.0 * i for i in range(6)})
    mf = parse_manifest("path,scene,city\n"
                        + "".join(f"t{i}.wav,park,paris\n" for i in range(6)))
    builds = []
    original = scenevat.audio._mel_breakpoints

    def counting():
        builds.append(1)
        return original()

    scenevat.audio.mel_filterbank.cache_clear()
    monkeypatch.setattr(scenevat.audio, "_mel_breakpoints", counting)
    for _ in range(2):
        features_for_manifest(mf, audio_root=str(tmp_path))
    assert builds == [1]


def test_features_set_up_once_before_the_workers(tmp_path, monkeypatch):
    # The filterbank is built once, in the calling thread, before the pool
    # starts, not by each worker.
    _write_clips(tmp_path, {f"t{i}.wav": 300.0 + 100.0 * i for i in range(6)})
    mf = parse_manifest("path,scene,city\n"
                        + "".join(f"t{i}.wav,park,paris\n" for i in range(6)))
    builders = []
    breakpoints = scenevat.audio._mel_breakpoints

    def counting_breakpoints():
        builders.append(threading.current_thread())
        return breakpoints()

    scenevat.audio.mel_filterbank.cache_clear()
    monkeypatch.setattr(scenevat.audio, "_mel_breakpoints", counting_breakpoints)
    features_for_manifest(mf, audio_root=str(tmp_path),
                          cache_dir=str(tmp_path / "cache"), threads=2)
    assert builders == [threading.current_thread()]


def test_decode_errors_name_the_file(tmp_path):
    (tmp_path / "bad.wav").write_bytes(b"not audio")
    mf = parse_manifest("path,scene,city\nbad.wav,park,paris\n")
    with pytest.raises(InputError, match="bad.wav"):
        features_for_manifest(mf, audio_root=str(tmp_path))


def test_unreadable_clip_names_the_file(tmp_path, monkeypatch):
    # A clip that passes the existence check but cannot be opened.
    monkeypatch.setattr(scenevat.report.os.path, "isfile", lambda p: True)
    mf = parse_manifest("path,scene,city\ngone.wav,park,paris\n")
    with pytest.raises(InputError) as err:
        features_for_manifest(mf, audio_root=str(tmp_path))
    assert str(err.value).startswith(f"cannot read WAV file {tmp_path / 'gone.wav'}: ")


# --------------------------------------------------------------------------
# report runs


def _blob_manifest_and_features(n_per=10, seed=0):
    """Three separated blobs labeled by three scenes across two cities."""
    feats, labels = gaussian_blobs(3, n_per, 8, 10.0, seed=seed)
    scenes = ["airport", "bus", "park"]
    cities = ["paris", "london"]
    lines = ["path,scene,city"]
    for i, lab in enumerate(labels):
        lines.append(f"clip{i}.wav,{scenes[lab]},{cities[i % 2]}")
    return parse_manifest("\n".join(lines) + "\n"), feats


def _tree_bytes(root):
    out = {}
    for dirpath, _, names in os.walk(root):
        for name in names:
            p = os.path.join(dirpath, name)
            with open(p, "rb") as fh:
                out[os.path.relpath(p, root)] = fh.read()
    return out


def test_run_report_all_grouping_recovers_count(tmp_path):
    mf, feats = _blob_manifest_and_features()
    report = run_report(mf, feats, "all", str(tmp_path / "out"))
    assert report["summary"] == {"all": 3}
    entry = report["subsets"][0]
    assert entry["n"] == 30
    assert entry["stacks"]["scene"]["run_count"] == 3
    for rel in [
        "all/odi.pgm",
        "all/ordering.json",
        "all/cce.json",
        "all/dissim.vatf",
        "all/stack_scene.svg",
        "all/stack_scene.csv",
        "all/stack_city.svg",
        "report.json",
    ]:
        assert (tmp_path / "out" / rel).is_file(), rel
    on_disk = json.loads((tmp_path / "out" / "report.json").read_text())
    assert on_disk["summary"] == {"all": 3}


def test_run_report_is_byte_deterministic(tmp_path):
    mf, feats = _blob_manifest_and_features(seed=5)
    run_report(mf, feats, "all", str(tmp_path / "o1"))
    run_report(mf, feats, "all", str(tmp_path / "o2"))
    one, two = _tree_bytes(tmp_path / "o1"), _tree_bytes(tmp_path / "o2")
    assert one.keys() == two.keys()
    for rel in one:
        assert one[rel] == two[rel], rel
    # and overwriting in place is stable too
    run_report(mf, feats, "all", str(tmp_path / "o1"))
    assert _tree_bytes(tmp_path / "o1") == one


def test_run_report_by_scene_skips_empty_subsets(tmp_path):
    mf, feats = _blob_manifest_and_features()
    with pytest.warns(UserWarning) as rec:
        report = run_report(mf, feats, "by_scene", str(tmp_path / "out"))
    assert sum("skipping" in str(w.message) for w in rec) == 7
    assert {e["subset"] for e in report["subsets"]} == {"airport", "bus", "park"}
    assert len(report["skipped"]) == 7
    assert all(e["n"] == 0 for e in report["skipped"])
    # per-scene stacks are labeled by city
    entry = report["subsets"][0]
    assert set(entry["stacks"]) == {"city"}


def test_run_report_skips_single_record_subset(tmp_path):
    mf = parse_manifest(
        "path,scene,city\na.wav,airport,paris\nb.wav,airport,paris\n"
        "c.wav,bus,london\n"
    )
    feats = np.arange(6, dtype=np.float64).reshape(3, 2)
    with pytest.warns(UserWarning) as rec:
        report = run_report(mf, feats, "by_scene", str(tmp_path / "out"))
    assert any("1 record" in str(w.message) for w in rec)
    assert {e["subset"]: e["n"] for e in report["skipped"]}["bus"] == 1


def test_run_report_single_subset(tmp_path):
    # A scene or city name as the grouping analyses that one subset, and
    # stacks the other label kind.
    mf, feats = _blob_manifest_and_features()
    report = run_report(mf, feats, "airport", str(tmp_path / "s"))
    assert report["group"] == "airport"
    assert [e["subset"] for e in report["subsets"]] == ["airport"]
    assert list(report["subsets"][0]["stacks"]) == ["city"]
    report = run_report(mf, feats, "london", str(tmp_path / "c"))
    assert [e["subset"] for e in report["subsets"]] == ["london"]
    assert list(report["subsets"][0]["stacks"]) == ["scene"]
    for grouping in ("mars", "single_subset"):
        with pytest.raises(InputError, match="unknown grouping.*a scene or a city"):
            run_report(mf, feats, grouping, str(tmp_path / grouping))
        assert not (tmp_path / grouping).exists()


def test_run_report_specvat_fixed_and_auto_k(tmp_path):
    mf, feats = _blob_manifest_and_features()
    fixed = run_report(
        mf, feats, "all", str(tmp_path / "fixed"), method="specvat", k=3
    )
    entry = fixed["subsets"][0]
    assert entry["k"] == 3
    assert "k_scores" not in entry
    assert fixed["summary"]["all"] == 3

    auto = run_report(mf, feats, "all", str(tmp_path / "auto"), method="specvat")
    entry = auto["subsets"][0]
    assert entry["k"] == 3
    assert set(entry["k_scores"]) == {"2", "3", "4", "5", "6", "7", "8", "9", "10"}


def test_run_report_input_validation(tmp_path):
    mf, feats = _blob_manifest_and_features()
    with pytest.raises(InputError, match="unknown grouping"):
        run_report(mf, feats, "by_planet", str(tmp_path / "a"))
    with pytest.raises(InputError, match="unknown method"):
        run_report(mf, feats, "all", str(tmp_path / "b"), method="tsne")
    with pytest.raises(InputError, match="do not match manifest"):
        run_report(mf, feats[:-1], "all", str(tmp_path / "c"))


@pytest.mark.parametrize("method, k, message", [
    ("vat", 3, "--k 3: VAT takes no k"),
    ("specvat", 1, "--k 1: SpecVAT needs k >= 2"),
])
def test_analyze_checks_k_as_run_report_does(method, k, message):
    # VAT ignored a k, and SpecVAT at k = 1 rendered an all-black image.
    x = gaussian_blobs(3, 8, 8, 10.0, seed=2)[0]
    with pytest.raises(InputError, match=message):
        analyze_features(x, method, k)
    with pytest.raises(InputError, match=message):
        analyze(euclidean_dissim(x), method, k)


def _specvat_report_with_two_record_london(out, k=None):
    feats, labels = gaussian_blobs(3, 8, 8, 10.0, seed=2)
    scenes = ["airport", "bus", "park"]
    lines = ["path,scene,city"]
    for i, lab in enumerate(labels):
        lines.append(f"clip{i}.wav,{scenes[lab]},{'london' if i < 2 else 'paris'}")
    mf = parse_manifest("\n".join(lines) + "\n")
    with pytest.warns(UserWarning) as rec:
        report = run_report(mf, feats, "by_city", str(out), method="specvat",
                            k=k)
    return report, rec


def test_run_report_specvat_scan_skips_two_record_subset(tmp_path):
    # London has exactly 2 records: too few for the k scan (k >= 2 needs 3).
    out = tmp_path / "out"
    report, rec = _specvat_report_with_two_record_london(out)
    assert any("'london' has 2 record" in str(w.message) for w in rec)
    assert {"subset": "london", "n": 2} in report["skipped"]
    assert [e["subset"] for e in report["subsets"]] == ["paris"]
    assert set(report["summary"]) == {"paris"}
    for rel in ["paris/odi.pgm", "paris/cce.json", "report.json"]:
        assert (out / rel).is_file(), rel
    assert not (out / "london").exists()


def test_run_report_specvat_explicit_k_skips_two_record_subset(tmp_path):
    # k=3 would be clamped to 1 on London's 2 records, and one eigenvector
    # maps both to +1: a constant image that used to end the whole report.
    out = tmp_path / "out"
    report, rec = _specvat_report_with_two_record_london(out, k=3)
    assert any("'london' has 2 record" in str(w.message) for w in rec)
    assert {"subset": "london", "n": 2} in report["skipped"]
    assert [(e["subset"], e["k"]) for e in report["subsets"]] == [("paris", 3)]
    for rel in ["paris/odi.pgm", "paris/cce.json", "report.json"]:
        assert (out / rel).is_file(), rel
    assert not (out / "london").exists()


def test_run_report_warns_when_it_clamps_an_explicit_k(tmp_path):
    # London has 3 records, so k=4 runs as k=2: said, and the artifacts are
    # those of k=2.
    feats, labels = gaussian_blobs(3, 8, 8, 10.0, seed=2)
    lines = ["path,scene,city"] + [
        f"clip{i}.wav,airport,{'london' if i < 3 else 'paris'}"
        for i in range(len(labels))
    ]
    mf = parse_manifest("\n".join(lines) + "\n")

    def london(out, k):
        with warnings.catch_warnings(record=True) as rec:
            warnings.simplefilter("always")
            run_report(mf, feats, "london", str(out), method="specvat", k=k)
        return [str(w.message) for w in rec]

    clamped = london(tmp_path / "k4", 4)
    assert clamped == ["subset 'london' has 3 records; k=4 clamped to 2"]
    assert london(tmp_path / "k2", 2) == []
    assert _tree_bytes(tmp_path / "k4") == _tree_bytes(tmp_path / "k2")


def test_run_report_k_scan_warnings_reach_the_caller(tmp_path):
    # Six equidistant records: the scan warns that k selection is degenerate.
    lines = ["path,scene,city"] + [f"a{i}.wav,airport,paris" for i in range(6)]
    mf = parse_manifest("\n".join(lines) + "\n")
    feats = 3.0 * np.eye(6)
    with pytest.warns(UserWarning, match="constant-distance matrix"):
        report = run_report(mf, feats, "all", str(tmp_path / "out"),
                            method="specvat")
    assert report["subsets"][0]["k"] == 2


# A one-blob subset can get Otsu threshold 0: no dark sub-diagonal pixel.
@pytest.mark.filterwarnings("ignore:sub-diagonal signal is identically zero")
@pytest.mark.parametrize("method", ["vat", "specvat"])
def test_run_report_never_revalidates_its_matrices(tmp_path, monkeypatch, method):
    # euclidean_dissim's output is valid by construction: analyze takes it
    # as it is, and no subset runs check_dissim.
    mods = [scenevat.matrix, scenevat.vat, scenevat.specvat, scenevat.report]
    calls = []
    original = mods[0].check_dissim

    def counting(m):
        calls.append(np.shape(m))
        return original(m)

    for mod in mods:
        if getattr(mod, "check_dissim", None) is original:
            monkeypatch.setattr(mod, "check_dissim", counting)
    mf, feats = _blob_manifest_and_features()
    with pytest.warns(UserWarning, match="skipping"):
        report = run_report(mf, feats, "by_scene", str(tmp_path / "out"),
                            method=method)
    assert len(report["subsets"]) == 3
    assert calls == []


def test_run_report_names_a_bad_features_row_by_its_row_in_the_matrix(tmp_path):
    # Row 9 is the bus subset's row 3: the error names the row of the input.
    lines = ["path,scene,city"] + [
        f"c{i}.wav,{'airport' if i < 6 else 'bus'},paris" for i in range(12)
    ]
    feats = np.arange(48.0).reshape(12, 4)
    feats[9, 2] = np.nan
    with pytest.raises(InputError, match=r"^feature row 9 contains"):
        run_report(parse_manifest("\n".join(lines) + "\n"), feats, "by_scene",
                   str(tmp_path / "o"))


@pytest.mark.filterwarnings("ignore:subset .* has 0 record")
def test_run_report_every_subset_overflowing_is_no_degenerate_image(tmp_path):
    # Each scene holds a row of 1e200: both subsets are skipped as
    # overflows, and the first overflow is raised, as for one subset.
    lines = ["path,scene,city"] + [
        f"c{i}.wav,{'airport' if i < 6 else 'bus'},paris" for i in range(12)
    ]
    feats = np.arange(48.0).reshape(12, 4)
    feats[[2, 8]] = 1e200
    with pytest.warns(UserWarning, match="feature distances overflow"):
        with pytest.raises(DistanceOverflow,
                           match="^feature distances overflow") as exc:
            run_report(parse_manifest("\n".join(lines) + "\n"), feats,
                       "by_scene", str(tmp_path / "o"))
    assert not isinstance(exc.value, DegenerateImageError)
    assert (tmp_path / "o" / "report.json").is_file()


# Scanning up to K_MAX, two one-blob subsets pick k = 9 and get Otsu
# threshold 0, as in the test above.
@pytest.mark.filterwarnings("ignore:sub-diagonal signal is identically zero")
def test_run_report_k_scan_runs_one_eigh_per_subset(tmp_path, monkeypatch):
    # 10 records per subset, below ARPACK_MIN_N: one evr subset solve each
    calls = count_solvers(monkeypatch)
    mf, feats = _blob_manifest_and_features()
    with pytest.warns(UserWarning, match="skipping"):
        report = run_report(mf, feats, "by_scene", str(tmp_path / "out"),
                            method="specvat")
    # the scan's candidates, k = 2 .. min(K_MAX, n-1)
    ks = {str(k) for k in range(2, min(K_MAX, 10 - 1) + 1)}
    assert [set(e["k_scores"]) for e in report["subsets"]] == [ks] * 3
    assert calls == {"lanczos": [], "subset": [(10, 10)] * 3, "full": []}


# --------------------------------------------------------------------------
# SpecVAT subsets on the packed triangle


def _one_subset_manifest(n):
    return parse_manifest("path,scene,city\n" + "".join(
        f"c{i}.wav,{('airport', 'bus', 'park')[i % 3]},paris\n" for i in range(n)))


@pytest.mark.parametrize("k", [3, None])
def test_run_report_specvat_overflow_in_a_late_band_leaves_no_file(tmp_path, k):
    # The distances are built band by band; the last band overflows after
    # two are built.  An earlier run's file goes too.
    out = tmp_path / "o"
    (out / "all").mkdir(parents=True)
    (out / "all" / "dissim.vatf").write_bytes(b"an earlier run's file")
    with pytest.warns(UserWarning, match="'all': feature distances overflow"):
        with pytest.raises(DistanceOverflow, match="^feature distances overflow"):
            run_report(_one_subset_manifest(600), overflow_in_last_band(), "all",
                       str(out), method="specvat", k=k)
    doc = json.loads((out / "report.json").read_text())
    assert doc["skipped"] == [{
        "subset": "all", "n": 600,
        "reason": "feature distances overflow: distances above about 1.3e154 "
                  "overflow when squared",
    }]
    assert sorted(p.name for p in out.iterdir()) == ["report.json"]


@pytest.mark.filterwarnings("ignore::UserWarning")
@pytest.mark.parametrize("n", [40, 600, 1100])
def test_specvat_report_writes_the_embedding_its_image_is_drawn_from(tmp_path, n):
    # 40 and 600 records solve with evr, 1100 with ARPACK where eigsh can be
    # seeded.  The report writes scenevat specvat's embedding.vatf and no
    # distances, and the embedded distances in VAT order, quantized by the
    # ODI rule, are its image.
    feats = gaussian_blobs(3, -(-n // 3), 8, 4.0, seed=4)[0][:n]
    write_vatf(tmp_path / "f.vatf", feats)
    run_report(_one_subset_manifest(n), feats, "all", str(tmp_path / "report"),
               method="specvat")
    assert main(["specvat", "--features", str(tmp_path / "f.vatf"),
                 "--out", str(tmp_path / "cli")]) == 0
    subset = tmp_path / "report" / "all"
    assert ((subset / "embedding.vatf").read_bytes()
            == (tmp_path / "cli" / "embedding.vatf").read_bytes())
    assert not (subset / "dissim.vatf").exists()
    e = read_vatf(subset / "embedding.vatf")
    eo = e[read_ordering(subset / "ordering.json").order]
    d = cdist(eo, eo)
    image = np.floor(d * 255.0 / d.max() + 0.5).astype(np.uint8)
    assert read_pgm(subset / "odi.pgm").tobytes() == image.tobytes()


@pytest.mark.filterwarnings("ignore::UserWarning")
def test_a_rerun_with_the_other_method_leaves_only_its_own_files(tmp_path):
    # VAT -> SpecVAT -> VAT into one --out: each run leaves the tree of a
    # fresh run, so no stale dissim.vatf or embedding.vatf, and report.json
    # names the subset's matrix file.
    mf, feats = _blob_manifest_and_features()
    for run, (method, matrix) in enumerate([("vat", "dissim"),
                                            ("specvat", "embedding"),
                                            ("vat", "dissim")]):
        report = run_report(mf, feats, "all", str(tmp_path / "rerun"),
                            method=method)
        fresh = tmp_path / f"fresh{run}"
        run_report(mf, feats, "all", str(fresh), method=method)
        assert _tree_bytes(tmp_path / "rerun") == _tree_bytes(fresh)
        artifacts = report["subsets"][0]["artifacts"]
        assert sorted(artifacts) == sorted(["odi", "ordering", "cce", matrix])
        assert artifacts[matrix] == f"all/{matrix}.vatf"
        assert (tmp_path / "rerun" / "all" / f"{matrix}.vatf").is_file()


@pytest.mark.filterwarnings("ignore::UserWarning")
def test_an_interrupted_rerun_leaves_no_report_json(tmp_path, monkeypatch):
    # A report.json left by the finished VAT run would describe files that
    # the SpecVAT rerun replaced or removed.
    mf, feats = _blob_manifest_and_features()
    out = tmp_path / "out"
    run_report(mf, feats, "by_scene", str(out))
    calls = []
    analyze_subset = scenevat.report.analyze_features

    def interrupt_the_third(*args, **kwargs):
        calls.append(args[1])
        if len(calls) == 3:
            raise KeyboardInterrupt
        return analyze_subset(*args, **kwargs)

    monkeypatch.setattr(scenevat.report, "analyze_features", interrupt_the_third)
    with pytest.raises(KeyboardInterrupt):
        run_report(mf, feats, "by_scene", str(out), method="specvat")
    assert calls == ["specvat"] * 3
    assert not (out / "report.json").exists()
    # The two finished subsets hold the rerun's files; the third, none.
    assert sorted(p.name for p in out.iterdir()) == ["airport", "bus"]
    for name in ("airport", "bus"):
        assert (out / name / "embedding.vatf").is_file()
        assert not (out / name / "dissim.vatf").exists()


@pytest.mark.filterwarnings("ignore:subset .* has 0 record")
def test_a_subset_interrupted_in_its_stacks_leaves_none_of_its_files(
        tmp_path, monkeypatch):
    # The writes after the analysis once ran outside the clause that cleans
    # up: an interrupt in its stacks left Paris with 4 of its 6 files.  An
    # interrupt in ``_write_analysis``'s ordering.json write, once odi.pgm is
    # written, leaves none of them either.
    mf, feats = _blob_manifest_and_features()
    run_report(mf, feats, "by_city", str(tmp_path / "fresh"))
    subsets, odi_written = [], []
    stack_artifacts = scenevat.report._stack_artifacts
    write_text = scenevat.report.atomic_write_text

    def interrupt_the_second(kinds, manifest, idx, ordering, subset_dir):
        subsets.append(os.path.basename(subset_dir))
        if len(subsets) == 2:
            raise KeyboardInterrupt
        return stack_artifacts(kinds, manifest, idx, ordering, subset_dir)

    def interrupt_the_second_ordering(path, text):
        subset_dir, fname = os.path.split(path)
        if fname == "ordering.json":
            subsets.append(os.path.basename(subset_dir))
            if len(subsets) == 2:
                odi_written.append(os.path.isfile(
                    os.path.join(subset_dir, "odi.pgm")))
                raise KeyboardInterrupt
        write_text(path, text)

    for name, interrupt in (("_stack_artifacts", interrupt_the_second),
                            ("atomic_write_text", interrupt_the_second_ordering)):
        subsets.clear()
        out = tmp_path / name
        with monkeypatch.context() as patch:
            patch.setattr(scenevat.report, name, interrupt)
            with pytest.raises(KeyboardInterrupt):
                run_report(mf, feats, "by_city", str(out))
        assert subsets == ["london", "paris"]
        assert sorted(p.name for p in out.iterdir()) == ["london"]
        assert (_tree_bytes(out / "london")
                == _tree_bytes(tmp_path / "fresh" / "london"))
    assert odi_written == [True]


@pytest.mark.filterwarnings("ignore:subset .* has 0 record")
def test_a_failed_eigensolve_skips_only_its_subset(tmp_path, monkeypatch):
    # A NumericError other than a degenerate image once ended the run with
    # no report.json.  The failure the report keeps does not keep the failed
    # subset's distances alive while the next subset runs.
    mf, feats = _blob_manifest_and_features()
    eigen_topk = scenevat.specvat._eigen_topk
    calls, failed = [], []

    def fail_the_first(p, n, k):
        calls.append(n)
        if len(calls) == 1:
            failed.append(weakref.ref(p))
            raise NumericError("eigendecomposition failed: no convergence")
        calls.append(failed[0]() is None)
        return eigen_topk(p, n, k)

    monkeypatch.setattr(scenevat.specvat, "_eigen_topk", fail_the_first)
    out = tmp_path / "out"
    with pytest.warns(UserWarning,
                      match="'london': eigendecomposition failed: no convergence"):
        report = run_report(mf, feats, "by_city", str(out), method="specvat")
    assert calls == [15, 15, True]
    assert {"subset": "london", "n": 15,
            "reason": "eigendecomposition failed: no convergence"} in report["skipped"]
    assert report["summary"] == {"paris": 3}
    assert json.loads((out / "report.json").read_text()) == report
    assert sorted(p.name for p in out.iterdir()) == ["paris", "report.json"]
    assert (out / "paris" / "embedding.vatf").is_file()


def test_an_out_of_memory_square_is_named_in_the_reason(tmp_path, monkeypatch):
    # Below ARPACK_MIN_N evr solves in the n x n float64 square unpacked
    # from the triangle, twice the triangle's bytes, yet the reason once
    # named the triangle alone.
    mf, feats = _blob_manifest_and_features()
    n = len(feats)

    def no_memory(p, out):
        raise MemoryError

    monkeypatch.setattr(scenevat.specvat, "unpack", no_memory)
    reason = (f"out of memory: {n} records need {4 * n * (n + 1)} bytes of "
              f"packed distances, and {8 * n * n} more where evr solves its "
              "square")
    with pytest.warns(UserWarning, match="'all': out of memory"), \
            pytest.raises(MemoryError):
        run_report(mf, feats, "all", str(tmp_path), method="specvat", k=3)
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["skipped"] == [{"subset": "all", "n": n, "reason": reason}]


@pytest.mark.filterwarnings("ignore:subset .* has 0 record")
def test_a_degenerate_subset_lets_its_matrix_go_before_the_next(tmp_path,
                                                               monkeypatch):
    # London's identical rows give a single-intensity image.  Its analysis
    # was once still held while Paris's distances were built.
    feats = np.vstack([np.ones((6, 4)), np.arange(24.0).reshape(6, 4)])
    mf = parse_manifest("path,scene,city\n" + "".join(
        f"c{i}.wav,bus,{'london' if i < 6 else 'paris'}\n" for i in range(12)))
    analyze_subset = scenevat.report.analyze_features
    images, alive = [], []

    def watch(*args, **kwargs):
        alive.extend(image() is not None for image in images)
        result = analyze_subset(*args, **kwargs)
        images.append(weakref.ref(result.image))
        return result

    monkeypatch.setattr(scenevat.report, "analyze_features", watch)
    with pytest.warns(UserWarning,
                      match="'london': image has a single intensity level"):
        report = run_report(mf, feats, "by_city", str(tmp_path / "o"))
    assert report["summary"] == {"paris": 1}
    assert alive == [False]


def test_analyze_features_writes_distances_for_vat_alone(tmp_path):
    x = gaussian_blobs(3, 8, 8, 10.0, seed=2)[0]
    with pytest.raises(InputError, match="SpecVAT writes no distance matrix"):
        analyze_features(x, "specvat", 3, path=tmp_path / "dissim.vatf")
    assert list(tmp_path.iterdir()) == []
    analyze_features(x, "vat", path=tmp_path / "dissim.vatf")
    assert read_vatf(tmp_path / "dissim.vatf").tobytes() == euclidean_dissim(x).tobytes()
