import gc
import json
import os
import shutil
import struct
import subprocess
import sys
import warnings

import numpy as np
import pytest
from scipy.spatial.distance import cdist

import scenevat.cli as cli
import scenevat.matrix
import scenevat.report
import scenevat.specvat
from scenevat.audio import N_MELS
from scenevat.errors import InputError
from scenevat.cli import main
from scenevat.manifest import scan_dcase_tree
from scenevat.synth import gaussian_blobs
from scenevat.vat import read_pgm, write_pgm
from scenevat.vatf import read_vatf, write_vatf

from conftest import overflow_in_last_band, sine_wav


def test_synth_blocks_then_vat_then_cce_then_stack(tmp_path):
    syn = tmp_path / "syn"
    assert main([
        "synth", "--mode", "blocks", "--sizes", "10,10,10",
        "--within", "0.01", "--between", "1.0", "--out", str(syn),
    ]) == 0
    m = read_vatf(syn / "dissim.vatf")
    assert m.shape == (30, 30)

    vat_out = tmp_path / "vat"
    assert main([
        "vat", "--dissim", str(syn / "dissim.vatf"), "--out", str(vat_out),
    ]) == 0
    img = read_pgm(vat_out / "odi.pgm")
    assert img.shape == (30, 30)
    ordering = json.loads((vat_out / "ordering.json").read_text())
    assert sorted(ordering["order"]) == list(range(30))

    cce_out = tmp_path / "cce"
    assert main([
        "cce", "--image", str(vat_out / "odi.pgm"), "--out", str(cce_out),
    ]) == 0
    doc = json.loads((cce_out / "cce.json").read_text())
    assert doc["cluster_count"] == 3

    # a manifest whose labels track the three blocks
    scenes = ["airport", "bus", "park"]
    rows = "".join(
        f"r{i}.wav,{scenes[i // 10]},paris\n" for i in range(30)
    )
    manifest = tmp_path / "m.csv"
    manifest.write_text("path,scene,city\n" + rows)
    stack_out = tmp_path / "stack"
    assert main([
        "stack", "--manifest", str(manifest),
        "--ordering", str(vat_out / "ordering.json"),
        "--label", "scene", "--out", str(stack_out),
    ]) == 0
    csv = (stack_out / "stack_scene.csv").read_text()
    assert csv.startswith("position,record,label\n")
    assert len(csv.splitlines()) == 31
    assert (stack_out / "stack_scene.svg").read_text().startswith("<svg")


def test_synth_blobs_and_specvat(tmp_path):
    syn = tmp_path / "blobs"
    assert main([
        "synth", "--mode", "blobs", "--clusters", "3", "--n-per", "12",
        "--dim", "8", "--sep", "10", "--seed", "4", "--out", str(syn),
    ]) == 0
    feats = read_vatf(syn / "features.vatf")
    assert feats.shape == (36, 8)
    labels = (syn / "labels.csv").read_text().splitlines()
    assert labels[0] == "index,label" and len(labels) == 37

    out = tmp_path / "sv"
    assert main([
        "specvat", "--features", str(syn / "features.vatf"),
        "--k", "3", "--out", str(out),
    ]) == 0
    assert read_pgm(out / "odi.pgm").shape == (36, 36)
    e = read_vatf(out / "embedding.vatf")
    assert cdist(e, e).shape == (36, 36)


@pytest.mark.parametrize("k", [["--k", "3"], []])
def test_specvat_of_features_writes_what_specvat_of_their_distances_writes(tmp_path, k):
    # --features builds the packed triangle and the local scales straight
    # from the features; --dissim packs the square matrix it reads.  Every
    # file is the same.  420 records: the distances come in two bands.
    feats, _ = gaussian_blobs(3, 140, 6, 4.0, seed=5)
    write_vatf(tmp_path / "f.vatf", feats)
    write_vatf(tmp_path / "d.vatf", scenevat.matrix.euclidean_dissim(feats))
    for kind, path in [("features", "f.vatf"), ("dissim", "d.vatf")]:
        assert main(["specvat", f"--{kind}", str(tmp_path / path), *k,
                     "--out", str(tmp_path / kind)]) == 0
    for name in ("odi.pgm", "ordering.json", "embedding.vatf"):
        assert ((tmp_path / "features" / name).read_bytes()
                == (tmp_path / "dissim" / name).read_bytes()), name
    if k:
        e = scenevat.specvat.specvat(scenevat.matrix.euclidean_dissim(feats),
                                     3).embedding
        got = read_vatf(tmp_path / "features" / "embedding.vatf")
        assert got.tobytes() == e.tobytes()
        # The embedded distances, as a band-by-band d_prime.vatf held them.
        banded = np.vstack([cdist(e[rows], e)
                            for rows in scenevat.matrix.bands(len(e))])
        assert cdist(got, got).tobytes() == banded.tobytes()


@pytest.mark.parametrize("method, k", [("vat", []), ("specvat", ["--k", "3"]),
                                      ("specvat", [])])
def test_matrix_command_writes_what_a_report_subset_writes(tmp_path, method, k):
    # scenevat vat|specvat --features and a report subset of the same
    # features go through one body, analyze_features, and one writer: the
    # same files, SpecVAT's embedding.vatf included.
    feats, _ = gaussian_blobs(3, 20, 6, 4.0, seed=5)
    write_vatf(tmp_path / "f.vatf", feats)
    manifest = tmp_path / "m.csv"
    manifest.write_text("path,scene,city\n" + "".join(
        f"c{i}.wav,bus,paris\n" for i in range(len(feats))))
    assert main([method, "--features", str(tmp_path / "f.vatf"), *k,
                 "--out", str(tmp_path / "cli")]) == 0
    assert main(["report", "--manifest", str(manifest), "--features",
                 str(tmp_path / "f.vatf"), "--group", "all", "--method", method,
                 *k, "--out", str(tmp_path / "report")]) == 0
    names = sorted(os.listdir(tmp_path / "cli"))
    assert names == sorted(["odi.pgm", "ordering.json"]
                           + ["embedding.vatf"] * (method == "specvat"))
    for name in names:
        assert ((tmp_path / "cli" / name).read_bytes()
                == (tmp_path / "report" / "all" / name).read_bytes()), name


def test_specvat_auto_k_prints_selection(tmp_path, capsys):
    syn = tmp_path / "syn"
    main([
        "synth", "--mode", "blobs", "--clusters", "3", "--n-per", "12",
        "--dim", "8", "--seed", "4", "--out", str(syn),
    ])
    out = tmp_path / "sv"
    assert main([
        "specvat", "--features", str(syn / "features.vatf"), "--out", str(out),
    ]) == 0
    printed = capsys.readouterr().out
    assert "selected k=3" in printed
    assert "k=2:" in printed and "k=4:" in printed


def test_manifest_with_a_bare_cr_exits_2(tmp_path, capsys):
    bad = tmp_path / "m.csv"
    bad.write_bytes(b"path,scene,city\na.\rav,airport,london\n")
    assert main(["features", "--manifest", str(bad),
                 "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err.startswith(
        f"error: {bad}: line 2: new-line character seen in unquoted field")
    assert not (tmp_path / "o").exists()


def _one_clip_inputs(tmp_path):
    """A valid WAV and manifest, a block matrix and an image: the inputs
    of features, report, specvat and cce, none of them at fault."""
    clips = tmp_path / "clips"
    clips.mkdir()
    (clips / "a0.wav").write_bytes(sine_wav(440.0, 0.25, 44100))
    manifest = tmp_path / "m.csv"
    manifest.write_text("path,scene,city\na0.wav,bus,paris\n")
    assert main(["synth", "--mode", "blocks", "--sizes", "3,3",
                 "--out", str(tmp_path / "syn")]) == 0
    image = tmp_path / "odi.pgm"
    write_pgm(np.eye(6, dtype=np.uint8) * 200, image)
    audio = ["--manifest", str(manifest), "--audio-root", str(clips)]
    return {
        "features": ["features"] + audio,
        "report": ["report"] + audio,
        "specvat": ["specvat", "--dissim", str(tmp_path / "syn" / "dissim.vatf")],
        "cce": ["cce", "--image", str(image)],
    }


@pytest.mark.parametrize("command", ["features", "report"])
def test_header_only_manifest_exits_2_naming_it(tmp_path, capsys, command):
    # np.vstack of no feature rows raised ValueError: exit 1, a traceback.
    # The check is features_for_manifest's, which has no path to name; the
    # manifest is the one --manifest names.
    argv = _one_clip_inputs(tmp_path)[command]
    manifest = tmp_path / "m.csv"
    manifest.write_text("path,scene,city\n")
    assert main(argv + ["--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err == "error: manifest has no records\n"
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("threads", ["0", "-5"])
def test_features_threads_below_one_exit_2(tmp_path, capsys, threads):
    argv = _one_clip_inputs(tmp_path)["features"]
    assert main(argv + ["--threads", threads, "--out", str(tmp_path / "o")]) == 2
    assert f"threads must be at least 1, got {threads}" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("text, problem", [
    ("{nope", "malformed ordering JSON"),
    ('{"order": [1, 0], "link_dist": [0.0, 1.0]}', "has 2 records"),
    ('{"order": [0, 0, 1], "link_dist": [0.0, 1.0, 1.0]}', "not a bijection"),
    ('{"order": ["a", "b", "c"], "link_dist": [0.0, 1.0, 1.0]}',
     "malformed ordering JSON"),
    # an int64 cast would read these as [0, 1, 2] and [1, 0, 2]
    ('{"order": [0.9, 1.5, 2.2], "link_dist": [0.0, 1.0, 1.0]}',
     "malformed ordering JSON"),
    ('{"order": [true, false, 2], "link_dist": [0.0, 1.0, 1.0]}',
     "malformed ordering JSON"),
    ('{"order": [1180591620717411303424, 0, 1], "link_dist": [0.0, 1.0, 1.0]}',
     "malformed ordering JSON"),
    # once drawn as a rect of width -600.00, or of width nan
    ('{"order": [0, 1, 2], "link_dist": [0, -5, 1]}',
     "link_dist[1] is -5.0; link distances must be finite and nonnegative"),
    ('{"order": [0, 1, 2], "link_dist": [0, Infinity, 1]}',
     "link_dist[1] is inf"),
    ('{"order": [0, 1, 2], "link_dist": [0, 1, NaN]}', "link_dist[2] is nan"),
])
def test_stack_bad_ordering_exits_2_naming_the_file(tmp_path, capsys, text,
                                                     problem):
    manifest = tmp_path / "m.csv"
    manifest.write_text("path,scene,city\n"
                        + "".join(f"r{i}.wav,bus,paris\n" for i in range(3)))
    ordering = tmp_path / "ordering.json"
    ordering.write_text(text)
    assert main(["stack", "--manifest", str(manifest), "--ordering",
                 str(ordering), "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(ordering) in err and problem in err
    if problem == "has 2 records":
        assert str(manifest) in err
    else:
        assert err.startswith(f"error: {ordering}: ")
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("records, group", [(0, "all"), (3, "vienna")])
def test_stack_of_an_empty_subset_exits_2_naming_the_ordering(tmp_path, capsys,
                                                              records, group):
    # A header-only manifest, or a city with no records, and an ordering of
    # no records: the stack's mean run length was 0 / 0.
    manifest = tmp_path / "m.csv"
    manifest.write_text("path,scene,city\n"
                        + "".join(f"r{i}.wav,bus,paris\n" for i in range(records)))
    ordering = tmp_path / "ordering.json"
    ordering.write_text('{"order": [], "link_dist": []}')
    assert main(["stack", "--manifest", str(manifest), "--ordering",
                 str(ordering), "--group", group, "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {ordering}: ordering has no records")
    assert not (tmp_path / "o").exists()


def test_stack_writes_the_reports_own_stack_files(tmp_path):
    syn = tmp_path / "syn"
    assert main(["synth", "--mode", "blobs", "--clusters", "3", "--n-per", "8",
                 "--seed", "2", "--out", str(syn)]) == 0
    scenes, cities = ["airport", "bus", "park"], ["paris", "london"]
    manifest = tmp_path / "m.csv"
    manifest.write_text("path,scene,city\n" + "".join(
        f"r{i}.wav,{scenes[i // 8]},{cities[i % 2]}\n" for i in range(24)))
    rep = tmp_path / "rep"
    assert main(["report", "--manifest", str(manifest),
                 "--features", str(syn / "features.vatf"), "--group", "all",
                 "--out", str(rep)]) == 0
    for label in ("scene", "city"):
        out = tmp_path / f"stack_{label}"
        assert main(["stack", "--manifest", str(manifest),
                     "--ordering", str(rep / "all" / "ordering.json"),
                     "--label", label, "--out", str(out)]) == 0
        for ext in ("svg", "csv"):
            name = f"stack_{label}.{ext}"
            assert (out / name).read_bytes() == (rep / "all" / name).read_bytes()
        # One step path draws the profile of all 24 records.
        svg = (out / f"stack_{label}.svg").read_text()
        assert svg.count("<path") == 1 and svg.count("v3") == 24


@pytest.mark.filterwarnings("ignore:subset .* has 0 record")
def test_stack_restacks_every_subset_of_a_report(tmp_path, capsys):
    # A subset's ordering indexes that subset's records: --group selects
    # them from the manifest as the report did.
    syn = tmp_path / "syn"
    assert main(["synth", "--mode", "blobs", "--clusters", "3", "--n-per", "8",
                 "--seed", "2", "--out", str(syn)]) == 0
    scenes, cities = ["airport", "bus", "park"], ["paris", "london"]
    manifest = tmp_path / "m.csv"
    manifest.write_text("path,scene,city\n" + "".join(
        f"r{i}.wav,{scenes[i // 8]},{cities[i % 3 // 2]}\n" for i in range(24)))
    rep = tmp_path / "rep"
    assert main(["report", "--manifest", str(manifest),
                 "--features", str(syn / "features.vatf"),
                 "--group", "by_city", "--out", str(rep)]) == 0
    for city, n in (("paris", 16), ("london", 8)):
        ordering = rep / city / "ordering.json"
        out = tmp_path / f"stack_{city}"
        assert main(["stack", "--manifest", str(manifest), "--ordering",
                     str(ordering), "--group", city, "--out", str(out)]) == 0
        for ext in ("svg", "csv"):
            name = f"stack_scene.{ext}"
            assert (out / name).read_bytes() == (rep / city / name).read_bytes()
        capsys.readouterr()
        assert main(["stack", "--manifest", str(manifest), "--ordering",
                     str(ordering), "--out", str(tmp_path / "all")]) == 2
        assert (f"ordering {ordering} has {n} records but manifest {manifest} "
                "has 24") in capsys.readouterr().err
    assert main(["stack", "--manifest", str(manifest), "--ordering",
                 str(rep / "paris" / "ordering.json"), "--group", "london",
                 "--out", str(tmp_path / "london")]) == 2
    assert ("has 16 records but subset 'london' of manifest "
            f"{manifest} has 8") in capsys.readouterr().err
    assert not (tmp_path / "london").exists()


# Caps its own address space a little above what its imports mapped, then
# runs each argv through main and prints the exit codes and stderr.  A
# matrix of 23000 records (2.1 GB packed, 4.2 GB square) then fails at
# np.empty, before any of its pages is touched.
_UNDER_AN_ADDRESS_CAP = """
import contextlib, io, json, resource, sys
sys.path.insert(0, sys.argv[1])
from scenevat.cli import main
with open("/proc/self/status") as fh:
    vm = next(int(line.split()[1]) for line in fh if line.startswith("VmSize:"))
cap = vm * 1024 + 2**29
_, hard = resource.getrlimit(resource.RLIMIT_AS)
if hard != resource.RLIM_INFINITY:
    cap = min(cap, hard)
resource.setrlimit(resource.RLIMIT_AS, (cap, hard))
results = []
for argv in json.loads(sys.argv[2]):
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        results.append([main(argv), None])
    results[-1][1] = err.getvalue()
print(json.dumps(results))
"""


@pytest.mark.skipif(not sys.platform.startswith("linux"),
                    reason="RLIMIT_AS and /proc/self/status as Linux has them")
def test_out_of_memory_skips_the_subset_and_exits_4(tmp_path):
    # A subset too large for memory once re-raised MemoryError: no
    # report.json, not even for the subsets that finished, and `vat`
    # exited 1 with a traceback.  A report whose only subset ran out of
    # memory then exited 3, not 4 as `vat` does.
    big = 23000
    rng = np.random.Generator(np.random.Philox(key=14))
    small = np.repeat([[0.0, 0.0], [9.0, 0.0], [0.0, 9.0]], 10, axis=0)
    feats = np.vstack([rng.normal(size=(big, 2)),
                       small + rng.normal(scale=0.1, size=small.shape)])
    write_vatf(tmp_path / "f.vatf", feats)
    write_vatf(tmp_path / "big.vatf", feats[:big])
    manifest = tmp_path / "m.csv"
    manifest.write_text("path,scene,city\n" + "".join(
        f"r{i}.wav,airport,{'london' if i < big else 'paris'}\n"
        for i in range(len(feats))))
    common = ["--manifest", str(manifest), "--features", str(tmp_path / "f.vatf"),
              "--group", "by_city"]
    argvs = [["report", *common, "--out", str(tmp_path / "vat")],
             ["report", *common, "--method", "specvat", "--k", "2",
              "--out", str(tmp_path / "specvat")],
             ["vat", "--features", str(tmp_path / "big.vatf"),
              "--out", str(tmp_path / "v")],
             ["specvat", "--features", str(tmp_path / "big.vatf"), "--k", "2",
              "--out", str(tmp_path / "s")],
             ["report", *common[:-1], "london", "--out", str(tmp_path / "one")]]
    src = os.path.dirname(os.path.dirname(scenevat.report.__file__))
    proc = subprocess.run(
        [sys.executable, "-c", _UNDER_AN_ADDRESS_CAP, src, json.dumps(argvs)],
        capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    results = json.loads(proc.stdout)
    needs = {"vat": f"{big} records need {8 * big * big} bytes of distances "
                    f"and {big * big} of image",
             "specvat": f"{big} records need {4 * big * (big + 1)} bytes of "
                        f"packed distances, and {8 * big * big} more where "
                        "evr solves its square"}
    for (code, err), method in zip(results, ("vat", "specvat")):
        assert code == 0, err
        rep = tmp_path / method
        report = json.loads((rep / "report.json").read_text())
        assert [e["subset"] for e in report["subsets"]] == ["paris"]
        assert report["summary"] == {"paris": 3}
        reason = f"out of memory: {needs[method]}"
        assert {"subset": "london", "n": big, "reason": reason} in report["skipped"]
        assert f"subset 'london': {reason}; skipping" in err
        assert not (rep / "london").exists()
    for code, err in results[2:4]:
        assert code == 4
        assert err.startswith("out of memory: Unable to allocate ")
        assert err.count("\n") == 1
    assert not (tmp_path / "v").exists() and not (tmp_path / "s").exists()
    code, err = results[4]
    assert code == 4, err
    assert [line for line in err.splitlines()
            if line.startswith("out of memory:")] == [err.splitlines()[-1]]
    assert err.splitlines()[-1].startswith("out of memory: Unable to allocate ")
    reason = f"out of memory: {needs['vat']}"
    report = json.loads((tmp_path / "one" / "report.json").read_text())
    assert report["subsets"] == [] and report["summary"] == {}
    assert report["skipped"] == [{"subset": "london", "n": big, "reason": reason}]
    assert sorted(p.name for p in (tmp_path / "one").iterdir()) == ["report.json"]


def test_features_and_report_from_audio(tmp_path):
    clips = tmp_path / "clips"
    clips.mkdir()
    freqs = {"a": 300.0, "b": 1200.0, "c": 2800.0}
    rows = []
    scenes = {"a": "airport", "b": "bus", "c": "park"}
    for stem, freq in freqs.items():
        for i in range(3):
            name = f"{stem}{i}.wav"
            (clips / name).write_bytes(sine_wav(freq + 7 * i, 0.25, 44100))
            rows.append(f"{name},{scenes[stem]},{'paris' if i % 2 else 'london'}")
    manifest = tmp_path / "m.csv"
    manifest.write_text("path,scene,city\n" + "\n".join(rows) + "\n")

    feat_out = tmp_path / "feats"
    assert main([
        "features", "--manifest", str(manifest), "--audio-root", str(clips),
        "--threads", "2", "--out", str(feat_out),
    ]) == 0
    feats = read_vatf(feat_out / "features.vatf")
    assert feats.shape == (9, N_MELS)

    rep_out = tmp_path / "rep"
    assert main([
        "report", "--manifest", str(manifest),
        "--features", str(feat_out / "features.vatf"),
        "--group", "all", "--out", str(rep_out),
    ]) == 0
    doc = json.loads((rep_out / "report.json").read_text())
    assert doc["summary"]["all"] >= 1
    assert (rep_out / "all" / "odi.pgm").is_file()


def test_report_summary_lines_printed(tmp_path, capsys):
    feats = np.arange(12, dtype=np.float64).reshape(6, 2)
    write_vatf(tmp_path / "f.vatf", feats)
    manifest = tmp_path / "m.csv"
    manifest.write_text(
        "path,scene,city\n"
        + "".join(f"x{i}.wav,airport,paris\n" for i in range(6))
    )
    assert main([
        "report", "--manifest", str(manifest), "--features",
        str(tmp_path / "f.vatf"), "--group", "airport",
        "--out", str(tmp_path / "o"),
    ]) == 0
    printed = capsys.readouterr().out
    assert printed.splitlines()[0].startswith("airport: ")


def test_exit_code_2_on_bad_input(tmp_path, capsys):
    bad = tmp_path / "m.csv"
    bad.write_text("path,scene,city\nx.wav,beach,paris\n")
    code = main([
        "features", "--manifest", str(bad), "--out", str(tmp_path / "o"),
    ])
    assert code == 2
    assert "error:" in capsys.readouterr().err
    # missing file surfaces the same way
    assert main([
        "vat", "--dissim", str(tmp_path / "none.vatf"),
        "--out", str(tmp_path / "o2"),
    ]) == 2


def test_exit_code_3_on_degenerate_image(tmp_path, capsys):
    img = np.full((8, 8), 7, dtype=np.uint8)
    write_pgm(img, tmp_path / "flat.pgm")
    code = main([
        "cce", "--image", str(tmp_path / "flat.pgm"),
        "--out", str(tmp_path / "o"),
    ])
    assert code == 3
    assert "numeric failure" in capsys.readouterr().err


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_specvat_overflowing_distances_exit_3(tmp_path, capsys):
    # Distances of 1e200 overflow when squared; the affinity would be NaN.
    path = tmp_path / "huge.vatf"
    write_vatf(path, 1e200 * (np.ones((4, 4)) - np.eye(4)))
    code = main([
        "specvat", "--dissim", str(path), "--k", "2", "--out", str(tmp_path / "o"),
    ])
    assert code == 3
    assert "1.3e154" in capsys.readouterr().err


def test_cce_flag_overrides(tmp_path):
    from scenevat.synth import block_dissim
    from scenevat.vat import odi_from, vat_order

    m = block_dissim([6, 6], 0.01, 1.0)
    img = odi_from(m, vat_order(m))
    write_pgm(img, tmp_path / "odi.pgm")
    out = tmp_path / "o"
    assert main([
        "cce", "--image", str(tmp_path / "odi.pgm"), "--band-width", "2",
        "--b", "0", "--out", str(out),
    ]) == 0
    doc = json.loads((out / "cce.json").read_text())
    assert doc["band_width"] == 2 and doc["b"] == 0
    # --b 0 is the cutoff that zero mode set: --threshold-mode is no flag.
    with pytest.raises(SystemExit) as err:
        main(["cce", "--image", str(tmp_path / "odi.pgm"),
              "--threshold-mode", "zero", "--out", str(tmp_path / "z")])
    assert err.value.code == 2
    assert not (tmp_path / "z").exists()


def test_cce_negative_cutoff_exits_2(tmp_path, capsys):
    # Below 0 every signal column is a run: the whole image would be one.
    img = np.full((40, 40), 255, dtype=np.uint8)
    img[:20, :20] = img[20:, 20:] = 0
    write_pgm(img, tmp_path / "two.pgm")
    argv = ["cce", "--image", str(tmp_path / "two.pgm"), "--out", str(tmp_path / "o")]
    assert main(argv) == 0
    assert capsys.readouterr().out == "clusters: 2\n"
    assert main(argv + ["--b", "-1"]) == 2
    assert "b must be >= 0, got -1" in capsys.readouterr().err


@pytest.mark.parametrize("flag, value, message", [
    ("--b", "-1", "b must be >= 0, got -1"),
    ("--band-width", "0", "band_width must be >= 1, got 0"),
])
def test_cce_refuses_a_bad_flag_before_it_reads_the_image(tmp_path, capsys,
                                                          flag, value, message):
    missing = tmp_path / "missing.pgm"
    assert main(["cce", "--image", str(missing), flag, value,
                 "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("command", ["vat", "specvat"])
@pytest.mark.parametrize("source, checks", [("--dissim", 1), ("--features", 0)])
def test_matrix_is_checked_once_where_it_enters(tmp_path, monkeypatch, command,
                                                source, checks):
    # A --dissim file is checked when read; distances computed from
    # --features are valid by construction and never checked.
    feats, _ = gaussian_blobs(3, 6, 4, 10.0, seed=1)
    write_vatf(tmp_path / "features.vatf", feats)
    write_vatf(tmp_path / "dissim.vatf", scenevat.matrix.euclidean_dissim(feats))
    original, calls = scenevat.matrix.check_dissim, []

    def counting(m):
        calls.append(np.shape(m))
        return original(m)

    for name, mod in list(sys.modules.items()):
        if name.startswith("scenevat") and getattr(mod, "check_dissim", None) is original:
            monkeypatch.setattr(mod, "check_dissim", counting)
    assert main([command, source, str(tmp_path / f"{source[2:]}.vatf"),
                 "--out", str(tmp_path / "o")]) == 0
    assert calls == [(18, 18)] * checks


@pytest.mark.parametrize("command", ["vat", "specvat"])
def test_dissim_symmetric_within_tolerance_is_analysed_symmetrized(tmp_path,
                                                                   command):
    # Off by 1e-13 relative in one entry: the file is accepted and analysed
    # as 0.5*D + 0.5*D.T, so its artifacts are that copy's, byte for byte.
    feats, _ = gaussian_blobs(3, 10, 4, 10.0, seed=1)
    d = scenevat.matrix.euclidean_dissim(feats)
    d[4, 17] *= 1.0 + 1e-13
    assert d[4, 17] != d[17, 4]
    write_vatf(tmp_path / "near.vatf", d)
    write_vatf(tmp_path / "sym.vatf", 0.5 * d + 0.5 * d.T)
    for name in ("near", "sym"):
        assert main([command, "--dissim", str(tmp_path / f"{name}.vatf"),
                     "--out", str(tmp_path / name)]) == 0
    names = sorted(p.name for p in (tmp_path / "sym").iterdir())
    assert names == sorted(p.name for p in (tmp_path / "near").iterdir())
    for name in names:
        assert (tmp_path / "near" / name).read_bytes() == (
            tmp_path / "sym" / name).read_bytes(), name


def _nan_at(n, row):
    feats = np.arange(4.0 * n).reshape(n, 4)
    feats[row, 1] = np.nan
    return feats


@pytest.mark.parametrize("argv, values, message", [
    (["vat", "--dissim"], np.array([[0.0, 1.0], [2.0, 0.0]]),
     "invalid dissimilarity matrix: asymmetric entry at (0, 1)"),
    (["vat", "--features"], _nan_at(5, 1), "feature row 1 contains a non-finite value"),
    (["specvat", "--features"], np.vstack([np.zeros((4, 2)), [1e200, 0.0]]),
     "feature distances overflow"),
    (["vat", "--dissim"], np.zeros((3, 4)),
     "invalid dissimilarity matrix: matrix is not square: shape (3, 4)"),
    (["vat", "--dissim"], np.zeros((0, 0)),
     "invalid dissimilarity matrix: matrix is empty"),
    (["report", "--manifest", "{manifest}", "--features"], np.zeros((0, 4)),
     "feature matrix must be at least 1x1, got 0x4"),
    # The manifest has no records; this message once named neither file.
    (["report", "--manifest", "{manifest}", "--features"], np.zeros((3, 4)),
     "3 feature rows, but manifest"),
], ids=["asymmetric-dissim", "nan-features", "overflowing-features",
        "dissim-3x4", "dissim-0x0", "report-features-0x4",
        "report-features-3x4"])
def test_matrix_file_errors_name_the_file(tmp_path, capsys, argv, values, message):
    manifest = tmp_path / "m.csv"
    manifest.write_text("path,scene,city\n")
    path = tmp_path / "bad.vatf"
    write_vatf(path, values)
    argv = [a.format(manifest=manifest) for a in argv]
    assert main(argv + [str(path), "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err.startswith(f"error: {path}: {message}")
    assert not (tmp_path / "o").exists()


def test_vat_dissim_entries_the_odi_cannot_scale_exit_2(tmp_path, capsys):
    # 255 * x overflows from finfo.max / 255 up: such a matrix once rendered
    # a garbage image with overflow warnings and exited 0.  The largest
    # accepted entry renders, warning-free, and the next float up exits 2.
    limit = np.finfo(np.float64).max / 255
    top = np.nextafter(limit, 0.0)
    repro = np.array([[0.0, 5e305, 1e306, 3e306], [5e305, 0.0, 2e306, 1e306],
                      [1e306, 2e306, 0.0, 6e305], [3e306, 1e306, 6e305, 0.0]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for name, m, code in [("top", top * (np.ones((3, 3)) - np.eye(3)), 0),
                              ("limit", limit * (np.ones((3, 3)) - np.eye(3)), 2),
                              ("repro", repro, 2)]:
            path = tmp_path / f"{name}.vatf"
            write_vatf(path, m)
            out = tmp_path / name
            assert main(["vat", "--dissim", str(path), "--out", str(out)]) == code
            err = capsys.readouterr().err
            if code == 0:
                assert read_pgm(out / "odi.pgm").tolist() == [
                    [0, 255, 255], [255, 0, 255], [255, 255, 0]]
            else:
                assert err.startswith(f"error: {path}: invalid dissimilarity "
                                      "matrix: entry at (0, ")
                assert not out.exists() or not any(out.iterdir())
    assert err == (f"error: {path}: invalid dissimilarity matrix: entry at "
                   f"(0, 2) is 1e+306, not below {limit}: 255 times it overflows\n")


def _twelve_record_report(tmp_path, feats):
    """6 airport then 6 bus records, features from a file, by scene."""
    write_vatf(tmp_path / "features.vatf", feats)
    manifest = tmp_path / "m.csv"
    manifest.write_text("path,scene,city\n" + "".join(
        f"c{i}.wav,{'airport' if i < 6 else 'bus'},paris\n" for i in range(12)))
    return ["report", "--manifest", str(manifest), "--features",
            str(tmp_path / "features.vatf"), "--group", "by_scene",
            "--out", str(tmp_path / "o")]


def test_report_names_a_bad_feature_row_by_its_row_in_the_file(tmp_path, capsys):
    # Row 9 is the bus subset's row 3; the message names the file's row.
    assert main(_twelve_record_report(tmp_path, _nan_at(12, 9))) == 2
    path = tmp_path / "features.vatf"
    assert capsys.readouterr().err == (
        f"error: {path}: feature row 9 contains a non-finite value\n")


@pytest.mark.filterwarnings("ignore:subset .* has 0 record")
def test_report_skips_a_subset_whose_distances_overflow(tmp_path, capsys):
    feats = np.arange(48.0).reshape(12, 4)
    feats[2] = 1e200
    with pytest.warns(UserWarning, match="'airport': feature distances overflow"):
        assert main(_twelve_record_report(tmp_path, feats)) == 0
    assert "bus: " in capsys.readouterr().out
    doc = json.loads((tmp_path / "o" / "report.json").read_text())
    assert [e["subset"] for e in doc["subsets"]] == ["bus"]
    [airport] = [e for e in doc["skipped"] if e["subset"] == "airport"]
    assert airport["n"] == 6
    assert airport["reason"].startswith("feature distances overflow")
    assert (tmp_path / "o" / "bus" / "odi.pgm").is_file()
    assert not (tmp_path / "o" / "airport").exists()


@pytest.mark.filterwarnings("ignore:subset .* has 0 record")
def test_report_skips_a_subset_that_overflows_in_its_last_band(tmp_path, capsys):
    # The distances are built band by band; the last band's overflow skips
    # the subset as the first band's does.
    feats = np.vstack([overflow_in_last_band(), np.arange(24.0).reshape(6, 4)])
    write_vatf(tmp_path / "f.vatf", feats)
    manifest = tmp_path / "m.csv"
    manifest.write_text("path,scene,city\n" + "".join(
        f"c{i}.wav,{'airport' if i < 600 else 'bus'},paris\n" for i in range(606)))
    argv = ["report", "--manifest", str(manifest), "--features",
            str(tmp_path / "f.vatf"), "--group", "by_scene",
            "--out", str(tmp_path / "o")]
    with pytest.warns(UserWarning, match="'airport': feature distances overflow"):
        assert main(argv) == 0
    doc = json.loads((tmp_path / "o" / "report.json").read_text())
    assert [e["subset"] for e in doc["subsets"]] == ["bus"]
    [airport] = [e for e in doc["skipped"] if e["subset"] == "airport"]
    assert airport["n"] == 600
    assert airport["reason"].startswith("feature distances overflow")
    assert not (tmp_path / "o" / "airport").exists()


@pytest.mark.filterwarnings("ignore:subset .* has 0 record")
def test_report_exits_2_when_every_subset_overflows(tmp_path, capsys):
    # As `vat --features` exits on either subset's rows.
    feats = np.arange(48.0).reshape(12, 4)
    feats[[2, 8]] = 1e200
    with pytest.warns(UserWarning, match="feature distances overflow"):
        assert main(_twelve_record_report(tmp_path, feats)) == 2
    assert capsys.readouterr().err.startswith("error: feature distances overflow")
    doc = json.loads((tmp_path / "o" / "report.json").read_text())
    assert doc["subsets"] == []
    assert {e["subset"] for e in doc["skipped"] if "reason" in e} == {"airport", "bus"}


@pytest.mark.filterwarnings("ignore:subset .* has 0 record")
def test_report_band_width_too_large_for_a_subset_exits_2(tmp_path, capsys,
                                                         monkeypatch):
    # Only an overflow skips a subset; any other InputError ends the report.
    # Here each subset is counted with a band of 50 columns.
    count = scenevat.report.cce_count
    monkeypatch.setattr(scenevat.report, "cce_count",
                        lambda image: count(image, band_width=50))
    argv = _twelve_record_report(tmp_path, np.arange(48.0).reshape(12, 4))
    assert main(argv) == 2
    assert "band width 50 must satisfy" in capsys.readouterr().err
    # the failed subset's dissim.vatf, written before its analysis, went again
    assert not (tmp_path / "o" / "airport").exists()


def test_synth_non_integer_size_exits_2(tmp_path, capsys):
    with pytest.raises(SystemExit) as err:
        main(["synth", "--mode", "blocks", "--sizes", "3,x",
              "--out", str(tmp_path / "s")])
    assert err.value.code == 2
    msg = capsys.readouterr().err
    assert "argument --sizes: " in msg and "'x'" in msg
    assert not (tmp_path / "s").exists()


@pytest.mark.parametrize("args, message", [
    (["--mode", "blocks", "--between", "inf"], "between must be below"),
    (["--mode", "blocks", "--between", "1e306"], "between must be below"),
    (["--mode", "blobs", "--sep", "nan"], "sep must be finite and >= 0"),
    (["--mode", "blobs", "--sep", "inf"], "sep must be finite and >= 0"),
    (["--mode", "blobs", "--sigma", "inf"], "sigma must be finite and positive"),
    (["--mode", "blobs", "--sep", "1e160"], "sep * sigma must be below 1e+152"),
], ids=["between-inf", "between-1e306", "sep-nan", "sep-inf", "sigma-inf",
        "sep-1e160"])
def test_synth_refuses_what_its_readers_refuse(tmp_path, capsys, args, message):
    # Each once wrote a VATF that vat --dissim or vat --features refused.
    assert main(["synth", *args, "--out", str(tmp_path / "s")]) == 2
    assert capsys.readouterr().err.startswith(f"error: {message}")
    assert not (tmp_path / "s").exists()


def test_usage_error_exits_2():
    with pytest.raises(SystemExit) as err:
        main(["vat", "--out", "/tmp/x"])  # neither --features nor --dissim
    assert err.value.code == 2
    with pytest.raises(SystemExit):
        main([])


@pytest.mark.parametrize("raised, code", [(None, 0), (InputError, 2)])
def test_main_freezes_the_heap_for_the_command_only(monkeypatch, raised, code):
    # The objects alive at the start sit out the command's collections, and
    # go back to the collector when main returns, on success or failure.
    seen = []

    def command(args):
        seen.append(gc.get_freeze_count())
        if raised is not None:
            raise raised("stubbed")
        return 0

    monkeypatch.setattr(cli, "cmd_cce", command)
    assert main(["cce", "--image", "x.pgm", "--out", "o"]) == code
    assert seen[0] > 0 and gc.get_freeze_count() == 0


def test_console_script_installed(tmp_path):
    exe = shutil.which("scenevat")
    if exe is None:
        pytest.skip("console script not on PATH")
    syn = tmp_path / "s"
    proc = subprocess.run(
        [exe, "synth", "--mode", "blocks", "--sizes", "4,4",
         "--out", str(syn)],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert (syn / "dissim.vatf").is_file()
    assert "8 x 8" in proc.stdout


def test_module_entry_point(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "scenevat", "synth", "--mode", "blocks",
         "--sizes", "3,3", "--out", str(tmp_path / "s")],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr


def test_flags_only_on_subcommands_that_read_them(tmp_path):
    syn = tmp_path / "syn"
    assert main(["synth", "--mode", "blocks", "--sizes", "4,4",
                 "--out", str(syn)]) == 0
    for argv in (["vat", "--dissim", str(syn / "dissim.vatf")],
                 ["specvat", "--dissim", str(syn / "dissim.vatf")]):
        with pytest.raises(SystemExit) as err:
            main(argv + ["--threads", "2", "--out", str(tmp_path / "o")])
        assert err.value.code == 2
    # No subcommand reads a config file: --config is no flag.
    for argv in _one_clip_inputs(tmp_path).values():
        with pytest.raises(SystemExit) as err:
            main(argv + ["--config", "c.json", "--out", str(tmp_path / "o")])
        assert err.value.code == 2
    # No subcommand z-scores features: --standardize is no flag.
    for argv in (["vat", "--dissim", str(syn / "dissim.vatf")],
                 ["specvat", "--dissim", str(syn / "dissim.vatf")],
                 ["report", "--manifest", str(tmp_path / "m.csv")]):
        with pytest.raises(SystemExit) as err:
            main(argv + ["--standardize", "--out", str(tmp_path / "o")])
        assert err.value.code == 2
    assert not (tmp_path / "o").exists()


def test_specvat_k_out_of_range_and_too_few_records_exit_2(tmp_path, capsys):
    syn = tmp_path / "syn"
    assert main(["synth", "--mode", "blocks", "--sizes", "1,1",
                 "--out", str(syn)]) == 0
    two = str(syn / "dissim.vatf")
    assert main(["specvat", "--dissim", two, "--out", str(tmp_path / "a")]) == 2
    assert "at least 3 points" in capsys.readouterr().err
    assert main(["specvat", "--dissim", two, "--k", "2",
                 "--out", str(tmp_path / "b")]) == 2
    assert "k=2 must satisfy" in capsys.readouterr().err


@pytest.mark.parametrize("source", ["--features", "--dissim"])
def test_vat_of_one_record_exits_2_naming_the_file(tmp_path, capsys, source):
    # VAT's minimum is a report subset's: both entries refuse one record.
    path = tmp_path / "one.vatf"
    write_vatf(path, np.arange(3.0)[np.newaxis] if source == "--features"
               else np.zeros((1, 1)))
    assert main(["vat", source, str(path), "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err == (
        f"error: {path}: 1 record(s); vat needs at least 2\n")
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("source, mode", [("--features", "blobs"),
                                          ("--dissim", "blocks")])
@pytest.mark.parametrize("k", ["1", "0"])
def test_specvat_checks_k_as_report_does(tmp_path, capsys, source, mode, k):
    # At k = 1 every record embeds at +1: the image was all black, and cce
    # on it exited 3.
    syn = tmp_path / "syn"
    assert main(["synth", "--mode", mode, "--sizes", "20,20,20",
                 "--out", str(syn)]) == 0
    path = syn / ("features.vatf" if mode == "blobs" else "dissim.vatf")
    capsys.readouterr()
    assert main(["specvat", source, str(path), "--k", k,
                 "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err == f"error: --k {k}: SpecVAT needs k >= 2\n"
    assert not (tmp_path / "o").exists()


def _city_inputs(tmp_path, london_rows, paris_rows):
    """A by_city VAT report of London's and Paris's feature rows."""
    write_vatf(tmp_path / "f.vatf", np.vstack([london_rows, paris_rows]))
    manifest = tmp_path / "m.csv"
    manifest.write_text(
        "path,scene,city\n"
        + "".join(f"l{i}.wav,airport,london\n" for i in range(len(london_rows)))
        + "".join(f"p{i}.wav,bus,paris\n" for i in range(len(paris_rows)))
    )
    return ["report", "--manifest", str(manifest),
            "--features", str(tmp_path / "f.vatf"), "--group", "by_city",
            "--method", "vat", "--out", str(tmp_path / "o")]


def _degenerate_city_inputs(tmp_path, paris_rows):
    """London: 3 identical feature rows; Paris: ``paris_rows``."""
    return _city_inputs(tmp_path, np.ones((3, 4)), paris_rows)


def _two_blobs(n=10):
    rows = np.repeat([[0.0, 0.0, 0.0, 0.0], [9.0, 9.0, 9.0, 9.0]], n // 2, axis=0)
    return rows + np.linspace(0.0, 0.1, n)[:, np.newaxis]


@pytest.mark.filterwarnings("ignore:subset .* has 0 record")
def test_report_degenerate_subset_does_not_end_the_report(tmp_path, capsys):
    # London's identical rows render a constant image with no Otsu threshold.
    argv = _degenerate_city_inputs(tmp_path, _two_blobs())
    with pytest.warns(UserWarning,
                      match="'london': image has a single intensity level"):
        assert main(argv) == 0
    assert "paris: 2" in capsys.readouterr().out
    doc = json.loads((tmp_path / "o" / "report.json").read_text())
    assert doc["summary"] == {"paris": 2}
    [london] = [e for e in doc["skipped"] if e["subset"] == "london"]
    assert london["n"] == 3 and "single intensity" in london["reason"]
    assert (tmp_path / "o" / "paris" / "odi.pgm").is_file()
    # London's dissim.vatf was written before its analysis; it went again,
    # with its directory and no temporary file left.
    assert not (tmp_path / "o" / "london").exists()
    assert not list((tmp_path / "o").rglob(".tmp-*"))
    assert sorted(p.name for p in (tmp_path / "o").iterdir()) == ["paris", "report.json"]


@pytest.mark.filterwarnings("ignore:subset .* has 0 record")
def test_report_exits_3_only_when_no_subset_is_analysed(tmp_path, capsys):
    argv = _degenerate_city_inputs(tmp_path, np.full((4, 4), 2.0))
    with pytest.warns(UserWarning, match="image has a single intensity level"):
        assert main(argv) == 3
    assert capsys.readouterr().err.startswith(
        "numeric failure: image has a single intensity level")
    doc = json.loads((tmp_path / "o" / "report.json").read_text())
    assert doc["subsets"] == [] and doc["summary"] == {}
    assert {e["subset"] for e in doc["skipped"] if "reason" in e} == {
        "london", "paris"}


@pytest.mark.parametrize("method, n, minimum", [("specvat", 2, 3), ("vat", 1, 2)])
def test_report_of_only_too_small_subsets_exits_2(tmp_path, capsys, method, n,
                                                  minimum):
    # As `specvat --features` refuses 2 records: a report that analyses
    # nothing does not exit 0.  The skip and its warning are as before.
    write_vatf(tmp_path / "f.vatf", np.arange(4.0 * n).reshape(n, 4))
    manifest = tmp_path / "m.csv"
    manifest.write_text("path,scene,city\n" + "".join(
        f"c{i}.wav,airport,paris\n" for i in range(n)))
    argv = ["report", "--manifest", str(manifest), "--features",
            str(tmp_path / "f.vatf"), "--group", "all", "--method", method,
            "--out", str(tmp_path / "o")]
    with pytest.warns(UserWarning) as rec:
        assert main(argv) == 2
    assert [str(w.message) for w in rec] == [
        f"subset 'all' has {n} record(s); skipping"]
    assert capsys.readouterr().err == (
        f"error: subset 'all' has {n} record(s); {method} needs at least "
        f"{minimum}\n")
    doc = json.loads((tmp_path / "o" / "report.json").read_text())
    assert doc["subsets"] == [] and doc["skipped"] == [{"subset": "all", "n": n}]


@pytest.mark.filterwarnings("ignore:subset .* has 0 record")
def test_report_rerun_that_finds_a_subset_degenerate_removes_its_old_files(
        tmp_path):
    argv = _city_inputs(tmp_path, _two_blobs(), _two_blobs())
    assert main(argv) == 0
    london = tmp_path / "o" / "london"
    assert (london / "odi.pgm").is_file() and (london / "stack_scene.csv").is_file()
    (london / "notes.txt").write_text("not the report's")
    # The rerun finds London's rows identical: every file the first run
    # wrote for it goes, and a file the report does not write stays.
    argv = _city_inputs(tmp_path, np.ones((10, 4)), _two_blobs())
    with pytest.warns(UserWarning,
                      match="'london': image has a single intensity level"):
        assert main(argv) == 0
    assert sorted(p.name for p in london.iterdir()) == ["notes.txt"]
    doc = json.loads((tmp_path / "o" / "report.json").read_text())
    assert [e["subset"] for e in doc["subsets"]] == ["paris"]


@pytest.mark.filterwarnings("ignore:subset .* has 0 record")
def test_report_rerun_below_the_record_minimum_removes_the_subset(tmp_path):
    assert main(_city_inputs(tmp_path, _two_blobs(), _two_blobs())) == 0
    assert (tmp_path / "o" / "london" / "cce.json").is_file()
    argv = _city_inputs(tmp_path, _two_blobs()[:1], _two_blobs())
    with pytest.warns(UserWarning, match="'london' has 1 record"):
        assert main(argv) == 0
    out = tmp_path / "o"
    assert sorted(p.name for p in out.iterdir()) == ["paris", "report.json"]
    doc = json.loads((out / "report.json").read_text())
    assert {"subset": "london", "n": 1} in doc["skipped"]


@pytest.mark.parametrize("method, k, message", [
    ("vat", "5", "--k 5: VAT takes no k; use --method specvat"),
    ("specvat", "1", "--k 1: SpecVAT needs k >= 2"),
    ("specvat", "0", "--k 0: SpecVAT needs k >= 2"),
], ids=["vat-5", "specvat-1", "specvat-0"])
def test_report_checks_k_before_any_subset(tmp_path, capsys, method, k,
                                           message):
    # London has 2 records and Paris 10: no subset is analysed, so nothing
    # is written and no subset warns.
    argv = _city_inputs(tmp_path, _two_blobs()[:2], _two_blobs())
    assert main(argv + ["--method", method, "--k", k]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not (tmp_path / "o").exists()


# --------------------------------------------------------------------------
# Flags a command does not read


@pytest.mark.parametrize("flag", ["--audio-root", "--cache", "--threads"])
def test_report_features_with_an_audio_flag_exits_2(tmp_path, capsys, flag):
    argv = _city_inputs(tmp_path, _two_blobs(), _two_blobs())
    value = "4" if flag == "--threads" else str(tmp_path / "dir")
    assert main(argv + [flag, value]) == 2
    assert capsys.readouterr().err == (
        f"error: {flag} applies to audio input, not --features\n")
    assert not (tmp_path / "o").exists()
    assert not (tmp_path / "dir").exists()


def test_report_subset_flag_is_gone(tmp_path):
    # One subset is a --group value; --subset is no flag.
    argv = _city_inputs(tmp_path, _two_blobs(), _two_blobs())
    with pytest.raises(SystemExit) as err:
        main(argv + ["--subset", "london"])
    assert err.value.code == 2
    assert not (tmp_path / "o").exists()


# --------------------------------------------------------------------------
# report from audio


def _audio_report_inputs(tmp_path):
    """Two tones in each of two cities."""
    clips = tmp_path / "clips"
    clips.mkdir()
    rows = []
    for i, city in enumerate(["london"] * 4 + ["paris"] * 4):
        name = f"c{i}.wav"
        freq = (300.0 if i % 2 else 2400.0) + 11 * i
        (clips / name).write_bytes(sine_wav(freq, 0.25, 44100))
        rows.append(f"{name},{'bus' if i % 2 else 'park'},{city}\n")
    manifest = tmp_path / "m.csv"
    manifest.write_text("path,scene,city\n" + "".join(rows))
    return clips, ["report", "--manifest", str(manifest), "--audio-root",
                   str(clips), "--group", "by_city"]


def _tree_bytes(root):
    return {p.relative_to(root).as_posix(): p.read_bytes()
            for p in root.rglob("*") if p.is_file()}


@pytest.mark.filterwarnings("ignore:subset .* has 0 record")
def test_report_from_audio_reruns_from_its_cache(tmp_path, monkeypatch):
    _, argv = _audio_report_inputs(tmp_path)
    argv += ["--cache", str(tmp_path / "cache")]
    extracted = []
    extract = scenevat.report.extract_features
    monkeypatch.setattr(scenevat.report, "extract_features",
                        lambda *a: extracted.append(1) or extract(*a))

    assert main(argv + ["--out", str(tmp_path / "cold")]) == 0
    assert len(extracted) == 8
    assert len(os.listdir(tmp_path / "cache")) == 8
    doc = json.loads((tmp_path / "cold" / "report.json").read_text())
    assert sorted(doc["summary"]) == ["london", "paris"]

    assert main(argv + ["--out", str(tmp_path / "warm")]) == 0
    assert len(extracted) == 8  # every row from the cache
    cold = _tree_bytes(tmp_path / "cold")
    assert "london/stack_scene.csv" in cold
    assert _tree_bytes(tmp_path / "warm") == cold


@pytest.mark.filterwarnings("ignore:subset .* has 0 record")
def test_report_of_a_scanned_dcase_tree(tmp_path, monkeypatch):
    # Files and directories in sorted order, whatever order they were made
    # in; a comma in a directory name quoted; names that are not DCASE's
    # left out.
    # Each city has two low tones (park, airport) and two high ones.
    root = tmp_path / "tree"
    names = {"b,2": ["tram-london-5-0-a.wav", "metro-london-4-0-a.wav",
                     "airport-london-7-0-a.wav"],
             "a": ["bus-paris-1-0-a.wav", "park-paris-6-0-a.wav",
                   "airport-paris-2-0-a.wav", "beach-paris-0-0-a.wav"],
             ".": ["park-london-3-0-a.wav", "tram-paris-9-0-a.wav", "notes.txt"]}
    for i, (sub, files) in enumerate(names.items()):
        (root / sub).mkdir(parents=True, exist_ok=True)
        for j, name in enumerate(files):
            low = name.startswith(("park", "airport"))
            freq = (300.0 if low else 2400.0) + 40 * i + 11 * j
            (root / sub / name).write_bytes(sine_wav(freq, 0.25, 44100))
    text = scan_dcase_tree(str(root))
    assert text == "path,scene,city\n" + "".join(
        f"{row}\n" for row in [
            f"{root}/park-london-3-0-a.wav,park,london",
            f"{root}/tram-paris-9-0-a.wav,tram,paris",
            f"{root}/a/airport-paris-2-0-a.wav,airport,paris",
            f"{root}/a/bus-paris-1-0-a.wav,bus,paris",
            f"{root}/a/park-paris-6-0-a.wav,park,paris",
            f'"{root}/b,2/airport-london-7-0-a.wav",airport,london',
            f'"{root}/b,2/metro-london-4-0-a.wav",metro,london',
            f'"{root}/b,2/tram-london-5-0-a.wav",tram,london'])
    manifest = tmp_path / "m.csv"
    manifest.write_text(text)
    argv = ["report", "--manifest", str(manifest), "--group", "by_city",
            "--cache", str(tmp_path / "cache")]
    assert main(argv + ["--out", str(tmp_path / "cold")]) == 0
    doc = json.loads((tmp_path / "cold" / "report.json").read_text())
    assert [(e["subset"], e["n"]) for e in doc["subsets"]] == [
        ("london", 4), ("paris", 4)]

    def no_extraction(*args):
        raise AssertionError("a warm rerun extracted features")

    monkeypatch.setattr(scenevat.report, "extract_features", no_extraction)
    assert main(argv + ["--out", str(tmp_path / "warm")]) == 0
    assert _tree_bytes(tmp_path / "warm") == _tree_bytes(tmp_path / "cold")


@pytest.mark.filterwarnings("ignore:subset .* has 0 record")
@pytest.mark.parametrize("row, message", [
    (np.zeros((1, 64)), "cached feature row has shape (1, 64), expected (1, 128)"),
    (np.zeros((2, 16)), "cached feature row has shape (2, 16), expected (1, 128)"),
    (np.full((1, 128), np.nan), "feature row 0 contains a non-finite value"),
], ids=["1x64", "2x16", "nan"])
@pytest.mark.parametrize("command", ["features", "report"])
def test_a_bad_cached_row_exits_2_naming_the_cache_file(tmp_path, capsys, row,
                                                        message, command):
    # A cache file that parses as VATF but is not one finite row of n_mels
    # values once died in np.vstack (exit 1), or was blamed on the row of
    # the feature matrix it went into.
    _, argv = _audio_report_inputs(tmp_path)
    argv += ["--cache", str(tmp_path / "cache")]
    assert main(argv + ["--out", str(tmp_path / "cold")]) == 0
    capsys.readouterr()
    bad = sorted((tmp_path / "cache").iterdir())[3]
    write_vatf(bad, row)
    if command == "features":  # the same inputs, less the grouping
        at = argv.index("--group")
        argv = ["features"] + argv[1:at] + argv[at + 2:]
    assert main(argv + ["--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err == f"error: {bad}: {message}\n"
    assert not (tmp_path / "o").exists()


def test_report_from_audio_names_a_missing_wav(tmp_path, capsys):
    clips, argv = _audio_report_inputs(tmp_path)
    os.remove(clips / "c3.wav")
    assert main(argv + ["--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err == (
        f"error: missing audio file(s): {os.path.join(str(clips), 'c3.wav')}\n")
    assert not (tmp_path / "o").exists()


# --------------------------------------------------------------------------
# Malformed input: exit 2, and the message starts with the file's name


def _riff(*chunks, form=b"WAVE"):
    body = b"".join(cid + struct.pack("<I", len(data)) + data
                    for cid, data in chunks)
    return b"RIFF" + struct.pack("<I", 4 + len(body)) + form + body


def _fmt(tag=1, rate=8000, bits=16, extra=b""):
    return struct.pack("<HHIIHH", tag, 1, rate, rate * bits // 8, bits // 8,
                       bits) + extra


@pytest.mark.parametrize("wav, message", [
    (_riff((b"fmt ", _fmt()), (b"data", bytes(16)), form=b"AVI "),
     "RIFF form type is not 'WAVE'"),
    (_riff((b"data", bytes(16))), "missing 'fmt ' chunk"),
    (_riff((b"fmt ", _fmt(bits=8)), (b"data", bytes(16))),
     "unsupported PCM bit depth 8 in 'fmt ' chunk"),
    (_riff((b"fmt ", _fmt(tag=3, bits=64)), (b"data", bytes(16))),
     "unsupported float bit depth 64 in 'fmt ' chunk"),
    (_riff((b"fmt ", _fmt()[:14]), (b"data", bytes(16))),
     "truncated 'fmt ' chunk"),
    (_riff((b"fmt ", _fmt(tag=0xFFFE, extra=struct.pack("<H", 0))),
           (b"data", bytes(16))),
     "truncated extensible 'fmt ' chunk"),
    (_riff((b"fmt ", _fmt(rate=0)), (b"data", bytes(16))),
     "invalid sample rate 0 in 'fmt ' chunk"),
    # 100 samples at 1 Hz would resample to 2.2 M at 22.05 kHz: a 2 s clip
    # with this header, to about 7.8 GB.
    (_riff((b"fmt ", _fmt(rate=1)), (b"data", bytes(200))),
     "invalid sample rate 1 in 'fmt ' chunk; expected 1000 to 768000 Hz"),
    # 22050 phases of 2231 taps, 375 MiB, for 22.05 kHz; these 100 samples
    # read three of them.
    (_riff((b"fmt ", _fmt(rate=767999)), (b"data", bytes(200))),
     "cannot resample 767999 Hz to 22050 Hz"),
], ids=["form-type", "no-fmt", "pcm-8", "float-64", "short-fmt",
        "short-extensible", "rate-0", "rate-1", "rate-767999"])
def test_malformed_wav_exits_2_naming_the_file(tmp_path, capsys, wav, message):
    (tmp_path / "x.wav").write_bytes(wav)
    (tmp_path / "m.csv").write_text("path,scene,city\nx.wav,bus,paris\n")
    assert main(["features", "--manifest", str(tmp_path / "m.csv"),
                 "--audio-root", str(tmp_path), "--out", str(tmp_path / "o")]) == 2
    path = os.path.join(str(tmp_path), "x.wav")
    assert capsys.readouterr().err.startswith(f"error: {path}: {message}")
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("data, message", [
    (b"P5\n4 4", "truncated PGM header"),
    (b"P5\n4 x\n255\n" + bytes(16), "malformed PGM header fields"),
    # (-1) * (-1) bytes matched the payload, and reshape(-1, -1) raised a
    # ValueError: a traceback, exit 1.
    (b"P5\n-1 -1\n255\n\x00", "malformed PGM header fields"),
    (b"P5\n3 2\n255\n" + bytes(range(6)), "expected a square image, got (2, 3)"),
    # A single intensity once reached Otsu before the shape and the band
    # were checked: exit 3, and a message without the file.
    (b"P5\n3 5\n255\n" + bytes(15), "expected a square image, got (5, 3)"),
    (b"P5\n1 1\n255\n\x00", "band width 1 must satisfy 1 <= w <= n-1 (n=1)"),
], ids=["truncated-header", "non-integer-field", "signed-dimension",
        "non-square", "non-square-one-level", "one-pixel"])
def test_malformed_pgm_exits_2_naming_the_file(tmp_path, capsys, data, message):
    path = tmp_path / "x.pgm"
    path.write_bytes(data)
    assert main(["cce", "--image", str(path), "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err.startswith(f"error: {path}: {message}")
    assert not (tmp_path / "o").exists()


def test_non_utf8_manifest_exits_2_naming_the_file(tmp_path, capsys):
    path = tmp_path / "m.csv"
    path.write_bytes(b"path,scene,city\n\xff.wav,bus,paris\n")
    assert main(["features", "--manifest", str(path),
                 "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err.startswith(
        f"error: {path}: manifest is not valid UTF-8")
