import json
import shutil
import subprocess
import sys

import numpy as np
import pytest

from scenevat.cli import main
from scenevat.vat import pgm_bytes, read_pgm
from scenevat.vatf import read_vatf, write_vatf

from conftest import sine_wav


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
    dprime = read_vatf(out / "d_prime.vatf")
    assert dprime.shape == (36, 36)


def test_specvat_auto_k_prints_selection(tmp_path, capsys):
    syn = tmp_path / "syn"
    main([
        "synth", "--mode", "blobs", "--clusters", "3", "--n-per", "12",
        "--dim", "8", "--seed", "4", "--out", str(syn),
    ])
    out = tmp_path / "sv"
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"specvat": {"k_max": 4, "knn_scale": 10}}')
    assert main([
        "specvat", "--features", str(syn / "features.vatf"),
        "--config", str(cfg), "--out", str(out),
    ]) == 0
    printed = capsys.readouterr().out
    assert "selected k=3" in printed
    assert "k=2:" in printed and "k=4:" in printed


def _one_clip_inputs(tmp_path):
    """A valid WAV and manifest, a block matrix and an image: every input
    a config-reading command needs, none of them at fault."""
    clips = tmp_path / "clips"
    clips.mkdir()
    (clips / "a0.wav").write_bytes(sine_wav(440.0, 0.25, 44100))
    manifest = tmp_path / "m.csv"
    manifest.write_text("path,scene,city\na0.wav,bus,paris\n")
    assert main(["synth", "--mode", "blocks", "--sizes", "3,3",
                 "--out", str(tmp_path / "syn")]) == 0
    image = tmp_path / "odi.pgm"
    image.write_bytes(pgm_bytes(np.eye(6, dtype=np.uint8) * 200))
    audio = ["--manifest", str(manifest), "--audio-root", str(clips)]
    return {
        "features": ["features"] + audio,
        "report": ["report"] + audio,
        "specvat": ["specvat", "--dissim", str(tmp_path / "syn" / "dissim.vatf")],
        "cce": ["cce", "--image", str(image)],
    }


@pytest.mark.parametrize("command", ["specvat", "report", "features", "cce"])
@pytest.mark.parametrize("doc", [
    '{"specvat": {"k": 500}}',
    '{"specvat": {"k_max": "six"}}',
    '{"specvat": {"knn_scale": 2.5}}',
    '{"cce": {"band_width": "x"}}',
    # well-typed but out of range: each config rejects it when built
    '{"audio": {"n_fft": 1}}',
    '{"specvat": {"k_max": 1}}',
    '{"cce": {"threshold_mode": "median"}}',
])
def test_bad_config_values_exit_2(tmp_path, capsys, command, doc):
    # Every section is checked when the file is read, before any other
    # input, so an audio fault is not blamed on the first WAV.
    argv = _one_clip_inputs(tmp_path)[command]
    cfg = tmp_path / "cfg.json"
    cfg.write_text(doc)
    assert main(argv + ["--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    section = next(iter(json.loads(doc)))
    assert err.startswith(f"error: config {cfg}: {section}") and "a0.wav" not in err
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
    cfg = tmp_path / "cfg.json"
    cfg.write_text(
        '{"audio": {"target_rate": 8000, "n_fft": 256, "hop": 128, "n_mels": 16}}'
    )

    feat_out = tmp_path / "feats"
    assert main([
        "features", "--manifest", str(manifest), "--audio-root", str(clips),
        "--config", str(cfg), "--threads", "2", "--out", str(feat_out),
    ]) == 0
    feats = read_vatf(feat_out / "features.vatf")
    assert feats.shape == (9, 16)

    rep_out = tmp_path / "rep"
    assert main([
        "report", "--manifest", str(manifest),
        "--features", str(feat_out / "features.vatf"),
        "--group", "all", "--config", str(cfg), "--out", str(rep_out),
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
        str(tmp_path / "f.vatf"), "--group", "single_subset",
        "--subset", "airport", "--out", str(tmp_path / "o"),
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
    (tmp_path / "flat.pgm").write_bytes(pgm_bytes(img))
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
    (tmp_path / "odi.pgm").write_bytes(pgm_bytes(img))
    out = tmp_path / "o"
    assert main([
        "cce", "--image", str(tmp_path / "odi.pgm"), "--band-width", "2",
        "--threshold-mode", "zero", "--out", str(out),
    ]) == 0
    doc = json.loads((out / "cce.json").read_text())
    assert doc["band_width"] == 2 and doc["b"] == 0


def test_usage_error_exits_2():
    with pytest.raises(SystemExit) as err:
        main(["vat", "--out", "/tmp/x"])  # neither --features nor --dissim
    assert err.value.code == 2
    with pytest.raises(SystemExit):
        main([])


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
    for extra in (["--threads", "2"], ["--config", "c.json"]):
        with pytest.raises(SystemExit) as err:
            main(["vat", "--dissim", str(syn / "dissim.vatf"),
                  "--out", str(tmp_path / "o")] + extra)
        assert err.value.code == 2
    with pytest.raises(SystemExit) as err:
        main(["specvat", "--dissim", str(syn / "dissim.vatf"),
              "--threads", "2", "--out", str(tmp_path / "o")])
    assert err.value.code == 2


def test_specvat_k_out_of_range_and_too_few_records_exit_2(tmp_path, capsys):
    syn = tmp_path / "syn"
    assert main(["synth", "--mode", "blocks", "--sizes", "1,1",
                 "--out", str(syn)]) == 0
    two = str(syn / "dissim.vatf")
    assert main(["specvat", "--dissim", two, "--out", str(tmp_path / "a")]) == 2
    assert "at least 3 points" in capsys.readouterr().err
    assert main(["specvat", "--dissim", two, "--k", "2",
                 "--out", str(tmp_path / "b")]) == 2
    assert main(["specvat", "--dissim", two, "--k", "1",
                 "--out", str(tmp_path / "c")]) == 0
    assert read_vatf(tmp_path / "c" / "d_prime.vatf").shape == (2, 2)


def _degenerate_city_inputs(tmp_path, paris_rows):
    """London: 3 identical feature rows; Paris: ``paris_rows``."""
    feats = np.vstack([np.ones((3, 4)), paris_rows])
    write_vatf(tmp_path / "f.vatf", feats)
    manifest = tmp_path / "m.csv"
    manifest.write_text(
        "path,scene,city\n"
        + "".join(f"l{i}.wav,airport,london\n" for i in range(3))
        + "".join(f"p{i}.wav,bus,paris\n" for i in range(len(paris_rows)))
    )
    return ["report", "--manifest", str(manifest),
            "--features", str(tmp_path / "f.vatf"), "--group", "by_city",
            "--method", "vat", "--out", str(tmp_path / "o")]


@pytest.mark.filterwarnings("ignore:subset .* has 0 record")
def test_report_degenerate_subset_does_not_end_the_report(tmp_path, capsys):
    # London's identical rows render a constant image with no Otsu threshold.
    blobs = np.repeat([[0.0, 0.0, 0.0, 0.0], [9.0, 9.0, 9.0, 9.0]], 5, axis=0)
    blobs += np.linspace(0.0, 0.1, 10)[:, np.newaxis]
    argv = _degenerate_city_inputs(tmp_path, blobs)
    with pytest.warns(UserWarning, match="'london' is degenerate"):
        assert main(argv) == 0
    assert "paris: 2" in capsys.readouterr().out
    doc = json.loads((tmp_path / "o" / "report.json").read_text())
    assert doc["summary"] == {"paris": 2}
    [london] = [e for e in doc["skipped"] if e["subset"] == "london"]
    assert london["n"] == 3 and "single intensity" in london["reason"]
    assert (tmp_path / "o" / "paris" / "odi.pgm").is_file()
    assert not (tmp_path / "o" / "london").exists()


@pytest.mark.filterwarnings("ignore:subset .* has 0 record")
def test_report_exits_3_only_when_no_subset_is_analysed(tmp_path, capsys):
    argv = _degenerate_city_inputs(tmp_path, np.full((4, 4), 2.0))
    with pytest.warns(UserWarning, match="is degenerate"):
        assert main(argv) == 3
    assert "no subset could be analysed" in capsys.readouterr().err
    doc = json.loads((tmp_path / "o" / "report.json").read_text())
    assert doc["subsets"] == [] and doc["summary"] == {}
    assert {e["subset"] for e in doc["skipped"] if "reason" in e} == {
        "london", "paris"}
