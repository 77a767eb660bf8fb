import pytest

from scenevat.errors import InputError
from scenevat.manifest import (
    CITIES,
    CITY_PALETTE,
    SCENE_PALETTE,
    SCENES,
    parse_dcase_filename,
    parse_manifest,
    read_manifest,
    scan_dcase_tree,
)


def test_vocabularies_fixed():
    assert len(SCENES) == 10 and len(CITIES) == 6
    assert "airport" in SCENES and "tram" in SCENES
    assert "barcelona" in CITIES and "vienna" in CITIES
    assert set(SCENE_PALETTE) == set(SCENES)
    assert set(CITY_PALETTE) == set(CITIES)


def test_parse_valid_rows():
    text = (
        "path,scene,city\n"
        "a/b.wav,airport,barcelona\n"
        "c.wav,tram,london\n"
    )
    mf = parse_manifest(text)
    assert len(mf) == 2
    assert [r.path for r in mf] == ["a/b.wav", "c.wav"]
    assert [r.scene for r in mf] == ["airport", "tram"]
    assert [r.city for r in mf] == ["barcelona", "london"]


def test_parse_accepts_bytes_and_padding():
    mf = parse_manifest(b"path,scene,city\n x.wav , park , paris \n")
    assert mf[0].path == "x.wav"
    assert mf[0].scene == "park"


@pytest.mark.parametrize("data", [
    "\ufeffpath,scene,city\na.wav,park,paris\n".encode("utf-8"),
    "\ufeffpath,scene,city\na.wav,park,paris\n",
])
def test_parse_skips_a_utf8_byte_order_mark(data):
    # Spreadsheets' "CSV UTF-8" starts the file with U+FEFF; the header was
    # once read as '\ufeffpath' and rejected.
    mf = parse_manifest(data)
    assert [(r.path, r.scene, r.city) for r in mf] == [
        ("a.wav", "park", "paris")]


def test_read_manifest_with_byte_order_mark(tmp_path):
    path = tmp_path / "m.csv"
    path.write_text("path,scene,city\na.wav,bus,vienna\n", encoding="utf-8-sig")
    assert path.read_bytes().startswith(b"\xef\xbb\xbf")
    assert read_manifest(path)[0].city == "vienna"


def test_unknown_scene_names_line():
    text = "path,scene,city\na.wav,airport,barcelona\nb.wav,beach,paris\n"
    with pytest.raises(InputError, match=r"line 3.*'beach'"):
        parse_manifest(text)


def test_unknown_city_names_line():
    with pytest.raises(InputError, match=r"line 2.*'berlin'"):
        parse_manifest("path,scene,city\na.wav,airport,berlin\n")


def test_duplicate_path_reports_both_lines():
    text = (
        "path,scene,city\n"
        "a.wav,airport,barcelona\n"
        "b.wav,bus,paris\n"
        "a.wav,tram,london\n"
    )
    with pytest.raises(InputError, match=r"line 4.*first seen on line 2"):
        parse_manifest(text)


def test_header_and_column_errors():
    with pytest.raises(InputError, match="header"):
        parse_manifest("file,scene,city\na.wav,airport,barcelona\n")
    with pytest.raises(InputError, match=r"line 2: expected 3 columns"):
        parse_manifest("path,scene,city\na.wav,airport\n")
    with pytest.raises(InputError, match="empty"):
        parse_manifest("")
    with pytest.raises(InputError, match=r"line 2: empty path"):
        parse_manifest("path,scene,city\n,airport,barcelona\n")


def test_bare_cr_inside_a_field_names_its_line():
    # The CSV reader rejects a CR inside an unquoted field; that was a
    # csv.Error traceback.
    with pytest.raises(InputError, match=r"^line 2: new-line character seen"):
        parse_manifest("path,scene,city\na.\rav,airport,london\n")


def test_blank_lines_skipped():
    mf = parse_manifest("path,scene,city\n\na.wav,metro,vienna\n\n")
    assert len(mf) == 1


def test_large_balanced_manifest():
    lines = ["path,scene,city"]
    i = 0
    for scene in SCENES:
        for rep in range(864):
            city = CITIES[rep % len(CITIES)]
            lines.append(f"audio/{scene}-{city}-{i}-0-a.wav,{scene},{city}")
            i += 1
    mf = parse_manifest("\n".join(lines) + "\n")
    assert len(mf) == 8640
    for scene in SCENES:
        assert [r.scene for r in mf].count(scene) == 864
    assert len({r.path for r in mf}) == 8640


def test_read_manifest_wraps_path(tmp_path):
    p = tmp_path / "m.csv"
    p.write_text("path,scene,city\na.wav,airport,helsinki\n")
    assert len(read_manifest(p)) == 1
    with pytest.raises(InputError, match="m2.csv"):
        read_manifest(tmp_path / "m2.csv")


# --------------------------------------------------------------------------
# filename convention


def test_scan_dcase_tree_refuses_a_root_that_is_no_directory(tmp_path):
    # os.walk yields nothing for these: a mistyped root gave a header-only
    # manifest, and a crash further on.
    (tmp_path / "clip.wav").write_bytes(b"")
    for root in (tmp_path / "missing", tmp_path / "clip.wav"):
        with pytest.raises(InputError, match=f"DCASE root {root} is not a directory"):
            scan_dcase_tree(str(root))
    assert scan_dcase_tree(str(tmp_path)) == "path,scene,city\n"


def test_dcase_filename_examples():
    assert parse_dcase_filename("airport-barcelona-0-0-a.wav") == (
        "airport",
        "barcelona",
    )
    assert parse_dcase_filename("tram-london-177-5440-a.wav") == ("tram", "london")
    assert parse_dcase_filename("/x/y/metro-paris-1-2-b.WAV") == ("metro", "paris")


def test_dcase_filename_rejections():
    with pytest.raises(InputError, match=".wav"):
        parse_dcase_filename("foo.mp3")
    with pytest.raises(InputError, match="does not match"):
        parse_dcase_filename("foo.wav")
    with pytest.raises(InputError, match="unknown scene"):
        parse_dcase_filename("beach-barcelona-0-0-a.wav")
    with pytest.raises(InputError, match="unknown city"):
        parse_dcase_filename("airport-berlin-0-0-a.wav")
    with pytest.raises(InputError, match="does not match"):
        parse_dcase_filename("airport-barcelona-0-0-a-extra.wav")
