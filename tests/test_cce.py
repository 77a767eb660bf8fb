import json
from fractions import Fraction

import numpy as np
import pytest

import scenevat.cce as cce_mod
from scenevat.cce import (
    _histogram,
    _otsu,
    _pixel_histogram,
    _runs_above,
    _signal,
    cce_count,
    otsu_effectiveness,
    otsu_threshold,
)
from scenevat.errors import DegenerateImageError, InputError
from scenevat.synth import block_dissim
from scenevat.vat import VatOrdering, odi_from, vat_order


def otsu_oracle(img):
    """Exhaustive 256-threshold maximizer in exact rational arithmetic."""
    hist = np.bincount(np.asarray(img).ravel(), minlength=256)
    counts = [int(c) for c in hist]
    total = sum(counts)
    moments = [i * c for i, c in enumerate(counts)]
    best_t, best_v = None, Fraction(-1)
    c0 = s0 = 0
    for t in range(256):
        c0 += counts[t]
        s0 += moments[t]
        c1 = total - c0
        if c0 == 0 or c1 == 0:
            continue
        s1 = sum(moments) - s0
        v = Fraction((s0 * c1 - s1 * c0) ** 2, c0 * c1)
        if v > best_v:
            best_v, best_t = v, t
    return best_t


def ideal_block_image(sizes, dark=0, light=255):
    m = block_dissim(sizes, 0.0, 1.0)
    img = np.where(m > 0, light, dark).astype(np.uint8)
    np.fill_diagonal(img, dark)
    return img


def test_otsu_half_and_half_plateau_picks_smallest():
    img = np.array([[0, 0], [255, 255]], dtype=np.uint8)
    assert otsu_threshold(img) == 0


def test_otsu_constant_image_is_degenerate():
    with pytest.raises(DegenerateImageError):
        otsu_threshold(np.full((4, 4), 7, dtype=np.uint8))


def test_otsu_ramp():
    img = np.arange(256, dtype=np.uint8).reshape(16, 16)
    assert otsu_threshold(img) == 127


def test_otsu_matches_exhaustive_oracle():
    rng = np.random.Generator(np.random.Philox(key=31))
    for _ in range(200):
        h = int(rng.integers(1, 40))
        w = int(rng.integers(2, 40))
        img = rng.integers(0, 256, size=(h, w)).astype(np.uint8)
        if np.unique(img).size < 2:
            continue
        assert otsu_threshold(img) == otsu_oracle(img)


def test_histogram_matches_one_bincount_across_band_edges():
    rng = np.random.Generator(np.random.Philox(key=33))
    for h, w in [(1, 1), (2, 5), (3, 3), (255, 9), (256, 256), (257, 3), (600, 600)]:
        img = rng.integers(0, 256, size=(h, w)).astype(np.uint8)
        for x in (img, np.asfortranarray(img)):
            ref = np.bincount(x.reshape(-1), minlength=256).astype(np.int64)
            got = _histogram(x)
            assert got.dtype == ref.dtype and got.tobytes() == ref.tobytes()


def _runs_reference(signal, b):
    spans, start = [], None
    for i, v in enumerate(signal):
        if v > b and start is None:
            start = i
        elif v <= b and start is not None:
            spans.append((start, i))
            start = None
    if start is not None:
        spans.append((start, len(signal)))
    return spans


def test_runs_above_matches_a_loop():
    # Runs at either end, a run of one, every entry above and none above.
    rng = np.random.Generator(np.random.Philox(key=35))
    signals = [np.array([3]), np.array([0]), np.array([5, 5, 5]),
               np.array([4, 0, 4, 0, 4])]
    signals += [rng.integers(0, 4, size=n) for n in (1, 2, 7, 50, 300)]
    for signal in signals:
        for b in (0, 1, 2, 5):
            got = _runs_above(signal, b)
            assert got == _runs_reference(signal, b)
            assert all(type(a) is int and type(z) is int for a, z in got)


def test_signal_matches_dark_mask_reference():
    rng = np.random.Generator(np.random.Philox(key=34))
    for n, w in [(2, 1), (40, 3), (257, 5)]:
        img = rng.integers(0, 256, size=(n, n)).astype(np.uint8)
        t = int(otsu_threshold(img))
        dark = img <= t
        ref = sum(np.diagonal(dark, offset=-u)[: n - w].astype(np.int64)
                  for u in range(1, w + 1))
        got = _signal(img, t, w)
        assert got.dtype == np.int64 and np.array_equal(got, ref)


def test_otsu_exact_ties_small_palettes():
    # few-level images exercise tie plateaus hard
    rng = np.random.Generator(np.random.Philox(key=32))
    for _ in range(200):
        levels = rng.choice(256, size=int(rng.integers(2, 4)), replace=False)
        img = rng.choice(levels, size=(8, 8)).astype(np.uint8)
        if np.unique(img).size < 2:
            continue
        assert otsu_threshold(img) == otsu_oracle(img)


def _otsu_loop(hist):
    """The exhaustive loop in Python ints that ``_otsu`` screens for."""
    levels = np.arange(256, dtype=np.int64)
    counts = np.cumsum(hist)
    sums = np.cumsum(hist * levels)
    total_n, total_s = int(counts[-1]), int(sums[-1])
    total_q = int((hist * levels * levels).sum())
    best_t, best_num, best_den = -1, -1, 1
    for t in range(256):
        c0 = int(counts[t])
        c1 = total_n - c0
        if c0 == 0 or c1 == 0:
            continue
        s0 = int(sums[t])
        s1 = total_s - s0
        num = (s0 * c1 - s1 * c0) ** 2
        den = c0 * c1
        if num * best_den > best_num * den:
            best_t, best_num, best_den = t, num, den
    return best_t, best_num / (best_den * (total_n * total_q - total_s ** 2))


def _otsu_histograms(rng):
    """Histograms of at least two levels: random, sparse with plateaus of
    tied thresholds between their levels, two-level, mirror-symmetric about
    127.5 (where two splits' ratios can tie exactly but not in float64) and
    with as many pixels as an n = 8640 image."""
    big = 8640 * 8640

    def on(levels, weights):
        hist = np.zeros(256, dtype=np.int64)
        hist[levels] = weights
        return hist

    for _ in range(100):  # every level
        yield rng.integers(0, 1000, size=256)
    for _ in range(100):  # a few levels, wide gaps between them
        levels = rng.choice(256, size=int(rng.integers(2, 8)), replace=False)
        yield on(levels, rng.integers(1, 50, size=levels.size))
    for _ in range(100):  # two levels
        yield on(rng.choice(256, size=2, replace=False),
                 rng.integers(1, big // 2, size=2))
    for _ in range(400):  # mirror-symmetric, an n = 8640 image's count
        levels = rng.choice(128, size=int(rng.integers(2, 5)), replace=False)
        half = on(levels, rng.multinomial(big // 2, np.full(levels.size,
                                                             1 / levels.size)))
        yield np.concatenate([half[:128], half[127::-1]])
    for _ in range(50):  # an n = 8640 image's count over every level
        yield rng.multinomial(big, rng.dirichlet(np.full(256, 0.3)))


def test_otsu_screen_keeps_the_exact_loops_threshold_and_ratio():
    rng = np.random.Generator(np.random.Philox(key=37))
    seen = 0
    for hist in _otsu_histograms(rng):
        if np.count_nonzero(hist) < 2:
            continue
        t, eta = _otsu(hist)
        want_t, want_eta = _otsu_loop(hist)
        assert t == want_t
        assert eta.hex() == want_eta.hex()
        seen += 1
    assert seen >= 700


def test_pixels_at_exact_half_steps_round_up():
    # Points 0, 1, ..., 510 on a line: an odd distance 2m + 1 is the exact
    # half step m + 0.5 of dmax / 255, which rounds away from zero, to m + 1;
    # an even one is a whole step.  The ODI and the histogram the k scan
    # reads both cast the unfloored pixel rule to an integer.
    pos = np.arange(511.0)
    d = np.abs(pos[:, None] - pos[None, :])
    want = (np.abs(np.arange(511)[:, None] - np.arange(511)[None, :]) + 1) // 2
    img = odi_from(d, VatOrdering(np.arange(511), np.zeros(511)))
    assert np.array_equal(img, want)
    condensed = d[np.triu_indices(511, 1)]
    assert np.array_equal(_pixel_histogram(condensed, 511),
                          np.bincount(want.ravel(), minlength=256))


def test_effectiveness_bounds():
    rng = np.random.Generator(np.random.Philox(key=33))
    img = rng.integers(0, 256, size=(16, 16)).astype(np.uint8)
    eta = otsu_effectiveness(img)
    assert 0.0 <= eta <= 1.0
    # two levels split into two zero-variance classes: exactly 1, unclamped
    for dark, light in ((0, 255), (10, 200), (100, 101)):
        for sizes in ([5, 5], [3, 9, 4], [1, 30]):
            assert otsu_effectiveness(ideal_block_image(sizes, dark, light)) == 1.0


def effectiveness_oracle(img):
    """Between-class over total variance from the definition, as a Fraction."""
    px = [int(v) for v in np.asarray(img).ravel()]
    t = otsu_oracle(img)
    dark = [v for v in px if v <= t]
    light = [v for v in px if v > t]
    mean = Fraction(sum(px), len(px))
    total = sum((v - mean) ** 2 for v in px) / len(px)
    w0 = Fraction(len(dark), len(px))
    gap = Fraction(sum(dark), len(dark)) - Fraction(sum(light), len(light))
    return w0 * (1 - w0) * gap ** 2 / total


def test_effectiveness_is_the_exact_ratio_rounded_once():
    rng = np.random.Generator(np.random.Philox(key=36))
    for _ in range(60):
        h, w = (int(v) for v in rng.integers(2, 30, size=2))
        levels = rng.choice(256, size=int(rng.integers(2, 12)), replace=False)
        for img in (rng.integers(0, 256, size=(h, w)), rng.choice(levels, size=(h, w))):
            img = img.astype(np.uint8)
            if np.unique(img).size < 2:
                continue
            assert otsu_effectiveness(img) == float(effectiveness_oracle(img))


def test_effectiveness_ignores_pixel_order():
    # A VAT order only permutes pixels.  A float variance summed in pixel
    # order differed in its last bits on 3 of these 12 images.
    rng = np.random.Generator(np.random.Philox(key=35))
    for _ in range(12):
        n = int(rng.integers(200, 701))
        img = rng.integers(0, 256, size=(n, n)).astype(np.uint8)
        shuffled = rng.permutation(img.reshape(-1)).reshape(n, n)
        assert otsu_effectiveness(shuffled) == otsu_effectiveness(img)


def test_signal_all_dark_is_band_width():
    img = np.zeros((12, 12), dtype=np.uint8)
    sig = _signal(img, 0, 3)
    assert sig.tolist() == [3] * 9


def test_signal_all_light_is_zero():
    img = np.full((12, 12), 200, dtype=np.uint8)
    sig = _signal(img, 10, 3)
    assert sig.tolist() == [0] * 9


def test_signal_two_blocks_dips_at_boundary():
    img = ideal_block_image([10, 10])
    sig = _signal(img, 0, 2)
    assert sig.tolist() == [2] * 8 + [1, 0] + [2] * 8


def test_signal_band_width_bounds():
    img = np.zeros((5, 5), dtype=np.uint8)
    img[0, 0] = 255  # two levels: the band alone is refused
    with pytest.raises(InputError, match="band width 5"):
        cce_count(img, band_width=5)


def test_count_three_ideal_blocks():
    rep = cce_count(ideal_block_image([10, 10, 10]), band_width=2)
    assert rep.cluster_count == 3
    assert rep.b == 1
    assert rep.run_spans == [(0, 8), (10, 18), (20, 28)]


def test_count_single_block():
    img = np.full((20, 20), 255, dtype=np.uint8)
    img[:10, :10] = 0
    rep = cce_count(img)
    assert rep.cluster_count == 1


def test_count_uses_default_band_width():
    img = ideal_block_image([60, 60])  # n=120 -> w = 2
    rep = cce_count(img)
    assert rep.band_width == 2
    assert rep.cluster_count == 2


def test_count_no_dark_band_warns_and_returns_zero():
    img = np.full((10, 10), 255, dtype=np.uint8)
    img[0, 9] = img[9, 0] = 0  # dark far from the diagonal
    with pytest.warns(UserWarning):
        rep = cce_count(img)
    assert rep.cluster_count == 0


def test_count_zero_mode():
    # b = 0 counts every run of nonzero signal
    img = ideal_block_image([10, 10])
    rep = cce_count(img, band_width=2, b=0)
    assert rep.b == 0
    assert rep.cluster_count == 2


def test_count_explicit_b_override():
    img = ideal_block_image([10, 10])
    rep = cce_count(img, band_width=2, b=1)
    assert rep.b == 1
    assert rep.cluster_count == 2


def test_intensity_relabel_invariance():
    # any increasing two-level relabeling keeps the count
    for dark, light in ((0, 255), (10, 200), (100, 140)):
        img = ideal_block_image([8, 8, 8], dark=dark, light=light)
        rep = cce_count(img, band_width=2)
        assert rep.cluster_count == 3


def test_blocks_of_size_w_plus_2_are_exact():
    for sizes in ([4, 4], [4, 4, 4, 4], [6, 4, 8]):
        img = ideal_block_image(sizes)
        rep = cce_count(img, band_width=2)
        assert rep.cluster_count == len(sizes)


def test_pipeline_blocks_to_count():
    m = block_dissim([10, 10, 10], 0.01, 1.0)
    o = vat_order(m)
    rep = cce_count(odi_from(m, o))
    assert rep.cluster_count == 3


def test_report_fields_and_json():
    img = ideal_block_image([10, 10])
    rep = cce_count(img, band_width=2)
    assert rep.min_detectable_block == 3
    assert rep.otsu_threshold == otsu_oracle(img)
    doc = json.loads(rep.to_json())
    assert doc["cluster_count"] == 2
    assert doc["b"] == rep.b
    assert doc["signal"] == list(map(int, rep.signal))
    assert doc["run_spans"] == [list(span) for span in rep.run_spans]


def test_config_validation():
    img = ideal_block_image([10, 10])
    with pytest.raises(InputError, match="band_width must be >= 1, got 0"):
        cce_count(img, band_width=0)
    with pytest.raises(InputError, match="b must be >= 0, got -1"):
        cce_count(img, b=-1)


def test_count_checks_its_image_once(monkeypatch):
    calls = []
    check_image = cce_mod.check_image

    def counting_image(img):
        calls.append(1)
        return check_image(img)

    monkeypatch.setattr(cce_mod, "check_image", counting_image)
    rep = cce_count(ideal_block_image([10, 10, 10]), band_width=2)
    assert rep.cluster_count == 3
    assert calls == [1]


def test_count_rejects_a_non_square_image():
    img = np.zeros((6, 8), dtype=np.uint8)
    img[0, 0] = 255
    with pytest.raises(InputError, match="square"):
        cce_count(img)
