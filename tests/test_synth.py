import numpy as np
import pytest

from scenevat.cce import CceConfig, cce_count
from scenevat.errors import InputError
from scenevat.matrix import DISSIM_LIMIT, check_dissim, euclidean_dissim
from scenevat.synth import BlobSpec, blob_centers, block_dissim, gaussian_blobs
from scenevat.vat import odi_from, vat_order


def test_single_cluster_sits_at_its_center():
    spec = BlobSpec(1, 200, 4, 10.0, seed=3)
    feats, labels = gaussian_blobs(spec)
    assert set(labels.tolist()) == {0}
    center = blob_centers(spec)[0]
    assert np.abs(feats.mean(axis=0) - center).max() < 0.5  # loose CLT bound


def test_same_seed_reproduces_bitwise():
    spec = BlobSpec(3, 10, 8, 10.0, seed=17)
    a, la = gaussian_blobs(spec)
    b, lb = gaussian_blobs(spec)
    assert np.array_equal(a, b) and np.array_equal(la, lb)
    c, _ = gaussian_blobs(BlobSpec(3, 10, 8, 10.0, seed=18))
    assert not np.array_equal(a, c)


def test_centers_sit_on_axes_at_promised_radius():
    centers = blob_centers(BlobSpec(3, 5, 8, 10.0, sigma=2.0))
    assert centers.shape == (3, 8)
    norms = np.linalg.norm(centers, axis=1)
    assert np.allclose(norms, 20.0)
    gaps = euclidean_dissim(centers)
    off = gaps[~np.eye(3, dtype=bool)]
    assert off.min() >= 10.0 * 2.0  # "at least sep*sigma apart"


def test_blobs_separate_at_default_spacing():
    for seed in range(30):
        feats, labels = gaussian_blobs(BlobSpec(3, 40, 8, 10.0, seed=seed))
        d = euclidean_dissim(feats)
        same = labels[:, None] == labels[None, :]
        off = ~np.eye(labels.size, dtype=bool)
        # centers sep*sigma*sqrt(2) apart leave a clear margin in dim 8
        assert d[same & off].max() < d[~same].min()


def test_blob_spec_validation():
    with pytest.raises(InputError, match="dim >= clusters"):
        gaussian_blobs(BlobSpec(5, 10, 3, 10.0))
    with pytest.raises(InputError):
        BlobSpec(0, 10, 3, 10.0)
    with pytest.raises(InputError):
        BlobSpec(2, 0, 3, 10.0)
    with pytest.raises(InputError):
        BlobSpec(2, 10, 3, -1.0)
    with pytest.raises(InputError):
        BlobSpec(2, 10, 3, 10.0, sigma=0.0)
    for sep, sigma in [(np.nan, 1.0), (np.inf, 1.0), (10.0, np.inf), (10.0, np.nan)]:
        with pytest.raises(InputError, match="must be finite"):
            BlobSpec(2, 10, 3, sep, sigma=sigma)
    # Finite, but the points' distances would overflow when squared.
    for sep, sigma in [(1e160, 1.0), (1e76, 1e77), (100.0, 1e151)]:
        with pytest.raises(InputError, match="sep \\* sigma must be below 1e\\+152"):
            BlobSpec(2, 10, 3, sep, sigma=sigma)
    with pytest.raises(InputError, match="sigma \\* sqrt\\(dim\\) must be below"):
        BlobSpec(2, 10, 1000, 0.0, sigma=1e151)
    BlobSpec(2, 10, 3, 9.9e151)  # the largest separations are still taken


def test_blobs_finite():
    feats, _ = gaussian_blobs(BlobSpec(6, 40, 8, 10.0, seed=99))
    assert np.isfinite(feats).all()
    assert feats.shape == (240, 8)


def test_block_dissim_hand_values():
    m = block_dissim([2, 2], 0.0, 1.0)
    expect = np.array(
        [
            [0.0, 0.0, 1.0, 1.0],
            [0.0, 0.0, 1.0, 1.0],
            [1.0, 1.0, 0.0, 0.0],
            [1.0, 1.0, 0.0, 0.0],
        ]
    )
    assert np.array_equal(m, expect)
    single = block_dissim([3], 0.5, 1.0)
    assert np.array_equal(single, 0.5 * (1 - np.eye(3)))


def test_block_dissim_is_valid():
    m = block_dissim([15, 15, 15], 0.01, 1.0)
    assert check_dissim(m) is m
    assert m.shape == (45, 45)


def test_block_dissim_validation():
    with pytest.raises(InputError):
        block_dissim([], 0.0, 1.0)
    with pytest.raises(InputError):
        block_dissim([2, 0], 0.0, 1.0)
    with pytest.raises(InputError, match="strictly less"):
        block_dissim([2, 2], 1.0, 1.0)
    with pytest.raises(InputError):
        block_dissim([2, 2], -0.1, 1.0)
    # check_dissim refuses an entry from DISSIM_LIMIT up, so synth does too.
    for between in (np.inf, DISSIM_LIMIT, np.nan):
        with pytest.raises(InputError, match="between must be below"):
            block_dissim([2, 2], 0.0, between)
    with pytest.raises(InputError, match="strictly less"):
        block_dissim([2, 2], np.nan, 1.0)


def test_blocks_drive_vat_cce_to_known_count():
    m = block_dissim([10, 10, 10], 0.01, 1.0)
    img = odi_from(m, vat_order(m))
    assert cce_count(img, CceConfig()).cluster_count == 3
