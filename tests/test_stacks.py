import re
import xml.etree.ElementTree as ET

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scenevat.errors import InputError
from scenevat.matrix import euclidean_dissim
from scenevat.stacks import (
    BAR_WIDTH,
    PROFILE_WIDTH,
    PX_PER_RECORD,
    label_stack,
    stack_csv,
    stack_svg,
)
from scenevat.synth import BlobSpec, gaussian_blobs
from scenevat.vat import vat_order


def _stack(order, labels):
    """A stack whose palette colours every label grey."""
    return label_stack(order, labels, {lab: "#808080" for lab in labels})


def test_identity_order_run_length_encoding():
    st_ = _stack([0, 1, 2, 3], ["A", "A", "B", "B"])
    assert st_.runs == (("A", 2), ("B", 2))
    assert st_.run_count == 2
    assert st_.mean_run_length == 2.0


def test_alternating_labels_four_runs():
    st_ = _stack([0, 1, 2, 3], ["A", "B", "A", "B"])
    assert st_.runs == (("A", 1), ("B", 1), ("A", 1), ("B", 1))


def test_order_is_applied_before_encoding():
    # order gathers the two A records together
    st_ = _stack([0, 2, 1, 3], ["A", "B", "A", "B"])
    assert st_.runs == (("A", 2), ("B", 2))


@settings(max_examples=50, deadline=None)
@given(
    labels=st.lists(st.sampled_from(["x", "y", "z"]), min_size=1, max_size=40),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_run_invariants_random(labels, seed):
    rng = np.random.Generator(np.random.Philox(key=seed))
    order = rng.permutation(len(labels))
    st_ = _stack(order, labels)
    assert sum(length for _, length in st_.runs) == len(labels)
    names = [lab for lab, _ in st_.runs]
    assert all(a != b for a, b in zip(names, names[1:]))
    assert st_.run_count >= len(set(labels))


def test_contiguous_iff_run_count_equals_distinct():
    st_ = _stack(range(6), ["a", "a", "b", "b", "c", "c"])
    assert st_.run_count == 3
    st_ = _stack(range(6), ["a", "b", "a", "b", "c", "c"])
    assert st_.run_count > 3


def test_blob_orderings_give_pure_runs():
    hits = 0
    for seed in range(100):
        feats, labels = gaussian_blobs(BlobSpec(3, 20, 8, 10.0, seed=seed))
        d = euclidean_dissim(feats)
        ordering = vat_order(d)
        st_ = _stack(ordering.order, [f"c{v}" for v in labels])
        hits += st_.run_count == 3
    assert hits >= 95


def test_palette_and_errors():
    with pytest.raises(InputError, match="no colour.*'q'"):
        label_stack([0, 1], ["a", "q"], palette={"a": "#000000"})
    with pytest.raises(InputError):
        _stack([0, 0], ["a", "b"])  # not a permutation
    with pytest.raises(InputError):
        _stack([0, 1, 2], ["a", "b"])  # length mismatch


def test_empty_stack_is_refused():
    # Its mean run length was 0 / 0: a ZeroDivisionError.
    with pytest.raises(InputError, match="needs at least one record"):
        label_stack([], [], palette={"a": "#000000"})


def test_csv_with_order_column():
    # The stack keeps the order it was built from, and its CSV reads it.
    st_ = _stack([1, 0], ["a", "b"])
    assert st_.order.tolist() == [1, 0]
    assert stack_csv(st_) == "position,record,label\n0,1,b\n1,0,a\n"


def test_svg_deterministic_and_complete():
    st_ = _stack(range(4), ["a", "a", "b", "b"])
    one = stack_svg(st_, link_dist=[0.0, 0.1, 0.9, 0.2])
    two = stack_svg(st_, link_dist=[0.0, 0.1, 0.9, 0.2])
    assert one == two
    assert "generated" not in one
    assert one.count("<rect") == 2 + 2  # runs + legend swatches
    assert one.count("<path") == 1  # the link-distance profile
    assert "</svg>" in one and one.startswith("<svg")
    ET.fromstring(one)


def _profile_edges(svg):
    """The right edge of each record's step in the profile path."""
    [path] = ET.fromstring(svg).iter("{http://www.w3.org/2000/svg}path")
    assert path.get("fill") == "#444444"
    d = path.get("d")
    x0 = BAR_WIDTH + 10
    head, tail = f"M{x0} 0", f"H{x0}Z"
    assert d.startswith(head) and d.endswith(tail)
    steps = re.findall(r"H([0-9.]+)v([0-9.]+)", d[len(head):-len(tail)])
    assert "".join(f"H{x}v{h}" for x, h in steps) == d[len(head):-len(tail)]
    assert all(float(h) == PX_PER_RECORD for _, h in steps)
    return np.array([float(x) for x, _ in steps])


def _random_links(n, seed):
    """VAT-like link distances: 0 first, a tenth of the rest zero."""
    rng = np.random.Generator(np.random.Philox(key=seed))
    link = rng.exponential(size=n)
    link[0] = 0.0
    link[rng.choice(n, n // 10)] = 0.0
    return link.tolist()


@pytest.mark.parametrize("link", [
    [0.0, 0.1, 0.9, 0.2],
    [0.0, 0.0, 2.5, 0.0, 1e-3, 2.5],  # zero-length links, a tied peak
    [0.0, 0.0, 0.0],  # all zero: the peak reads 1.0
    [0.0],
    _random_links(500, 5),
])
def test_svg_profile_path_steps_follow_the_link_distances(link):
    st_ = _stack(range(len(link)), [f"r{i % 7}" for i in range(len(link))])
    edges = _profile_edges(stack_svg(st_, link_dist=link))
    v = np.asarray(link)
    peak = v.max() if v.max() > 0 else 1.0
    assert edges.shape == v.shape
    assert np.abs(edges - (BAR_WIDTH + 10 + PROFILE_WIDTH * v / peak)).max() <= 0.006


def test_svg_link_profile_length_checked():
    st_ = _stack(range(3), ["a", "b", "c"])
    with pytest.raises(InputError, match="link_dist length"):
        stack_svg(st_, link_dist=[0.0, 1.0])
