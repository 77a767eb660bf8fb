"""Self-test of the benchmark's tracer.

    python3 -m pytest perfbench/test_tracer.py
"""

import os
import sys
import textwrap

import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from tracer import Tracer, layer_totals  # noqa: E402

# ``outer`` advances the fake clock by 1, calls ``leaf`` (+2), advances by 3
# and calls ``leaf`` again: 8 inclusive, 4 self.  ``b`` and the package
# import ``leaf`` by name, so only rebinding every reference traces them.
FILES = {
    "__init__.py": "from .a import leaf, outer\n",
    "a.py": """
        import concurrent.futures

        NOW = [0.0]

        def leaf(x):
            NOW[0] += 2
            return [x] * 3

        def outer(x):
            NOW[0] += 1
            leaf(x)
            NOW[0] += 3
            leaf(x)
            return x

        def pooled(n):
            with concurrent.futures.ThreadPoolExecutor(max_workers=2) as pool:
                return list(pool.map(leaf, range(n)))
    """,
    "b.py": """
        from .a import leaf

        def use():
            return leaf(1)
    """,
}


@pytest.fixture
def pkg(tmp_path):
    name = "tracerfixturepkg"
    root = tmp_path / name
    root.mkdir()
    for fname, text in FILES.items():
        (root / fname).write_text(textwrap.dedent(text))
    sys.path.insert(0, str(tmp_path))
    try:
        import tracerfixturepkg.a as a
        import tracerfixturepkg.b as b
        yield name, a, b
    finally:
        sys.path.remove(str(tmp_path))
        for mod in [m for m in sys.modules if m.split(".")[0] == name]:
            del sys.modules[mod]


def test_rebinding_reaches_names_imported_elsewhere(pkg):
    name, a, b = pkg
    original = a.leaf
    tracer = Tracer(name, clock=lambda: a.NOW[0])
    assert tracer.wrap("a.leaf") == 3  # a, b and the package itself
    package = sys.modules[name]
    assert b.leaf is a.leaf is package.leaf is not original
    b.use()
    package.leaf(2)
    assert tracer.totals()["a.leaf.calls"] == 2


def test_self_time_subtracts_nested_spans(pkg):
    name, a, b = pkg
    tracer = Tracer(name, clock=lambda: a.NOW[0])
    tracer.wrap("a.outer")
    tracer.wrap("a.leaf", {"items": lambda args, kwargs, result: len(result)})
    tracer.op = "op0"
    a.outer(5)
    b.use()
    totals = tracer.totals("op0")
    assert totals["a.outer.s"] == 8
    assert totals["a.outer.self_s"] == 4
    assert totals["a.leaf.s"] == totals["a.leaf.self_s"] == 6
    assert totals["a.leaf.calls"] == 3
    assert totals["a.leaf.items"] == 9
    assert tracer.totals("other") == {}
    # outer's two leaf spans name it as parent; b.use's leaf is a root span
    outer_id = next(s[0] for s in tracer.spans if s[1] == "a.outer")
    parents = [s[4] for s in tracer.spans if s[1] == "a.leaf"]
    assert parents == [outer_id, outer_id, None]


def test_pool_workers_are_children_of_the_waiting_call(pkg):
    name, a, _ = pkg
    tracer = Tracer(name)
    tracer.wrap("a.pooled")
    tracer.wrap("a.leaf")
    a.pooled(6)
    pooled_id = next(s[0] for s in tracer.spans if s[1] == "a.pooled")
    leaves = [s for s in tracer.spans if s[1] == "a.leaf"]
    assert len(leaves) == 6
    assert all(s[4] == pooled_id for s in leaves)
    totals = tracer.totals()
    assert 0 <= totals["a.pooled.self_s"] <= totals["a.pooled.s"]


def test_overlapping_children_are_subtracted_once():
    spans = [
        (0, "parent", 0.0, 10.0, None, None),
        (1, "child", 1.0, 5.0, 0, None),
        (2, "child", 3.0, 8.0, 0, None),   # overlaps the first child
        (3, "child", 9.5, 12.0, 0, None),  # clipped to the parent's end
    ]
    totals = layer_totals(spans)
    assert totals["parent.self_s"] == pytest.approx(10.0 - 7.0 - 0.5)
    assert totals["child.s"] == pytest.approx(4.0 + 5.0 + 2.5)
    assert totals["child.calls"] == 3
