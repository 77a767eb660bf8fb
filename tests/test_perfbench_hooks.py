"""The benchmark's tracer hooks still resolve against the package.

``perfbench/op.py`` wraps package functions by name: every ``TRACED`` entry,
and the end-to-end timers and cache counters, which rebind a function only
where a given module holds it.  A rename or a changed import breaks
``perfbench/run.py --trace 1`` or silently zeroes a timer, so the names are
checked here.  ``op.py`` is parsed, not imported.
"""

import ast
import importlib
import os

import pytest

OP_PY = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench", "op.py")


def _op_tree():
    if not os.path.isfile(OP_PY):
        pytest.skip("perfbench/op.py not present")
    with open(OP_PY, encoding="utf-8") as fh:
        return ast.parse(fh.read())


def _home(qualname):
    mod_name, func_name = qualname.rsplit(".", 1)
    return getattr(importlib.import_module(f"scenevat.{mod_name}"), func_name)


def test_every_traced_name_resolves():
    tree = _op_tree()
    traced = [
        node.value for node in ast.walk(tree)
        if isinstance(node, ast.Assign)
        and any(isinstance(t, ast.Name) and t.id == "TRACED" for t in node.targets)
    ]
    assert len(traced) == 1
    names = [ast.literal_eval(key) for key in traced[0].keys]
    assert "matrix.check_dissim" in names
    for qualname in names:
        assert callable(_home(qualname)), qualname


def test_scoped_wraps_find_their_functions():
    """``wrap(q, only_in=(m,))`` needs ``scenevat.m`` to hold ``q``'s function."""
    scoped = set()
    for node in ast.walk(_op_tree()):
        if not (isinstance(node, ast.Call) and getattr(node.func, "attr", "") == "wrap"):
            continue
        for kw in node.keywords:
            if kw.arg == "only_in":
                qualname = ast.literal_eval(node.args[0])
                scoped.update((m, qualname) for m in ast.literal_eval(kw.value))
    assert {
        ("cli", "report.run_report"),
        ("cli", "report.features_for_manifest"),
        ("cli", "vatf.read_vatf"),
        ("report", "vatf.read_vatf"),
        ("report", "audio.extract_features"),
    } <= scoped
    for mod_name, qualname in sorted(scoped):
        mod = importlib.import_module(f"scenevat.{mod_name}")
        func = _home(qualname)
        assert any(v is func for v in vars(mod).values()), (mod_name, qualname)
