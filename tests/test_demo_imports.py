"""Every name the demos import from the package still exists.

The demos run only by hand, so a renamed or deleted function would break
them silently.  Each ``demos/*.py`` is parsed, not imported or run, and
each ``from scenevat.X import name`` is resolved against ``scenevat.X``.
"""

import ast
import glob
import importlib
import os

import pytest

DEMOS = sorted(glob.glob(
    os.path.join(os.path.dirname(__file__), os.pardir, "demos", "*.py")
))


def _package_imports(path):
    with open(path, encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    return [
        (node.module, alias.name)
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.level == 0
        and (node.module or "").startswith("scenevat.")
        for alias in node.names
    ]


@pytest.mark.parametrize("path", DEMOS, ids=os.path.basename)
def test_demo_imports_resolve(path):
    imports = _package_imports(path)
    assert imports, "the demo imports nothing from a scenevat submodule"
    for module, name in imports:
        assert hasattr(importlib.import_module(module), name), (module, name)
