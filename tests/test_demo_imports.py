"""Every name the demos import from the package, or the README names,
still exists.

The demos run only by hand, so a renamed or deleted function would break
them silently.  Each ``demos/*.py`` is parsed, not imported or run, and
each ``from scenevat.X import name`` is resolved against ``scenevat.X``;
so is each dotted ``scenevat.X.name`` in ``README.md``.
"""

import ast
import glob
import importlib
import os
import re

import pytest

ROOT = os.path.join(os.path.dirname(__file__), os.pardir)
DEMOS = sorted(glob.glob(os.path.join(ROOT, "demos", "*.py")))


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


def test_readme_dotted_names_resolve():
    with open(os.path.join(ROOT, "README.md"), encoding="utf-8") as fh:
        names = set(re.findall(r"\bscenevat\.(\w+)\.(\w+)", fh.read()))
    assert names, "the README names nothing as scenevat.<module>.<name>"
    for module, name in sorted(names):
        assert hasattr(importlib.import_module(f"scenevat.{module}"), name), (
            module, name)
