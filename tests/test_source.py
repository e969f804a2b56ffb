"""Static checks of the package source, made with the standard library.

No linter ships with the lab's toolchain, so the one lint rule the package
and its tests keep, no unused imports, is checked here on the syntax tree,
as is the package's export list.
"""

import ast
from pathlib import Path

import pytest

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src" / "collapse_lab"


def unused_imports(tree):
    """Names a module imports but never reads and does not export."""
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(getattr(t, "id", None) == "__all__"
                        for t in node.targets)):
            used |= set(ast.literal_eval(node.value))
    return sorted((line, name) for name, line in imported.items()
                  if name not in used)


def test_checker_sees_an_unused_import():
    tree = ast.parse("from __future__ import annotations\n"
                     "import numpy as np\nimport math\n"
                     "from .grids import GridSpec, ScalarField\n"
                     "__all__ = ['ScalarField']\n"
                     "x = np.pi\n")
    assert unused_imports(tree) == [(3, "math"), (4, "GridSpec")]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py"))
                         + sorted(TESTS.glob("*.py")), ids=lambda p: p.name)
def test_no_unused_imports(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    assert unused_imports(tree) == []


def test_package_exports_are_bound_unique_and_complete():
    import collapse_lab
    exported = collapse_lab.__all__
    assert len(exported) == len(set(exported))
    assert [name for name in exported if not hasattr(collapse_lab, name)] == []
    tree = ast.parse((SRC / "__init__.py").read_text(encoding="utf-8"))
    imported = {alias.asname or alias.name for node in tree.body
                if isinstance(node, ast.ImportFrom) for alias in node.names}
    assert sorted(imported - set(exported)) == []
