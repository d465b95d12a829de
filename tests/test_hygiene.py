"""Static checks of the package surface, with the standard library only.

- No module imports a name it never uses (an ``ast`` walk; no linter is
  needed).
- Every name in ``reaction_lens.__all__`` resolves.
- Every name the README's ``from reaction_lens import (...)`` block
  imports is in ``__all__``.
"""

import ast
import re
from pathlib import Path

import pytest

import reaction_lens

PACKAGE = Path(reaction_lens.__file__).parent
README = Path(__file__).resolve().parents[1] / "README.md"
MODULES = sorted(PACKAGE.glob("*.py"))


def imported_names(tree):
    """(bound name, line) of every import except ``from __future__``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.partition(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name, node.lineno


def used_names(tree):
    """Names read anywhere in the module, plus those listed in ``__all__``."""
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used.update(ast.literal_eval(node.value))
    return used


def readme_imports():
    block = re.search(r"from reaction_lens import \(([^)]*)\)", README.read_text(encoding="utf-8"))
    assert block, "README has no `from reaction_lens import (...)` block"
    return [name for name in re.split(r"[\s,]+", block.group(1)) if name]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
    used = used_names(tree)
    unused = [f"{name} (line {line})" for name, line in imported_names(tree) if name not in used]
    assert not unused, f"{path.name} imports names it never uses: {', '.join(unused)}"


def test_all_names_resolve():
    missing = [name for name in reaction_lens.__all__ if not hasattr(reaction_lens, name)]
    assert not missing, f"reaction_lens.__all__ names missing attributes: {missing}"


def test_readme_library_imports_are_exported():
    names = readme_imports()
    assert names
    missing = [name for name in names if name not in reaction_lens.__all__]
    assert not missing, f"README imports names not in reaction_lens.__all__: {missing}"
