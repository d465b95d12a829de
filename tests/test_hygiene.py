"""Static checks of the package surface, with the standard library only.

- No module imports a name it never uses (an ``ast`` walk; no linter is
  needed).
- Every name in ``reaction_lens.__all__`` resolves.
- Every name the README's ``from reaction_lens import (...)`` block
  imports is in ``__all__``, and the README's library example runs.
- Every public top-level function and class of the package is referenced
  somewhere in the package or in ``perfbench/*.py``, so a helper that no
  command or benchmark runs does not stay behind.
- The modules that add floats never read ``sum``, whose result differs
  between Python versions.
"""

import ast
import importlib
import re
from pathlib import Path

import pytest

import reaction_lens
from reaction_lens.cli import EXIT_OK, main

PACKAGE = Path(reaction_lens.__file__).parent
ROOT = Path(__file__).resolve().parents[1]
README = ROOT / "README.md"
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


def used_names(tree, module):
    """Names read anywhere in the module, plus those its ``__all__`` lists."""
    used = set(getattr(module, "__all__", ()))
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
    return used


def readme_imports():
    block = re.search(r"from reaction_lens import \(([^)]*)\)", README.read_text(encoding="utf-8"))
    assert block, "README has no `from reaction_lens import (...)` block"
    return [name for name in re.split(r"[\s,]+", block.group(1)) if name]


def readme_library_blocks():
    """The python blocks of the README's "Library use" section."""
    section = README.read_text(encoding="utf-8").split("\n## Library use\n", 1)[1]
    return re.findall(r"```python\n(.*?)```", section.split("\n## ", 1)[0], re.S)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
    name = "reaction_lens" if path.stem == "__init__" else f"reaction_lens.{path.stem}"
    used = used_names(tree, importlib.import_module(name))
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


def test_readme_library_example_runs(tmp_path, monkeypatch):
    corpus = tmp_path / "corpus.csv"
    synth = ["synth", "--output", str(corpus), "--rows", "200", "--vocab-size", "50", "--seed", "1"]
    assert main(synth) == EXIT_OK
    assert main(["clean", "--input", str(corpus), "--output", str(tmp_path / "cleaned.csv")]) == EXIT_OK
    monkeypatch.chdir(tmp_path)
    blocks = readme_library_blocks()
    assert blocks, "README's Library use section has no python block"
    for block in blocks:
        namespace = {}
        exec(compile(block, str(README), "exec"), namespace)
    # The example's message keeps two corpus words once cleaned.
    assert namespace["tokens"] == ("w0001", "w0002")
    assert len(namespace["vector"]) == 5 and namespace["coverage"] == 1.0


def referenced_names(tree):
    """Names a module reads, the attributes it reads, and the names it imports."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            yield from (alias.name for alias in node.names)


def test_every_public_definition_is_used():
    # The root package's export table names strings, not references, so an
    # export alone does not keep a definition.
    sources = MODULES + sorted((ROOT / "perfbench").glob("*.py"))
    referenced = set()
    for path in sources:
        referenced.update(referenced_names(ast.parse(path.read_text(encoding="utf-8"), str(path))))
    unused = [
        f"{path.stem}.{node.name}"
        for path in MODULES
        for node in ast.parse(path.read_text(encoding="utf-8"), str(path)).body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and not node.name.startswith("_")
        and node.name not in referenced
    ]
    assert not unused, f"public definitions no module or benchmark uses: {', '.join(unused)}"


# Float sums in these modules are plain left-to-right additions, as ``engine.mean_vector``
# takes them: ``sum()`` compensates from Python 3.12 on, which changes the last digits of a
# report or prediction between versions.  ``engine.normalize_columns`` adds integer counts.
FLOAT_SUM_MODULES = ("evaluation", "star", "artifacts", "cli")


@pytest.mark.parametrize("stem", FLOAT_SUM_MODULES)
def test_no_builtin_sum(stem):
    path = PACKAGE / f"{stem}.py"
    lines = [
        node.lineno
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path)))
        if isinstance(node, ast.Name) and node.id == "sum"
    ]
    assert not lines, f"{path.name} reads sum() on lines {lines}; add in order instead"
