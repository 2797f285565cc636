"""Every name a package module imports is used in that module; the package's
``__init__.py`` is exempt, since its imports are the public re-exports. And
every function or class the package defines is named somewhere in ``src/``
or ``perfbench/``: a definition that only tests call is dead code."""
import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "ripple_zkp"
MODULES = sorted(path.name for path in PACKAGE.glob("*.py") if path.name != "__init__.py")
DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
REFERRERS = ("src/", "perfbench/")  # the sources whose references count


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                imported[(alias.asname or alias.name).split(".")[0]] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in imported.items() if name not in used]


def test_detects_an_unused_name():
    assert unused_imports("import os\nfrom a import b, c as d\nd(os)\n") == ["line 2: b"]


@pytest.mark.parametrize("module", MODULES)
def test_every_import_is_used(module):
    assert unused_imports((PACKAGE / module).read_text()) == []


def references(tree: ast.AST) -> set[str]:
    """Every name ``tree`` refers to: names, attributes, imported names and
    the dotted parts of string constants (``"Matrix.rotate"`` names both)."""
    named = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            named.add(node.id)
        elif isinstance(node, ast.Attribute):
            named.add(node.attr)
        elif isinstance(node, ast.alias):
            named.update(node.name.split("."))
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            named.update(node.value.split("."))
    return named


def unreferenced(sources: dict[str, str], checked: str) -> list[str]:
    """``path:line name`` of each function or class defined in a source whose
    path starts with ``checked`` that no source under ``REFERRERS`` refers
    to; dunders are exempt."""
    trees = {path: ast.parse(text) for path, text in sources.items()}
    named = set().union(*(references(tree) for path, tree in trees.items()
                          if path.startswith(REFERRERS)))
    return [
        f"{path}:{node.lineno} {node.name}"
        for path, tree in trees.items() if path.startswith(checked)
        for node in ast.walk(tree)
        if isinstance(node, DEFINITIONS) and node.name not in named
        and not (node.name.startswith("__") and node.name.endswith("__"))
    ]


def test_detects_an_unreferenced_definition():
    # ``kept`` is called from src/ and ``f`` named in a perfbench/ string;
    # ``tested`` is called only from tests/, which does not count.
    sources = {
        "src/m.py": "class K:\n    def __init__(self): pass\n    def kept(self): pass\n"
                    "    def lost(self): pass\n    def tested(self): pass\ndef f(): pass\n"
                    "K().kept()\n",
        "perfbench/p.py": "HOOKS = ['m.f']\n",
        "tests/t.py": "from m import K\nK().tested()\n",
    }
    assert unreferenced(sources, "src/") == ["src/m.py:4 lost", "src/m.py:5 tested"]


def test_every_definition_is_referenced():
    sources = {
        str(path.relative_to(ROOT)): path.read_text()
        for top in REFERRERS for path in sorted((ROOT / top).rglob("*.py"))
    }
    assert unreferenced(sources, "src") == []
