"""Every name a package module imports is used in that module; the package's
``__init__.py`` is exempt, since its imports are the public re-exports. And
every function or class the package defines is named somewhere in ``src/``
or ``perfbench/``: a definition that only tests call is dead code. A method
is named only by an attribute that is not read off another package class,
or by a ``"Class.method"`` string, so a same-named module function or
method of another class does not vouch for it."""
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


def references(tree: ast.AST, classes: set[str]) -> tuple[set[str], set[tuple]]:
    """(names, methods) that ``tree`` refers to. ``names`` holds every name,
    attribute, imported name and dotted part of a string constant; they vouch
    for module-level definitions. ``methods`` holds a ``(class, name)`` pair
    per attribute, the class None unless the attribute is read off one of
    ``classes``, and per dotted pair of a string constant (``"Matrix.rotate"``
    gives ``("Matrix", "rotate")``); only these vouch for a method."""
    names, methods = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
            owner = getattr(node.value, "id", None)
            methods.add((owner if owner in classes else None, node.attr))
        elif isinstance(node, ast.alias):
            names.update(node.name.split("."))
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            parts = node.value.split(".")
            names.update(parts)
            methods.update(zip(parts, parts[1:]))
    return names, methods


def unreferenced(sources: dict[str, str], checked: str) -> list[str]:
    """``path:line name`` of each function or class defined in a source whose
    path starts with ``checked`` that no source under ``REFERRERS`` refers
    to; dunders are exempt. A method of class C counts as referenced only by
    an attribute of its name not read off another class defined under
    ``checked``, or by a ``"C.name"`` string."""
    trees = {path: ast.parse(text) for path, text in sources.items()}
    checked_trees = {path: tree for path, tree in trees.items() if path.startswith(checked)}
    classes = {node.name for tree in checked_trees.values() for node in ast.walk(tree)
               if isinstance(node, ast.ClassDef)}
    names, methods = set(), set()
    for path, tree in trees.items():
        if path.startswith(REFERRERS):
            tree_names, tree_methods = references(tree, classes)
            names |= tree_names
            methods |= tree_methods
    found = []
    for path, tree in checked_trees.items():
        for parent in ast.walk(tree):
            for node in ast.iter_child_nodes(parent):
                if not isinstance(node, DEFINITIONS) or (
                    node.name.startswith("__") and node.name.endswith("__")
                ):
                    continue
                if isinstance(parent, ast.ClassDef) and not isinstance(node, ast.ClassDef):
                    seen = {(None, node.name), (parent.name, node.name)} & methods
                else:
                    seen = node.name in names
                if not seen:
                    found.append((path, node.lineno, node.name))
    return [f"{path}:{line} {name}" for path, line, name in sorted(found)]


def test_detects_an_unreferenced_definition():
    # ``kept`` is called from src/ and ``f`` named in a perfbench/ string;
    # ``tested`` is called only from tests/, which does not count. The
    # module function ``masked`` does not vouch for the method ``K.masked``,
    # nor ``K.built`` for ``J.built``.
    sources = {
        "src/m.py": "class K:\n    def __init__(self): pass\n    def kept(self): pass\n"
                    "    def lost(self): pass\n    def tested(self): pass\n"
                    "    def masked(self): pass\ndef f(): pass\ndef masked(): pass\n"
                    "class J:\n    def built(self): pass\nJ, K().kept(), masked(), K.built\n",
        "perfbench/p.py": "HOOKS = ['m.f']\n",
        "tests/t.py": "from m import K\nK().tested()\n",
    }
    assert unreferenced(sources, "src/") == [
        "src/m.py:4 lost", "src/m.py:5 tested", "src/m.py:6 masked", "src/m.py:10 built",
    ]


def test_every_definition_is_referenced():
    sources = {
        str(path.relative_to(ROOT)): path.read_text()
        for top in REFERRERS for path in sorted((ROOT / top).rglob("*.py"))
    }
    assert unreferenced(sources, "src") == []
