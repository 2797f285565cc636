"""Every name a package module imports is used in that module; the package's
``__init__.py`` is exempt, since its imports are the public re-exports. And
every function or class the package defines is named somewhere in ``src/``
or ``perfbench/`` outside a package ``__init__.py``: a definition that only
tests call is dead code, and a re-export does not make it live. A method
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
    to, a package ``__init__.py`` not counting; dunders are exempt. A method
    of class C counts as referenced only by an attribute of its name not
    read off another class defined under ``checked``, or by a ``"C.name"``
    string."""
    trees = {path: ast.parse(text) for path, text in sources.items()}
    checked_trees = {path: tree for path, tree in trees.items() if path.startswith(checked)}
    classes = {node.name for tree in checked_trees.values() for node in ast.walk(tree)
               if isinstance(node, ast.ClassDef)}
    names, methods = set(), set()
    for path, tree in trees.items():
        if path.startswith(REFERRERS) and not path.endswith("__init__.py"):
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


def test_package_init_vouches_for_nothing():
    # ``exported`` is imported and listed in ``__all__`` by the package's
    # ``__init__.py`` and called only from tests/.
    sources = {
        "src/pkg/__init__.py": "from .m import exported, kept\n__all__ = ['exported', 'kept']\n",
        "src/pkg/m.py": "def exported(): pass\ndef kept(): pass\nkept()\n",
        "tests/t.py": "from pkg import exported\nexported()\n",
    }
    assert unreferenced(sources, "src/") == ["src/pkg/m.py:1 exported"]


def test_every_definition_is_referenced():
    sources = {
        str(path.relative_to(ROOT)): path.read_text()
        for top in REFERRERS for path in sorted((ROOT / top).rglob("*.py"))
    }
    assert unreferenced(sources, "src") == []


def class_members(tree: ast.AST) -> dict[str, set[tuple[str, str]]]:
    """``(name, kind)`` of every method, named-tuple field and ``self.``
    attribute of each class defined in ``tree``, by class; dunders aside."""
    members = {}
    for cls in ast.walk(tree):
        if not isinstance(cls, ast.ClassDef):
            continue
        named_tuple = any(getattr(base, "id", None) == "NamedTuple" for base in cls.bases)
        found = set()
        for node in cls.body:
            if named_tuple and isinstance(node, ast.AnnAssign):
                found.add((node.target.id, "field"))
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                found.add((node.name, "method"))
                found.update(
                    (sub.attr, "attribute") for sub in ast.walk(node)
                    if isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Store)
                    and getattr(sub.value, "id", None) == "self"
                )
        members[cls.name] = {
            (name, kind) for name, kind in found
            if not (name.startswith("__") and name.endswith("__"))
        }
    return members


def shared_method_names(texts) -> dict[str, list[tuple[str, str]]]:
    """Each method name that two or more classes of the sources ``texts``
    define, as a method, a named-tuple field or a ``self.`` attribute, with
    its ``(class, kind)`` definitions in order."""
    definers = {}
    for text in texts:
        for cls, members in class_members(ast.parse(text)).items():
            for name, kind in members:
                definers.setdefault(name, set()).add((cls, kind))
    return {
        name: sorted(found) for name, found in sorted(definers.items())
        if len({cls for cls, _ in found}) > 1 and any(kind == "method" for _, kind in found)
    }


def test_detects_a_shared_method_name():
    source = (
        "class P(NamedTuple):\n    run: int\n    def size(self): pass\n"
        "class Q:\n    def __init__(self): self.size, self.x = 1, 2\n    def run(self): pass\n"
        "class R:\n    def x(self): pass\n    def own(self): pass\n"
    )
    assert shared_method_names([source]) == {
        "run": [("P", "field"), ("Q", "method")],
        "size": [("P", "method"), ("Q", "attribute")],
        "x": [("Q", "attribute"), ("R", "method")],
    }


def test_shared_method_names_are_inventoried():
    # The unreferenced-definition scan cannot tell which class ``obj.name``
    # reads, so a test-only method passes it when another package class
    # defines the same name. These are the names that can hide one, each
    # checked by hand for a package caller:
    # - ``Puzzle.cells``: the protocol, the puzzle checks and the sweep;
    # - ``RandomSource.offset`` and ``.permutation``: the card shuffles and
    #   the simulator; ``ReplaySource.offset``: the view's run harvest;
    # - ``ReplaySource.permutation``: no package caller. It stays on purpose:
    #   it is how the tests replay a whole run's room draws;
    # - ``AuditReport.serialize`` and ``Transcript.serialize``: the CLI and
    #   perfbench.
    # A new shared name fails here until its callers are inventoried too.
    assert shared_method_names(path.read_text() for path in PACKAGE.glob("*.py")) == {
        "cells": [("Puzzle", "method"), ("Violation", "field")],
        "offset": [("Matrix", "attribute"), ("RandomSource", "method"), ("ReplaySource", "method")],
        "permutation": [("RandomSource", "method"), ("ReplaySource", "method")],
        "serialize": [("AuditReport", "method"), ("Transcript", "method")],
    }
