"""The README's Python examples run as written, from the repository root, and
the package's public names all import."""
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_readme_python_blocks_run(monkeypatch):
    blocks = re.findall(r"^```python\n(.*?)^```", (ROOT / "README.md").read_text(), re.M | re.S)
    assert blocks
    monkeypatch.chdir(ROOT)
    for block in blocks:
        exec(compile(block, "README.md", "exec"), {"__name__": "readme_example"})


def test_star_import_resolves_all():
    # Every name in __all__ is bound on the package, so ``from ripple_zkp import *`` works.
    import ripple_zkp

    namespace = {}
    exec("from ripple_zkp import *", namespace)
    assert [name for name in ripple_zkp.__all__ if name not in namespace] == []
