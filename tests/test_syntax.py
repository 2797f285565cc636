"""Every source and test file parses under the oldest Python that
pyproject.toml declares, whichever newer interpreter runs the suite."""
import ast
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
FLOOR = re.search(r'^requires-python = ">=(\d+)\.(\d+)"$', (ROOT / "pyproject.toml").read_text(), re.M)
FILES = sorted(path.relative_to(ROOT) for top in ("src", "tests") for path in (ROOT / top).rglob("*.py"))


def test_floor_declared():
    assert FLOOR and (int(FLOOR[1]), int(FLOOR[2])) == (3, 10)


@pytest.mark.parametrize("path", FILES, ids=str)
def test_parses_at_floor(path):
    ast.parse((ROOT / path).read_text(), str(path), feature_version=(int(FLOOR[1]), int(FLOOR[2])))
