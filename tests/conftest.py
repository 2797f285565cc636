from pathlib import Path

import pytest

from ripple_zkp.puzzle import parse_puzzle, parse_solution

PUZZLE_DIR = Path(__file__).resolve().parent.parent / "puzzles"


def running_children() -> set[int] | None:
    """The children of this process, or None where the kernel does not list them."""
    try:
        lists = [task / "children" for task in Path("/proc/self/task").iterdir()]
        return {int(pid) for path in lists for pid in path.read_text().split()}
    except OSError:
        return None


@pytest.fixture(autouse=True)
def no_child_left():
    """Fail a test after which this process still has a child: every fork
    worker and subprocess a test starts must be reaped by its end."""
    listed = running_children() is not None
    yield
    if listed:
        assert running_children() == set(), "a child process outlived the test"


@pytest.fixture(scope="session")
def sample7x7_text() -> str:
    return (PUZZLE_DIR / "sample7x7.txt").read_text()


@pytest.fixture(scope="session")
def sample7x7_solution_text() -> str:
    return (PUZZLE_DIR / "sample7x7_solution.txt").read_text()


@pytest.fixture(scope="session")
def sample7x7(sample7x7_text):
    return parse_puzzle(sample7x7_text)


@pytest.fixture(scope="session")
def sample7x7_solution(sample7x7, sample7x7_solution_text):
    return parse_solution(sample7x7_solution_text, sample7x7)
