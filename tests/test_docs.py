"""The README's Python examples run as written, from the repository root, the
package's public names all import, and the CI workflow runs what ROADMAP.md and
BENCHMARK.json name and tests that exist, every job under a time limit."""
import importlib
import json
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_readme_python_blocks_run(monkeypatch):
    blocks = re.findall(r"^```python\n(.*?)^```", (ROOT / "README.md").read_text(), re.M | re.S)
    assert blocks
    monkeypatch.chdir(ROOT)
    for block in blocks:
        exec(compile(block, "README.md", "exec"), {"__name__": "readme_example"})


def test_readme_names_resolve():
    # Every module-qualified name the README puts in backticks is bound on
    # the package, so a rename or a deletion cannot leave the README behind.
    pattern = r"`(?:ripple_zkp\.)?((?:cards|protocol|puzzle|view|audit|cli)(?:\.\w+)+)"
    names = re.findall(pattern, (ROOT / "README.md").read_text())
    assert names

    def resolves(name: str) -> bool:
        module, *attrs = name.split(".")
        obj = importlib.import_module(f"ripple_zkp.{module}")
        for attr in attrs:
            obj = getattr(obj, attr, None)
        return obj is not None

    assert [name for name in names if not resolves(name)] == []


def test_star_import_resolves_all():
    # Every name in __all__ is bound on the package, so ``from ripple_zkp import *`` works.
    import ripple_zkp

    namespace = {}
    exec("from ripple_zkp import *", namespace)
    assert [name for name in ripple_zkp.__all__ if name not in namespace] == []


def workflow_job(name: str) -> str:
    """The text of one job of the CI workflow, read without a YAML parser."""
    text = (ROOT / ".github" / "workflows" / "tests.yml").read_text()
    job = re.search(rf"^  {re.escape(name)}:\n(.*?)(?=^  \S|\Z)", text, re.M | re.S)
    assert job, f"no job {name!r} in tests.yml"
    return job.group(1)


def test_bench_smoke_runs_every_workload():
    # A workload added to BENCHMARK.json gets its smoke run in CI.
    matrix = re.search(r"^ +workload: \[(.*)\]$", workflow_job("bench-smoke"), re.M)
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]
    assert matrix and matrix.group(1).split(", ") == [w["name"] for w in declared]


def test_tier1_job_runs_the_roadmap_command():
    tier1 = re.search(r"^\*\*Tier-1 verify:\*\* `(.+)`$", (ROOT / "ROADMAP.md").read_text(), re.M)
    runs = re.findall(r"^ +- run: (.+)$", workflow_job("tier1"), re.M)
    assert tier1 and f"{tier1.group(1)} --durations=10" in runs


def test_fresh_process_step_names_tests_that_exist():
    # The fast job runs some tests again in a process of their own, by node
    # id; a renamed or moved test would leave that step collecting nothing.
    step = re.search(r"^ +- run: >-\n((?: {10}.+\n)+)", workflow_job("fast"), re.M)
    assert step
    ids = [word for word in step.group(1).split() if word.startswith("tests/")]
    assert ids
    collected = subprocess.run(
        [sys.executable, "-m", "pytest", "--collect-only", "-q", "-p", "no:cacheprovider", *ids],
        cwd=ROOT, capture_output=True, text=True,
    )
    assert collected.returncode == 0, collected.stdout + collected.stderr
    found = collected.stdout.splitlines()
    assert all(any(line.startswith(node) for line in found) for node in ids)


def test_python_floor_is_the_same_everywhere():
    # pyproject.toml's requires-python, the fast job's lowest version and the
    # README's install line name the same floor.
    pyproject = (ROOT / "pyproject.toml").read_text()
    floor = re.search(r'^requires-python = ">=(\d+\.\d+)"$', pyproject, re.M)
    versions = re.search(r"^ +python-version: \[(.*)\]$", workflow_job("fast"), re.M)
    assert floor and versions
    lowest = min(json.loads(f"[{versions.group(1)}]"), key=lambda v: tuple(map(int, v.split("."))))
    assert lowest == floor.group(1)
    assert f"({floor.group(1)} or later)" in (ROOT / "README.md").read_text()


def test_every_job_has_a_time_limit():
    # The workflow's header promises it, so a hung fork worker cannot hold a
    # runner for GitHub's 6-hour default.
    text = (ROOT / ".github" / "workflows" / "tests.yml").read_text()
    jobs = re.findall(r"^  ([\w-]+):$", text.partition("\njobs:\n")[2], re.M)
    limit = re.compile(r"^    timeout-minutes: \d+$", re.M)
    timed = [job for job in jobs if limit.search(workflow_job(job))]
    assert jobs and timed == jobs
