"""Layered benchmark for ripple-zkp; see perfbench/README.md.

    python3 perfbench/run.py --workload prove-7x7 --seed 1 --seconds 20 --trace 0

Run from the root of a checkout. Each run starts fresh interpreters
(``worker.py``) against the checkout's ``src`` and prints, as its last line,
one JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``:
the end-to-end metrics with ``--trace 0``, the per-layer ones with
``--trace 1``. A line before it, ``{"meta": ...}``, records the run's
settings and sample counts.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

from worker import PUZZLE, ROOT, SOLUTION, WORKLOADS

HERE = Path(__file__).resolve().parent
SRC = ROOT / "src"
SPEC = ROOT / "BENCHMARK.json"  # declares every metric's name and unit
REQUIRED = (SRC / "ripple_zkp" / "__init__.py", PUZZLE, SOLUTION, SPEC)

# Set-up is timed this often per run: in the measuring worker and in
# throwaway workers, half of them before it and half after, so that one
# slow phase of a shared machine weighs less in the median.
SETUP_SAMPLES = 5
# Scaled set-up figures read as seconds on a machine where a fresh
# interpreter imports numpy in this long (see perfbench/README.md).
REF_SETUP_S = 0.12
CLI_SAMPLES = 3
WORKER_TIMEOUT_S = 120  # leaves room for the rest of a run within 180 s
COUNT_OUTPUT = "k=6 m=7 n=7 grid_cards=294 peak_aux_cards=94 total=388\n"


class RunError(RuntimeError):
    pass


def package_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    # numpy, imported by scipy, starts an OpenBLAS thread per CPU at import.
    # The package makes no BLAS calls; the extra threads only tie set-up
    # time to how busy the machine's other CPUs are.
    env["OPENBLAS_NUM_THREADS"] = "1"
    return env


def run_worker(args: argparse.Namespace, setup_only: bool) -> tuple[float, dict | None]:
    """Start a worker; return (seconds until its inputs were ready, its result)."""
    cmd = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
    ]
    if setup_only:
        cmd.append("--setup-only")
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=package_env(), stdout=subprocess.PIPE, text=True)
    watchdog = threading.Timer(WORKER_TIMEOUT_S, proc.kill)
    watchdog.start()
    try:
        first = proc.stdout.readline()
        ready_s = time.perf_counter() - t0
        rest = proc.stdout.read()
        code = proc.wait()
    finally:
        watchdog.cancel()
        proc.kill()
        proc.wait()
    if first.strip() != "READY" or code != 0:
        raise RunError(f"worker exited with code {code} (first line {first.strip()!r})")
    if setup_only:
        return ready_s, None
    return ready_s, json.loads(rest.strip().splitlines()[-1])


def timed_cli(argv: list[str]) -> tuple[float, str]:
    t0 = time.perf_counter()
    done = subprocess.run(
        [sys.executable, *argv], cwd=ROOT, env=package_env(),
        capture_output=True, text=True, timeout=60,
    )
    wall = time.perf_counter() - t0
    if done.returncode != 0:
        raise RunError(f"{argv} exited with code {done.returncode}: {done.stderr.strip()}")
    return wall, done.stdout


def reference_setup_s() -> float:
    """Wall time of a fresh interpreter that imports numpy: work shaped like
    set-up (start-up, module loading, shared libraries) that the package
    cannot change."""
    return timed_cli(["-c", "import numpy"])[0]


def cli_metrics(prove_seed: int, prove_sha256: str) -> tuple[dict, bool]:
    """Wall time of whole CLI processes, median of CLI_SAMPLES each."""
    cases = {
        "cli.interpreter_s": ["-c", "pass"],
        "cli.import_s": ["-c", "import ripple_zkp"],
        "cli.count_s": ["-m", "ripple_zkp.cli", "count", "--puzzle", str(PUZZLE)],
        "cli.prove_s": [
            "-m", "ripple_zkp.cli", "prove", "--puzzle", str(PUZZLE),
            "--solution", str(SOLUTION), "--seed", str(prove_seed),
        ],
    }
    metrics, ok = {}, True
    for name, argv in cases.items():
        walls = []
        for _ in range(CLI_SAMPLES):
            wall, out = timed_cli(argv)
            walls.append(wall)
        if name == "cli.count_s" and out != COUNT_OUTPUT:
            print(f"count printed {out!r}", file=sys.stderr)
            ok = False
        if name == "cli.prove_s" and hashlib.sha256(out.encode()).hexdigest() != prove_sha256:
            print("prove transcript from the CLI differs from the library's", file=sys.stderr)
            ok = False
        metrics[name] = statistics.median(walls)
    return metrics, ok


def git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    done = subprocess.run(
        ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, check=False
    )
    return done.stdout.strip() or "unknown"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Layered benchmark for ripple-zkp.")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    missing = [str(p.relative_to(ROOT)) for p in REQUIRED if not p.is_file()]
    if missing:
        print(f"error: run from a ripple-zkp checkout; missing {', '.join(missing)}", file=sys.stderr)
        return 2

    try:
        # Each set-up sample is followed by one of the reference's.
        samples = 1 if args.trace else SETUP_SAMPLES
        setup, setup_refs = [], []
        for i in range(samples):
            measuring = i == samples // 2
            ready_s, result = run_worker(args, setup_only=not measuring)
            setup.append(ready_s)
            if measuring:
                out = result
            if not args.trace:
                setup_refs.append(reference_setup_s())
        metrics = dict(out["metrics"])
        correct = out["correct"]
        if args.trace:
            cli, cli_ok = cli_metrics(out["cli_seed"], out["cli_sha256"])
            metrics.update(cli)
            correct = correct and cli_ok
        else:
            metrics["setup_s"] = (
                statistics.median(setup) * REF_SETUP_S / statistics.median(setup_refs)
            )
            out["unscaled"]["setup_s"] = statistics.median(setup)
        declared = json.loads(SPEC.read_text())["per_layer" if args.trace else "end_to_end"]
        units = {m["name"]: m["unit"] for m in declared}
        if set(metrics) != set(units):
            raise RunError(f"metrics {sorted(set(metrics) ^ set(units))} do not match BENCHMARK.json")
    except (RunError, subprocess.TimeoutExpired, json.JSONDecodeError, IndexError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    meta = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "commit": git_commit(),
        **out["meta"],
        "samples": {**out["samples"], "setup": len(setup)},
        "setup_s_samples": setup,
        "setup_reference_s_samples": setup_refs,
        "unscaled": out.get("unscaled"),
    }
    print(json.dumps({"meta": meta}))
    print(json.dumps({
        "correct": bool(correct),
        "attempted": out["attempted"],
        "failed": out["failed"],
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
