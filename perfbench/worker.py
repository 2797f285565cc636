"""One benchmark run inside a fresh interpreter.

Started by ``run.py`` with ``PYTHONPATH`` pointing at the checkout's ``src``.
It imports ripple_zkp, builds the workload's inputs (parse, plus solve on
the audit and sweep workloads), prints ``READY`` so the parent can time
set-up, then runs a closed loop over the workload and prints one JSON line
with its measurements. With ``--setup-only`` it exits right after ``READY``.

Every call into the package goes through module attributes
(``protocol.run_protocol``, not a name bound here at import), so the
tracer's patches reach the calls made here as well as the package's own.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

from reference import Pacer
from tracer import Tracer

ROOT = Path(__file__).resolve().parent.parent
PUZZLE = ROOT / "puzzles" / "sample7x7.txt"
SOLUTION = ROOT / "puzzles" / "sample7x7_solution.txt"

# The seed whose outputs are pinned below; every run re-checks them.
DEFAULT_SEED = 0
GOLDEN_PROOFS = 16
GOLDEN_AUDIT_TRIALS = 24
# sha256 over the serialized transcripts of the first GOLDEN_PROOFS proofs
# that prove-7x7 draws for DEFAULT_SEED, in order.
GOLDEN_PROVE_SHA256 = "5dfb36ec624171b5b9231b717f699b318d44dded914dbfe1e8139d72a172c707"
# histogram_digest of GOLDEN_AUDIT_TRIALS honest and simulated trials from
# the first base seed audit-7x7 draws for DEFAULT_SEED.
GOLDEN_AUDIT_SHA256 = "85286d4d81856cd62a52137c72211ea1263b5b2e27b378b971f12589c08682a0"

CARDS_TOTAL = 388  # k=6 on 49 cells: 294 grid cards plus a 94-card auxiliary peak
AUX_PEAK = 94
AUDIT_TRIALS = 1000  # the CLI default, and the smallest count at which the audit gates
AUDIT_FAMILIES = 57
# Timed audits are cut into calls this small so that each can be paired with
# the speed reference (see end_to_end).
AUDIT_CALL_TRIALS = 2
SWEEP_SEEDS = 2
SWEEP_MUTATIONS = 245  # 49 cells x 5 alternative values
SWEEP_REJECT_EXPECTED = 215
SWEEP_STILL_VALID = 30
# Failure notes that mean the audit's structure broke, not its statistics.
STRUCTURAL_NOTES = (
    "heart seen in accept-path segment",
    "family missing from simulation",
    "family only in simulation",
)


def sha256(texts) -> str:
    h = hashlib.sha256()
    for text in texts:
        h.update(text.encode())
    return h.hexdigest()


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def workers(pool: bool) -> int:
    return nproc() if pool else 1


def input_stream(workload: str, seed: int) -> random.Random:
    """The workload's inputs for a seed: the same seed gives the same draws."""
    return random.Random(f"{workload}:{seed}")


class Context:
    """The package modules and the workload's parsed inputs."""

    def __init__(self, solve_puzzle: bool):
        from ripple_zkp import audit, cards, protocol, puzzle  # part of the timed set-up

        self.audit, self.cards, self.protocol, self.puzzle_mod = audit, cards, protocol, puzzle
        self.solve_puzzle = solve_puzzle
        self.load()

    def load(self) -> None:
        """Parse the puzzle, then solve it or parse its solution file."""
        pz = self.puzzle_mod
        self.puzzle = pz.parse_puzzle(PUZZLE.read_text(encoding="utf-8"))
        if self.solve_puzzle:
            self.solution = pz.solve(self.puzzle, limit=1)[0]
        else:
            self.solution = pz.parse_solution(SOLUTION.read_text(encoding="utf-8"), self.puzzle)

    def prove(self, seed: int):
        """What ``ripple-zkp prove`` does: one protocol run, then serialize."""
        prover = self.protocol.ProverInput(self.solution, honest=False)
        result = self.protocol.run_protocol(self.puzzle, prover, self.cards.RandomSource(seed))
        return result, result.transcript.serialize()


def histogram_digest(real, simulated) -> str:
    def canon(counts):
        return {key: sorted(counter.items()) for key, counter in sorted(counts.counts.items())}

    return sha256([json.dumps([canon(real), canon(simulated)])])


# --- workloads -------------------------------------------------------------
# call(ctx, x, pool) runs one call on input x and returns
# (ops, failed_ops, digest, extra). The digest identifies the outputs, so a
# traced replay can be compared with an untraced one. With pool=False the
# call runs in this process, so the tracer and the speed reference see all
# of it; with pool=True it runs on nproc fork workers. has_pool says whether
# a workload has a pooled call; traced runs make one. When ops_per_run is
# not None, timed calls are also cut after each audit.run_protocol, which
# then finishes that many operations.


class Prove:
    """Sequential honest proofs, each run_protocol followed by serialize."""

    name = "prove-7x7"
    solve_puzzle = False
    has_pool = False
    ops_per_run = None

    def __init__(self, ctx: Context):
        sim = ctx.audit.simulate_transcript(ctx.puzzle, ctx.cards.RandomSource(DEFAULT_SEED))
        self.skeleton = sim.skeleton()

    def golden(self, ctx: Context) -> bool:
        rng = input_stream(self.name, DEFAULT_SEED)
        texts = [ctx.prove(rng.getrandbits(32))[1] for _ in range(GOLDEN_PROOFS)]
        return sha256(texts) == GOLDEN_PROVE_SHA256

    def call(self, ctx: Context, seed: int, pool: bool):
        (verdict, transcript, stats), text = ctx.prove(seed)
        ok = (
            verdict.accepted
            and stats.total == CARDS_TOTAL
            and transcript.skeleton() == self.skeleton
        )
        return 1, 0 if ok else 1, sha256([text]), {}


class Audit:
    """full_audit: honest runs and simulated transcripts, histograms, report."""

    name = "audit-7x7"
    solve_puzzle = True
    has_pool = True
    ops_per_run = 0  # an operation ends with the call: a trial pair plus the report

    def __init__(self, ctx: Context):
        pass

    def golden(self, ctx: Context) -> bool:
        base = input_stream(self.name, DEFAULT_SEED).getrandbits(32)
        real = ctx.audit.gather_real_counts(
            ctx.puzzle, ctx.solution, GOLDEN_AUDIT_TRIALS, base, workers=nproc()
        )
        sim = ctx.audit.gather_simulated_counts(
            ctx.puzzle, GOLDEN_AUDIT_TRIALS, base + GOLDEN_AUDIT_TRIALS, workers=nproc()
        )
        return histogram_digest(real, sim) == GOLDEN_AUDIT_SHA256

    def call(self, ctx: Context, base_seed: int, pool: bool):
        trials = AUDIT_TRIALS if pool else AUDIT_CALL_TRIALS
        try:
            report = ctx.audit.full_audit(
                ctx.puzzle, ctx.solution, trials, base_seed, workers=workers(pool)
            )
        except ctx.audit.AuditError:
            traceback.print_exc()
            return trials, trials, "", {}
        failing = [fr for fr in report.families if not fr.passed]
        ok = (
            report.trials == trials
            and len(report.families) == AUDIT_FAMILIES
            and not any(w.startswith("skeleton") for w in report.warnings)
            and not any(fr.note in STRUCTURAL_NOTES for fr in failing)
        )
        # A family failing its statistical gate is the audit's known false
        # alarm at this trial count: reported as gate_failures, not as a
        # failed operation.
        extra = {"gate_failures": len(failing)}
        return trials, 0 if ok else trials, sha256([report.serialize()]), extra


class Sweep:
    """soundness_sweep: every single-cell mutation, several seeds each."""

    name = "sweep-7x7"
    solve_puzzle = True
    has_pool = True
    ops_per_run = 1  # one mutated run

    def __init__(self, ctx: Context):
        pass

    def golden(self, ctx: Context) -> bool:
        return True  # the expected sweep counts are exact on every seed

    def call(self, ctx: Context, seed: int, pool: bool):
        report = ctx.audit.soundness_sweep(
            ctx.puzzle,
            ctx.solution,
            ctx.cards.RandomSource(seed),
            seeds_per_mutation=SWEEP_SEEDS,
            workers=workers(pool),
        )
        runs = SWEEP_MUTATIONS * SWEEP_SEEDS
        failed = len(report.false_accepts) + len(report.missed_rejects)
        counts = (report.mutations_tested, report.reject_expected, report.still_valid, report.runs)
        if counts != (SWEEP_MUTATIONS, SWEEP_REJECT_EXPECTED, SWEEP_STILL_VALID, runs):
            failed = runs
        return runs, failed, sha256([repr(report)]), {}


WORKLOADS = {w.name: w for w in (Prove, Audit, Sweep)}


# --- loops -----------------------------------------------------------------


class Loop:
    """Closed loop: the next call starts when the previous one has returned."""

    def __init__(self, pacer: Pacer | None = None):
        self.pacer = pacer
        self.walls: list[float] = []  # seconds per call
        self.ops: list[int] = []
        self.failed = 0
        self.inputs: list[int] = []
        self.digests: list[str] = []
        self.extras: list[dict] = []

    def step(self, workload, ctx: Context, x: int, pool: bool) -> None:
        first = len(self.pacer.ops) if self.pacer else 0  # this call's first segment
        t0 = time.perf_counter()
        if self.pacer:
            self.pacer.restart()
        try:
            ops, failed, digest, extra = workload.call(ctx, x, pool)
        except Exception:  # a crash inside the package fails the call, not the run
            traceback.print_exc()
            ops, failed, digest, extra = 1, 1, "", {}
        self.walls.append(time.perf_counter() - t0)
        self.ops.append(ops)
        self.failed += failed
        self.inputs.append(x)
        self.digests.append(digest)
        self.extras.append(extra)
        if self.pacer:
            # Close the call's last segment with the operations no hook saw.
            hooked = sum(self.pacer.ops[first:])
            self.pacer.sample(max(ops - hooked, 0))

    def run_for(self, seconds: float, workload, ctx, rng, pool: bool) -> None:
        """Repeat calls while one more, as long as the last, still fits."""
        start = time.perf_counter()
        while not self.walls or time.perf_counter() - start + self.walls[-1] <= seconds:
            self.step(workload, ctx, rng.getrandbits(32), pool)

    @property
    def attempted(self) -> int:
        return sum(self.ops)

    @property
    def wall(self) -> float:
        return sum(self.walls)


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024


def end_to_end(workload, ctx, rng, seconds: float) -> dict:
    # Every timed call runs in this process. The pacer cuts the loop into
    # segments: one per call, and on audit and sweep one more after each
    # protocol run (through a hook on audit.run_protocol). Each segment is
    # followed by reference_ms() and scaled by REF_MS over the mean
    # reference time just before and after it. A latency sample is one
    # proof, one audit call or one sweep run, divided by its operations.
    pacer = Pacer()
    loop = Loop(pacer)
    hooked = workload.ops_per_run is not None
    if hooked:
        original = ctx.audit.run_protocol
        ctx.audit.run_protocol = pacer.hook(original, workload.ops_per_run)
    try:
        loop.run_for(seconds, workload, ctx, rng, pool=False)
    finally:
        if hooked:
            ctx.audit.run_protocol = original
    scaled = pacer.scaled()
    raw_ms = [1000 * s for s in pacer.per_op(pacer.segments)]
    lat_ms = [1000 * s for s in pacer.per_op(scaled)]
    metrics = {
        "ops_per_s": sum(pacer.ops) / sum(scaled),
        "op_ms.p50": statistics.median(lat_ms),
        "op_ms.p95": p95(lat_ms),
        "peak_rss_mb": peak_rss_mb(),
    }
    unscaled = {
        "ops_per_s": sum(pacer.ops) / sum(pacer.segments),
        "op_ms.p50": statistics.median(raw_ms),
        "op_ms.p95": p95(raw_ms),
        "reference_ms.p50": statistics.median(pacer.refs),
    }
    return {
        "attempted": loop.attempted,
        "failed": loop.failed,
        "correct": loop.failed == 0 and sum(pacer.ops) == loop.attempted,
        "metrics": metrics,
        "unscaled": unscaled,
        "samples": {"calls": len(loop.walls), "ops": loop.attempted, "latencies": len(lat_ms)},
    }


def p95(values: list[float]) -> float:
    return statistics.quantiles(values, n=20, method="inclusive")[18] if len(values) > 1 else values[0]


def traced_run(workload, ctx, rng, seconds: float) -> dict:
    layers: dict[str, float] = {
        "audit.worker_cpu_s": 0.0,
        "audit.pool_efficiency": 0.0,
        "audit.gate_failures": 0,
    }
    pooled = Loop()
    if workload.has_pool:
        # One untraced pool call; worker CPU comes from the reaped children.
        before = resource.getrusage(resource.RUSAGE_CHILDREN)
        pooled.step(workload, ctx, rng.getrandbits(32), pool=True)
        after = resource.getrusage(resource.RUSAGE_CHILDREN)
        cpu = (after.ru_utime - before.ru_utime) + (after.ru_stime - before.ru_stime)
        layers["audit.worker_cpu_s"] = cpu
        layers["audit.pool_efficiency"] = cpu / (nproc() * pooled.wall)
        layers["audit.gate_failures"] = pooled.extras[0].get("gate_failures", 0)

    tracer = Tracer()
    tracer.install()
    try:
        ctx.load()
        parse_ms, solve_ms = tracer.total_ms("puzzle.parse"), tracer.total_ms("puzzle.solve")
        tracer.reset()
        traced = Loop()
        traced.run_for(0.6 * seconds, workload, ctx, rng, pool=False)
    finally:
        tracer.uninstall()

    # Replay the same inputs untraced: the outputs must match, and the time
    # difference is the tracing overhead.
    plain = Loop()
    for x in traced.inputs:
        plain.step(workload, ctx, x, pool=False)
    correct = plain.digests == traced.digests
    if not correct:
        print("trace gate: traced outputs differ from untraced ones", file=sys.stderr)

    # Transcript bytes with the tracer off and on, on every workload.
    seeds = [rng.getrandbits(32) for _ in range(3)]
    plain_bytes = [ctx.prove(s)[1] for s in seeds]
    checker = Tracer()
    checker.install()
    try:
        traced_bytes = [ctx.prove(s)[1] for s in seeds]
    finally:
        checker.uninstall()
    if plain_bytes != traced_bytes:
        print("trace gate: traced transcript bytes differ from untraced ones", file=sys.stderr)
        correct = False
    if tracer.max_aux_peak != AUX_PEAK:
        print(f"auxiliary peak {tracer.max_aux_peak}, expected {AUX_PEAK}", file=sys.stderr)
        correct = False

    ops = traced.attempted
    per_op = {
        "cards.shuffles": tracer.calls("cards.shuffle"),
        "cards.reveals": tracer.calls("cards.reveal"),
        "cards.cards_revealed": tracer.counts["cards_revealed"],
        "cards.events": tracer.counts["events"],
        "cards.transcript_bytes": tracer.counts["transcript_bytes"],
        "cards.shuffle.self_ms": tracer.self_ms("cards.shuffle"),
        "cards.reveal.self_ms": tracer.self_ms("cards.reveal"),
        "cards.rearrangement.self_ms": tracer.self_ms("cards.rearrangement"),
        "cards.matrix_moves.self_ms": tracer.self_ms("cards.matrix_moves"),
        "cards.serialize.ms": tracer.total_ms("cards.serialize"),
        "protocol.run.ms": tracer.total_ms("protocol.run"),
        "protocol.setup.ms": tracer.total_ms("protocol.setup"),
        "protocol.distance_direction.calls": tracer.calls("protocol.distance_direction"),
        "protocol.distance_direction.self_ms": tracer.self_ms("protocol.distance_direction"),
        "protocol.room.self_ms": tracer.self_ms("protocol.room"),
        "audit.simulate.ms": tracer.total_ms("audit.simulate"),
        "audit.family_add.ms": tracer.total_ms("audit.family_add"),
        "puzzle.validate.calls": tracer.calls("puzzle.validate"),
        "puzzle.validate.ms": tracer.total_ms("puzzle.validate"),
    }
    layers.update({name: value / ops for name, value in per_op.items()})
    runs, rejects = tracer.calls("protocol.run"), tracer.counts["rejects"]
    audits = tracer.calls("audit.full_audit")
    layers.update({
        "protocol.aux_peak_cards": tracer.max_aux_peak,
        "protocol.reject_ratio": rejects / runs if runs else 0.0,
        "protocol.events_per_reject": tracer.counts["reject_events"] / rejects if rejects else 0.0,
        "audit.report.ms": tracer.self_ms("audit.full_audit") / audits if audits else 0.0,
        "puzzle.parse.ms": parse_ms,
        "puzzle.solve.ms": solve_ms,
        "trace.overhead": traced.wall / plain.wall - 1,
        "trace.ops": ops,
    })
    failed = pooled.failed + traced.failed + plain.failed
    return {
        "attempted": pooled.attempted + traced.attempted + plain.attempted,
        "failed": failed,
        "correct": correct and failed == 0,
        "metrics": layers,
        "samples": {"pool_calls": len(pooled.walls), "traced_calls": len(traced.walls), "traced_ops": ops},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="One ripple-zkp benchmark run.")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    kind = WORKLOADS[args.workload]
    ctx = Context(kind.solve_puzzle)
    print("READY", flush=True)
    if args.setup_only:
        return 0

    workload = kind(ctx)
    rng = input_stream(workload.name, args.seed)
    golden_ok = workload.golden(ctx)
    if not golden_ok:
        print(f"{workload.name}: pinned outputs for seed {DEFAULT_SEED} differ", file=sys.stderr)
    if args.trace:
        out = traced_run(workload, ctx, rng, args.seconds)
        # run.py times `ripple-zkp prove` on this seed and compares its bytes.
        out["cli_seed"] = rng.getrandbits(32)
        out["cli_sha256"] = sha256([ctx.prove(out["cli_seed"])[1]])
    else:
        out = end_to_end(workload, ctx, rng, args.seconds)
    out["correct"] = out["correct"] and golden_ok
    scipy = sys.modules.get("scipy")
    out["meta"] = {
        "workers": nproc(),
        "scipy": getattr(scipy, "__version__", "not imported"),
        "golden_ok": golden_ok,
    }
    print(json.dumps(out), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
