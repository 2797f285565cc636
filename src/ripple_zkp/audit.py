"""Executable security checks: completeness, soundness, and leak audits.

The protocol's security claims become statistics over transcripts:

* every reveal with a heart in it happens right after a fresh shuffle, so
  the heart's position must be uniform over the matrix width — checked per
  reveal family with a chi-squared goodness-of-fit test;
* a simulator that never sees the solution emits transcripts of the same
  layout and the same reveal distributions — checked with total variation
  distance between real and simulated histograms;
* mutating a committed solution in any rule-breaking way must flip the
  verdict to reject — swept exhaustively over single-cell mutations.

``full_audit`` runs the first two checks in one report, one row per reveal
family, over equal numbers of honest and simulated runs. The statistics
run on per-family histograms, ``FamilyCounts``, which come with the
simulator from ``view``: each transcript is decoded into its draws against
its puzzle's layout, so one that is not an accepting view of the puzzle (a
changed shift offset or mark, a heart in a segment, a room that is not a
permutation) raises ``AuditError`` at any trial count. An audit of no
honest transcripts fails, and a sweep tries at least one seed per mutation.
"""
from __future__ import annotations

import math
import os
from collections import Counter
from functools import reduce
from typing import NamedTuple

from .cards import RandomSource
from .protocol import ProverInput, run_protocol
from .puzzle import Assignment, Puzzle, max_room_size, validate
from .view import AuditError, FamilyCounts, RevealFamily, simulate_transcript


# Below this many trials per side the p-values and TVDs are reported but do
# not gate the verdict; only a transcript that does not decode, or no honest
# transcript at all, can fail an under-powered audit.
UNDERPOWERED_TRIALS = 1000
# A gated family fails below this chi-squared p-value against uniform, or
# above this total variation distance from the simulator.
ALPHA = 0.001
MAX_TVD = 0.05


class FamilyResult(NamedTuple):
    family: RevealFamily
    observations: int
    chi_squared: float | None
    p_value: float | None
    tvd: float | None
    passed: bool
    note: str = ""


class AuditReport(NamedTuple):
    """Per-family verdicts plus overall pass/fail and any caveats."""

    trials: int
    families: tuple[FamilyResult, ...]
    passed: bool
    warnings: tuple[str, ...] = ()

    def serialize(self) -> str:
        lines = [f"audit_report trials={self.trials} passed={_yn(self.passed)}"]
        for w in self.warnings:
            lines.append(f"warning {w}")
        for fr in self.families:
            lines.append(
                f"family key={fr.family.key} kind={fr.family.kind}"
                f" domain={fr.family.domain} n={fr.observations}"
                f" chi2={_num(fr.chi_squared)} p={_num(fr.p_value)}"
                f" tvd={_num(fr.tvd)} pass={_yn(fr.passed)}"
                + (f" note={fr.note}" if fr.note else "")
            )
        return "\n".join(lines) + "\n"


def _yn(flag: bool) -> str:
    return "yes" if flag else "no"


def _num(v: float | None) -> str:
    return "na" if v is None else f"{v:.6g}"


def chi2_sf(x: float, dof: int) -> float:
    """Survival function P(X >= x) of the chi-squared law with ``dof`` >= 1.

    The finite series for integer degrees of freedom (Abramowitz & Stegun
    26.4.4 for odd dof, 26.4.5 for even): dof // 2 positive terms, so deep
    tails keep their relative accuracy.
    """
    if not isinstance(dof, int) or dof < 1:
        raise ValueError(f"dof must be a positive integer, got {dof}")
    if x <= 0:
        return 1.0
    half = x / 2
    odd = dof % 2 == 1
    total = math.erfc(math.sqrt(half)) if odd else 0.0
    term = math.exp(-half) * (math.sqrt(2 * x / math.pi) if odd else 1.0)
    for i in range(1, dof // 2 + 1):
        total += term
        term *= x / (2 * i + 1) if odd else half / i
    return total


def _uniform_fit(family: RevealFamily, counter: Counter, n: int):
    """Chi-squared GOF statistic and p-value against the uniform law."""
    if n == 0 or family.domain <= 1:
        return None, None
    expected = n / family.domain
    stat = sum(
        (counter.get(b, 0) - expected) ** 2 / expected
        for b in range(1, family.domain + 1)
    )
    p = chi2_sf(stat, family.domain - 1)
    return stat, p


def _tvd(a: Counter, na: int, b: Counter, nb: int) -> float:
    """Exact up to one division, so a distance of exactly ``MAX_TVD`` passes."""
    return sum(abs(a.get(k, 0) * nb - b.get(k, 0) * na) for k in {*a, *b}) / (2 * na * nb)


def _audit_report(real: FamilyCounts, sim: FamilyCounts) -> AuditReport:
    """Per-family report of the honest counts ``real`` against the simulated ``sim``.

    ``sim`` must have ``real``'s layout; ``full_audit`` gathers both sides
    over the same number of trials. One row per family, none when ``real``
    holds no transcript. Every family but the segment family gets
    chi-squared uniformity, and every family gets the TVD against ``sim``;
    a family passes when both do, and a report over no honest transcripts
    fails. The statistics gate only from ``UNDERPOWERED_TRIALS`` trials on.
    """
    if sim.layout.shape != real.layout.shape:
        raise AuditError("cannot compare counts of different layouts")
    gated = real.trials >= UNDERPOWERED_TRIALS
    warnings = [] if real.trials else ["no honest transcripts: nothing was checked"]
    if not gated:
        warnings.append(
            f"under-powered: {real.trials} transcripts"
            f" (want >= {UNDERPOWERED_TRIALS}); statistics reported but not gating"
        )
    results = []
    for family in real.layout.families if real.trials else ():
        counter, b = real.counts[family.key], sim.counts[family.key]
        n = sum(counter.values())
        stat = p = None
        note = "" if gated else "not gated: under-powered"
        if family.kind != "segment":
            stat, p = _uniform_fit(family, counter, n)
            if p is None:
                note = "degenerate domain"
        tvd = _tvd(counter, n, b, sum(b.values()))
        ok = not gated or ((p is None or p >= ALPHA) and tvd <= MAX_TVD)
        results.append(FamilyResult(family, n, stat, p, tvd, ok, note))
    passed = real.trials > 0 and all(r.passed for r in results)
    return AuditReport(real.trials, tuple(results), passed, tuple(warnings))


class SweepReport(NamedTuple):
    """Outcome of the exhaustive single-cell mutation sweep."""

    mutations_tested: int
    reject_expected: int
    still_valid: int
    runs: int
    false_accepts: tuple[tuple, ...]
    missed_rejects: tuple[tuple, ...]


def soundness_sweep(
    puzzle: Puzzle,
    solution: Assignment,
    rng: RandomSource,
    seeds_per_mutation: int = 1,
    workers: int | None = None,
) -> SweepReport:
    """Run the protocol on every single-cell mutation of a known solution.

    A mutation whose effective committed grid (clue cells cannot be
    tampered with: their placement is public) still satisfies the rules is
    excluded from the reject expectation; every other mutation must be
    rejected on every seed tried.

    ``false_accepts`` and ``missed_rejects`` list ``(cell, value, seed)`` by
    cell in row-major order, then by value, then in seed draw order, so the
    report is the same for every worker count.
    """
    if seeds_per_mutation < 1:
        raise ValueError(f"seeds_per_mutation must be at least 1, got {seeds_per_mutation}")
    if validate(puzzle, solution):
        raise ValueError("soundness sweep needs a valid solution as its base")
    k = max_room_size(puzzle)
    jobs = [
        (cell, value, tuple(rng.offset(2**32) for _ in range(seeds_per_mutation)))
        for cell in puzzle.cells
        for value in range(1, k + 1)
        if value != solution[cell]
    ]
    parts = _fork_map(_sweep_chunk, (puzzle, solution), jobs, workers)
    outcomes = sorted((o for part in parts for o in part), key=lambda o: o[:2])
    runs = [
        (due, (cell, value, seed), accepted)
        for cell, value, due, verdicts in outcomes
        for seed, accepted in verdicts
    ]
    false_accepts = tuple(run for due, run, accepted in runs if due and accepted)
    missed = tuple(run for due, run, accepted in runs if not due and not accepted)
    reject_expected = sum(due for _, _, due, _ in outcomes)
    return SweepReport(
        len(jobs), reject_expected, len(jobs) - reject_expected, len(runs), false_accepts, missed
    )


def _sweep_chunk(puzzle: Puzzle, solution: Assignment, jobs) -> list[tuple]:
    """(cell, value, reject due, ((seed, accepted), ...)) per mutation job."""
    outcomes = []
    for cell, value, seeds in jobs:
        mutated = solution.with_value(cell, value)
        effective = mutated if cell not in puzzle.fixed else solution
        reject_due = bool(validate(puzzle, effective))
        prover = ProverInput(mutated, honest=False)
        verdicts = tuple(
            (seed, run_protocol(puzzle, prover, RandomSource(seed))[0].accepted)
            for seed in seeds
        )
        outcomes.append((cell, value, reject_due, verdicts))
    return outcomes


def gather_real_counts(
    puzzle: Puzzle,
    solution: Assignment,
    trials: int,
    base_seed: int,
    dedupe_directions: bool = False,
    workers: int | None = None,
) -> FamilyCounts:
    """Family histograms over ``trials`` honest protocol runs (streaming).

    A rejected run raises ``AuditError`` naming the lowest rejected seed, for
    every worker count. An invalid ``solution`` raises ``ValueError`` before
    any run.
    """
    if validate(puzzle, solution):
        raise ValueError("honest runs need a rule-satisfying solution")
    seeds = range(base_seed, base_seed + trials)
    parts = _fork_map(_honest_counts, (puzzle, solution, dedupe_directions), seeds, workers)
    rejected = sorted(part for part in parts if isinstance(part, tuple))
    if rejected:
        raise AuditError("honest run rejected at seed %d: %s" % rejected[0])
    return reduce(FamilyCounts.merge, parts)


def gather_simulated_counts(
    puzzle: Puzzle,
    trials: int,
    base_seed: int,
    dedupe_directions: bool = False,
    workers: int | None = None,
) -> FamilyCounts:
    """Family histograms over ``trials`` simulator transcripts (streaming)."""
    seeds = range(base_seed, base_seed + trials)
    parts = _fork_map(_simulated_counts, (puzzle, dedupe_directions), seeds, workers)
    return reduce(FamilyCounts.merge, parts)


def _honest_counts(puzzle: Puzzle, solution: Assignment, dedupe: bool, seeds):
    """Counts over the runs at ``seeds``, or (seed, reason) of the chunk's first reject.

    Seeds ascend within a chunk, so its first reject is its lowest.
    ``gather_real_counts`` has validated ``solution`` once for every run, so
    the prover skips ``setup``'s per-run check of an honest prover.
    """
    prover = ProverInput(solution, honest=False)
    counts = FamilyCounts(puzzle, dedupe)
    for seed in seeds:
        verdict, transcript, _ = run_protocol(puzzle, prover, RandomSource(seed), dedupe)
        if not verdict.accepted:
            return seed, verdict.reason
        counts.add(transcript)
    return counts


def _simulated_counts(puzzle: Puzzle, dedupe: bool, seeds) -> FamilyCounts:
    runs = (simulate_transcript(puzzle, RandomSource(seed), dedupe) for seed in seeds)
    return FamilyCounts(puzzle, dedupe, runs)


def get_context(method: str):
    """``multiprocessing.get_context``, importing multiprocessing on first use.

    Only a run on two or more workers forks, and the import costs every
    process about 10 ms of start-up.
    """
    import multiprocessing

    return multiprocessing.get_context(method)


def usable_cpus() -> int:
    """The CPUs this process may run on: its affinity set where the platform
    has one (``taskset`` or a cpuset narrows it), else the machine's count."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _fork_map(chunk_fn, args: tuple, jobs, workers: int | None) -> list:
    """``chunk_fn(*args, chunk)`` per chunk, in chunk order; chunk i is ``jobs[i::n]``.

    n is ``workers`` capped at the job count and at ``usable_cpus()``. Jobs are
    dealt, not cut into runs, because their cost varies along the list (a
    mutation caught by an early distance check stops early). One chunk runs
    in this process; several run on a fork worker each, which inherits
    module state and sends its result, or the exception to raise here with
    its traceback's text, down its own pipe (one that dies without sending
    raises ``EOFError``). The workers start, and stay, with SIGINT blocked,
    so Ctrl-C reaches this process alone, after every worker is tracked;
    all are killed, reaped and closed with their pipes before any result or
    exception leaves.
    """
    n = max(1, min(workers or 1, len(jobs), usable_cpus()))
    chunks = [(*args, jobs[i::n]) for i in range(n)]
    if n == 1:
        return [chunk_fn(*chunks[0])]
    import signal  # like multiprocessing, loaded only when a run forks
    from multiprocessing.pool import RemoteTraceback

    context, procs, readers = get_context("fork"), [], []
    unblocked = signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGINT})
    try:
        try:
            for chunk in chunks:
                reader, writer = context.Pipe(duplex=False)
                proc = context.Process(target=_fork_worker, args=(writer, chunk_fn, chunk))
                proc.start()
                procs.append(proc)
                writer.close()  # the worker holds the only write end
                readers.append(reader)
        finally:
            signal.pthread_sigmask(signal.SIG_SETMASK, unblocked)
        results = []
        for reader in readers:
            ok, result = reader.recv()
            if not ok:
                exc, text = result
                raise exc from RemoteTraceback(text)
            results.append(result)
        return results
    finally:
        for proc in procs:
            proc.kill()
            proc.join()
            proc.close()
        for reader in readers:
            reader.close()


def _fork_worker(writer, chunk_fn, chunk: tuple) -> None:
    """Send ``(True, chunk_fn(*chunk))``, or ``(False, (exception, its traceback's
    text))`` if it raises; ``_fork_map`` raises the exception from that text."""
    try:
        outcome = True, chunk_fn(*chunk)
    except Exception as exc:
        import traceback

        outcome = False, (exc, traceback.format_exc())
    writer.send(outcome)


def full_audit(
    puzzle: Puzzle,
    solution: Assignment,
    trials: int,
    base_seed: int,
    dedupe_directions: bool = False,
    workers: int | None = None,
) -> AuditReport:
    """Uniformity plus indistinguishability in one report.

    Runs ``trials`` honest sessions and ``trials`` simulations (seed ranges
    disjoint but deterministic), then merges the chi-squared and TVD
    verdicts per family: a family passes when both do.
    """
    real = gather_real_counts(puzzle, solution, trials, base_seed, dedupe_directions, workers)
    sim = gather_simulated_counts(puzzle, trials, base_seed + trials, dedupe_directions, workers)
    return _audit_report(real, sim)
