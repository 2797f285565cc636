"""Acceptance suite: every criterion prints one pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s``. The zero-knowledge
criteria share one 10,000-trial audit (its fixture took 33 s on a shared
2-vCPU VM with Python 3.11); everything else is seconds.
"""
import pytest

from helpers import all_assignments, all_room_partitions
from ripple_zkp.audit import (
    full_audit,
    gather_real_counts,
    simulate_transcript,
    soundness_sweep,
)
from ripple_zkp.cards import AuditTrail, RandomSource, decode, encode
from ripple_zkp.protocol import (
    ProverInput,
    card_stats,
    run_protocol,
)
from ripple_zkp.puzzle import max_room_size, validate

AUDIT_TRIALS = 10_000
WORKERS = 2


def report(line: str) -> None:
    print(f"\n{line}")


@pytest.fixture(scope="module")
def sample7x7_audit(sample7x7, sample7x7_solution):
    return full_audit(
        sample7x7, sample7x7_solution, trials=AUDIT_TRIALS, base_seed=0, workers=WORKERS
    )


def test_criterion_1_completeness(sample7x7, sample7x7_solution):
    # Honest runs must accept on every one of 1,000 distinct seeds.
    counts = gather_real_counts(
        sample7x7, sample7x7_solution, trials=1000, base_seed=0, workers=WORKERS
    )
    assert counts.trials == 1000
    report("ACCEPTANCE 1 (completeness): PASS - 1000/1000 honest runs accepted")


def test_criterion_2_soundness_sweep(sample7x7, sample7x7_solution):
    sweep = soundness_sweep(
        sample7x7,
        sample7x7_solution,
        RandomSource(2024),
        seeds_per_mutation=10,
        workers=WORKERS,
    )
    assert sweep.mutations_tested == 245  # 49 cells x 5 alternative values
    assert sweep.reject_expected == 215  # 30 clue-cell mutations stay valid
    assert sweep.still_valid == 30
    assert sweep.runs == 2450
    assert sweep.false_accepts == ()
    assert sweep.missed_rejects == ()
    report(
        "ACCEPTANCE 2 (soundness): PASS - 245 mutations x 10 seeds,"
        " zero false accepts"
    )


def test_criterion_3_oracle_equivalence():
    puzzles = (
        all_room_partitions(1, 2)
        + all_room_partitions(2, 2)
        + all_room_partitions(1, 3)
    )
    assert [len(all_room_partitions(*shape)) for shape in ((1, 2), (2, 2), (1, 3))] == [
        2, 12, 4,
    ]
    cases = 0
    for puzzle in puzzles:
        k = max_room_size(puzzle)
        for asg in all_assignments(puzzle, k):
            expected = not validate(puzzle, asg)
            for seed in range(5):
                verdict, _, _ = run_protocol(
                    puzzle, ProverInput(asg, honest=False), RandomSource(seed)
                )
                assert verdict.accepted == expected, (puzzle.room_of, asg, seed)
            cases += 1
    report(
        f"ACCEPTANCE 3 (oracle equivalence): PASS - {cases} assignments"
        f" x 5 seeds across {len(puzzles)} partitions, zero mismatches"
    )


def test_criterion_4_card_count(sample7x7, sample7x7_solution):
    k = max_room_size(sample7x7)
    assert 3 * k + (k - 1) * (k + 2) + k * k == 2 * k * k + 4 * k - 2 == 94
    verdict, _, stats = run_protocol(
        sample7x7, ProverInput(sample7x7_solution), RandomSource(0)
    )
    assert verdict.accepted
    assert stats.peak_aux_cards == 94
    assert stats.total == 388
    closed = card_stats(sample7x7)
    assert (closed.grid_cards, closed.peak_aux_cards, closed.total) == (294, 94, 388)
    report(
        "ACCEPTANCE 4 (card count): PASS - instrumented peak 94, total 388,"
        " equal to the closed form"
    )


def test_criterion_5_uniformity(sample7x7_audit):
    tested = [f for f in sample7x7_audit.families if f.p_value is not None]
    assert len(sample7x7_audit.families) == 57  # 8 distance + 49 room-slot families
    assert tested, "no statistical families found"
    worst = min(f.p_value for f in tested)
    assert worst >= 0.001, [
        (f.family.key, f.p_value) for f in tested if f.p_value < 0.001
    ]
    segments = [f for f in sample7x7_audit.families if f.family.kind == "segment"]
    assert segments and all(f.passed for f in segments)
    report(
        f"ACCEPTANCE 5 (zero-knowledge uniformity): PASS - {len(tested)}"
        f" families chi-squared at alpha=0.001 over {AUDIT_TRIALS} runs"
        f" (worst p={worst:.4f})"
    )


def test_criterion_6_simulation(sample7x7, sample7x7_solution, sample7x7_audit):
    tvds = [f.tvd for f in sample7x7_audit.families if f.tvd is not None]
    assert tvds
    worst = max(tvds)
    assert worst <= 0.05, [
        (f.family.key, f.tvd) for f in sample7x7_audit.families if (f.tvd or 0) > 0.05
    ]
    assert not any("skeleton" in w for w in sample7x7_audit.warnings)
    _, real, _ = run_protocol(sample7x7, ProverInput(sample7x7_solution), RandomSource(1))
    sim = simulate_transcript(sample7x7, RandomSource(2))
    assert real.skeleton() == sim.skeleton()
    assert sample7x7_audit.passed
    report(
        f"ACCEPTANCE 6 (zero-knowledge simulation): PASS - max TVD"
        f" {worst:.4f} <= 0.05 at N={AUDIT_TRIALS}/side, skeletons byte-identical"
    )


def test_criterion_7_encoding_roundtrip():
    checked = 0
    for y in range(1, 9):
        for x in range(0, y + 1):
            assert decode(encode(x, y)) == x
            checked += 1
    report(
        f"ACCEPTANCE 7 (encoding roundtrip): PASS - {checked} (x, y) pairs"
        " with 0 <= x <= y <= 8"
    )


def test_criterion_8_restoration_and_alignment(sample7x7, sample7x7_solution):
    audit = AuditTrail()
    verdict, _, _ = run_protocol(
        sample7x7, ProverInput(sample7x7_solution), RandomSource(0, trail=audit)
    )
    assert verdict.accepted
    aligned = audit.of_kind("align_rightmost")
    selected = audit.of_kind("selection")
    restore = audit.of_kind("restore")
    removed = audit.of_kind("removed_block")
    assert len(aligned) == len(selected) == len(restore) == len(removed) == 196
    assert all(rec[4] == rec[5] for rec in aligned)
    assert all(rec[4] == rec[5] for rec in selected)
    assert all(rec[3] == rec[4] for rec in restore)
    assert all(rec[3] == rec[4] for rec in removed)
    report(
        "ACCEPTANCE 8 (restoration & alignment): PASS - rightmost-column"
        " parking, mid-check pile selection, and full restoration hold on"
        " all 196 direction checks"
    )
