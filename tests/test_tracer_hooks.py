"""The benchmark's tracer (perfbench/tracer.py) wraps package names from outside.

Renaming a name it patches, such as ``Matrix.rotate``, makes ``install``
fail here rather than only in a traced benchmark run.
"""
import importlib.util
from pathlib import Path

from helpers import view_costs
from ripple_zkp import audit, protocol, view
from ripple_zkp.cards import RandomSource
from ripple_zkp.protocol import ProverInput

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def load_tracer_module():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_proof_bytes_match_untraced(sample7x7, sample7x7_solution):
    prover = ProverInput(sample7x7_solution)

    def prove() -> str:
        return protocol.run_protocol(sample7x7, prover, RandomSource(0)).transcript.serialize()

    plain = prove()
    original = protocol.run_protocol
    tracer = load_tracer_module().Tracer()
    tracer.install()
    try:
        traced = prove()
    finally:
        tracer.uninstall()
    assert traced == plain
    assert protocol.run_protocol is original
    assert tracer.calls("protocol.run") == 1
    assert tracer.calls("protocol.distance_direction") == 196
    # Every name the tracer patches on the fused path stays on it: a check
    # makes 15 matrix moves, its k piles taken and put back in one call
    # each, and its seven secret draws are one cut_and_read each, which the
    # tracer does not see. What it sees of shuffles and reveals is the rooms'
    # scrambles and full reveals and one uniqueness segment per check.
    assert tracer.calls("cards.matrix_moves") == 2940
    assert tracer.calls("cards.reveal") == 208
    assert tracer.calls("cards.shuffle") == 12
    assert tracer.calls("cards.rearrangement") == 588
    assert tracer.calls("cards.serialize") == 1


def test_proof_costs_read_off_the_view(sample7x7, sample7x7_solution):
    # The paper's costs of the seed-0 proof, counted from its transcript
    # alone: one shuffle per draw (7 per check, 1 per room), every reveal
    # (the segments too), the cards those reveals show, and 3 realignments
    # per check.
    events = protocol.run_protocol(
        sample7x7, ProverInput(sample7x7_solution), RandomSource(0)
    ).transcript.events
    assert view_costs(events) == (1384, 1580, 11662, 588)


def test_simulator_tables_stay_off_the_tracer(sample7x7):
    # Building the simulator's tables is per-process set-up, not a
    # distance check of the simulated run.
    view._sim_chunks.cache_clear()
    view._layout.cache_clear()
    tracer = load_tracer_module().Tracer()
    tracer.install()
    try:
        audit.simulate_transcript(sample7x7, RandomSource(0))
    finally:
        tracer.uninstall()
    assert view._sim_chunks.cache_info().currsize == 1
    assert view._layout.cache_info().currsize == 1
    assert tracer.calls("audit.simulate") == 1
    assert tracer.calls("protocol.distance_direction") == 0


def test_traced_audit_times_the_counting(sample7x7, sample7x7_solution):
    # A 2-trial audit decodes and counts each of its four transcripts in
    # one FamilyCounts.add call, so audit.family_add times the counting.
    tracer = load_tracer_module().Tracer()
    tracer.install()
    try:
        report = audit.full_audit(sample7x7, sample7x7_solution, 2, base_seed=0)
    finally:
        tracer.uninstall()
    assert len(report.families) == 57
    assert tracer.calls("audit.family_add") == 4
    assert tracer.calls("audit.simulate") == 2
    assert tracer.calls("protocol.run") == 2
