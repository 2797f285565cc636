import functools
import hashlib
import os
from collections import Counter
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    FAMILY_OF_STEP,
    RecordingSource,
    ReferenceFamilyCounts,
    all_room_partitions,
    make_puzzle,
)
from ripple_zkp import audit, protocol, view
from ripple_zkp.audit import (
    AuditError,
    FamilyCounts,
    _audit_report,
    chi2_sf,
    full_audit,
    gather_real_counts,
    gather_simulated_counts,
    indistinguishability_audit,
    simulate_transcript,
    soundness_sweep,
    uniformity_audit,
)
from ripple_zkp.cards import HEART, RandomSource, Transcript, encode, faces_of
from ripple_zkp.protocol import ProverInput, run_protocol
from ripple_zkp.puzzle import Assignment, solve, validate

TINY = ["a a"]  # one domino room: k=2, eight direction checks per run
TINY_SOLUTION = Assignment.from_rows([[1, 2]])


def tiny_puzzle():
    return make_puzzle(TINY)


def real_transcripts(puzzle, solution, trials, base_seed=0):
    prover = ProverInput(solution)
    out = []
    for seed in range(base_seed, base_seed + trials):
        verdict, transcript, _ = run_protocol(puzzle, prover, RandomSource(seed))
        assert verdict.accepted
        out.append(transcript)
    return out


def sim_transcripts(puzzle, trials, base_seed=0):
    return [
        simulate_transcript(puzzle, RandomSource(seed))
        for seed in range(base_seed, base_seed + trials)
    ]


def fixed_verdict(accepted):
    """A run_protocol stand-in that returns one verdict; fork workers inherit it."""
    verdict = SimpleNamespace(accepted=accepted, reason="forced")

    def run(puzzle, prover, rng, dedupe_directions=False):
        return verdict, Transcript(), None

    return run


class FakeForkContext:
    """Stands in for multiprocessing.get_context: records each pool size and
    runs no chunk, so a large worker count starts no process."""

    def __init__(self):
        self.pool_sizes = []

    def __call__(self, method):
        assert method == "fork"
        return self

    def Pool(self, processes):
        self.pool_sizes.append(processes)
        return self

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def starmap(self, fn, chunks):
        return [FamilyCounts() for _ in chunks]


# (dof, x, P(X >= x)) from scipy.stats.chi2.sf, scipy 1.17.1. dof 1..10 are
# the degrees of freedom of reveal families over domains 2..11; x is chosen
# so that p runs from about 0.9 down to about 1e-50.
CHI2_SF_REFERENCE = [
    (1, 0.01579, 0.9000024382499352),
    (1, 0.4549, 0.5000171607517765),
    (1, 10.83, 0.0009986863791802592),
    (1, 41.82, 1.0007451242596191e-10),
    (1, 110.0, 9.799073841979352e-26),
    (1, 224.4, 9.923697307995505e-51),
    (2, 0.2107, 0.9000094641418044),
    (2, 1.386, 0.5000735956957677),
    (2, 13.82, 0.0009977577964843118),
    (2, 46.05, 1.000851292084052e-10),
    (2, 115.1, 1.0147348276873878e-25),
    (2, 230.3, 9.794683541393966e-51),
    (3, 0.5844, 0.8999941650043719),
    (3, 2.366, 0.4999950903659851),
    (3, 16.27, 0.0009982232399054186),
    (3, 49.54, 1.0010575930190157e-10),
    (3, 119.5, 9.888227013494289e-26),
    (3, 235.3, 9.881873957937042e-51),
    (4, 1.064, 0.89994113020405),
    (4, 3.357, 0.4999520607477308),
    (4, 18.47, 0.0009985695222055114),
    (4, 52.67, 9.990193434456516e-11),
    (4, 123.4, 1.002993243323508e-25),
    (4, 239.8, 1.0245140548289537e-50),
    (5, 1.61, 0.900037409488132),
    (5, 4.351, 0.5000630648673225),
    (5, 20.52, 0.0009978366077119374),
    (5, 55.56, 1.0011374391000186e-10),
    (5, 127.1, 9.813698987857969e-26),
    (5, 244.1, 1.0135739454021483e-50),
    (6, 2.204, 0.9000131781138029),
    (6, 5.348, 0.50001487312423),
    (6, 22.46, 0.0009990558966627102),
    (6, 58.29, 1.00084209031553e-10),
    (6, 130.5, 1.0086157912701585e-25),
    (6, 248.2, 9.944138605957674e-51),
    (7, 2.833, 0.9000093178575107),
    (7, 6.346, 0.4999786661506235),
    (7, 24.32, 0.0010007658891631787),
    (7, 60.9, 9.977908031800638e-11),
    (7, 133.8, 1.0091944053158691e-25),
    (7, 252.1, 9.89900621876517e-51),
    (8, 3.49, 0.8999643624594803),
    (8, 7.344, 0.5000127456821193),
    (8, 26.12, 0.001001769361809457),
    (8, 63.4, 9.990758304795161e-11),
    (8, 137.0, 9.974781455800933e-26),
    (8, 255.8, 1.0148972594285365e-50),
    (9, 4.168, 0.9000111129447862),
    (9, 8.343, 0.4999835483991859),
    (9, 27.88, 0.0009989111107288188),
    (9, 65.82, 9.990107908319831e-11),
    (9, 140.1, 9.837463544460416e-26),
    (9, 259.5, 9.824368481026984e-51),
    (10, 4.865, 0.9000116615651871),
    (10, 9.342, 0.49998307838034095),
    (10, 29.59, 0.0009993620119330144),
    (10, 68.17, 9.989450562540484e-11),
    (10, 143.0, 1.0223274927343388e-25),
    (10, 263.0, 9.978788212816251e-51),
    (20, 12.44, 0.9000996883616948),
    (20, 19.34, 0.4998346134279531),
    (20, 45.31, 0.0010014887294542928),
    (20, 89.26, 9.982794554548895e-11),
    (20, 169.7, 9.914100646748408e-26),
    (20, 294.6, 1.022501228054543e-50),
    (40, 29.05, 0.9000127179237314),
    (40, 39.34, 0.4997903296814792),
    (40, 73.4, 0.0010004960513112717),
    (40, 125.3, 1.001699193663428e-10),
    (40, 214.5, 9.954584033945669e-26),
    (40, 347.8, 1.0155382844063004e-50),
]


class TestChi2Sf:
    def test_matches_reference(self):
        off = [
            (dof, x, chi2_sf(x, dof), expected)
            for dof, x, expected in CHI2_SF_REFERENCE
            if abs(chi2_sf(x, dof) - expected) > 1e-12 * expected
        ]
        assert off == []

    def test_zero_statistic(self):
        assert [chi2_sf(0, dof) for dof in (1, 2, 3, 10, 40)] == [1.0] * 5

    @pytest.mark.parametrize("dof", [0, -1, 2.5, 2.0])
    def test_rejects_bad_dof(self, dof):
        with pytest.raises(ValueError):
            chi2_sf(1.0, dof)


class TestSimulator:
    def test_block_structure(self, sample7x7):
        t = simulate_transcript(sample7x7, RandomSource(0))
        dist_blocks = sum(
            1 for ev in t.events
            if ev[0] == "mark" and ev[1].startswith("dist:") and ev[2] == "enter"
        )
        room_blocks = sum(
            1 for ev in t.events
            if ev[0] == "mark" and ev[1].startswith("room:") and ev[2] == "enter"
        )
        assert dist_blocks == 196
        assert room_blocks == 12
        assert t.events[-1] == ("verdict", "accept", None, None)

    def test_single_cell_room_reveal(self):
        puzzle = make_puzzle(["a"])
        t = simulate_transcript(puzzle, RandomSource(4))
        reveal = next(ev for ev in t.events if ev[0] == "reveal_all")
        assert reveal[2] == ((HEART,),)

    def test_skeleton_matches_real_run(self, sample7x7, sample7x7_solution):
        _, real, _ = run_protocol(sample7x7, ProverInput(sample7x7_solution), RandomSource(5))
        sim = simulate_transcript(sample7x7, RandomSource(123))
        assert sim.skeleton() == real.skeleton()

    def test_skeleton_matches_for_degenerate_k(self):
        # k=1 drops the seam reveal; simulator must mirror that.
        puzzle = make_puzzle(["a b"])
        board_solution = Assignment.from_rows([[1, 1]])
        # No valid assignment exists for two size-1 rooms side by side, so
        # compare against a 1x1 real run plus the 1x2 simulator structure.
        single = make_puzzle(["a"])
        _, real, _ = run_protocol(
            single, ProverInput(Assignment.from_rows([[1]])), RandomSource(1)
        )
        sim = simulate_transcript(single, RandomSource(2))
        assert sim.skeleton() == real.skeleton()
        t = simulate_transcript(puzzle, RandomSource(3))
        assert not any(
            ev[0] == "reveal_row" and ev[1] == "M2" and ev[2] == 2 for ev in t.events
        )

    def test_skeleton_independent_of_solution(self):
        # Same puzzle, both of its solutions, and the simulator: one skeleton.
        puzzle = tiny_puzzle()
        skeletons = set()
        for rows in ([[1, 2]], [[2, 1]]):
            _, t, _ = run_protocol(
                puzzle,
                ProverInput(Assignment.from_rows(rows)),
                RandomSource(17),
            )
            skeletons.add(t.skeleton())
        skeletons.add(simulate_transcript(puzzle, RandomSource(18)).skeleton())
        assert len(skeletons) == 1

    def test_dedupe_skeleton(self, sample7x7, sample7x7_solution):
        _, real, _ = run_protocol(
            sample7x7, ProverInput(sample7x7_solution), RandomSource(5), dedupe_directions=True
        )
        sim = simulate_transcript(sample7x7, RandomSource(9), dedupe_directions=True)
        assert sim.skeleton() == real.skeleton()

    def test_simulated_heart_positions_uniform(self, sample7x7):
        counts = gather_simulated_counts(sample7x7, trials=1000, base_seed=0)
        rep = _audit_report(counts, None, uniformity=True)
        wide = {f.family.key: f for f in rep.families}["dist.j2"]
        assert wide.family.domain == 11
        assert wide.p_value > 0.001
        assert rep.passed


# sha256 of simulate_transcript(...).serialize(): the 7x7 sample keyed by
# (dedupe_directions, seed), a 1x1 (k=1) by seed, and, over seeds 0..2, every
# solvable room partition of the 1x2, 1x3 and 2x2 grids keyed by (shape,
# index into all_room_partitions(*shape)). Pinned before the simulator was
# rebuilt from per-draw event chunks; they also pin the order and widths of
# its draws.
GOLDEN_SIM_7X7 = {
    (False, 0): "2b6b5b230dd803e685a7aa1e0494af3ed84acc696ece7f1a0382585e3d47759e",
    (False, 1): "9795448e24864211f4bb5ecd9adaa9a3bb43097bbd673e2f3ca2494842a38152",
    (False, 2): "5e284a41878131be713daa2e03ab3fcb7d428b7eb52f0e4e067211f4487f1908",
    (True, 0): "75b501c12fb20f147db35704cf1cc30fcd82caf4b96cede23783b391ff344f20",
    (True, 1): "443ed9d1baf406b1a13927bed4913a4fcbf2ffcff1277b47f7afe01caef66409",
    (True, 2): "c370fd57f4d66e57fef2a51be20a168c637961ac394bfb88852b5ce6f7aa8a5f",
}
GOLDEN_SIM_K1 = "e8a668d3747a803634b8bceee80865a4c5b091bba4677d281547c0401561d88b"
GOLDEN_SIM_PARTITIONS = {
    ((1, 2), 0): "9b2f8283d174e33ab9cc7a97760e03cdefa88908d4626131ff20059defa770fb",
    ((1, 3), 0): "6fb2b628c4d4b713bdebc6353fdbeea174bb9769d2e3571782009b933c014aeb",
    ((1, 3), 1): "80132210c630e98a6e08a56ecbe3f62de9d2c928016f1ac3131f345d29197dcf",
    ((1, 3), 2): "19607b3406c23a21fdd0175a366eab39b2874f8e4c663c7431f4f0af4223268a",
    ((2, 2), 0): "3adbd7720a2d7559a1d04b21dc197400337a683e72808beef5897a97497947a6",
    ((2, 2), 1): "a84597150ad3a12f9d5a2c7f33f9bd65f7e4d1217930aaacc9c57e90733fb6a5",
    ((2, 2), 2): "a84597150ad3a12f9d5a2c7f33f9bd65f7e4d1217930aaacc9c57e90733fb6a5",
    ((2, 2), 3): "9d75944b5b340cd143521e0373d08ad510e29f194c9656cfde26061e93c9a522",
    ((2, 2), 5): "a84597150ad3a12f9d5a2c7f33f9bd65f7e4d1217930aaacc9c57e90733fb6a5",
    ((2, 2), 6): "9d75944b5b340cd143521e0373d08ad510e29f194c9656cfde26061e93c9a522",
    ((2, 2), 8): "9c6451c5e47f4aa751fa65c195fbc3b470c8e8da6e38dcc8b10e933e274ec274",
}


def sim_sha256(puzzle, seeds, dedupe=False):
    digest = hashlib.sha256()
    for seed in seeds:
        digest.update(simulate_transcript(puzzle, RandomSource(seed), dedupe).serialize().encode())
    return digest.hexdigest()


class TestGoldenSimulations:
    @pytest.mark.parametrize(("dedupe", "seed"), sorted(GOLDEN_SIM_7X7))
    def test_sample7x7(self, sample7x7, dedupe, seed):
        assert sim_sha256(sample7x7, [seed], dedupe) == GOLDEN_SIM_7X7[(dedupe, seed)]

    @pytest.mark.parametrize("seed", range(3))
    def test_single_cell_k1(self, seed):
        assert sim_sha256(make_puzzle(["a"]), [seed]) == GOLDEN_SIM_K1

    def test_partition_boards_pinned(self):
        # Every solvable partition is pinned, so a board the simulator
        # mishandles cannot drop out of the table unseen.
        solvable = {
            (shape, index)
            for shape in ((1, 2), (1, 3), (2, 2))
            for index, puzzle in enumerate(all_room_partitions(*shape))
            if solve(puzzle)
        }
        assert solvable == set(GOLDEN_SIM_PARTITIONS)

    @pytest.mark.parametrize(("shape", "index"), sorted(GOLDEN_SIM_PARTITIONS))
    def test_partition_boards(self, shape, index):
        puzzle = all_room_partitions(*shape)[index]
        assert sim_sha256(puzzle, range(3)) == GOLDEN_SIM_PARTITIONS[(shape, index)]

    def test_draw_sequence_sample7x7(self, sample7x7):
        # The same draws as an honest run: per direction check, seven offsets
        # of widths k, k, 2k-1, k, k, 2k-1, k; then one permutation per room.
        rng = RecordingSource(0)
        simulate_transcript(sample7x7, rng)
        check = [("offset", w) for w in (6, 6, 11, 6, 6, 11, 6)]
        rooms = [("permutation", n) for n in (5, 1, 3, 4, 5, 6, 4, 5, 5, 1, 5, 5)]
        assert rng.draws == check * 196 + rooms


class TestUniformityAudit:
    def test_honest_runs_pass(self):
        puzzle = tiny_puzzle()
        transcripts = real_transcripts(puzzle, TINY_SOLUTION, 1200)
        report = uniformity_audit(transcripts)
        assert report.passed
        assert not report.warnings
        keys = {fr.family.key for fr in report.families}
        assert "dist.j1" in keys and "room.a.c1" in keys

    def test_point_mass_family_fails(self):
        puzzle = tiny_puzzle()
        doctored = []
        for t in sim_transcripts(puzzle, 1200):
            events = []
            for ev in t.events:
                if ev[0] == "reveal_row" and ev[1] == "M" and ev[2] == 2:
                    width = len(ev[3])
                    events.append(("reveal_row", "M", 2, faces_of(width, encode(1, width))))
                else:
                    events.append(ev)
            d = Transcript()
            d.events = events
            doctored.append(d)
        report = uniformity_audit(doctored)
        assert not report.passed
        j1 = {fr.family.key: fr for fr in report.families}["dist.j1"]
        assert not j1.passed
        assert j1.p_value < 1e-9

    def test_single_transcript_is_legal(self):
        puzzle = tiny_puzzle()
        report = uniformity_audit(real_transcripts(puzzle, TINY_SOLUTION, 1))
        assert report.warnings and "under-powered" in report.warnings[0]
        assert report.passed  # statistics reported but not gating

    def test_schema_drift_rejected(self):
        t = Transcript()
        t.events.append(("reveal_row", "Z", 9, (HEART,)))
        with pytest.raises(AuditError, match="unclassifiable"):
            uniformity_audit([t])


def doctored(*event_lists):
    """One Transcript per list of raw events."""
    out = []
    for events in event_lists:
        t = Transcript()
        t.events = list(events)
        out.append(t)
    return out


H2 = (HEART, 0)  # a width-2 row with its heart in position 1

# (events per transcript, AuditError message) for every schema guard in
# FamilyCounts.add.
SCHEMA_GUARDS = {
    "two_hearts": ([[("reveal_row", "M", 2, (HEART, HEART))]], "without a single heart"),
    "segment_outside_unique": (
        [[("reveal_segment", "N", 1, 3, 4, (0, 0))]],
        "segment reveal outside uniqueness",
    ),
    "reveal_all_not_room": ([[("reveal_all", "M", ((HEART,),))]], "outside room phase"),
    "room_not_permutation": ([[("reveal_all", "R:a", (H2, H2))]], "not a permutation"),
    "room_ragged": ([[("reveal_all", "R:a", ((0, HEART), (HEART, 0, 0)))]], "unequal height"),
    "room_ragged_later": (
        [
            [("reveal_all", "R:a", ((0, HEART), H2))],
            [("reveal_all", "R:a", ((0, HEART), (HEART, 0, 0)))],
        ],
        "unequal height",
    ),
    "unknown_tag": ([[("peek", "M")]], "unknown event type"),
    "count_drift": (
        [[("reveal_row", "M", 2, H2)], [("reveal_row", "M", 2, H2)] * 2],
        "skeleton drifted",
    ),
    "width_change": (
        [[("reveal_row", "M", 2, H2), ("reveal_row", "M", 2, (HEART, 0, 0))]],
        "width changed",
    ),
    "other_matrix_in_rearr": (
        [[("mark", "rearr:N", "enter"), ("reveal_row", "M1", 1, H2)]],
        "unclassifiable",
    ),
    "rearr_of_unknown_matrix": (
        [[("mark", "rearr:X", "enter"), ("reveal_row", "X", 1, H2), ("mark", "rearr:X", "exit")]],
        "unclassifiable",
    ),
    "mark_renamed": (  # the same families, counted the same, under another mark
        [
            [("mark", "dist:1,1:right", "enter"), ("reveal_row", "M", 2, H2)],
            [("mark", "dist:1,2:right", "enter"), ("reveal_row", "M", 2, H2)],
        ],
        "skeleton drifted",
    ),
}


class TestSchemaGuards:
    @pytest.mark.parametrize("case", sorted(SCHEMA_GUARDS))
    def test_guard_raises(self, case):
        event_lists, message = SCHEMA_GUARDS[case]
        with pytest.raises(AuditError, match=message):
            FamilyCounts(doctored(*event_lists))

    @pytest.mark.parametrize(
        ("sim_trials", "sim_edit", "expected", "passed"),
        [
            (2, lambda events: events, "warning trial counts differ: 3 real vs 2 simulated", True),
            (
                3,
                lambda events: [ev for ev in events if ev[0] != "reveal_all"],
                "note=family missing from simulation",
                False,
            ),
            (
                3,
                lambda events: [*events, ("mark", "extra", "exit")],
                "warning skeleton length mismatch: real=",
                False,
            ),
        ],
        ids=["trial_counts", "missing_family", "skeleton_length"],
    )
    def test_report_notes(self, sim_trials, sim_edit, expected, passed):
        puzzle = tiny_puzzle()
        real = real_transcripts(puzzle, TINY_SOLUTION, 3)
        sim = doctored(*(sim_edit(t.events) for t in sim_transcripts(puzzle, sim_trials, 100)))
        report = indistinguishability_audit(real, sim)
        assert expected in report.serialize()
        assert report.passed is passed


@functools.cache
def base_runs() -> tuple[tuple[tuple, ...], ...]:
    """Events of honest and simulated runs on the domino (k=2) and a 1x3 room (k=3)."""
    runs = []
    for rows, solution in ((TINY, TINY_SOLUTION), (["a a a"], Assignment.from_rows([[1, 2, 3]]))):
        puzzle = make_puzzle(rows)
        for t in real_transcripts(puzzle, solution, 2) + sim_transcripts(puzzle, 2):
            runs.append(tuple(t.events))
    return tuple(runs)


MARK_NAMES = ("rearr:M1", "rearr:N", "rearr:M2", "unique:N", "dist:9,9:up", "room:z")
REVEALS = ("reveal_row", "reveal_segment", "reveal_all")
# edit -> the tags of the events it can apply to
EDIT_TARGETS = {
    "faces": ("reveal_row",),
    "two_hearts": ("reveal_row",),
    "segment_heart": ("reveal_segment",),
    "segment_width": ("reveal_segment",),
    "room_cols": ("reveal_all",),
    "room_height": ("reveal_all",),
    "drop": REVEALS,
    "extra": REVEALS,
    "rename": ("mark",),
    "swap": ("mark",),
}


def edit_events(events: list, edit: str, i: int, j: int) -> None:
    """Doctor ``events`` in place; ``i`` picks the event and ``j`` the new value."""
    found = [n for n, ev in enumerate(events) if ev[0] in EDIT_TARGETS[edit]]
    if not found:
        return
    n = found[i % len(found)]
    ev = events[n]
    if edit == "faces":
        width = len(ev[3])
        events[n] = ev[:3] + (faces_of(width, 1 << j % width),)
    elif edit == "two_hearts":
        width = len(ev[3])
        events[n] = ev[:3] + (faces_of(width, 3 if width > 1 else 0),)
    elif edit == "segment_heart":
        events[n] = ev[:5] + (faces_of(len(ev[5]), 1 << j % len(ev[5])),)
    elif edit == "segment_width":
        events[n] = ev[:5] + (faces_of(len(ev[5]) + 1, 0),)
    elif edit == "room_cols":
        cols = list(ev[2])
        cols[j % len(cols)] = cols[i % len(cols)] if j % 2 else cols[0][::-1]
        events[n] = (ev[0], ev[1], tuple(cols))
    elif edit == "room_height":
        cols = list(ev[2])
        col = cols[j % len(cols)]
        cols[j % len(cols)] = col + (0,) if i % 2 else col[:-1]
        events[n] = (ev[0], ev[1], tuple(cols))
    elif edit == "drop":
        del events[n]
    elif edit == "extra":
        events.insert(n, ev)
    elif edit == "rename":
        events[n] = ("mark", MARK_NAMES[j % len(MARK_NAMES)], ev[2])
    elif edit == "swap":
        events[n] = ("mark", ev[1], "exit" if ev[2] == "enter" else "enter")


# Per transcript: an index into base_runs() (eight runs) and up to two edits.
doctored_runs = st.lists(
    st.tuples(
        st.integers(0, 7),
        st.lists(
            st.tuples(st.sampled_from(sorted(EDIT_TARGETS)), st.integers(0, 999), st.integers(0, 999)),
            max_size=2,
        ),
    ),
    min_size=1,
    max_size=3,
)


def family_outcome(counts_class, transcripts):
    """What a counter reports after adding ``transcripts``, or its AuditError message."""
    counts = counts_class()
    try:
        for transcript in transcripts:
            counts.add(transcript)
    except AuditError as exc:
        return str(exc)
    return counts_state(counts)


def counts_state(counts):
    return (
        counts.trials,
        list(counts.counts.items()),  # key order fixes the report's row order
        counts.shapes,
        counts.first_skeleton,
    )


class TestFamilyCountsModel:
    """FamilyCounts against tests/helpers.ReferenceFamilyCounts, a plain event walk."""

    def test_family_map_matches_oracle(self):
        # The classifier derived from view._DRAWS equals the oracle's own copy.
        assert view._FAMILY_OF_STEP == FAMILY_OF_STEP

    def test_sample7x7_runs(self, sample7x7, sample7x7_solution):
        for dedupe in (False, True):
            real = [
                run_protocol(sample7x7, ProverInput(sample7x7_solution), RandomSource(s), dedupe)[1]
                for s in range(2)
            ]
            sim = [simulate_transcript(sample7x7, RandomSource(s), dedupe) for s in range(2)]
            for transcripts in (real, sim, real + sim):
                expected = family_outcome(ReferenceFamilyCounts, transcripts)
                assert not isinstance(expected, str)
                assert family_outcome(FamilyCounts, transcripts) == expected

    @given(doctored_runs)
    @settings(max_examples=300, deadline=None)
    def test_doctored_runs(self, runs):
        transcripts = []
        for base, edits in runs:
            events = list(base_runs()[base])
            for edit, i, j in edits:
                edit_events(events, edit, i, j)
            transcripts.extend(doctored(events))
        expected = family_outcome(ReferenceFamilyCounts, transcripts)
        assert family_outcome(FamilyCounts, transcripts) == expected


class TestPlanLookup:
    def test_lookup_renders_no_skeleton(self, monkeypatch, sample7x7, sample7x7_solution):
        # Once the 7x7 plans are compiled, counting finds them from the
        # events alone: the skeleton text is rendered only for a new plan.
        def audit_bytes(dedupe):
            return full_audit(
                sample7x7, sample7x7_solution, 2, base_seed=0, dedupe_directions=dedupe
            ).serialize()

        expected = [audit_bytes(dedupe) for dedupe in (False, True)]
        plans = len(view._PLANS)

        def no_render(transcript):
            raise AssertionError("skeleton rendered")

        monkeypatch.setattr(Transcript, "skeleton", no_render)
        assert [audit_bytes(dedupe) for dedupe in (False, True)] == expected
        assert len(view._PLANS) == plans

    def test_several_skeletons_cached(self, sample7x7, sample7x7_solution):
        boards = [
            (sample7x7, sample7x7_solution, False),
            (sample7x7, sample7x7_solution, True),
            (tiny_puzzle(), TINY_SOLUTION, False),
            (make_puzzle(["a a a"]), Assignment.from_rows([[1, 2, 3]]), False),
        ]
        sides = []
        for puzzle, solution, dedupe in boards:
            prover = ProverInput(solution)
            sides.append([run_protocol(puzzle, prover, RandomSource(s), dedupe)[1] for s in (0, 1)])
            sides.append([simulate_transcript(puzzle, RandomSource(s), dedupe) for s in (0, 1)])
        # One counter per board and side, fed in turn, so every board's plan
        # is cached while the others' are looked up.
        counters = [(FamilyCounts(), ReferenceFamilyCounts()) for _ in sides]
        for step in (0, 1):
            for transcripts, pair in zip(sides, counters):
                for counts in pair:
                    counts.add(transcripts[step])
        for counts, reference in counters:
            assert counts_state(counts) == counts_state(reference)
        assert len({counts.first_skeleton for counts, _ in counters}) == len(boards)
        plain = FamilyCounts(sides[0][:1])
        with pytest.raises(AuditError, match="skeleton drifted"):
            plain.add(sides[2][0])


class TestIndistinguishability:
    def test_real_vs_simulated_passes(self):
        puzzle = tiny_puzzle()
        real = real_transcripts(puzzle, TINY_SOLUTION, 1500)
        sim = sim_transcripts(puzzle, 1500, base_seed=50_000)
        report = indistinguishability_audit(real, sim)
        assert report.passed
        assert all(fr.tvd is not None and fr.tvd <= 0.05 for fr in report.families)

    def test_biased_permutation_fails_room_family(self):
        puzzle = tiny_puzzle()
        real = real_transcripts(puzzle, TINY_SOLUTION, 1200)
        biased = []
        k = 2
        for t in sim_transcripts(puzzle, 1200, base_seed=90_000):
            events = []
            for ev in t.events:
                if ev[0] == "reveal_all":
                    events.append(
                        (ev[0], ev[1], (faces_of(k, encode(1, k)), faces_of(k, encode(2, k))))
                    )
                else:
                    events.append(ev)
            d = Transcript()
            d.events = events
            biased.append(d)
        report = indistinguishability_audit(real, biased)
        assert not report.passed
        room = {fr.family.key: fr for fr in report.families}["room.a.c1"]
        assert not room.passed and room.tvd > 0.05

    def test_skeleton_mismatch_reported(self):
        puzzle = tiny_puzzle()
        real = real_transcripts(puzzle, TINY_SOLUTION, 3)
        sim = sim_transcripts(puzzle, 3)
        for t in sim:
            t.events.insert(0, ("mark", "extra", "enter"))
        report = indistinguishability_audit(real, sim)
        assert not report.passed
        assert any("skeleton" in w for w in report.warnings)

    def test_degenerate_families_auto_pass(self):
        # All rooms size 1: every statistical family is domain 1.
        puzzle = make_puzzle(["a"])
        solution = Assignment.from_rows([[1]])
        real = real_transcripts(puzzle, solution, 1000)
        sim = sim_transcripts(puzzle, 1000, base_seed=7000)
        report = indistinguishability_audit(real, sim)
        assert report.passed


# repr(soundness_sweep(...)) on the 7x7 sample at RandomSource(5), one seed
# per mutation; pinned before the sweep's pool code was shared with _gather.
GOLDEN_SWEEP_7X7 = (
    "SweepReport(mutations_tested=245, reject_expected=215, still_valid=30,"
    " runs=245, false_accepts=(), missed_rejects=())"
)


class TestSoundnessSweep:
    def test_domino_sweep(self):
        puzzle = tiny_puzzle()
        report = soundness_sweep(
            puzzle, TINY_SOLUTION, RandomSource(0), seeds_per_mutation=3
        )
        assert report.mutations_tested == 2
        assert report.reject_expected == 2
        assert report.runs == 6
        assert report.passed

    def test_fixed_cells_excluded_from_reject_expectation(self):
        puzzle = make_puzzle(["a a"], fixed={(1, 1): 1})
        report = soundness_sweep(
            puzzle, TINY_SOLUTION, RandomSource(1), seeds_per_mutation=2
        )
        # Mutating the clue cell cannot reach the board: the run accepts and
        # the oracle must expect that.
        assert report.mutations_tested == 2
        assert report.reject_expected == 1
        assert report.still_valid == 1
        assert report.passed

    def test_single_cell_vacuous(self):
        puzzle = make_puzzle(["a"])
        report = soundness_sweep(
            puzzle, Assignment.from_rows([[1]]), RandomSource(0)
        )
        assert report.mutations_tested == 0
        assert report.passed

    @pytest.mark.parametrize("seeds", [0, -1])
    def test_requires_a_seed_per_mutation(self, seeds):
        # Zero runs would test nothing and still pass.
        with pytest.raises(ValueError, match="seeds_per_mutation"):
            soundness_sweep(tiny_puzzle(), TINY_SOLUTION, RandomSource(0), seeds_per_mutation=seeds)

    def test_requires_valid_base(self):
        puzzle = tiny_puzzle()
        with pytest.raises(ValueError):
            soundness_sweep(puzzle, Assignment.from_rows([[1, 1]]), RandomSource(0))

    def test_worker_split_equivalent(self, sample7x7, sample7x7_solution):
        serial = soundness_sweep(
            sample7x7, sample7x7_solution, RandomSource(5), seeds_per_mutation=1
        )
        # Same rng stream, so the same per-mutation seeds land in chunks.
        parallel = soundness_sweep(
            sample7x7, sample7x7_solution, RandomSource(5), seeds_per_mutation=1, workers=2
        )
        assert serial == parallel
        assert repr(serial) == GOLDEN_SWEEP_7X7

    @pytest.mark.parametrize("accepted", [True, False], ids=["always_accept", "always_reject"])
    def test_failures_listed_in_mutation_order(
        self, monkeypatch, sample7x7, sample7x7_solution, accepted
    ):
        # Every mutation whose expectation disagrees with the forced verdict
        # is listed once, as (cell, value, seed), in the order the sweep
        # draws the mutations, whatever the worker count.
        monkeypatch.setattr(audit, "run_protocol", fixed_verdict(accepted))
        serial, parallel = (
            soundness_sweep(sample7x7, sample7x7_solution, RandomSource(5), workers=w)
            for w in (1, 2)
        )
        assert serial == parallel
        rng, expected = RandomSource(5), []
        for cell in sample7x7.cells:
            for value in range(1, 7):
                if value == sample7x7_solution[cell]:
                    continue
                seed = rng.offset(2**32)
                mutated = sample7x7_solution.with_value(cell, value)
                effective = sample7x7_solution if cell in sample7x7.fixed else mutated
                reject_due = bool(validate(sample7x7, effective))
                if reject_due == accepted:
                    expected.append((cell, value, seed))
        listed, empty = (
            (serial.false_accepts, serial.missed_rejects)
            if accepted
            else (serial.missed_rejects, serial.false_accepts)
        )
        assert listed == tuple(expected)
        assert len(listed) == (215 if accepted else 30)
        assert empty == ()


class TestGathering:
    def test_worker_merge_deterministic(self):
        puzzle = tiny_puzzle()
        one = gather_real_counts(puzzle, TINY_SOLUTION, 60, base_seed=3, workers=1)
        two = gather_real_counts(puzzle, TINY_SOLUTION, 60, base_seed=3, workers=2)
        assert one.counts == two.counts
        assert one.first_skeleton == two.first_skeleton

    @pytest.mark.parametrize("workers", [1, 2])
    def test_rejected_honest_run_is_loud(self, monkeypatch, workers):
        monkeypatch.setattr(audit, "run_protocol", fixed_verdict(False))
        # Both runs reject; the lowest seed is named on any worker count.
        with pytest.raises(AuditError, match="honest run rejected at seed 7: forced"):
            gather_real_counts(tiny_puzzle(), TINY_SOLUTION, 2, base_seed=7, workers=workers)

    @pytest.mark.parametrize(
        ("workers", "trials", "pool_sizes"),
        [(5000, 10_000, [4]), (3, 10_000, [3]), (8, 3, [3]), (1, 10, [])],
    )
    def test_worker_count_capped(self, monkeypatch, workers, trials, pool_sizes):
        # At most one worker per CPU and per job; one worker runs in-process.
        context = FakeForkContext()
        monkeypatch.setattr(audit, "get_context", context)
        monkeypatch.setattr(os, "cpu_count", lambda: 4)
        gather_simulated_counts(tiny_puzzle(), trials, base_seed=0, workers=workers)
        assert context.pool_sizes == pool_sizes

    def test_invalid_solution_is_loud(self):
        # The honest-prover contract trips before any session runs.
        puzzle = tiny_puzzle()
        with pytest.raises(ValueError, match="honest"):
            gather_real_counts(
                puzzle, Assignment.from_rows([[1, 1]]), 2, base_seed=0
            )

    def test_solution_validated_once(self, monkeypatch):
        # One check before the runs, not one per honest run (in-process, so
        # every call is seen).
        calls = []

        def counting_validate(puzzle, assignment):
            calls.append(assignment)
            return validate(puzzle, assignment)

        monkeypatch.setattr(audit, "validate", counting_validate)
        monkeypatch.setattr(protocol, "validate", counting_validate)
        counts = gather_real_counts(tiny_puzzle(), TINY_SOLUTION, 6, base_seed=0)
        assert counts.trials == 6
        assert calls == [TINY_SOLUTION]

    def test_merge_refuses_mixed_shapes(self):
        a = FamilyCounts()
        a.add(simulate_transcript(tiny_puzzle(), RandomSource(0)))
        b = FamilyCounts()
        b.add(simulate_transcript(make_puzzle(["a a", "a a"]), RandomSource(0)))
        with pytest.raises(AuditError, match="skeleton"):
            a.merge(b)


class TestFullAudit:
    def test_tiny_puzzle_passes_at_power(self):
        # The 0.05 TVD threshold is calibrated for 10,000 trials per side;
        # room-slot families see only one observation per run, so anything
        # smaller trips legitimate sampling noise.
        puzzle = tiny_puzzle()
        report = full_audit(puzzle, TINY_SOLUTION, trials=10_000, base_seed=0, workers=2)
        assert report.passed
        assert not report.warnings
        assert all(
            fr.tvd is not None or fr.family.kind == "segment" or fr.family.domain <= 1
            for fr in report.families
        )

    def test_underpowered_passes_on_structure_alone(self):
        puzzle = tiny_puzzle()
        report = full_audit(puzzle, TINY_SOLUTION, trials=10, base_seed=0)
        assert report.passed
        assert any("under-powered" in w for w in report.warnings)

    @pytest.mark.parametrize(
        "run",
        [
            lambda: full_audit(tiny_puzzle(), TINY_SOLUTION, trials=0, base_seed=0),
            lambda: full_audit(tiny_puzzle(), TINY_SOLUTION, trials=-5, base_seed=0),
            lambda: uniformity_audit([]),
            lambda: indistinguishability_audit([], []),
        ],
        ids=["full_zero", "full_negative", "uniformity_empty", "indistinguishability_empty"],
    )
    def test_no_transcripts_fails(self, run):
        report = run()
        assert report.trials == 0
        assert not report.passed
        assert report.warnings[0] == "no honest transcripts: nothing was checked"

    def test_report_serialization_stable(self):
        puzzle = tiny_puzzle()
        a = full_audit(puzzle, TINY_SOLUTION, trials=40, base_seed=1)
        b = full_audit(puzzle, TINY_SOLUTION, trials=40, base_seed=1, workers=2)
        assert a.serialize() == b.serialize()
        assert a.serialize().startswith("audit_report trials=40")

    def test_family_only_in_simulation_reported(self, monkeypatch):
        gather = audit.gather_simulated_counts

        def with_extra_family(*args, **kwargs):
            counts = gather(*args, **kwargs)
            counts.counts["room.z.c1"] = Counter({1: 1})
            counts.shapes["room.z.c1"] = ("room", 2)
            return counts

        monkeypatch.setattr(audit, "gather_simulated_counts", with_extra_family)
        report = full_audit(tiny_puzzle(), TINY_SOLUTION, trials=10, base_seed=0)
        assert not report.passed
        row = {fr.family.key: fr for fr in report.families}["room.z.c1"]
        assert not row.passed
        assert row.note == "family only in simulation"
        assert "pass=no" in report.serialize().splitlines()[-1]


# sha256 of AuditReport.serialize() for honest inputs: the domino at 40
# trials and the 7x7 sample at 4, honest seeds from 1 and simulated seeds
# right after them, as full_audit draws them.
GOLDEN_REPORTS = {
    ("7x7", "full"): "6e1a1add6f27ff7effe2c709de69baf9f144ff4736e9eabe3f097195d86269a2",
    ("7x7", "indistinguishability"): "83c36bdc485614e7850d7759a3442f98a4d7fce5c8bd39076abce96de8e54442",
    ("7x7", "uniformity"): "c03e0bd291ce6f8f17e23e305b743cfe12de7da410a94c089dafe62f365d952a",
    ("domino", "full"): "f7a855a80d13223d55a26f25bc1ba3e18d021d7fa4bc7e39e142ff6bc6f12d33",
    ("domino", "indistinguishability"): "d8d10498d60dcb9da1969c9eceee283db977969ddcfc8f1db65feff78c78ef12",
    ("domino", "uniformity"): "a76b2aac3acf38c7a16a9da85a3e88d3ad6cf38d0ffbb9029b49bda322e22670",
}


class TestReportBytes:
    @pytest.mark.parametrize(("shape", "kind"), sorted(GOLDEN_REPORTS))
    def test_serialize_digest(self, request, shape, kind):
        if shape == "domino":
            puzzle, solution, trials = tiny_puzzle(), TINY_SOLUTION, 40
        else:
            puzzle = request.getfixturevalue("sample7x7")
            solution = request.getfixturevalue("sample7x7_solution")
            trials = 4
        if kind == "full":
            report = full_audit(puzzle, solution, trials, base_seed=1)
        elif kind == "uniformity":
            report = uniformity_audit(real_transcripts(puzzle, solution, trials, 1))
        else:
            report = indistinguishability_audit(
                real_transcripts(puzzle, solution, trials, 1),
                sim_transcripts(puzzle, trials, 1 + trials),
            )
        digest = hashlib.sha256(report.serialize().encode()).hexdigest()
        assert digest == GOLDEN_REPORTS[(shape, kind)]
