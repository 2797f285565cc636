import functools
import hashlib
import os
import pickle
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
    assignment,
    draw_sites,
    draw_tape,
    make_puzzle,
    zeroing_replay,
)
from ripple_zkp import audit, cards, protocol, view
from ripple_zkp.audit import (
    AuditError,
    FamilyCounts,
    _audit_report,
    chi2_sf,
    full_audit,
    gather_real_counts,
    gather_simulated_counts,
    simulate_transcript,
    soundness_sweep,
)
from ripple_zkp.cards import HEART, RandomSource, ReplaySource, Transcript, encode, faces_of, marks
from ripple_zkp.protocol import ProverInput, run_protocol
from ripple_zkp.puzzle import max_room_size, solve, validate

TINY = ["a a"]  # one domino room: k=2, eight direction checks per run
TINY_SOLUTION = assignment([[1, 2]])


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


def report_of(puzzle, real, sim):
    """The audit report of the transcripts ``real`` against ``sim``."""
    return _audit_report(*(FamilyCounts(puzzle, transcripts=t) for t in (real, sim)))


def uniformity_report(puzzle, transcripts):
    """The report of ``transcripts`` against themselves: every TVD is 0, so
    only the chi-squared uniformity check can fail a family."""
    counts = FamilyCounts(puzzle, transcripts=transcripts)
    return _audit_report(counts, counts)


def fixed_verdict(accepted):
    """A run_protocol stand-in that returns one verdict; fork workers inherit it."""
    verdict = SimpleNamespace(accepted=accepted, reason="forced")

    def run(puzzle, prover, rng, dedupe_directions=False):
        return verdict, Transcript(), None

    return run


class FakeForkContext:
    """Stands in for multiprocessing.get_context: records the workers asked
    for by each forking run and starts none, so a large worker count starts
    no process. Each pipe reads back empty counts of the chunk's puzzle."""

    def __init__(self):
        self.pool_sizes = []

    def __call__(self, method):
        assert method == "fork"
        self.pool_sizes.append(0)
        return self

    def Pipe(self, duplex=True):
        assert not duplex
        end = SimpleNamespace(close=lambda: None)
        end.recv = lambda: end.sent
        return end, end

    def Process(self, target, args):
        self.pool_sizes[-1] += 1
        writer, _, chunk = args
        writer.sent = (True, FamilyCounts(chunk[0]))
        return SimpleNamespace(
            start=lambda: None, kill=lambda: None, join=lambda: None, close=lambda: None
        )


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
        assert t.events[-1] is protocol.ACCEPT_EVENT

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
        board_solution = assignment([[1, 1]])
        # No valid assignment exists for two size-1 rooms side by side, so
        # compare against a 1x1 real run plus the 1x2 simulator structure.
        single = make_puzzle(["a"])
        _, real, _ = run_protocol(
            single, ProverInput(assignment([[1]])), RandomSource(1)
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
                ProverInput(assignment(rows)),
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
        # Against themselves, so that only the uniformity check can fail.
        counts = gather_simulated_counts(sample7x7, trials=1000, base_seed=0)
        rep = _audit_report(counts, counts)
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


# sha256 of repr(view._sim_chunks(k)), the simulator's prebuilt event runs
# and room columns, for k = 1..8.
GOLDEN_SIM_CHUNKS = {
    1: "7391ea9d8f75df94e1e77d9f15b595a35a00b24f83cc318eaca3f56d222b6680",
    2: "4bcf5a37e2739c9ba8e5fc20773318287245002e398d9ad7447a508797146dbd",
    3: "0da0398825bd58d2b9d9f1367c7dfd6a56f47df82b6cb109417f57bd9638350f",
    4: "69a516d5e89e90504c17d12346ada12948a3febb057454674dafe6ef216d621c",
    5: "0a1fa2e19f1b584845223e428840feedda5f011c065c901a7cb49c5779417203",
    6: "5697be4df1e9837197289588e20cfd9774c165f9b81fab61de781ecbbceb9033",
    7: "bef96314305bb798b28c69328aebda13e86cd23f095bf90f699e55d4f78af5ee",
    8: "7d9e882794989754eaf9f719910e654ba406daab51a3ed2e35db5c0018b3c920",
}


def repr_sha256(value) -> str:
    return hashlib.sha256(repr(value).encode()).hexdigest()


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


class TestSimulatorTables:
    @pytest.mark.parametrize("k", sorted(GOLDEN_SIM_CHUNKS))
    def test_sim_chunks_pinned(self, k):
        assert repr_sha256(view._sim_chunks(k)) == GOLDEN_SIM_CHUNKS[k]

    def test_harvest_catches_a_constant_draw(self, monkeypatch):
        # The shuffles of matrix N (draws 4 and 5 of a check) consume their
        # draw but move nothing, so every value of the uniqueness draw shows
        # the same heart position: the harvest must raise rather than build
        # a table with holes.
        constant_on_n = zeroing_replay(3, 4)
        monkeypatch.setattr(view, "ReplaySource", constant_on_n)
        view._sim_chunks.cache_clear()
        try:
            with pytest.raises(RuntimeError, match="draw 4 of a k=3 check hides a heart position"):
                view._sim_chunks(3)
        finally:
            view._sim_chunks.cache_clear()


class TestUniformityAudit:
    def test_honest_runs_pass(self):
        puzzle = tiny_puzzle()
        transcripts = real_transcripts(puzzle, TINY_SOLUTION, 1200)
        report = uniformity_report(puzzle, transcripts)
        assert report.passed
        assert not report.warnings
        keys = {fr.family.key for fr in report.families}
        assert "dist.j1" in keys and "room.a.c1" in keys

    def test_point_mass_family_fails(self):
        # Every check's first heart (dist.j1) is doctored to 1 and rendered
        # with the shift it implies: the transcripts decode, and the family
        # is a point mass.
        puzzle = tiny_puzzle()
        lay = view.layout(puzzle)
        doctored = []
        for seed in range(1200):
            rng = RandomSource(seed)
            hearts = [1 if i % 7 == 0 else rng.offset(w) + 1 for i, w in enumerate(lay.widths)]
            rooms = [[v + 1 for v in rng.permutation(size)] for size in lay.sizes]
            d = Transcript()
            d.events = lay.render(hearts, rooms)
            doctored.append(d)
        report = uniformity_report(puzzle, doctored)
        assert not report.passed
        j1 = {fr.family.key: fr for fr in report.families}["dist.j1"]
        assert not j1.passed
        assert j1.p_value < 1e-9 and j1.tvd == 0

    def test_single_transcript_is_legal(self):
        puzzle = tiny_puzzle()
        report = uniformity_report(puzzle, real_transcripts(puzzle, TINY_SOLUTION, 1))
        assert report.warnings and "under-powered" in report.warnings[0]
        assert report.passed  # statistics reported but not gating

    def test_schema_drift_rejected(self):
        t = Transcript()
        t.events.append(("reveal_row", "Z", 9, (HEART,)))
        expected = "event 1: expected mark name=distance_phase kind=enter, saw reveal_row m=Z row=9"
        with pytest.raises(AuditError, match=expected):
            uniformity_report(tiny_puzzle(), [t])


def edit_first(match, new):
    """An edit that replaces the first event for which ``match`` holds with
    the events ``new(ev)``."""

    def edit(events):
        n = next(i for i, ev in enumerate(events) if match(ev))
        return [*events[:n], *new(events[n]), *events[n + 1 :]]

    return edit


def same(events):
    return events


def is_j1(ev):
    return ev[:3] == ("reveal_row", "M", 2)


def is_room(ev):
    return ev[0] == "reveal_all"


def segment_before_unique(events):
    """The first segment reveal, copied in before the first step of the first check."""
    segment = next(ev for ev in events if ev[0] == "reveal_segment")
    return [*events[:2], segment, *events[2:]]


def rearr_of_x(events):
    """The first realignment of M1, with the matrix renamed X."""
    n = events.index(("mark", "rearr:M1", "enter"))
    enter, reveal, shift, leave = events[n : n + 4]
    run = [("mark", "rearr:X", "enter"), ("reveal_row", "X", *reveal[2:]), ("shift", "X", shift[2])]
    return [*events[:n], *run, ("mark", "rearr:X", "exit"), *events[n + 4 :]]


TWO_HEARTS = edit_first(is_j1, lambda ev: [ev[:3] + ((HEART, HEART),)])
WIDER = edit_first(is_j1, lambda ev: [ev[:3] + ((HEART, 0, 0),)])
PEEK = edit_first(is_j1, lambda ev: [("peek", "M")])
ROOM_REPEAT = edit_first(is_room, lambda ev: [ev[:2] + ((ev[2][0], ev[2][0]),)])
RENAMED_CHECK = marks("dist:1,2:right")[0]
ROOM_RAGGED = edit_first(is_room, lambda ev: [ev[:2] + (((0, HEART), (HEART, 0, 0)),)])

# (edits of domino transcripts, one per transcript, and the AuditError's
# "saw" line) for transcripts that are not accepting views of the domino. A
# *_later case breaks only a second transcript, after a valid first one.
SCHEMA_GUARDS = {
    "two_hearts": ([TWO_HEARTS], "reveal_row m=M row=2 faces=HH"),
    "segment_outside_unique": ([segment_before_unique], "reveal_segment m=N col=[12] rows=3..4"),
    "reveal_all_not_room": (
        [edit_first(is_room, lambda ev: [("reveal_all", "M", ev[2])])],
        "reveal_all m=M",
    ),
    "room_not_permutation": ([ROOM_REPEAT], r"reveal_all m=R:a cols=(HC\|HC|CH\|CH)$"),
    "room_ragged": ([ROOM_RAGGED], r"reveal_all m=R:a cols=CH\|HCC$"),
    "room_ragged_later": ([same, ROOM_RAGGED], r"reveal_all m=R:a cols=CH\|HCC$"),
    "unknown_tag": ([PEEK], r"\('peek', 'M'\)$"),
    "count_drift": ([same, lambda events: events + events], "mark name=distance_phase kind=enter"),
    "width_change": ([WIDER], "reveal_row m=M row=2 faces=HCC"),
    "other_matrix_in_rearr": (
        [edit_first(lambda ev: ev[1] == "rearr:M1", lambda ev: [("mark", "rearr:N", "enter")])],
        "mark name=rearr:N kind=enter",
    ),
    "rearr_of_unknown_matrix": ([rearr_of_x], "mark name=rearr:X kind=enter"),
    "width_change_later": ([same, WIDER], "reveal_row m=M row=2 faces=HCC"),
    "unknown_tag_later": ([same, PEEK], r"\('peek', 'M'\)$"),
    "two_hearts_later": ([same, TWO_HEARTS], "reveal_row m=M row=2 faces=HH"),
    "unclassifiable_later": (
        [same, edit_first(is_j1, lambda ev: [("reveal_row", "Z", 9, ev[3])])],
        "reveal_row m=Z row=9",
    ),
    "room_not_permutation_later": ([same, ROOM_REPEAT], r"reveal_all m=R:a cols=(HC\|HC|CH\|CH)$"),
    "mark_renamed": (
        [same, edit_first(lambda ev: ev[1] == "dist:1,1:right", lambda ev: [RENAMED_CHECK])],
        "mark name=dist:1,2:right kind=enter",
    ),
    "shift_offset": (
        [edit_first(lambda ev: ev[0] == "shift", lambda ev: [("shift", ev[1], 1 - ev[2])])],
        "shift m=M offset=[01]$",
    ),
}


class TestSchemaGuards:
    @pytest.mark.parametrize("case", sorted(SCHEMA_GUARDS))
    def test_guard_raises(self, case):
        edits, saw = SCHEMA_GUARDS[case]
        runs = real_transcripts(tiny_puzzle(), TINY_SOLUTION, len(edits))
        transcripts = doctored(*(edit(t.events) for edit, t in zip(edits, runs)))
        counts = FamilyCounts(tiny_puzzle(), transcripts=transcripts[:-1])
        with pytest.raises(AuditError, match=rf"^event \d+: expected .*, saw {saw}"):
            counts.add(transcripts[-1])

    @pytest.mark.parametrize(
        ("sim_edit", "expected"),
        [
            (
                lambda events: [*events, ("mark", "extra", "exit")],
                "event 193: expected end of transcript, saw mark name=extra kind=exit",
            ),
        ],
        ids=["skeleton_length"],
    )
    def test_report_notes(self, sim_edit, expected):
        # A simulated transcript that does not decode stops the audit.
        puzzle = tiny_puzzle()
        real = real_transcripts(puzzle, TINY_SOLUTION, 3)
        sim = doctored(*(sim_edit(t.events) for t in sim_transcripts(puzzle, 3, 100)))
        with pytest.raises(AuditError, match=expected):
            report_of(puzzle, real, sim)


def doctored(*event_lists):
    """One Transcript per list of raw events."""
    out = []
    for events in event_lists:
        t = Transcript()
        t.events = list(events)
        out.append(t)
    return out


BASE_BOARDS = ((TINY, TINY_SOLUTION), (["a a a"], assignment([[1, 2, 3]])))


@functools.cache
def base_runs() -> tuple[tuple[tuple, ...], ...]:
    """Events of honest and simulated runs on the domino (k=2) and a 1x3 room
    (k=3), four per board."""
    runs = []
    for rows, solution in BASE_BOARDS:
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
    "shift": ("shift",),
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
    elif edit == "shift":
        events[n] = ("shift", ev[1], j % 5)


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


def family_outcome(counts, transcripts):
    """What ``counts`` reports after adding ``transcripts``, or "AuditError".

    The decoder names the first event off its rendering and the reference
    the first rule broken, so only the outcome is compared, not the message.
    """
    try:
        for transcript in transcripts:
            counts.add(transcript)
    except AuditError:
        return "AuditError"
    return counts_state(counts)


def counts_state(counts):
    if isinstance(counts, ReferenceFamilyCounts):
        # The reference keeps each family's width as seen; a segment's domain is 1.
        families = [
            view.RevealFamily(key, kind, 1 if kind == "segment" else width)
            for key, (kind, width) in counts.shapes.items()
        ]
    else:
        families = counts.layout.families
    return (
        counts.trials,
        list(counts.counts.items()),  # key order fixes the report's row order
        families,
    )


class TestFamilyCountsModel:
    """FamilyCounts against tests/helpers.ReferenceFamilyCounts, a plain event walk."""

    def test_family_map_matches_oracle(self):
        # For k = 1..8, the family a layout names by draw index is the one
        # the oracle's hand-written table gives the reveal of that draw's run.
        for k in range(1, 9):
            lay = view.layout(make_puzzle([" ".join("a" * k)]))
            named = {}
            for key, (table, _) in zip(lay.draw_families, view._sim_chunks(k)[0], strict=True):
                step = table[0][0][1] if table[0][0][0] == "mark" else None
                for ev in table[0]:
                    if ev[0] == "reveal_row":
                        named[key] = FAMILY_OF_STEP[step, ev[1], ev[2]]
                    elif ev[0] == "reveal_segment":
                        named["dist.unique_seg"] = FAMILY_OF_STEP[step, ev[1], None]
            assert list(named) == list(named.values()), k
            assert [f.key for f in lay.families][: len(named)] == list(named), k

    def test_sample7x7_runs(self, sample7x7, sample7x7_solution):
        for dedupe in (False, True):
            real = [
                run_protocol(sample7x7, ProverInput(sample7x7_solution), RandomSource(s), dedupe)[1]
                for s in range(2)
            ]
            sim = [simulate_transcript(sample7x7, RandomSource(s), dedupe) for s in range(2)]
            for transcripts in (real, sim, real + sim):
                reference = ReferenceFamilyCounts(sample7x7, dedupe)
                expected = family_outcome(reference, transcripts)
                assert expected != "AuditError"
                assert family_outcome(FamilyCounts(sample7x7, dedupe), transcripts) == expected

    @given(doctored_runs)
    @settings(max_examples=300, deadline=None)
    def test_doctored_runs(self, runs):
        # Counted against the board of the first run, so runs of the other
        # board must fail too.
        transcripts = []
        for base, edits in runs:
            events = list(base_runs()[base])
            for edit, i, j in edits:
                edit_events(events, edit, i, j)
            transcripts.extend(doctored(events))
        puzzle = make_puzzle(BASE_BOARDS[runs[0][0] // 4][0])
        expected = family_outcome(ReferenceFamilyCounts(puzzle), transcripts)
        assert family_outcome(FamilyCounts(puzzle), transcripts) == expected


def layout_with(monkeypatch, doctor):
    """The tiny puzzle's layout, built afresh from simulator tables in which
    ``doctor(draw, value, run)`` stands for each run."""
    real = view._sim_chunks

    def doctored(k):
        steps, cols = real(k)
        return [
            ([doctor(i, v, run) for v, run in enumerate(table)], width)
            for i, (table, width) in enumerate(steps)
        ], cols

    monkeypatch.setattr(view, "_sim_chunks", doctored)
    view._layout.cache_clear()
    try:
        return view.layout(tiny_puzzle())
    finally:
        view._layout.cache_clear()


class TestLayouts:
    def test_runs_of_a_draw_line_up(self, monkeypatch):
        # One value's run of the first draw carries an extra event.
        def extra_event(draw, value, run):
            return run + (("shift", "M", 0),) if (draw, value) == (0, 1) else run

        with pytest.raises(RuntimeError, match="family dist.j1: .* do not line up"):
            layout_with(monkeypatch, extra_event)

    def test_one_row_reveal_per_draw(self, monkeypatch):
        # Every run carries a second row reveal: the runs line up, the reveals do not.
        def second_reveal(draw, value, run):
            return run + (next(ev for ev in run if ev[0] == "reveal_row"),)

        with pytest.raises(RuntimeError, match="does not show exactly one row"):
            layout_with(monkeypatch, second_reveal)

    def test_audit_renders_no_skeleton(self, monkeypatch, sample7x7, sample7x7_solution):
        # Counting decodes against the layout: no skeleton text is rendered,
        # a puzzle's layout is built once, and no table grows from what a
        # transcript holds.
        def audit_bytes(dedupe):
            return full_audit(
                sample7x7, sample7x7_solution, 2, base_seed=0, dedupe_directions=dedupe
            ).serialize()

        expected = [audit_bytes(dedupe) for dedupe in (False, True)]
        layouts = view._layout.cache_info().currsize

        def no_render(transcript):
            raise AssertionError("skeleton rendered")

        monkeypatch.setattr(Transcript, "skeleton", no_render)
        assert [audit_bytes(dedupe) for dedupe in (False, True)] == expected
        tables = (cards._ONE_HEART, cards._SERIALIZE_LINES)

        def table_sizes():
            # _FACES holds one layer per width, and each draw site one per
            # width and offset: a new mask in any layer counts.
            layers = [*cards._FACES.values()]
            layers += [layer for site in draw_sites(6) for by_offset in site.values()
                       for layer in by_offset]
            return [sum(map(len, layers)), *map(len, tables)]

        sizes = table_sizes()
        novel = [("reveal_row", "Z", 9, (HEART,) + (0,) * 12), ("shift", "Z", 99)]
        for events in (novel, novel[1:]):
            with pytest.raises(AuditError, match="event 1: expected mark name=distance_phase"):
                FamilyCounts(sample7x7, transcripts=doctored(events))
        assert view._layout.cache_info().currsize == layouts
        assert table_sizes() == sizes

    @pytest.mark.parametrize("board, draws", [("7x7", 7), ("k1", 6)])
    def test_run_tables_shared_by_every_check(self, sample7x7, board, draws):
        # Every check renders from the same seven (six at k = 1) run tables,
        # so a layout holds O(k) runs however many checks the board has.
        puzzle = sample7x7 if board == "7x7" else make_puzzle(["a b"])
        lay = view.layout(puzzle)
        assert len(lay.draw_families) == draws and lay.n_checks > 1
        assert len({id(table) for table in lay._runs}) <= draws

    def test_several_layouts_cached(self, sample7x7, sample7x7_solution):
        boards = [
            (sample7x7, sample7x7_solution, False),
            (sample7x7, sample7x7_solution, True),
            (tiny_puzzle(), TINY_SOLUTION, False),
            (make_puzzle(["a a a"]), assignment([[1, 2, 3]]), False),
        ]
        sides = []
        for puzzle, solution, dedupe in boards:
            prover = ProverInput(solution)
            sides.append([run_protocol(puzzle, prover, RandomSource(s), dedupe)[1] for s in (0, 1)])
            sides.append([simulate_transcript(puzzle, RandomSource(s), dedupe) for s in (0, 1)])
        # One counter per board and side, fed in turn.
        counters = [
            (FamilyCounts(puzzle, dedupe), ReferenceFamilyCounts(puzzle, dedupe))
            for puzzle, _, dedupe in boards
            for _ in range(2)
        ]
        for step in (0, 1):
            for transcripts, pair in zip(sides, counters):
                for counts in pair:
                    counts.add(transcripts[step])
        for counts, reference in counters:
            assert counts_state(counts) == counts_state(reference)
        assert len({counts.layout for counts, _ in counters}) == len(boards)
        plain = FamilyCounts(sample7x7, transcripts=sides[0][:1])
        expected = "event 25: expected mark name=dist:1,1:left kind=enter, saw mark name=dist:1,1:d"
        with pytest.raises(AuditError, match=expected):
            plain.add(sides[2][0])


class TestIndistinguishability:
    @pytest.mark.parametrize(("ones", "passed"), [(550, True), (551, False)])
    def test_tvd_bound_is_inclusive(self, ones, passed):
        # 550/450 against 500/500 is a TVD of exactly MAX_TVD: it passes.
        # Every family is uniform on both sides, and both room rows pass the
        # uniformity check (p = 0.0016 and 0.0013), so only the TVD varies.
        assert audit.MAX_TVD == 0.05
        real, sim = FamilyCounts(tiny_puzzle()), FamilyCounts(tiny_puzzle())
        for counts in (real, sim):
            counts.trials = 1000
            for family in counts.layout.families:
                counts.counts[family.key].update(dict.fromkeys(range(1, family.domain + 1), 500))
        real.counts["room.a.c1"] = Counter({1: ones, 2: 1000 - ones})
        report = _audit_report(real, sim)
        room = {fr.family.key: fr for fr in report.families}["room.a.c1"]
        assert room.tvd == (0.05 if passed else 0.051)
        assert room.p_value >= audit.ALPHA
        assert (room.passed, report.passed) == (passed, passed)
        assert all(fr.passed for fr in report.families if fr is not room)

    def test_real_vs_simulated_passes(self):
        puzzle = tiny_puzzle()
        real = real_transcripts(puzzle, TINY_SOLUTION, 1500)
        sim = sim_transcripts(puzzle, 1500, base_seed=50_000)
        report = report_of(puzzle, real, sim)
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
        report = report_of(puzzle, real, biased)
        assert not report.passed
        room = {fr.family.key: fr for fr in report.families}["room.a.c1"]
        assert not room.passed and room.tvd > 0.05

    def test_skeleton_mismatch_reported(self):
        # A simulated transcript off the layout is a structural failure.
        puzzle = tiny_puzzle()
        real = real_transcripts(puzzle, TINY_SOLUTION, 3)
        sim = sim_transcripts(puzzle, 3)
        for t in sim:
            t.events.insert(0, ("mark", "extra", "enter"))
        expected = "event 1: expected mark name=distance_phase kind=enter, saw mark name=extra"
        with pytest.raises(AuditError, match=expected):
            report_of(puzzle, real, sim)

    def test_degenerate_families_auto_pass(self):
        # All rooms size 1: every statistical family is domain 1.
        puzzle = make_puzzle(["a"])
        solution = assignment([[1]])
        real = real_transcripts(puzzle, solution, 1000)
        sim = sim_transcripts(puzzle, 1000, base_seed=7000)
        report = report_of(puzzle, real, sim)
        assert report.passed


def leak_x_at_step_4(monkeypatch):
    """Make the engine log step 4's public shift as (k - j1 + x) mod k, which
    gives away the cell's value x; the columns still move by k - j1.

    Wraps ``audit.run_protocol``: each check's first ``("shift", "M", o)``
    event is step 4's, so the i-th one in a transcript is rewritten with the
    value of the i-th check's cell in ``check_plan`` order."""
    run = audit.run_protocol

    def leaky(puzzle, prover, rng, dedupe_directions=False):
        result = run(puzzle, prover, rng, dedupe_directions)
        k = max_room_size(puzzle)
        plan = protocol.check_plan(puzzle.rows, puzzle.cols, k, dedupe_directions)
        values = (prover.assignment[puzzle.cells[check[0]]] for check in plan)
        events = result.transcript.events
        for i, ev in enumerate(events):
            if ev[:2] == ("shift", "M"):
                events[i] = ("shift", "M", (ev[2] + next(values)) % k)
        return result

    monkeypatch.setattr(audit, "run_protocol", leaky)


# Per board: rows and solution.
LEAK_BOARDS = {
    "domino": (TINY, [[1, 2]]),
    "room3": (["a a a"], [[1, 2, 3]]),
}


class TestDecoder:
    @pytest.mark.parametrize(
        ("board", "trials"), [("domino", 2), ("room3", 1), ("room3", 1000), ("7x7", 2)]
    )
    def test_shift_leak_fails_structurally(
        self, monkeypatch, sample7x7, sample7x7_solution, board, trials
    ):
        # Every reveal keeps its honest distribution, so only decoding the
        # shift offsets catches the leak, and at any trial count.
        if board == "7x7":
            puzzle, solution = sample7x7, sample7x7_solution
        else:
            rows, values = LEAK_BOARDS[board]
            puzzle, solution = make_puzzle(rows), assignment(values)
        honest = run_protocol(puzzle, ProverInput(solution), RandomSource(0)).transcript.events
        view.layout(puzzle)  # the simulator's runs come from the honest engine
        leak_x_at_step_4(monkeypatch)
        run = audit.run_protocol(puzzle, ProverInput(solution), RandomSource(0))
        leaked = run.transcript.events
        differ = [i for i, (a, b) in enumerate(zip(honest, leaked)) if a != b]
        assert differ and all(honest[i][:2] == leaked[i][:2] == ("shift", "M") for i in differ)
        expected = rf"^event {differ[0] + 1}: expected shift m=M offset=\d, saw shift m=M offset=\d"
        with pytest.raises(AuditError, match=expected):
            full_audit(puzzle, solution, trials, base_seed=0)

    @pytest.mark.parametrize(
        ("board", "dedupe"),
        [("domino", False), ("room3", False), ("k1", False), ("cell", False)]
        + [("7x7", False), ("7x7", True)]
        + [(board, False) for board in sorted(GOLDEN_SIM_PARTITIONS)],
    )
    def test_decode_inverts_render(self, sample7x7, sample7x7_solution, board, dedupe):
        # A transcript simulated from replayed draws decodes to exactly those
        # draws: every distance draw, then each room's Fisher-Yates draws.
        # Honest and simulated views alike render back from what they read,
        # and replay into themselves ("k1" has no solution, so only its
        # simulated views). The partition boards are every solvable board of
        # the 1x2, 1x3 and 2x2 grids.
        if board == "7x7":
            puzzle, solution = sample7x7, sample7x7_solution
        else:
            puzzle = {
                "domino": tiny_puzzle(),
                "room3": make_puzzle(["a a a"]),
                "k1": make_puzzle(["a b"]),
                "cell": make_puzzle(["a"]),
            }.get(board) or all_room_partitions(*board[0])[board[1]]
            solution = next(iter(solve(puzzle)), None)
        lay = view.layout(puzzle, dedupe)
        for seed in range(3):
            rng = RandomSource(seed)
            tape = [rng.offset(w) for w in lay.widths]
            tape += [rng.offset(i + 1) for size in lay.sizes for i in range(size - 1, 0, -1)]
            transcript = simulate_transcript(puzzle, ReplaySource(tape), dedupe)
            assert draw_tape(lay, transcript.events) == tape
            seeded = simulate_transcript(puzzle, RandomSource(seed), dedupe)
            assert seeded.events == transcript.events
            views = [seeded.events]
            if solution is not None:
                honest = run_protocol(puzzle, ProverInput(solution), RandomSource(seed), dedupe)
                views.append(honest.transcript.events)
            for events in views:
                assert lay.render(*lay.read(events)) == events
                replayed = simulate_transcript(puzzle, ReplaySource(draw_tape(lay, events)), dedupe)
                assert replayed.events == events

    @pytest.mark.parametrize("seed", [0, 1])
    def test_draws_log_the_renderings_own_events(self, sample7x7, sample7x7_solution, seed):
        # Every event of an honest proof but its uniqueness segments and room
        # reveals is the very object its rendering holds, so Layout.read
        # compares them on identity: a change that rebuilt them would slow
        # FamilyCounts.add with every byte unchanged.
        prover = ProverInput(sample7x7_solution)
        events = run_protocol(sample7x7, prover, RandomSource(seed)).transcript.events
        lay = view.layout(sample7x7)
        rendered = lay.render(*lay.read(events))
        pairs = list(zip(rendered, events, strict=True))
        assert sum(own is ev for own, ev in pairs) == 4341
        built = Counter(ev[0] for own, ev in pairs if own is not ev)
        assert built == {"reveal_segment": 196, "reveal_all": 12}


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
        assert report.false_accepts == report.missed_rejects == ()

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
        assert report.false_accepts == report.missed_rejects == ()

    def test_single_cell_vacuous(self):
        puzzle = make_puzzle(["a"])
        report = soundness_sweep(
            puzzle, assignment([[1]]), RandomSource(0)
        )
        assert report.mutations_tested == 0
        assert report.false_accepts == report.missed_rejects == ()

    @pytest.mark.parametrize("seeds", [0, -1])
    def test_requires_a_seed_per_mutation(self, seeds):
        # Zero runs would test nothing and still pass.
        with pytest.raises(ValueError, match="seeds_per_mutation"):
            soundness_sweep(tiny_puzzle(), TINY_SOLUTION, RandomSource(0), seeds_per_mutation=seeds)

    def test_requires_valid_base(self):
        puzzle = tiny_puzzle()
        with pytest.raises(ValueError):
            soundness_sweep(puzzle, assignment([[1, 1]]), RandomSource(0))

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
        assert one.layout == two.layout

    @pytest.mark.parametrize("dedupe", [False, True])
    def test_pooled_report_equals_in_process(self, sample7x7, sample7x7_solution, dedupe):
        # Fork workers send their counts back pickled; the report is the same.
        one, two = (
            full_audit(sample7x7, sample7x7_solution, 4, 1, dedupe, workers=w).serialize()
            for w in (1, 2)
        )
        assert one == two

    def test_counts_pickle_without_event_tables(self):
        counts = gather_simulated_counts(tiny_puzzle(), 5, base_seed=0)
        data = pickle.dumps(counts)
        assert b"reveal_row" not in data and b"mark" not in data
        copy = pickle.loads(data)
        assert copy.layout is counts.layout
        assert (copy.trials, copy.counts) == (counts.trials, counts.counts)

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
        monkeypatch.setattr(audit, "usable_cpus", lambda: 4)
        gather_simulated_counts(tiny_puzzle(), trials, base_seed=0, workers=workers)
        assert context.pool_sizes == pool_sizes

    def test_usable_cpus_follow_affinity(self, monkeypatch):
        # A process pinned to fewer CPUs than the machine has (taskset, a
        # cpuset) gets that many workers; without affinity, the CPU count.
        monkeypatch.setattr(os, "cpu_count", lambda: 8)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        assert audit.usable_cpus() == 2
        context = FakeForkContext()
        monkeypatch.setattr(audit, "get_context", context)
        gather_simulated_counts(tiny_puzzle(), 10, base_seed=0, workers=8)
        assert context.pool_sizes == [2]
        monkeypatch.delattr(os, "sched_getaffinity")
        assert audit.usable_cpus() == 8

    def test_worker_failure_reaches_the_caller(self, monkeypatch):
        # A chunk's exception is raised here, the first chunk's first; a
        # worker that dies without sending is an EOFError, not a hang.
        monkeypatch.setattr(audit, "usable_cpus", lambda: 2)

        def fail(chunk):
            raise ValueError(f"chunk {chunk}")

        with pytest.raises(ValueError, match=r"chunk \[0\]") as raised:
            audit._fork_map(fail, (), [0, 1], 2)
        # ...chained to the worker's traceback, which names the failing function.
        assert "in fail" in str(raised.value.__cause__)
        with pytest.raises(EOFError):
            audit._fork_map(lambda chunk: os._exit(3), (), [0, 1], 2)

    @pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="no /proc/self/fd")
    def test_failed_run_leaves_no_pipe_or_worker_open(self, monkeypatch):
        # The exception the caller holds keeps _fork_map's frame alive
        # through its traceback, yet no pipe or worker of the run is open.
        import multiprocessing

        monkeypatch.setattr(audit, "usable_cpus", lambda: 2)

        def fail(chunk):
            raise ValueError(f"chunk {chunk}")

        before = len(os.listdir("/proc/self/fd"))
        with pytest.raises(ValueError, match=r"chunk \[0, 2\]") as raised:
            audit._fork_map(fail, (), [0, 1, 2, 3], 2)
        assert raised.value.__traceback__ is not None
        assert len(os.listdir("/proc/self/fd")) == before
        assert multiprocessing.active_children() == []

    def test_invalid_solution_is_loud(self):
        # The honest-prover contract trips before any session runs.
        puzzle = tiny_puzzle()
        with pytest.raises(ValueError, match="honest"):
            gather_real_counts(
                puzzle, assignment([[1, 1]]), 2, base_seed=0
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
        a = FamilyCounts(tiny_puzzle())
        a.add(simulate_transcript(tiny_puzzle(), RandomSource(0)))
        b = FamilyCounts(make_puzzle(["a a", "a a"]))
        b.add(simulate_transcript(make_puzzle(["a a", "a a"]), RandomSource(0)))
        with pytest.raises(AuditError, match="different layouts"):
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
        ],
        ids=["full_zero", "full_negative"],
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

    def test_report_refuses_counts_of_different_layouts(self):
        # The dedupe domino shares every family key with the plain one, but
        # not its layout; counts of another puzzle differ the same way.
        real = gather_real_counts(tiny_puzzle(), TINY_SOLUTION, 4, base_seed=0)
        for sim in (
            gather_simulated_counts(tiny_puzzle(), 4, base_seed=4, dedupe_directions=True),
            gather_simulated_counts(make_puzzle(["a a", "a a"]), 4, base_seed=4),
        ):
            with pytest.raises(AuditError, match="cannot compare counts of different layouts"):
                _audit_report(real, sim)


# sha256 of AuditReport.serialize() for honest inputs: the domino at 40
# trials and the 7x7 sample at 4, honest seeds from 1 and simulated seeds
# right after them, as full_audit draws them; "dedupe" is full_audit with
# dedupe_directions=True.
GOLDEN_REPORTS = {
    ("7x7", "dedupe"): "a098257095aaa1bbd94337f29e7b0cd2f36ce69fe6c10dc8c39287e15e1c819a",
    ("7x7", "full"): "6e1a1add6f27ff7effe2c709de69baf9f144ff4736e9eabe3f097195d86269a2",
    ("domino", "dedupe"): "6708237594f3dc98b60ddbd23e6a8d52b6dbe8a7c7cf95de8cfa271cd8e94f57",
    ("domino", "full"): "f7a855a80d13223d55a26f25bc1ba3e18d021d7fa4bc7e39e142ff6bc6f12d33",
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
        dedupe = kind == "dedupe"
        report = full_audit(puzzle, solution, trials, base_seed=1, dedupe_directions=dedupe)
        digest = hashlib.sha256(report.serialize().encode()).hexdigest()
        assert digest == GOLDEN_REPORTS[(shape, kind)]
