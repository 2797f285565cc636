import hashlib
import itertools
import pickle
import random
from collections import defaultdict

import pytest

from helpers import (
    RecordingSource,
    all_assignments,
    all_room_partitions,
    assignment,
    brute_force_solutions,
    check_of,
    draw_sites,
    make_puzzle,
    reference_rays,
)
from ripple_zkp import cards, view
from ripple_zkp.audit import AuditReport, FamilyResult, SweepReport, soundness_sweep
from ripple_zkp.cards import (
    HEART,
    MalformedCommitmentError,
    Matrix,
    RandomSource,
    ReplaySource,
    Transcript,
    decode,
    encode,
    marks,
)
from ripple_zkp.protocol import (
    ACCEPT,
    ACCEPT_EVENT,
    DISTANCE_HEART_FOUND,
    MALFORMED_COMMITMENT,
    ROOM_MULTISET_MISMATCH,
    Board,
    CardStats,
    ProverInput,
    Verdict,
    _check_constants,
    _distance_direction,
    _uniqueness_on_matrix,
    card_stats,
    check_plan,
    run_protocol,
    setup,
    verify_distance_direction,
    verify_distance_phase,
    verify_room,
)
from ripple_zkp.puzzle import DISTANCE, Violation, max_room_size, validate
from ripple_zkp.view import RevealFamily, simulate_transcript


class TestSetup:
    def test_seven_by_seven_board(self, sample7x7, sample7x7_solution):
        board = setup(sample7x7, ProverInput(sample7x7_solution))
        assert board.k == 6
        assert len(board.cell_seq) == 49
        assert all(decode(seq) in range(1, 7) for seq in board.cell_seq)
        assert board.cell_seq[0] == encode(2, 6)  # cell (1,1)

    def test_single_cell_board(self):
        puzzle = make_puzzle(["a"])
        board = setup(puzzle, ProverInput(assignment([[1]])))
        assert board.cell_seq[0] == encode(1, 1)  # cell (1,1)

    def test_unencodable_value_rejected(self, sample7x7, sample7x7_solution):
        bad = sample7x7_solution.with_value((1, 1), 7)
        with pytest.raises(MalformedCommitmentError):
            setup(sample7x7, ProverInput(bad, honest=False))

    def test_honest_prover_must_hold_solution(self, sample7x7, sample7x7_solution):
        bad = sample7x7_solution.with_value((1, 1), 1)
        with pytest.raises(ValueError, match="honest"):
            setup(sample7x7, ProverInput(bad, honest=True))
        with pytest.raises(ValueError, match="honest"):
            run_protocol(sample7x7, ProverInput(bad), RandomSource(0))

    def test_fixed_cells_placed_from_clues(self, sample7x7, sample7x7_solution):
        # (2,3) is a clue cell with value 2: the prover cannot override it.
        lying = sample7x7_solution.with_value((2, 3), 1)
        board = setup(sample7x7, ProverInput(lying, honest=False))
        assert decode(board.cell_seq[sample7x7.cells.index((2, 3))]) == 2


def unique(s0, others, width, seed=0) -> bool:
    """The uniqueness step on its matrix: an indicator row, then s0, then the others."""
    matrix = Matrix.from_rows("U", width, [encode(1, width), s0, *others])
    return _uniqueness_on_matrix(matrix, RandomSource(seed), Transcript())


class TestUniquenessVerify:
    def test_no_duplicate_accepts(self):
        assert unique(encode(2, 4), [encode(1, 4), encode(3, 4), encode(0, 4)], 4)

    def test_duplicate_rejects(self):
        assert not unique(encode(2, 4), [encode(2, 4)], 4)

    def test_zero_encodings_accept(self):
        assert unique(encode(1, 4), [encode(0, 4)] * 5, 4)

    def test_malformed_reference_rejected(self):
        for bad in (encode(0, 4), encode(1, 4) | encode(2, 4)):
            with pytest.raises(MalformedCommitmentError):
                unique(bad, [encode(1, 4)], 4)

    def test_matches_decode_oracle(self):
        rnd = random.Random(20240)
        for trial in range(200):
            b = rnd.randint(2, 6)
            s0_value = rnd.randint(1, b)
            others = [encode(rnd.randint(0, b), b) for _ in range(rnd.randint(1, 5))]
            expect_accept = all(decode(seq) != s0_value for seq in others)
            assert unique(encode(s0_value, b), others, b, trial) == expect_accept


class TestDistanceDirection:
    def test_solution_cells_accept(self, sample7x7, sample7x7_solution):
        board = setup(sample7x7, ProverInput(sample7x7_solution))
        rng = RandomSource(11)
        for cell in [(1, 1), (4, 4), (7, 7), (5, 7)]:
            for direction in ("right", "left", "up", "down"):
                verdict = verify_distance_direction(
                    board, check_of(board.puzzle, cell, direction), rng, Transcript()
                )
                assert verdict.accepted, (cell, direction)

    def test_adjacent_duplicates_reject(self):
        puzzle = make_puzzle(["a b"])
        board = setup(
            puzzle, ProverInput(assignment([[1, 1]]), honest=False)
        )
        verdict = verify_distance_direction(
            board, check_of(board.puzzle, (1, 1), "right"), RandomSource(0), Transcript()
        )
        assert not verdict.accepted
        assert verdict.reason == DISTANCE_HEART_FOUND
        assert verdict.location == ((1, 1), "right")

    def test_edge_cell_all_padding_accepts(self):
        puzzle = make_puzzle(["a a"])
        board = setup(puzzle, ProverInput(assignment([[1, 2]])))
        verdict = verify_distance_direction(
            board, check_of(board.puzzle, (1, 2), "right"), RandomSource(5), Transcript()
        )
        assert verdict.accepted

    def test_sequences_restored_unrevealed(self, sample7x7, sample7x7_solution):
        board = setup(sample7x7, ProverInput(sample7x7_solution))
        before = list(map(decode, board.cell_seq))
        rng = RandomSource(23)
        for direction in ("right", "left", "up", "down"):
            verdict = verify_distance_direction(
                board, check_of(board.puzzle, (4, 4), direction), rng, Transcript()
            )
            assert verdict.accepted
        after = list(map(decode, board.cell_seq))
        assert after == before

    def test_zero_value_commitment_caught(self):
        puzzle = make_puzzle(["a a"])
        asg = assignment([[1, 2]])
        board = setup(puzzle, ProverInput(asg))
        board.cell_seq[0] = encode(0, 2)  # cell (1,1)
        verdict = verify_distance_direction(
            board, check_of(board.puzzle, (1, 1), "right"), RandomSource(0), Transcript()
        )
        assert not verdict.accepted
        assert verdict.reason == MALFORMED_COMMITMENT

    def test_double_heart_commitment_caught(self):
        puzzle = make_puzzle(["a a"])
        board = setup(puzzle, ProverInput(assignment([[1, 2]])))
        board.cell_seq[0] = encode(1, 2) | encode(2, 2)  # cell (1,1): [H, H]
        verdict = verify_distance_direction(
            board, check_of(board.puzzle, (1, 1), "right"), RandomSource(0), Transcript()
        )
        assert not verdict.accepted
        assert verdict.reason == MALFORMED_COMMITMENT
        assert verdict.location == ((1, 1), "right")

    def test_alignment_and_selection_snapshots(self, sample7x7, sample7x7_solution):
        board = setup(sample7x7, ProverInput(sample7x7_solution))
        trail = []
        rng = RandomSource(31, trail=trail)
        for cell in [(1, 1), (3, 5)]:
            for direction in ("right", "down"):
                check = check_of(sample7x7, cell, direction)
                assert verify_distance_direction(board, check, rng, Transcript()).accepted
        aligned = [rec for rec in trail if rec[0] == "align_rightmost"]
        assert aligned and all(rec[4] == rec[5] for rec in aligned)
        selected = [rec for rec in trail if rec[0] == "selection"]
        assert selected and all(rec[4] == rec[5] for rec in selected)
        restore = [rec for rec in trail if rec[0] == "restore"]
        assert restore and all(rec[3] == rec[4] for rec in restore)
        removed = [rec for rec in trail if rec[0] == "removed_block"]
        assert removed and all(rec[3] == rec[4] for rec in removed)
        # Shuffle draws stay out of transcripts.
        assert [rec for rec in trail if rec[0] == "pile_shift"]

    @pytest.mark.parametrize("k", range(1, 9))
    def test_segment_shows_a_heart_only_within_reach(self, k):
        # encode(x, k) at neighbour i, blanks elsewhere: the uniqueness
        # segment lists the selected neighbours in order, so it shows one
        # heart, at index i - 1, exactly when neighbour i is among the first x.
        for x in range(1, k + 1):
            a0 = encode(x, k)
            for i in range(1, k + 1):
                neighbours = [0] * k
                neighbours[i - 1] = a0
                for seed in range(3):
                    t = Transcript()
                    returned = _distance_direction(k, a0, neighbours, RandomSource(seed), t, ())
                    segment = [ev[5] for ev in t.events if ev[0] == "reveal_segment"][-1]
                    hearts = [j for j, face in enumerate(segment) if face == HEART]
                    if i <= x:
                        assert returned is None
                        assert hearts == [i - 1], (x, i, seed)
                    else:
                        assert returned == (a0, neighbours)
                        assert hearts == [], (x, i, seed)


# Boards whose rays are empty, cut by the edge or run to it, at every k from
# 1 to the cell count: strips, columns and every room partition of small grids.
RAY_SHAPES = [(1, n) for n in range(1, 7)] + [(n, 1) for n in range(2, 6)] + [
    (2, 2), (2, 3), (3, 2), (3, 3)
]


class TestCheckPlan:
    def test_entries(self, sample7x7):
        # One puzzle per shape and k: the 7x7, and a room partition of every
        # RAY_SHAPES grid for each k from 1 to its cell count.
        partitions = [p for shape in RAY_SHAPES for p in all_room_partitions(*shape)]
        puzzles = {(p.rows, p.cols, max_room_size(p)): p for p in [sample7x7, *partitions]}
        for rows, cols in RAY_SHAPES:
            ks = {k for r, c, k in puzzles if (r, c) == (rows, cols)}
            assert ks == set(range(1, rows * cols + 1))
        # Directions per mode, written out rather than read from protocol.
        checked = {False: ("right", "left", "up", "down"), True: ("right", "down")}
        for (rows, cols, k), puzzle in puzzles.items():
            rays = reference_rays(puzzle)
            for dedupe, directions in checked.items():
                plan = check_plan(rows, cols, k, dedupe)
                assert [entry[6] for entry in plan] == [
                    (cell, d) for cell in puzzle.cells for d in directions
                ]
                for entry in plan:
                    i, ray, reach, pad, aux, aux_end, where, check_marks = entry
                    cell, direction = where
                    assert puzzle.cells[i] == cell
                    assert puzzle.cells[ray] == rays[where] and reach == len(rays[where])
                    assert type(pad) is tuple and pad == (0,) * (k - reach)
                    assert aux == (3 + k - reach) * k
                    assert aux_end == aux + (k - 1) * (k + 2)
                    assert check_marks is marks(f"dist:{cell[0]},{cell[1]}:{direction}")
                assert max(entry[5] for entry in plan) == card_stats(puzzle).peak_aux_cards
        # The reference itself, on rays that run to the edge, stop short of it or are empty.
        rays = reference_rays(make_puzzle(["a a a b b b c c c"]))
        assert rays[(1, 5), "left"] == ((1, 4), (1, 3), (1, 2))
        assert rays[(1, 8), "right"] == ((1, 9),) and rays[(1, 1), "up"] == ()
        assert reference_rays(sample7x7)[(1, 1), "right"] == tuple((1, c) for c in range(2, 8))


class TestRaySlices:
    # A check takes its cell and ray off the board by the slice of its plan entry.
    def test_accepting_checks_put_every_sequence_back(self, sample7x7, sample7x7_solution):
        board = setup(sample7x7, ProverInput(sample7x7_solution))
        before = list(board.cell_seq)
        rng = RandomSource(3)
        for check in check_plan(7, 7, 6, False):
            assert verify_distance_direction(board, check, rng, Transcript()).accepted
            assert board.cell_seq == before, check[6]

    @pytest.mark.parametrize(
        ("cell", "direction", "planted", "mask", "reason"),
        [
            # (1,1) holds 2: a 2 two cells right, on a ray that runs to the edge.
            ((1, 1), "right", (1, 3), encode(2, 6), DISTANCE_HEART_FOUND),
            # (2,3) holds 2: a 2 at the end of a ray cut short by the edge.
            ((2, 3), "left", (2, 1), encode(2, 6), DISTANCE_HEART_FOUND),
            # (5,7) holds 6: a 6 at the top of a four-cell ray up.
            ((5, 7), "up", (1, 7), encode(6, 6), DISTANCE_HEART_FOUND),
            # A blank cell on an empty ray, and a two-heart one mid-grid.
            ((1, 1), "up", (1, 1), encode(0, 6), MALFORMED_COMMITMENT),
            ((4, 4), "down", (4, 4), encode(1, 6) | encode(2, 6), MALFORMED_COMMITMENT),
        ],
    )
    def test_rejected_check_leaves_its_cards_off(
        self, sample7x7, sample7x7_solution, cell, direction, planted, mask, reason
    ):
        cells = sample7x7.cells
        board = setup(sample7x7, ProverInput(sample7x7_solution))
        board.cell_seq[cells.index(planted)] = mask
        before = list(board.cell_seq)
        check = check_of(sample7x7, cell, direction)
        verdict = verify_distance_direction(board, check, RandomSource(0), Transcript())
        assert verdict == Verdict(False, reason, (cell, direction))
        off = {cells.index(c) for c in (cell, *reference_rays(sample7x7)[cell, direction])}
        assert [i for i, seq in enumerate(board.cell_seq) if seq is None] == sorted(off)
        assert all(board.cell_seq[i] == before[i] for i in range(len(cells)) if i not in off)


class TestDistancePhase:
    def test_full_pass_on_solution(self, sample7x7, sample7x7_solution):
        board = setup(sample7x7, ProverInput(sample7x7_solution))
        t = Transcript()
        verdict = verify_distance_phase(board, RandomSource(2), t)
        assert verdict.accepted
        blocks = sum(
            1 for ev in t.events
            if ev[0] == "mark" and ev[1].startswith("dist:") and ev[2] == "enter"
        )
        assert blocks == 49 * 4

    def test_rejects_at_first_violating_check(self, sample7x7, sample7x7_solution):
        mutated = sample7x7_solution.with_value((1, 1), 1)  # makes (1,1)-(1,2) clash
        board = setup(sample7x7, ProverInput(mutated, honest=False))
        verdict = verify_distance_phase(board, RandomSource(2), Transcript())
        assert not verdict.accepted
        assert verdict.location == ((1, 1), "right")

    def test_single_cell_board_padded_checks(self):
        puzzle = make_puzzle(["a"])
        board = setup(puzzle, ProverInput(assignment([[1]])))
        t = Transcript()
        verdict = verify_distance_phase(board, RandomSource(0), t)
        assert verdict.accepted
        blocks = sum(
            1 for ev in t.events
            if ev[0] == "mark" and ev[1].startswith("dist:") and ev[2] == "enter"
        )
        assert blocks == 4

    def test_dedupe_covers_symmetric_pairs(self):
        puzzle = make_puzzle(["a b"])
        board = setup(
            puzzle, ProverInput(assignment([[1, 1]]), honest=False)
        )
        verdict = verify_distance_phase(
            board, RandomSource(0), Transcript(), dedupe_directions=True
        )
        assert not verdict.accepted

    @pytest.mark.parametrize("dedupe", [False, True])
    @pytest.mark.parametrize("shape", [(1, 3), (2, 2), (7, 7)], ids=["1x3", "2x2", "7x7"])
    def test_runs_and_simulations_follow_distance_checks(
        self, shape, dedupe, sample7x7, sample7x7_solution
    ):
        # The one check order: an honest run and the simulator both open
        # their distance checks in exactly the order check_plan gives.
        if shape == (7, 7):
            puzzle, solution = sample7x7, sample7x7_solution
        else:
            puzzle = all_room_partitions(*shape)[0]
            solution = brute_force_solutions(puzzle)[0]
        plan = check_plan(*shape, max_room_size(puzzle), dedupe)
        want = [f"dist:{r},{c}:{d}" for *_, ((r, c), d), _ in plan]
        honest = run_protocol(puzzle, ProverInput(solution), RandomSource(0), dedupe)
        assert honest.verdict.accepted
        for transcript in (honest.transcript, simulate_transcript(puzzle, RandomSource(0), dedupe)):
            opened = [
                ev[1] for ev in transcript.events
                if ev[0] == "mark" and ev[2] == "enter" and ev[1].startswith("dist:")
            ]
            assert opened == want


class TestRoom:
    def _board(self, committed, k=6):
        # One row, one room; the committed sequences are injected directly.
        puzzle = make_puzzle([("a " * len(committed)).strip()])
        board = setup(
            puzzle,
            ProverInput(
                assignment([[min(v, len(committed)) or 1 for v in committed]]),
                honest=False,
            ),
        )
        board.k = k
        for idx, value in enumerate(committed):
            board.cell_seq[idx] = encode(value, k)
        return puzzle, board

    def test_permutation_accepts(self):
        puzzle, board = self._board([2, 1, 3])
        trail, transcript = [], Transcript()
        verdict = verify_room(board, "a", RandomSource(0, trail=trail), transcript)
        assert verdict.accepted
        # The scramble's permutation is recorded privately, never revealed.
        ((_, matrix_id, perm),) = [rec for rec in trail if rec[0] == "pile_scramble"]
        assert matrix_id == "R:a" and sorted(perm) == [0, 1, 2]
        assert all(ev[0] in ("mark", "reveal_all") for ev in transcript.events)

    def test_duplicate_rejects(self):
        puzzle, board = self._board([1, 2, 2])
        verdict = verify_room(board, "a", RandomSource(0), Transcript())
        assert not verdict.accepted
        assert verdict.reason == ROOM_MULTISET_MISMATCH
        assert verdict.location == "a"

    def test_singleton_room(self):
        puzzle, board = self._board([1])
        assert verify_room(board, "a", RandomSource(1), Transcript()).accepted

    def test_malformed_column(self):
        puzzle, board = self._board([1, 2])
        board.cell_seq[1] = encode(1, 6) | encode(2, 6)  # cell (1,2): [H, H, C, C, C, C]
        verdict = verify_room(board, "a", RandomSource(0), Transcript())
        assert not verdict.accepted
        assert verdict.reason == MALFORMED_COMMITMENT

    def test_committed_zero_is_malformed(self):
        # A no-heart column fails as malformed, as a two-heart one does; a
        # full run never gets here, since the distance phase catches a 0 first.
        puzzle, board = self._board([1, 0])
        verdict = verify_room(board, "a", RandomSource(0), Transcript())
        assert (verdict.accepted, verdict.reason, verdict.location) == (
            False, MALFORMED_COMMITMENT, "a"
        )

    def test_cards_consumed(self):
        puzzle, board = self._board([2, 1])
        verify_room(board, "a", RandomSource(0), Transcript())
        assert board.cell_seq == [None, None]


class TestRunProtocol:
    def test_solution_accepts_across_seeds(self, sample7x7, sample7x7_solution):
        prover = ProverInput(sample7x7_solution)
        for seed in range(5):
            verdict, _, _ = run_protocol(sample7x7, prover, RandomSource(seed))
            assert verdict.accepted

    def test_non_solution_rejects_across_seeds(self, sample7x7, sample7x7_solution):
        mutated = sample7x7_solution.with_value((4, 4), 1)
        prover = ProverInput(mutated, honest=False)
        for seed in range(5):
            verdict, _, _ = run_protocol(sample7x7, prover, RandomSource(seed))
            assert not verdict.accepted

    def test_single_cell_puzzle_card_total(self):
        puzzle = make_puzzle(["a"])
        verdict, _, stats = run_protocol(
            puzzle, ProverInput(assignment([[1]])), RandomSource(9)
        )
        assert verdict.accepted
        assert stats.total == 5  # 1*1*1 grid + (2+4-2) auxiliary

    def test_unencodable_assignment_rejected_at_setup(self, sample7x7, sample7x7_solution):
        bad = ProverInput(sample7x7_solution.with_value((1, 1), 9), honest=False)
        verdict, transcript, stats = run_protocol(sample7x7, bad, RandomSource(0))
        assert not verdict.accepted
        assert verdict.reason == MALFORMED_COMMITMENT
        assert transcript.events[-1][0] == "verdict"

    def test_measured_peak_matches_closed_form(self, sample7x7, sample7x7_solution):
        verdict, _, stats = run_protocol(
            sample7x7, ProverInput(sample7x7_solution), RandomSource(3)
        )
        assert verdict.accepted
        predicted = card_stats(sample7x7)
        assert stats.peak_aux_cards == predicted.peak_aux_cards == 94
        assert stats.total == predicted.total == 388

    def test_shared_blank_block_stays_blank(self, sample7x7, sample7x7_solution):
        # Step 7's block is built once per k and shared by every check, so no
        # path may change it, not even a reject that returns with it appended.
        runs = [(sample7x7, sample7x7_solution)]
        for shape in [(1, 3), (2, 2)]:
            puzzle = all_room_partitions(*shape)[0]
            runs.append((puzzle, brute_force_solutions(puzzle)[0]))
        for puzzle, solution in runs:
            assert run_protocol(puzzle, ProverInput(solution), RandomSource(0)).verdict.accepted
        clash = ProverInput(sample7x7_solution.with_value((1, 1), 1), honest=False)
        assert run_protocol(sample7x7, clash, RandomSource(0)).verdict.reason == DISTANCE_HEART_FOUND
        for k in sorted({max_room_size(puzzle) for puzzle, _ in runs}):
            block, fresh = _check_constants(k)[2], Matrix("M2", k - 1, [0, 1], [0] * (k - 1), k)
            assert (block.rows, block.piles, block.depth, block.offset, block.n_cols) == (
                fresh.rows, fresh.piles, fresh.depth, fresh.offset, fresh.n_cols,
            ), k

    def test_honest_run_never_folds_a_rotation(self, sample7x7, sample7x7_solution):
        # The offset of the distance check's matrices stays an index: row
        # reveals, the column cut and the pile moves read storage under it.
        # Stored cards never rotate, so a move that would need them to raises
        # (see the Matrix docstring), and every run here completes.
        prover = ProverInput(sample7x7_solution)
        for seed in range(20):
            for dedupe in (False, True):
                assert run_protocol(sample7x7, prover, RandomSource(seed), dedupe).verdict.accepted

    def test_rejects_and_harvests_keep_the_one_run_layout(self, sample7x7, sample7x7_solution):
        # The same holds on every reject of the soundness sweep, on the
        # simulator's harvest for k = 1..8, and on every replayed draw tuple
        # of every raw k = 2 configuration, malformed and rejected ones too.
        sweep = soundness_sweep(sample7x7, sample7x7_solution, RandomSource(3), seeds_per_mutation=2)
        assert sweep.false_accepts == sweep.missed_rejects == ()
        view._sim_chunks.cache_clear()
        try:
            for k in range(1, 9):
                view._sim_chunks(k)
        finally:
            view._sim_chunks.cache_clear()
        widths = (2, 2, 3, 2, 2, 3, 2)
        for a0, *neighbours in itertools.product(range(4), repeat=3):
            for draws in itertools.product(*map(range, widths)):
                try:
                    _distance_direction(2, a0, neighbours, ReplaySource(draws), Transcript(), ())
                except MalformedCommitmentError:
                    pass

    def test_face_table_layers_stay_small(self, monkeypatch, sample7x7, sample7x7_solution):
        # Honest draws reveal rows with one heart, and a uniqueness segment
        # shows none. So each (width, offset) layer of a draw site holds at
        # most width stored masks, all of which decode, and each width of the
        # face table holds one-heart masks and the blank alone.
        monkeypatch.setattr(cards, "_FACES", defaultdict(dict))
        sites = draw_sites(6)
        saved = [dict(site) for site in sites]
        for site in sites:
            site.clear()
        try:
            prover = ProverInput(sample7x7_solution)
            for seed in range(3):
                assert run_protocol(sample7x7, prover, RandomSource(seed)).verdict.accepted
            layers = [(site.matrix_id, site.row, w, o, layer) for site in sites
                      for w, by_offset in site.items() for o, layer in enumerate(by_offset)]
        finally:
            for site, entries in zip(sites, saved):
                site.clear()
                site.update(entries)
        assert {o for *_, w, o, layer in layers if w == 6 and layer} == set(range(6))
        for *where, width, offset, layer in layers:
            assert len(layer) <= width, (*where, width, offset)
            assert all(decode(mask) for mask in layer), (*where, width, offset)
        assert cards._FACES
        for width, faces in cards._FACES.items():
            assert all(decode(mask) is not None for mask in faces), width

    def test_transcripts_deterministic_per_seed(self, sample7x7, sample7x7_solution):
        prover = ProverInput(sample7x7_solution)
        _, t1, _ = run_protocol(sample7x7, prover, RandomSource(77))
        _, t2, _ = run_protocol(sample7x7, prover, RandomSource(77))
        _, t3, _ = run_protocol(sample7x7, prover, RandomSource(78))
        assert t1.serialize() == t2.serialize()
        assert t1.serialize() != t3.serialize()

    def test_dedupe_mode_accepts_solution(self, sample7x7, sample7x7_solution):
        verdict, t, _ = run_protocol(
            sample7x7, ProverInput(sample7x7_solution), RandomSource(4), dedupe_directions=True
        )
        assert verdict.accepted
        blocks = sum(
            1 for ev in t.events
            if ev[0] == "mark" and ev[1].startswith("dist:") and ev[2] == "enter"
        )
        assert blocks == 49 * 2

    def test_verdict_event_closes_transcript(self, sample7x7, sample7x7_solution):
        _, transcript, _ = run_protocol(
            sample7x7, ProverInput(sample7x7_solution), RandomSource(1)
        )
        assert transcript.events[-1] is ACCEPT_EVENT

    def test_oracle_equivalence_sample(self):
        # Tiny slice of the exhaustive acceptance sweep.
        puzzle = make_puzzle(["a a", "a a"])
        k = max_room_size(puzzle)
        for asg in all_assignments(puzzle, k):
            expected = not validate(puzzle, asg)
            verdict, _, _ = run_protocol(
                puzzle, ProverInput(asg, honest=False), RandomSource(13)
            )
            assert verdict.accepted == expected

    @pytest.mark.parametrize(
        "room_rows",
        [
            ["a a a a"],
            ["a a b b"],
            ["a a a", "b b b"],
            ["a a b", "a b b"],
        ],
    )
    def test_oracle_equivalence_wider_shapes(self, room_rows):
        # Larger boards than the acceptance sweep, still exhaustive in
        # assignments; verdicts must track the direct validator everywhere.
        puzzle = make_puzzle(room_rows)
        k = max_room_size(puzzle)
        for asg in all_assignments(puzzle, k):
            expected = not validate(puzzle, asg)
            verdict, _, _ = run_protocol(
                puzzle, ProverInput(asg, honest=False), RandomSource(7)
            )
            assert verdict.accepted == expected, (room_rows, asg)


class TestCardStats:
    def test_seven_by_seven(self, sample7x7):
        stats = card_stats(sample7x7)
        assert (stats.grid_cards, stats.peak_aux_cards, stats.total) == (294, 94, 388)

    def test_single_cell(self):
        assert card_stats(make_puzzle(["a"])).total == 5

    def test_two_by_three_single_room(self):
        stats = card_stats(make_puzzle(["a a a", "a a a"]))
        assert stats.total == 6 * 6 + 2 * 36 + 24 - 2 == 130

    def test_breakdown_identity(self, sample7x7):
        k = max_room_size(sample7x7)
        assert 3 * k + (k - 1) * (k + 2) + k * k == 2 * k * k + 4 * k - 2


# sha256 of run_protocol(...).transcript.serialize() for fixed seeds. Any
# change to the engine's representation must reproduce these bytes, which
# also pins the order and number of random draws.
GOLDEN_7X7 = {
    (False, 0): "35d2789e1dd18fabb60680b9d4487bba9422c3de2b0eb6c2663f04f605b2a959",
    (False, 1): "105c1adb0f81adea445d7b4719fef774afad95f1f30b88693729557ee2264a84",
    (False, 2): "77b550b0747b52e1cd50fbceb6766955695b92c4682ad68f83e226b376b190bc",
    (False, 3): "82272174be5091c4f250462d40ebd183a5a4b0ff3edcbb0ac20e0066de38ea31",
    (True, 0): "2f51cd0e506d34066774862818c3d521e667ef06c21b6043738dc9af5f56bc3e",
    (True, 1): "ca1d50a6549063b5f183915709c5267931758c49e7bfcc4c0228a64df82ae469",
    (True, 2): "9af49628134bb3e0e6d87dec3887e0640dedf3e71782fd078f5f28f2aa031cdc",
    (True, 3): "d3c6cd8f5fc4c87c3200ffc80f90cbc1c6ab905da48edca2e62407113ec05e69",
}
GOLDEN_K1 = "e8a668d3747a803634b8bceee80865a4c5b091bba4677d281547c0401561d88b"
# sha256 over the honest transcripts at seeds 0..2 of the first brute-force
# solution, for every solvable room partition of the 1x2, 1x3 and 2x2 grids
# (k = 2..4), keyed by (shape, index into all_room_partitions(*shape)).
GOLDEN_PARTITIONS = {
    ((1, 2), 0): "68481d3cc246049b6bb806db78f291cb55e7628bec99a4bb67968519b65138be",
    ((1, 3), 0): "96879463f2548267863a6342e030cbdcd71b0e44f176277070a512bb3e7f43c3",
    ((1, 3), 1): "6a6aa7fb85379e3cba5c7558cd9b4a6a3762066efe55339d691028f3a30062ec",
    ((1, 3), 2): "afe05d6758135582caa67d879cd3d9a0ceb62e16efefbd0c2d86da051c4bf265",
    ((2, 2), 0): "550412c696f86fc70f29e7398ed1665be704bc641bb086980eda5f00eca18747",
    ((2, 2), 1): "9faaf216d3a7e8e4b5af26ab75ccb4a525dc90be04db369c3cf312dfef318a2d",
    ((2, 2), 2): "04ccbda313f904000338c220300d8ab79fe6f67105a7466e17405541cebed877",
    ((2, 2), 3): "87cf04101a73b65fd50d358ba59989426fedfc2bc9ae1fb19231510c4b97afd1",
    ((2, 2), 5): "04ccbda313f904000338c220300d8ab79fe6f67105a7466e17405541cebed877",
    ((2, 2), 6): "87cf04101a73b65fd50d358ba59989426fedfc2bc9ae1fb19231510c4b97afd1",
    ((2, 2), 8): "eccb0a96f96efdd9485a5c17c0649a1085647c727393ceee8a0f052e9a2c08ba",
}
# sha256 of repr() of the 7x7 seed-0 private trail records, each card sequence
# decoded to its integer (decoded_record), so it holds for any representation.
GOLDEN_AUDIT_TRAIL_7X7 = "82b84e8d3b082e30df003f81924d718be96e4da773e6d50bcc6962a9ecb743d6"
# sha256 of skeleton() for seed 0, plain and in dedupe mode.
GOLDEN_SKELETON_7X7 = {
    False: "beabc00060a822bb11ba46e83b577d579401ae5ad8aa3814af388204828b17eb",
    True: "cd29510315a731a9aaf02564f56c045d58325ffbccd3e06ceef292efaf712e11",
}


def transcript_sha256(puzzle, solution, seed, dedupe=False):
    result = run_protocol(
        puzzle, ProverInput(solution), RandomSource(seed), dedupe_directions=dedupe
    )
    return hashlib.sha256(result.transcript.serialize().encode()).hexdigest()


class TestGoldenTranscripts:
    @pytest.mark.parametrize(("dedupe", "seed"), sorted(GOLDEN_7X7))
    def test_sample7x7(self, sample7x7, sample7x7_solution, dedupe, seed):
        digest = transcript_sha256(sample7x7, sample7x7_solution, seed, dedupe)
        assert digest == GOLDEN_7X7[(dedupe, seed)]

    @pytest.mark.parametrize("dedupe", sorted(GOLDEN_SKELETON_7X7))
    def test_skeleton_sample7x7(self, sample7x7, sample7x7_solution, dedupe):
        result = run_protocol(
            sample7x7, ProverInput(sample7x7_solution), RandomSource(0), dedupe_directions=dedupe
        )
        digest = hashlib.sha256(result.transcript.skeleton().encode()).hexdigest()
        assert digest == GOLDEN_SKELETON_7X7[dedupe]

    def test_single_cell_k1(self):
        puzzle = make_puzzle(["a"])
        assert transcript_sha256(puzzle, assignment([[1]]), 0) == GOLDEN_K1

    @pytest.mark.parametrize(("shape", "index"), sorted(GOLDEN_PARTITIONS))
    def test_partition_boards(self, shape, index):
        puzzle = all_room_partitions(*shape)[index]
        solution = brute_force_solutions(puzzle)[0]
        digest = hashlib.sha256()
        for seed in range(3):
            result = run_protocol(puzzle, ProverInput(solution), RandomSource(seed))
            assert result.verdict.accepted
            digest.update(result.transcript.serialize().encode())
        assert digest.hexdigest() == GOLDEN_PARTITIONS[(shape, index)]

    def test_audit_trail_sample7x7(self, sample7x7, sample7x7_solution):
        trail = []
        run_protocol(sample7x7, ProverInput(sample7x7_solution), RandomSource(0, trail=trail))
        records = [decoded_record(rec) for rec in trail]
        assert len(records) == 2168
        digest = hashlib.sha256(repr(records).encode()).hexdigest()
        assert digest == GOLDEN_AUDIT_TRAIL_7X7


def decoded_record(rec: tuple) -> tuple:
    """A private trail record with every card sequence replaced by its decoded integer."""
    kind = rec[0]
    if kind == "align_rightmost":
        return (*rec[:4], decode(rec[4]), decode(rec[5]))
    if kind in ("selection", "removed_block"):
        return (*rec[:-2], [decode(s) for s in rec[-2]], [decode(s) for s in rec[-1]])
    return rec


class TestDrawSequence:
    # Equal transcript bytes alone do not show that the secret draws are
    # unchanged; these pin their kinds and widths as well.
    def test_distance_check_widths(self, sample7x7, sample7x7_solution):
        board = setup(sample7x7, ProverInput(sample7x7_solution))
        rng = RecordingSource(0)
        check = check_of(sample7x7, (4, 4), "right")
        assert verify_distance_direction(board, check, rng, Transcript()).accepted
        k = 6
        assert rng.draws == [("offset", w) for w in (k, k, 2 * k - 1, k, k, 2 * k - 1, k)]

    def test_single_cell_k1(self):
        rng = RecordingSource(0)
        run_protocol(make_puzzle(["a"]), ProverInput(assignment([[1]])), rng)
        assert rng.draws == [("offset", 1)] * 24 + [("permutation", 1)]

    def test_sample7x7_total(self, sample7x7, sample7x7_solution):
        rng = RecordingSource(0)
        run_protocol(sample7x7, ProverInput(sample7x7_solution), rng)
        assert len(rng.draws) == 1384  # 196 checks x 7 offsets, then 12 room permutations
        assert rng.draws[:7] == [("offset", w) for w in (6, 6, 11, 6, 6, 11, 6)]


# sha256 over the reject transcripts of every single-cell mutation, seed 0,
# with their mark lines dropped: whatever marks a reject path emits, every
# other event and its order is pinned.
GOLDEN_REJECTS = {
    "domino": "840a9c14e6c21a2d3486e89b7090efd85d6e4533cdea1b9e59def1e16e1aefd5",
    "7x7": "7e76fc10428272a3dda8bedbc7c234fad209822b4e99a794ecd2169d6b1b8488",
}
# sha256 over the full serialize() bytes, marks included, and the CardStats
# of those rejects and then of every reject of a claim that sets one cell to
# 0, seed 0: where each reject path puts its marks is pinned too.
GOLDEN_REJECT_BYTES = {
    "domino": "d98b52e178152ec831996a65220658213571a6f6fff15e7feef035f8d48b9f0e",
    "7x7": "bbaf493e7b1311dc3fa339a3aef5c2d516c59c1fee6f5c1b706d5a7cc7641682",
}


def claim_runs(puzzle, solution, values) -> list:
    """The ProtocolResult, seed 0, of every claim that sets one cell of
    ``solution`` to one of ``values`` other than its own."""
    return [
        run_protocol(puzzle, ProverInput(solution.with_value(cell, value), honest=False),
                     RandomSource(0))
        for cell in puzzle.cells
        for value in values
        if value != solution[cell]
    ]


@pytest.fixture(scope="module", params=sorted(GOLDEN_REJECTS))
def mutation_runs(request):
    """(name, mutations, zero claims) for a solution: the runs of every claim
    that sets one cell to another value in 1..k, then to 0."""
    if request.param == "domino":
        puzzle = make_puzzle(["a a"])
        solution = assignment([[1, 2]])
    else:
        puzzle = request.getfixturevalue("sample7x7")
        solution = request.getfixturevalue("sample7x7_solution")
    mutations = claim_runs(puzzle, solution, range(1, max_room_size(puzzle) + 1))
    return request.param, mutations, claim_runs(puzzle, solution, [0])


class TestRejectPaths:
    def test_events_pinned(self, mutation_runs):
        name, mutations, _ = mutation_runs
        digest = hashlib.sha256()
        for verdict, transcript, _ in mutations:
            if not verdict.accepted:
                lines = transcript.serialize().splitlines(keepends=True)
                digest.update("".join(l for l in lines if not l.startswith("mark ")).encode())
        assert digest.hexdigest() == GOLDEN_REJECTS[name]

    def test_bytes_and_stats_pinned(self, mutation_runs):
        name, mutations, zero_claims = mutation_runs
        digest = hashlib.sha256()
        for verdict, transcript, stats in mutations + zero_claims:
            if not verdict.accepted:
                digest.update(transcript.serialize().encode())
                digest.update(repr(stats).encode())
        assert digest.hexdigest() == GOLDEN_REJECT_BYTES[name]

    def test_zero_claims_fail_inside_a_check(self, mutation_runs):
        # A 0 is encodable, so setup commits it; the cell's own first
        # distance check then finds no heart where its value should be.
        _, _, zero_claims = mutation_runs
        rejects = [verdict for verdict, _, _ in zero_claims if not verdict.accepted]
        assert rejects
        for verdict in rejects:
            assert verdict.reason == MALFORMED_COMMITMENT
            assert verdict.location[1] == "right"

    def test_marks_balanced(self, mutation_runs):
        _, mutations, zero_claims = mutation_runs
        rejects = [t for verdict, t, _ in mutations + zero_claims if not verdict.accepted]
        assert rejects
        unbalanced = []
        for transcript in rejects:
            open_spans = []
            for ev in transcript.events:
                if ev[0] == "mark" and ev[2] == "enter":
                    open_spans.append(ev[1])
                elif ev[0] == "mark" and (not open_spans or open_spans.pop() != ev[1]):
                    unbalanced.append(ev[1])
            unbalanced.extend(open_spans)
        assert unbalanced == []


# Per record type: a builder, one of its fields, and how two records built
# alike compare ("value": equal, same hash, and equal after pickling;
# "identity": each equals only itself). Only Board's fields can be assigned.
RECORDS = {
    "Puzzle": (lambda: make_puzzle(["a"]), "rows", "identity"),
    "Board": (lambda: Board(make_puzzle(["a"]), 1, [None]), "aux_peak", "identity"),
    "Assignment": (lambda: assignment([[1]]), "values", "value"),
    "RevealFamily": (lambda: RevealFamily("dist.j1", "heart", 6), "domain", "value"),
    "Verdict": (lambda: Verdict(True), "accepted", "value"),
    "CardStats": (lambda: CardStats(294, 94), "grid_cards", "value"),
    "ProverInput": (lambda: ProverInput(assignment([[1]])), "honest", None),
    "Violation": (lambda: Violation(DISTANCE, ((1, 1), (1, 3)), "d"), "detail", None),
    "FamilyResult": (
        lambda: FamilyResult(RevealFamily("room:a:1", "room", 1), 0, None, None, None, True),
        "passed",
        None,
    ),
    "AuditReport": (lambda: AuditReport(0, (), False), "passed", None),
    "SweepReport": (lambda: SweepReport(0, 0, 0, 0, (), ()), "runs", None),
}


@pytest.mark.parametrize("name", RECORDS)
def test_record_behaviour(name):
    make, field, compares = RECORDS[name]
    record, twin = make(), make()
    if name == "Board":
        record.aux_peak = 5
        assert record.aux_peak == 5
    else:
        with pytest.raises(AttributeError):
            setattr(record, field, getattr(record, field))
    if compares == "value":
        assert record == twin == pickle.loads(pickle.dumps(record))
        assert hash(record) == hash(twin)
    elif compares == "identity":
        assert record == record and record != twin


def test_record_reprs_and_constants():
    assert repr(assignment([[1]])) == "Assignment(values=((1,),))"
    assert Verdict(True) == ACCEPT
