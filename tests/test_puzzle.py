import hashlib
import random
import re
import signal

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    all_room_partitions,
    assignment,
    brute_force_solutions,
    close_pairs,
    make_puzzle,
)
from ripple_zkp.puzzle import (
    DISTANCE,
    FIXED_MISMATCH,
    ROOM_CONTENT,
    Puzzle,
    PuzzleFormatError,
    max_room_size,
    parse_puzzle,
    parse_solution,
    solve,
    validate,
)

SAMPLE7X7_SOLUTION_ROWS = [
    [2, 1, 3, 1, 4, 2, 3],
    [1, 5, 2, 4, 1, 3, 1],
    [3, 4, 1, 2, 3, 5, 4],
    [1, 2, 4, 3, 5, 1, 2],
    [4, 3, 1, 5, 2, 4, 6],
    [5, 1, 2, 1, 4, 3, 5],
    [3, 2, 5, 4, 3, 2, 1],
]


class TestParse:
    def test_seven_by_seven_instance(self, sample7x7):
        assert sample7x7.rows == 7 and sample7x7.cols == 7
        assert sorted(sample7x7.fixed.values()) == [1, 2, 3, 4, 5, 6]
        assert sample7x7.fixed == {
            (7, 4): 4,
            (7, 7): 1,
            (5, 4): 5,
            (5, 7): 6,
            (3, 1): 3,
            (2, 3): 2,
        }
        sizes = sorted(len(c) for c in sample7x7.room_cells.values())
        assert sizes == [1, 1, 3, 4, 4, 5, 5, 5, 5, 5, 5, 6]

    def test_smallest_instance(self):
        puzzle = parse_puzzle("1 1\na\n.\n")
        assert puzzle.rows == puzzle.cols == 1
        assert len(puzzle.room_cells["a"]) == 1
        assert puzzle.fixed == {}

    def test_disconnected_room_rejected(self):
        text = "2 2\nA B\nB A\n. .\n. .\n"
        with pytest.raises(PuzzleFormatError, match="not edge-connected"):
            parse_puzzle(text)

    def test_comments_and_blank_lines_ignored(self):
        text = "# a comment\n\n1 2\n\na a\n# another\n. 2\n"
        puzzle = parse_puzzle(text)
        assert puzzle.fixed == {(1, 2): 2}

    def test_ragged_grid_rejected(self):
        for text, message in (
            ("2 2\na a\na\n. .\n. .\n", "room labels, got 1 \\(ragged"),
            ("2 2\na a\na a\n. .\n.\n", "value tokens, got 1 \\(ragged"),
        ):
            with pytest.raises(PuzzleFormatError, match=message):
                parse_puzzle(text)

    def test_fixed_value_beyond_room_size_rejected(self):
        message = r"^line 3: cell \(1,1\): clue must be from 1 to 2, got 3$"
        with pytest.raises(PuzzleFormatError, match=message):
            parse_puzzle("1 2\na a\n3 .\n")

    def test_fixed_value_not_positive_rejected(self):
        for token, message in (("0", "from 1 to 2, got 0"), ("x", "must be digits 0-9, got 'x'")):
            with pytest.raises(PuzzleFormatError, match=message):
                parse_puzzle(f"1 2\na a\n{token} .\n")

    def test_bad_header(self):
        for text, message in (
            ("seven seven\na\n.\n", "line 1: row count must be digits 0-9, got 'seven'"),
            ("", "empty"),
            ("# only a comment\n", "empty"),
            ("1\na\n.\n", "expected 'm n'"),
            ("1 1 1\na\n.\n", "expected 'm n'"),
            ("0 1\n", "line 1: row count must be positive, got 0"),
            ("1 0\na\n.\n", "line 1: column count must be positive, got 0"),
        ):
            with pytest.raises(PuzzleFormatError, match=message):
                parse_puzzle(text)

    def test_missing_lines(self):
        with pytest.raises(PuzzleFormatError, match="content lines"):
            parse_puzzle("2 2\na a\na a\n. .\n")

    def test_line_number_in_error(self):
        err = None
        try:
            parse_puzzle("2 2\na a\na a a\n. .\n. .\n")
        except PuzzleFormatError as exc:
            err = str(exc)
        assert err is not None and "line 3" in err


class TestParseSolution:
    def test_roundtrip(self, sample7x7, sample7x7_solution):
        assert sample7x7_solution.values == tuple(tuple(r) for r in SAMPLE7X7_SOLUTION_ROWS)
        again = parse_solution(sample7x7_solution.to_text(), sample7x7)
        assert again == sample7x7_solution

    def test_wrong_shape(self, sample7x7):
        with pytest.raises(PuzzleFormatError):
            parse_solution("1 2 3\n", sample7x7)
        ragged = "1 1 1 1 1 1 1\n" * 6 + "1 1 1 1 1 1\n"
        with pytest.raises(PuzzleFormatError, match="line 7: expected 7 values, got 6"):
            parse_solution(ragged, sample7x7)

    def test_nonpositive_rejected(self, sample7x7):
        for token, message in (
            ("0", "line 7: value must be positive, got 0"),
            ("x", "line 7: value must be digits 0-9, got 'x'"),
        ):
            bad = "\n".join("1 1 1 1 1 1 1" for _ in range(6)) + f"\n{token} 1 1 1 1 1 1\n"
            with pytest.raises(PuzzleFormatError, match=message):
                parse_solution(bad, sample7x7)


class TestValidate:
    def test_printed_solution_is_valid(self, sample7x7, sample7x7_solution):
        assert validate(sample7x7, sample7x7_solution) == []

    def test_adjacent_duplicate_ones(self, sample7x7, sample7x7_solution):
        broken = sample7x7_solution.with_value((1, 1), 1)
        kinds = {v.kind for v in validate(sample7x7, broken)}
        assert DISTANCE in kinds
        distance = [v for v in validate(sample7x7, broken) if v.kind == DISTANCE]
        assert any(set(v.cells) == {(1, 1), (1, 2)} for v in distance)

    def test_single_cell(self):
        puzzle = make_puzzle(["a"])
        assert validate(puzzle, assignment([[1]])) == []

    def test_room_content_violation(self):
        puzzle = make_puzzle(["a a"])
        out = validate(puzzle, assignment([[1, 1]]))
        assert any(v.kind == ROOM_CONTENT for v in out)

    def test_fixed_mismatch(self):
        puzzle = make_puzzle(["a a"], fixed={(1, 1): 2})
        out = validate(puzzle, assignment([[1, 2]]))
        assert [v.kind for v in out if v.kind == FIXED_MISMATCH] == [FIXED_MISMATCH]

    def test_distance_needs_x_cells_between(self):
        # Two 2s with one cell between: too close. Two cells between: fine.
        puzzle = make_puzzle(["a a b b c"])
        too_close = assignment([[2, 1, 2, 1, 1]])
        dist = [v for v in validate(puzzle, too_close) if v.kind == DISTANCE]
        assert any(set(v.cells) == {(1, 1), (1, 3)} for v in dist)
        spaced = assignment([[2, 1, 3, 2, 1]])
        dist = [v for v in validate(puzzle, spaced) if v.kind == DISTANCE]
        assert dist == []

    def test_column_distance(self):
        puzzle = make_puzzle(["a", "a", "b"])
        # Separation 1 >= 1 is legal for two 1s; 1 < 2 is not for two 2s.
        legal = assignment([[1], [2], [1]])
        assert [v for v in validate(puzzle, legal) if v.kind == DISTANCE] == []
        broken = assignment([[2], [1], [2]])
        dist = [v for v in validate(puzzle, broken) if v.kind == DISTANCE]
        assert len(dist) == 1 and set(dist[0].cells) == {(1, 1), (3, 1)}

    def test_pairs_reported_once(self):
        # Oracle: direct enumeration over all unordered same-line pairs.
        puzzle = make_puzzle(["a a b b"])
        asg = assignment([[1, 1, 1, 1]])
        assert distance_pairs(puzzle, asg) == close_pairs(puzzle, asg)

    @given(st.integers(0, 3**6 - 1))
    @settings(max_examples=60, deadline=None)
    def test_distance_matches_pair_enumeration(self, encoded):
        # Random 2x3 tables vs the direct all-pairs oracle.
        values = []
        for _ in range(6):
            values.append(encoded % 3 + 1)
            encoded //= 3
        puzzle = make_puzzle(["a a a", "a a a"])
        asg = assignment([values[:3], values[3:]])
        assert distance_pairs(puzzle, asg) == close_pairs(puzzle, asg)

    def test_distance_matches_pairs_on_every_one_cell_change(self, sample7x7, sample7x7_solution):
        # The 7x7 solution with one cell set to each value in 0..7: 392 assignments.
        for cell in sample7x7.cells:
            for value in range(8):
                asg = sample7x7_solution.with_value(cell, value)
                assert distance_pairs(sample7x7, asg) == close_pairs(sample7x7, asg), (cell, value)

    def test_huge_value_stops_at_grid_edge(self):
        # The distance scan ends at the grid edge, not after x steps, so a
        # huge value costs no more than a small one.
        def timed_out(signum, frame):
            raise TimeoutError

        previous = signal.signal(signal.SIGALRM, timed_out)
        signal.setitimer(signal.ITIMER_REAL, 2.0)
        try:
            out = validate(make_puzzle(["a b"]), assignment([[1, 10**12]]))
        except TimeoutError:
            pytest.fail("validate scanned past the grid edge", pytrace=False)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
        assert [(v.kind, v.cells) for v in out] == [(ROOM_CONTENT, ((1, 2),))]

    @given(st.lists(st.integers(1, 6), min_size=6, max_size=6))
    @settings(max_examples=60, deadline=None)
    def test_violations_in_scan_order(self, values):
        # Oracle: the scan of x steps right then down from each cell,
        # unbounded by the grid edge, gives the same violations in order.
        puzzle = make_puzzle(["a a a", "b b b"])
        asg = assignment([values[:3], values[3:]])
        expected = []
        for r1, c1 in puzzle.cells:
            x = asg[(r1, c1)]
            for d in range(1, x + 1):
                for r2, c2 in ((r1, c1 + d), (r1 + d, c1)):
                    if r2 <= puzzle.rows and c2 <= puzzle.cols and asg[(r2, c2)] == x:
                        expected.append(((r1, c1), (r2, c2)))
        got = [v.cells for v in validate(puzzle, asg) if v.kind == DISTANCE]
        assert got == expected


def distance_pairs(puzzle, asg):
    """The cell pairs of ``validate``'s Distance violations, each sorted, sorted."""
    return sorted(tuple(sorted(v.cells)) for v in validate(puzzle, asg) if v.kind == DISTANCE)


class TestWithValue:
    def test_changes_one_cell_and_copies(self, sample7x7_solution):
        original = sample7x7_solution.values
        for r in range(1, 8):
            for c in range(1, 8):
                for value in (0, 7, True):
                    got = sample7x7_solution.with_value((r, c), value)
                    rows = [list(row) for row in original]
                    rows[r - 1][c - 1] = value
                    assert got == assignment(rows)
                    changed = [
                        (i, j) for i in range(1, 8) for j in range(1, 8)
                        if got[(i, j)] != sample7x7_solution[(i, j)]
                    ]
                    assert changed == ([] if original[r - 1][c - 1] == value else [(r, c)])
                    assert all(type(v) is int for row in got.values for v in row)
                    assert all(type(row) is tuple for row in got.values)
        assert sample7x7_solution == assignment(SAMPLE7X7_SOLUTION_ROWS)

    @pytest.mark.parametrize("cell", [(0, 0), (0, 1), (1, 0), (-1, 3), (2, -7)])
    def test_cell_below_1_is_off_the_grid(self, sample7x7_solution, cell):
        # Not Python's index from the end: (0, 0) would read (7, 7).
        with pytest.raises(IndexError, match=re.escape(f"cell {cell} is off the grid")):
            sample7x7_solution[cell]
        with pytest.raises(IndexError, match=re.escape(f"cell {cell} is off the grid")):
            sample7x7_solution.with_value(cell, 6)


SMALL_PARTITIONS = [
    puzzle
    for shape in ((1, 1), (1, 2), (2, 1), (1, 3), (3, 1), (2, 2), (1, 4), (4, 1))
    for puzzle in all_room_partitions(*shape)
]


@st.composite
def small_boards(draw):
    """Boards of up to 4 cells whose clues may lie outside 1..room size."""
    bare = draw(st.sampled_from(SMALL_PARTITIONS))
    fixed = draw(st.dictionaries(st.sampled_from(bare.cells), st.integers(-1, 5)))
    return Puzzle(bare.rows, bare.cols, bare.room_of, fixed)


class TestSolve:
    def test_finds_printed_solution(self, sample7x7, sample7x7_solution):
        assert solve(sample7x7, limit=1) == [sample7x7_solution]

    def test_solution_is_unique(self, sample7x7, sample7x7_solution):
        assert solve(sample7x7, limit=2) == [sample7x7_solution]

    def test_single_cell(self):
        puzzle = make_puzzle(["a"])
        assert [a.values for a in solve(puzzle, limit=10)] == [((1,),)]

    def test_domino_room_both_orders(self):
        puzzle = make_puzzle(["a a"])
        got = [a.values for a in solve(puzzle, limit=10)]
        assert got == [((1, 2),), ((2, 1),)]

    def test_unsatisfiable(self):
        # Two fixed 1s in one domino room can never read 1..2.
        puzzle = make_puzzle(["a a"], fixed={(1, 1): 1, (1, 2): 1})
        assert solve(puzzle, limit=5) == []

    def test_limit_validation(self):
        with pytest.raises(ValueError):
            solve(make_puzzle(["a"]), limit=0)

    @pytest.mark.parametrize(
        ("room_rows", "fixed"),
        [
            (["a"], {(1, 1): 2}),
            (["a a b"], {(1, 1): 3}),
            (["a a"], {(1, 1): 0}),
            (["a a"], {(1, 2): -1}),
        ],
    )
    def test_clue_outside_room_range_is_unsatisfiable(self, room_rows, fixed):
        # parse_puzzle rejects these clues, but a Puzzle built directly keeps
        # them; no grid can satisfy one, so solve must find nothing.
        assert solve(make_puzzle(room_rows, fixed), limit=None) == []

    @pytest.mark.parametrize(
        "room_rows",
        [
            ["a a", "a a"],
            ["a a", "b b"],
            ["a b", "a b"],
            ["a a a", "b b a"],
            ["a a b b", "c c d d"],
            ["a b b", "a c c", "a d d"],
        ],
    )
    def test_exhaustive_against_brute_force(self, room_rows):
        puzzle = make_puzzle(room_rows)
        assert [a.values for a in solve(puzzle, limit=None)] == [
            a.values for a in brute_force_solutions(puzzle)
        ]

    def test_solutions_validate_clean(self):
        for puzzle in all_room_partitions(2, 2):
            for asg in solve(puzzle, limit=None):
                assert validate(puzzle, asg) == []

    @given(small_boards())
    @settings(max_examples=200, deadline=None)
    def test_properties_on_small_boards(self, puzzle):
        everything = solve(puzzle, limit=None)
        assert all(validate(puzzle, asg) == [] for asg in everything)
        values = [asg.values for asg in everything]
        assert all(a < b for a, b in zip(values, values[1:]))
        for j in (1, 2):
            assert solve(puzzle, limit=j) == everything[:j]
        # Brute force checks every clue, so it also finds nothing when one
        # lies outside its room's range.
        assert everything == brute_force_solutions(puzzle)

    def test_values_bounded_by_room_size(self, sample7x7, sample7x7_solution):
        # Rule-1 consequence: a clean grid never exceeds its room's size.
        assert validate(sample7x7, sample7x7_solution) == []
        for cell in sample7x7.cells:
            assert sample7x7_solution[cell] <= len(sample7x7.room_cells[sample7x7.room_of[cell]])


def with_random_clues(puzzle, seed):
    """``puzzle`` with about a third of its cells clued, each within its room."""
    rng = random.Random(seed)
    fixed = {}
    for cell in puzzle.cells:
        if rng.random() < 1 / 3:
            fixed[cell] = rng.randint(1, len(puzzle.room_cells[puzzle.room_of[cell]]))
    return Puzzle(puzzle.rows, puzzle.cols, puzzle.room_of, fixed)


# sha256 over the repr of every solve(limit=None) result, one line per board:
# each partition bare, then with random clues from seeds 2i and 2i + 1.
GOLDEN_SOLVE_PARTITIONS = {
    (1, 2): "0a11edd572c242ce97c9072ce4ac1ee1fad0bd92e913cd325b69a287bc5e65e1",
    (1, 3): "3c74337d83d8633622ab83a075cc1c4801b7636aa31bb737186e150015859ead",
    (2, 2): "c5204125db9f0591ec9a2cedbb5a9f1edd5eb402623dafde95ab14f0b8d8922c",
    (1, 4): "139888bc8c4120ddd4ae355fa8ea0ea710a9dfd33d8b1e24b9d0be67e42575ff",
}

# The first two solutions of the sample's room partition without its clues.
CLUE_FREE_7X7_FIRST_TWO = [
    (
        (2, 1, 3, 1, 4, 2, 3),
        (1, 5, 2, 4, 1, 3, 1),
        (3, 4, 1, 2, 3, 5, 4),
        (1, 2, 4, 3, 5, 1, 2),
        (4, 3, 1, 5, 2, 4, 6),
        (5, 1, 2, 1, 4, 3, 5),
        (3, 2, 5, 4, 3, 2, 1),
    ),
    (
        (2, 1, 3, 1, 4, 2, 3),
        (1, 5, 2, 4, 1, 3, 2),
        (3, 4, 1, 2, 3, 5, 4),
        (1, 2, 4, 3, 5, 1, 6),
        (4, 3, 1, 5, 2, 4, 1),
        (5, 1, 2, 1, 4, 3, 5),
        (3, 2, 5, 4, 3, 2, 1),
    ),
]


class TestSolvePinned:
    """Pinned solver outputs: every result, in order, on small boards and the 7x7."""

    @pytest.mark.parametrize("shape", sorted(GOLDEN_SOLVE_PARTITIONS))
    def test_partition_boards(self, shape):
        digest = hashlib.sha256()
        for index, bare in enumerate(all_room_partitions(*shape)):
            for puzzle in (
                bare,
                with_random_clues(bare, 2 * index),
                with_random_clues(bare, 2 * index + 1),
            ):
                found = [a.values for a in solve(puzzle, limit=None)]
                digest.update(repr(found).encode() + b"\n")
        assert digest.hexdigest() == GOLDEN_SOLVE_PARTITIONS[shape]

    def test_sample_with_wrong_corner_clue_is_unsatisfiable(self, sample7x7):
        # The unique solution has 1 at (7,7); a clue of 2 there leaves none.
        fixed = {**sample7x7.fixed, (7, 7): 2}
        puzzle = Puzzle(sample7x7.rows, sample7x7.cols, sample7x7.room_of, fixed)
        assert solve(puzzle, limit=None) == []

    def test_clue_free_sample_first_two(self, sample7x7):
        puzzle = Puzzle(sample7x7.rows, sample7x7.cols, sample7x7.room_of, {})
        assert [a.values for a in solve(puzzle, limit=2)] == CLUE_FREE_7X7_FIRST_TWO


class TestMaxRoomSize:
    def test_seven_by_seven(self, sample7x7):
        assert max_room_size(sample7x7) == 6

    def test_single_cell(self):
        assert max_room_size(make_puzzle(["a"])) == 1

    def test_one_room_grid(self):
        assert max_room_size(make_puzzle(["a a a", "a a a"])) == 6

