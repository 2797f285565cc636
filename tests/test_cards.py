import random
from collections import Counter

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import check_of, draw_sites, mask_of
from ripple_zkp.audit import chi2_sf
from ripple_zkp.cards import (
    _EVENT_LINES,
    _ONE_HEART,
    _SERIALIZE_LINES,
    _SKELETON_LINES,
    CLUB,
    HEART,
    DrawSite,
    MalformedCommitmentError,
    Matrix,
    RandomSource,
    ReplaySource,
    Transcript,
    decode,
    encode,
    faces_of,
    marks,
    pile_scramble_shuffle,
    pile_shift_shuffle,
    rearrangement,
)
from ripple_zkp.protocol import ProverInput, run_protocol, setup, verify_distance_direction

C, H = CLUB, HEART


class StubRng:
    """Scripted draws for replaying the worked shuffle examples."""

    def __init__(self, offsets=(), perms=(), trail=None):
        self._offsets = list(offsets)
        self._perms = list(perms)
        self.trail = trail

    def offset(self, n):
        return self._offsets.pop(0)

    def permutation(self, n):
        return list(self._perms.pop(0))


def uniform_p(counts: Counter, domain: int) -> float:
    n = sum(counts.values())
    expected = n / domain
    stat = sum((counts.get(b, 0) - expected) ** 2 / expected for b in range(1, domain + 1))
    return chi2_sf(stat, domain - 1)


class TestEncoding:
    def test_worked_examples(self):
        assert faces_of(3, encode(1, 3)) == (H, C, C)
        assert faces_of(4, encode(3, 4)) == (C, C, H, C)
        assert faces_of(5, encode(0, 5)) == (C,) * 5

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            encode(4, 3)
        with pytest.raises(ValueError):
            encode(-1, 3)

    def test_decode(self):
        assert decode(mask_of((C, C, H, C))) == 3
        assert decode(mask_of((C, C, C))) == 0
        assert decode(mask_of((H, H, C))) is None

    def test_faces_roundtrip(self):
        for width in range(0, 7):
            for mask in range(1 << width):
                assert mask_of(faces_of(width, mask)) == mask

    def test_roundtrip_exhaustive(self):
        for y in range(1, 9):
            for x in range(0, y + 1):
                assert decode(encode(x, y)) == x

    @given(st.integers(1, 30).flatmap(lambda y: st.tuples(st.just(y), st.integers(0, y))))
    def test_roundtrip_property(self, pair):
        y, x = pair
        assert decode(encode(x, y)) == x


def labeled_matrix(rows: int, cols: int) -> Matrix:
    # Column j holds the binary digits of j as its cards, so snapshots,
    # which show each column as a mask, read back the labels and trace moves.
    assert cols < 2**rows, "too few rows to label every column"
    return Matrix("X", cols, piles=list(range(1, cols + 1)), depth=rows)


def column_labels(m: Matrix) -> list[int]:
    return list(m.snapshot())


def rotated(m: Matrix, offset: int) -> Matrix:
    m.rotate(offset)
    return m


def crosses_seam(m: Matrix, col: int, count: int) -> bool:
    """Whether ``count`` columns from visible column ``col`` run past the last storage column."""
    return (col - 1 - m.offset) % m.n_cols + count > m.n_cols


def assert_moves_nothing(m: Matrix, error, message: str, move) -> None:
    """``move()`` raises ``error`` matching ``message`` and leaves ``m`` as it was.
    A matrix with a card taken out has no snapshot; its storage is compared."""

    def state():
        holes = None in m.rows or None in m.piles
        return m.id, list(m.rows), list(m.piles), m.offset, m.n_cols, holes or m.snapshot()

    before = state()
    with pytest.raises(error, match=message):
        move()
    assert state() == before


class TestShuffles:
    def test_pile_shift_worked_example(self):
        m = labeled_matrix(5, 6)
        pile_shift_shuffle(m, StubRng(offsets=[2]))
        assert column_labels(m) == [5, 6, 1, 2, 3, 4]

    def test_pile_shift_identity(self):
        m = labeled_matrix(5, 6)
        pile_shift_shuffle(m, StubRng(offsets=[0]))
        assert column_labels(m) == [1, 2, 3, 4, 5, 6]

    def test_offset_matches_randrange(self):
        # offset() inlines randrange's rejection sampling: same stream.
        ours, ref = RandomSource(7), random.Random(7)
        for n in [1, 2, 3, 6, 11, 64, 65, 1000] * 50:
            assert ours.offset(n) == ref.randrange(n)
        with pytest.raises(ValueError):
            ours.offset(0)

    def test_permutation_matches_shuffle(self):
        # permutation() is Fisher-Yates over offset(): random.shuffle's
        # permutation from the same state, leaving the same state behind.
        for seed in range(200):
            ours, ref = RandomSource(seed), random.Random(seed)
            for n in (1, 2, 3, 5, 6, 7, 9, 17):
                perm = list(range(n))
                ref.shuffle(perm)
                assert ours.permutation(n) == perm
            assert ours._rng.getstate() == ref.getstate()

    def test_pile_shift_uniform(self):
        counts = Counter()
        for seed in range(10_000):
            m = Matrix.from_rows("S", 6, [encode(4, 6)])
            pile_shift_shuffle(m, RandomSource(seed))
            position = decode(mask_of(m.reveal_row(1, Transcript())))
            counts[position] += 1
        assert uniform_p(counts, 6) > 1e-4

    def test_pile_scramble_worked_example(self):
        m = labeled_matrix(5, 6)
        pile_scramble_shuffle(m, StubRng(perms=[[2, 5, 3, 0, 4, 1]]))
        assert column_labels(m) == [3, 6, 4, 1, 5, 2]

    def test_pile_scramble_single_column(self):
        m = labeled_matrix(3, 1)
        pile_scramble_shuffle(m, RandomSource(1))
        assert column_labels(m) == [1]

    def test_pile_scramble_uniform(self):
        counts = Counter()
        for seed in range(60_000):
            m = labeled_matrix(2, 3)
            pile_scramble_shuffle(m, RandomSource(seed))
            counts[tuple(column_labels(m))] += 1
        n = sum(counts.values())
        expected = n / 6
        stat = sum((counts[order] - expected) ** 2 / expected for order in counts)
        assert len(counts) == 6
        assert chi2_sf(stat, 5) > 1e-4

    def test_hidden_draws_logged_privately(self):
        m = labeled_matrix(3, 4)
        t = Transcript()
        trail = []
        pile_shift_shuffle(m, StubRng(offsets=[3], trail=trail))
        assert trail == [("pile_shift", "X", 3)]
        assert t.events == []  # nothing observable happened

    # Every move that refuses a matrix with cards showing.
    FACE_UP_MOVES = {
        "pile_shift_shuffle": lambda m: pile_shift_shuffle(m, RandomSource(0)),
        "pile_scramble_shuffle": lambda m: pile_scramble_shuffle(m, RandomSource(0)),
        "shift": lambda m: m.shift(1, Transcript()),
        "split_rows": lambda m: m.split_rows(1, "T", "B"),
        "append_columns": lambda m: m.append_columns(labeled_matrix(3, 2)),
        "remove_columns": lambda m: m.remove_columns(1, 2),
    }

    @pytest.mark.parametrize("move", sorted(FACE_UP_MOVES))
    def test_shuffle_requires_face_down(self, move):
        m = labeled_matrix(3, 4)
        m.reveal_segment(1, 1, 3, Transcript())
        before = m.snapshot()
        with pytest.raises(RuntimeError, match="matrix X: cards are face-up"):
            self.FACE_UP_MOVES[move](m)
        assert m.snapshot() == before


class TestReplaySource:
    def test_draws_come_back_in_order(self):
        rng = ReplaySource([2, 0, 4, 0])
        assert [rng.offset(3), rng.offset(1), rng.offset(5), rng.offset(1)] == [2, 0, 4, 0]

    @pytest.mark.parametrize(("draw", "n"), [(3, 3), (-1, 3), (0, 0), (11, 6)])
    def test_draw_outside_range_rejected(self, draw, n):
        with pytest.raises(ValueError, match=rf"draw {draw} for offset\({n}\) is not in"):
            ReplaySource([draw]).offset(n)

    def test_no_seeded_fallback(self):
        # Nothing is drawn in place of a missing draw: a permutation, too,
        # comes from replayed draws or not at all.
        rng = ReplaySource([1])
        assert rng.offset(2) == 1
        with pytest.raises(ValueError, match="draw None"):
            rng.offset(2)
        assert not isinstance(rng, RandomSource)
        with pytest.raises(ValueError, match=r"draw None for offset\(3\)"):
            ReplaySource([]).permutation(3)

    def test_permutation_replays_fisher_yates(self):
        # The draws a RandomSource makes for a permutation, replayed, give
        # the same permutation.
        seeded = RandomSource(11)
        perm = seeded.permutation(5)
        rng = RandomSource(11)
        draws = [rng.offset(i + 1) for i in range(4, 0, -1)]
        assert ReplaySource(draws).permutation(5) == perm
        assert ReplaySource([]).permutation(1) == [0]

    def test_replayed_check_matches_seeded_check(self, sample7x7, sample7x7_solution):
        # A distance check replayed from a seeded check's recorded draws
        # shows the same events and uses up every draw.
        def check(rng):
            board = setup(sample7x7, ProverInput(sample7x7_solution))
            t = Transcript()
            left = check_of(sample7x7, (4, 4), "left")
            assert verify_distance_direction(board, left, rng, t).accepted
            return t.events

        seeded = RandomSource(5, [])
        events = check(seeded)
        draws = iter([rec[2] for rec in seeded.trail if rec[0] == "pile_shift"])
        assert len(events) > 7 and check(ReplaySource(draws)) == events
        assert next(draws, None) is None


class TestShift:
    def test_identity(self):
        m = labeled_matrix(3, 6)
        t = Transcript()
        m.shift(0, t)
        assert column_labels(m) == [1, 2, 3, 4, 5, 6]
        assert t.events == [("shift", "X", 0)]

    def test_right_by_two_equals_pile_shift(self):
        shifted = labeled_matrix(5, 6)
        shifted.shift(2, Transcript())
        shuffled = labeled_matrix(5, 6)
        pile_shift_shuffle(shuffled, StubRng(offsets=[2]))
        assert column_labels(shifted) == column_labels(shuffled) == [5, 6, 1, 2, 3, 4]

    def test_left_shift_normalized(self):
        m = labeled_matrix(3, 4)
        t = Transcript()
        m.shift(-1, t)
        assert column_labels(m) == [2, 3, 4, 1]
        assert t.events == [("shift", "X", 3)]


class TestReveal:
    def test_rotated_indicator(self):
        m = Matrix.from_rows("X", 6, [encode(1, 6)])
        m.rotate(2)
        faces = m.reveal_row(1, Transcript())
        assert faces.index(H) + 1 == 3

    def test_no_heart_row(self):
        m = Matrix.from_rows("X", 4, [encode(0, 4)])
        assert H not in m.reveal_row(1, Transcript())

    def test_unshuffled_encoding(self):
        m = Matrix.from_rows("X", 4, [encode(3, 4)])
        assert m.reveal_row(1, Transcript()).index(H) + 1 == 3

    def test_segment_all_clubs(self):
        m = Matrix.from_rows("X", 2, [mask_of((C, C))] * 3)
        assert m.reveal_segment(1, 1, 3, Transcript()) == (C, C, C)

    def test_segment_with_heart(self):
        m = Matrix.from_rows("X", 2, [mask_of((C, C)), mask_of((H, C))])
        assert H in m.reveal_segment(1, 1, 2, Transcript())

    def test_segment_from_piles(self):
        # The same column read from the piles and across the row part.
        m = Matrix("X", 2, [mask_of((C, H))], [mask_of((C, H)), mask_of((H, C))], 2)
        m.rotate(1)
        t = Transcript()
        assert m.reveal_segment(1, 1, 3, t) == (H, H, C)
        assert m.reveal_segment(2, 2, 3, t) == (C, H)

    def test_empty_segment(self):
        # The protocol's segment, rows 3..k+2, is never empty: an empty run
        # raises and shows nothing.
        m = Matrix.from_rows("X", 2, [mask_of((C, C))] * 2)
        t = Transcript()
        assert_moves_nothing(m, ValueError, r"rows 3\.\.2 not within 1\.\.2",
                             lambda: m.reveal_segment(1, 3, 2, t))
        assert t.events == []

    def test_events_recorded(self):
        m = Matrix.from_rows("X", 2, [mask_of((C, H)), mask_of((H, C))])
        t = Transcript()
        m.reveal_row(2, t)
        m.reveal_segment(2, 1, 2, t)
        assert t.events == [
            ("reveal_row", "X", 2, (H, C)),
            ("reveal_segment", "X", 2, 1, 2, (H, C)),
        ]

    def test_read_heart(self):
        m = Matrix.from_rows("X", 4, [encode(1, 4), encode(3, 4)])
        m.rotate(2)
        t = Transcript()
        site = DrawSite("X", 2)
        assert m.cut_and_read(ReplaySource([0]), site, t) == 1  # heart 3 moved right by 2, wrapping
        assert t.events == [("reveal_row", "X", 2, (H, C, C, C))]
        m.shift(1, t)  # face down again: neither raises
        pile_shift_shuffle(m, RandomSource(0))

    @pytest.mark.parametrize(("row", "hearts"), [((C, C, C), 0), ((H, C, H), 2)])
    def test_read_heart_malformed_stays_face_up(self, row, hearts):
        m = Matrix.from_rows("X", 3, [mask_of(row)])
        message = f"matrix X row 1: expected exactly one heart, saw {hearts}$"
        with pytest.raises(MalformedCommitmentError, match=message):
            m.cut_and_read(ReplaySource([0]), DrawSite("X", 1), Transcript())
        with pytest.raises(RuntimeError, match="cards are face-up"):
            m.shift(1, Transcript())


def paper_draw(m: Matrix, rng, row: int, t: Transcript, align_to: int | None) -> int:
    """The paper's steps that ``Matrix.cut_and_read`` fuses: a pile-shifting
    shuffle, the reveal of one row read through ``_ONE_HEART``, then, given a
    target, the public shift that brings the heart there."""
    pile_shift_shuffle(m, rng)
    faces = m.reveal_row(row, t)
    j = _ONE_HEART.get(faces)
    if j is None:
        raise MalformedCommitmentError(
            f"matrix {m.id} row {row}: expected exactly one heart, saw {faces.count(H)}"
        )
    m._face_up = 0
    if align_to is not None:
        m.shift(align_to - j, t)
    return j


@st.composite
def draw_cases(draw):
    """(width, row masks, offset, face up, row, target, draw) of one secret draw;
    a row mask is as likely to hold one heart as to be any mask of the width."""
    width = draw(st.integers(1, 7))
    mask = st.one_of(
        st.integers(0, width - 1).map(lambda i: 1 << i), st.integers(0, (1 << width) - 1)
    )
    rows = draw(st.lists(mask, min_size=1, max_size=4))
    return (
        width,
        rows,
        draw(st.integers(0, width - 1)),
        draw(st.booleans()),
        draw(st.integers(1, len(rows))),
        draw(st.none() | st.integers(-width, 2 * width)),
        draw(st.integers(0, width - 1)),
    )


class TestCutAndRead:
    @staticmethod
    def run(draw_fn, case):
        """What one draw made by ``draw_fn`` returns or raises, logs, draws and
        leaves behind."""
        width, rows, offset, face_up, row, align_to, r = case
        m = rotated(Matrix.from_rows("X", width, list(rows)), offset)
        m._face_up = width if face_up else 0
        rng, t = ReplaySource([r]), Transcript()
        rng.trail = []
        try:
            result = draw_fn(m, rng, row, t, align_to)
        except (MalformedCommitmentError, RuntimeError) as error:
            result = (type(error), str(error))
        return result, t.events, m.offset, m._face_up, rng.trail, m.rows

    @given(draw_cases(), st.booleans())
    @settings(max_examples=300, deadline=None)
    def test_equals_the_paper_composition(self, case, marked):
        # Twice through one site: the first draw fills the site's table (a
        # miss), the second reads the entry back (a hit) and logs the same
        # tuples. A draw of face-up cards raises before either. A site with
        # marks logs the enter mark, the composition's events and the exit
        # mark, a malformed row's reveal included.
        _, _, _, face_up, row, align_to, _ = case
        enter, leave = marks("demo")
        site = DrawSite("X", row, align_to, (enter, leave) if marked else None)

        def site_draw(m, rng, row, t, align_to):
            return m.cut_and_read(rng, site, t)

        def entries():
            return sum(len(layer) for layers in site.values() for layer in layers)

        expected = self.run(paper_draw, case)
        if marked and not face_up:
            result, events, *rest = expected
            expected = (result, [enter, *events, leave], *rest)
        missed = self.run(site_draw, case)
        filled = entries()
        hit = self.run(site_draw, case)
        assert missed == hit == expected
        assert (filled > 0) != face_up and entries() == filled
        assert all(a is b for a, b in zip(missed[1], hit[1], strict=True))

    def test_aligns_the_heart_to_the_target(self):
        # An indicator under a draw of 3 shows its heart at 4 of 6, and the
        # shift of 3 brings it back to 1: the realignment's draw.
        m, t = Matrix.from_rows("X", 6, [encode(1, 6)]), Transcript()
        assert m.cut_and_read(ReplaySource([3]), DrawSite("X", 1, 1), t) == 4
        assert t.events == [("reveal_row", "X", 1, (C, C, C, H, C, C)), ("shift", "X", 3)]
        assert decode(m.take_row(1)) == 1


# A realignment's draw site on matrix X, built as the protocol's table builds
# its three: Row 1's heart aligned to column 1, between the step's marks.
REALIGN_X = DrawSite("X", 1, 1, marks("rearr:X"))


class TestRearrangement:
    def test_heart_returns_to_column_one(self):
        for seed in range(30):
            m = Matrix.from_rows("X", 6, [encode(1, 6)])
            m.rotate(seed % 6)
            rearrangement(m, RandomSource(seed), REALIGN_X, Transcript())
            assert decode(m.take_row(1)) == 1

    def test_single_column_noop(self):
        m = Matrix.from_rows("X", 1, [encode(1, 1)])
        rearrangement(m, RandomSource(3), REALIGN_X, Transcript())
        assert decode(m.take_row(1)) == 1

    def test_corotated_row_restored(self):
        # A second row rotated in lockstep realigns to its original value.
        for seed in range(100):
            m = Matrix.from_rows("X", 6, [encode(1, 6), encode(4, 6)])
            m.rotate(seed % 6)
            rearrangement(m, RandomSource(seed), REALIGN_X, Transcript())
            assert decode(m.take_row(2)) == 4

    def test_malformed_rows_rejected(self):
        for bad_row in ((H, H, C, C), (C, C, C, C)):
            m = Matrix.from_rows("X", 4, [mask_of(bad_row)])
            with pytest.raises(MalformedCommitmentError):
                rearrangement(m, RandomSource(0), REALIGN_X, Transcript())

    def test_reveal_position_uniform(self):
        # Transcript secrecy: the revealed heart column says nothing about
        # the column's original position.
        counts = Counter()
        for seed in range(10_000):
            m = Matrix.from_rows("X", 6, [encode(1, 6)])
            m.rotate(seed % 6)
            t = Transcript()
            rearrangement(m, RandomSource(seed), REALIGN_X, t)
            faces = next(ev[3] for ev in t.events if ev[0] == "reveal_row")
            counts[faces.index(H) + 1] += 1
        assert uniform_p(counts, 6) > 1e-4

    def test_events_shape(self):
        m = Matrix.from_rows("M1", 4, [encode(1, 4), encode(2, 4)])
        t = Transcript()
        # The protocol's own step-6 site, from its card-count-4 table.
        rearrangement(m, StubRng(offsets=[1]), draw_sites(4)[1], t)
        assert [ev[0] for ev in t.events] == ["mark", "reveal_row", "shift", "mark"]
        assert t.events[0] == ("mark", "rearr:M1", "enter")
        assert t.events[2] == ("shift", "M1", 3)  # left by (j-1)=1 on width 4

    def test_refused_realignment_logs_nothing(self):
        # Face-up cards refuse the draw before it is made: no marks, no
        # reveal, no trail record.
        m = Matrix.from_rows("X", 4, [encode(1, 4)])
        m.reveal_row(1, Transcript())
        rng, t = RandomSource(0, trail=[]), Transcript()
        with pytest.raises(RuntimeError, match="matrix X: cards are face-up"):
            rearrangement(m, rng, REALIGN_X, t)
        assert t.events == [] and rng.trail == []


class TestMatrixState:
    def test_take_and_put_segment(self):
        piles = [mask_of((C, H, C)), mask_of((H, C, C)), mask_of((C, C, H))]
        m = Matrix("X", 3, piles=piles, depth=3)
        m.rotate(1)
        before = m.snapshot()
        cards = m.take_segment(3, 2)  # columns 3 and 1, wrapping
        assert [faces_of(3, pile) for pile in cards] == [(H, C, C), (C, C, H)]
        m.put_segment(3, cards)
        assert m.snapshot() == before

    def test_put_onto_occupied_rejected(self):
        m = Matrix("X", 2, piles=[mask_of((C, H)), mask_of((H, C))], depth=2)
        with pytest.raises(RuntimeError, match="occupied"):
            m.put_segment(1, [mask_of((C, C))])
        cards = m.take_segment(1, 2)
        m.put_segment(1, cards[:1])
        with pytest.raises(RuntimeError, match="occupied"):
            m.put_segment(1, cards)

    def test_take_from_a_gap_rejected(self):
        m = Matrix("X", 1, piles=[0b1], depth=1)
        assert m.take_segment(1, 1) == [0b1]
        with pytest.raises(RuntimeError, match="empty spots"):
            m.take_segment(1, 1)

    def test_take_past_the_width_rejected(self):
        m = Matrix("X", 2, piles=[0b1, 0b0], depth=1)
        with pytest.raises(RuntimeError, match="storage seam"):
            m.take_segment(2, 3)

    def test_put_of_a_deeper_pile_rejected(self):
        m = Matrix("X", 1, piles=[0b1], depth=1)
        m.take_segment(1, 1)
        with pytest.raises(ValueError, match="deeper"):
            m.put_segment(1, [0b10])
        m.put_segment(1, [0b1])
        assert m.snapshot() == (0b1,)

    def test_failed_take_from_a_gap_moves_nothing(self):
        m = Matrix("X", 4, [], [1, 2, None, 4], 3)
        with pytest.raises(RuntimeError, match="empty spots"):
            m.take_segment(1, 4)
        assert m.piles == [1, 2, None, 4]
        m.put_segment(3, [0b100])
        assert m.snapshot() == (1, 2, 4, 4)

    def test_failed_moves_past_the_width_move_nothing(self):
        # Column 3 shows storage column 0, so a run of the whole width from
        # there is one storage run, and a longer one crosses the seam.
        m = Matrix("X", 3, [0b001], [1, 2, 3], 2)
        m.rotate(2)
        before = m.snapshot()
        with pytest.raises(RuntimeError, match="storage seam"):
            m.take_segment(3, 4)
        assert m.piles == [1, 2, 3] and m.snapshot() == before
        run = m.take_segment(3, 3)
        with pytest.raises(RuntimeError, match="storage seam"):
            m.put_segment(3, [*run, 0])
        assert m.piles == [None, None, None]
        m.put_segment(3, run)
        assert m.snapshot() == before

    def test_failed_put_onto_occupied_moves_nothing(self):
        m = Matrix("X", 3, [0b010], [1, 2, 3], 2)
        m.rotate(1)
        before = m.snapshot()
        run = m.take_segment(2, 2)  # visible columns 2 and 3, stored at 0 and 1
        with pytest.raises(RuntimeError, match="occupied"):
            m.put_segment(2, [*run, 0])
        assert m.pile_masks() == [3, None, None]
        m.put_segment(2, run)
        assert m.snapshot() == before

    def test_failed_put_of_a_deeper_pile_moves_nothing(self):
        m = Matrix("X", 3, [0b100], [1, 2, 3], 2)
        m.rotate(2)
        before = m.snapshot()
        run = m.take_segment(3, 3)
        with pytest.raises(ValueError, match="deeper"):
            m.put_segment(3, [run[0], run[1], 0b100])
        assert m.piles == [None, None, None]
        m.put_segment(3, run)
        assert m.snapshot() == before

    def test_put_wrapping_past_the_last_storage_column_moves_nothing(self):
        # Two takes leave the last and the first column empty; one put that
        # wraps from the last column crosses the storage seam and raises,
        # and one put per storage run fills both and reads as before.
        rows = [mask_of((C, H, C, C)), mask_of((C, C, H, H))]
        m = Matrix("X", 4, rows, [0b01, 0b10, 0b11, 0b00], 2)
        t = Transcript()

        def shown():
            return m.pile_masks(), [m.reveal_row(row, t) for row in (1, 2)]

        before = shown()
        (last,) = m.take_segment(4, 1)
        (first,) = m.take_segment(1, 1)
        with pytest.raises(RuntimeError, match="storage seam"):
            m.put_segment(4, [last, first])
        assert (m.piles, m.offset) == ([None, 0b10, 0b11, None], 0)
        m.put_segment(4, [last])
        m.put_segment(1, [first])
        assert shown() == before

    def test_remove_columns_outside_the_width_moves_nothing(self):
        m = Matrix("X", 3, [0b101], [1, 2, 3], 2)
        m.rotate(1)
        before = m.n_cols, m.offset, list(m.rows), list(m.piles), m.snapshot()
        for lo, hi in ((2, 5), (0, 1), (3, 2), (4, 4)):
            with pytest.raises(ValueError, match="not within"):
                m.remove_columns(lo, hi)
            assert (m.n_cols, m.offset, m.rows, m.piles, m.snapshot()) == before

    def test_take_row_leaves_a_hole(self):
        # A full turn leaves offset 0, where a row may be taken.
        m = Matrix.from_rows("X", 3, [mask_of((C, H, C)), mask_of((H, C, C))])
        m.rotate(1)
        m.rotate(2)
        assert faces_of(3, m.take_row(1)) == (C, H, C)
        t = Transcript()
        with pytest.raises(RuntimeError, match="revealing row 1 from an empty spot"):
            m.reveal_row(1, t)
        assert t.events == [] and m._face_up == 0
        assert m.rows[1] == mask_of((H, C, C))

    def test_takes_under_two_rotations_read_in_visible_order(self):
        # A take under a rotation raises and takes nothing; once a second
        # rotation completes the turn, it reads the row in visible order.
        rows = [mask_of((C, H, C, C)), mask_of((H, C, C, C))]
        m = Matrix.from_rows("X", 4, rows)
        for row, shown in ((1, (C, H, C, C)), (2, (H, C, C, C))):
            m.rotate(row)
            with pytest.raises(RuntimeError, match=f"taking a row under offset {row}"):
                m.take_row(row)
            assert m.rows[row - 1] is not None
            m.rotate(4 - row)
            assert faces_of(4, m.take_row(row)) == shown

    # Each move outside the protocol's one-run layout, as (error, message,
    # call) on a matrix of two row masks over piles two cards deep, rotated
    # by 1: visible column 1 shows storage column 2, the last, so a run of
    # two from it crosses the storage seam. The permute cases take a matrix
    # with row masks alone or a rotation alone, the take_row range cases a
    # matrix at offset 0, which only the range check refuses, the second
    # take of a row a matrix at offset 0 whose row 1 is already out, and a
    # draw at that taken row the same rows rotated, as (row masks, offset).
    UNROTATED_MOVES = {
        "take_segment": (RuntimeError, "storage seam", lambda m, t: m.take_segment(1, 2)),
        "put_segment": (RuntimeError, "storage seam", lambda m, t: m.put_segment(1, [0, 0])),
        "remove_columns": (ValueError, "storage seam", lambda m, t: m.remove_columns(1, 2)),
        "take_row": (RuntimeError, "under offset 1", lambda m, t: m.take_row(1)),
        "take_row_of_row_0": (ValueError, "row 0 is not a row mask", lambda m, t: m.take_row(0)),
        "take_row_below_the_row_masks": (
            ValueError, "row 3 is not a row mask", lambda m, t: m.take_row(3),
        ),
        "take_row_already_taken": (
            RuntimeError, "taking row 1 from an empty spot", lambda m, t: m.take_row(1),
        ),
        "append_columns": (
            ValueError,
            "block Y is rotated",
            lambda m, t: m.append_columns(rotated(Matrix("Y", 2, [0, 0], [0, 0], 2), 1)),
        ),
        "reveal_row_of_a_pile": (
            ValueError, "row 3 is not a row mask", lambda m, t: m.reveal_row(3, t),
        ),
        "reveal_row_above_the_matrix": (
            ValueError, "row 0 is not a row mask", lambda m, t: m.reveal_row(0, t),
        ),
        # An empty replay raises on any draw, so these show that nothing is drawn.
        "cut_and_read_of_a_pile": (
            ValueError, "row 3 is not a row mask",
            lambda m, t: m.cut_and_read(ReplaySource([]), DrawSite("X", 3, 1), t),
        ),
        "cut_and_read_above_the_matrix": (
            ValueError, "row 0 is not a row mask",
            lambda m, t: m.cut_and_read(ReplaySource([]), DrawSite("X", 0, 1), t),
        ),
        "cut_and_read_at_a_site_of_another_matrix": (
            ValueError, "drawing at a site of matrix Y",
            lambda m, t: m.cut_and_read(ReplaySource([]), DrawSite("Y", 1, 1), t),
        ),
        "cut_and_read_of_a_taken_row": (
            RuntimeError, "drawing row 1 from an empty spot",
            lambda m, t: m.cut_and_read(ReplaySource([]), DrawSite("X", 1, 1), t),
        ),
        "split_rows_below_the_row_masks": (
            ValueError, "cutting 3 rows below", lambda m, t: m.split_rows(3, "T", "B"),
        ),
        "permute_row_masks": (
            RuntimeError, "permuting 2 row masks under offset 0", lambda m, t: m.permute([0, 1, 2]),
        ),
        "permute_under_an_offset": (
            RuntimeError, "permuting 0 row masks under offset 1", lambda m, t: m.permute([0, 1, 2]),
        ),
        "reveal_segment_outside_the_matrix": (
            ValueError, r"rows 2\.\.5 not within 1\.\.4", lambda m, t: m.reveal_segment(1, 2, 5, t),
        ),
        "reveal_segment_column_outside_the_matrix": (
            ValueError, "column 4 not within 1..3", lambda m, t: m.reveal_segment(4, 1, 2, t),
        ),
        "reveal_segment_column_left_of_the_matrix": (
            ValueError, "column 0 not within 1..3", lambda m, t: m.reveal_segment(0, 1, 2, t),
        ),
        "take_segment_column_left_of_the_matrix": (
            ValueError, "column 0 not within 1..3", lambda m, t: m.take_segment(0, 1),
        ),
        "take_segment_column_right_of_the_matrix": (
            ValueError, "column 4 not within 1..3", lambda m, t: m.take_segment(4, 1),
        ),
        "put_segment_column_left_of_the_matrix": (
            ValueError, "column 0 not within 1..3", lambda m, t: m.put_segment(0, [0]),
        ),
        "put_segment_column_right_of_the_matrix": (
            ValueError, "column 4 not within 1..3", lambda m, t: m.put_segment(4, [0]),
        ),
        "split_rows_of_a_negative_count": (
            ValueError, "cutting -1 rows", lambda m, t: m.split_rows(-1, "T", "B"),
        ),
    }
    LAYOUTS = {
        "permute_row_masks": ([0b101, 0b010], 0),
        "permute_under_an_offset": ([], 1),
        "take_row_of_row_0": ([0b101, 0b010], 0),
        "take_row_below_the_row_masks": ([0b101, 0b010], 0),
        "take_row_already_taken": ([None, 0b010], 0),
        "cut_and_read_of_a_taken_row": ([None, 0b010], 1),
    }

    @pytest.mark.parametrize("move", sorted(UNROTATED_MOVES))
    def test_move_needing_a_rotated_storage_moves_nothing(self, move):
        error, message, call = self.UNROTATED_MOVES[move]
        rows, offset = self.LAYOUTS.get(move, ([0b101, 0b010], 1))
        m, t = rotated(Matrix("X", 3, list(rows), [1, 2, 3], 2), offset), Transcript()
        assert_moves_nothing(m, error, message, lambda: call(m, t))
        assert t.events == []

    def test_split_and_append(self):
        m = Matrix("X", 3, [0b101, 0b110], [0, 0, 0], 2)
        top, bottom = m.split_rows(2, "T", "B")
        assert top.n_rows == 2 and bottom.n_rows == 2
        assert top.snapshot() == (1, 2, 3) and bottom.snapshot() == (0, 0, 0)
        bottom.append_columns(Matrix("Y", 1, piles=[mask_of((H, H))], depth=2))
        assert bottom.n_cols == 4
        before = bottom.snapshot()
        assert before[3:] == (mask_of((H, H)),)
        bottom.remove_columns(4, 4)
        assert bottom.n_cols == 3 and bottom.snapshot() == before[:3]

    def test_append_and_remove_under_rotation(self):
        # A rotated matrix takes an unrotated block after its last visible
        # column and gives it back; a rotated block, or a cut across the
        # storage seam, raises and moves nothing.
        m = Matrix("X", 3, [mask_of((H, C, C))], [1, 2, 3], 2)
        m.rotate(2)
        before = m.snapshot()
        block = Matrix("Y", 2, [mask_of((C, H))], [0b11, 0b00], 2)
        block.rotate(1)
        with pytest.raises(ValueError, match="block Y is rotated"):
            m.append_columns(block)
        assert (m.n_cols, m.snapshot(), block.snapshot()) == (3, before, (0b001, 0b110))
        block.rotate(1)  # a full turn: shows (0b110, 0b001)
        m.append_columns(block)
        assert m.snapshot() == (*before, 0b110, 0b001)
        m.shift(1, Transcript())
        assert m.snapshot() == (0b001, *before, 0b110)
        m.shift(-1, Transcript())
        with pytest.raises(ValueError, match="storage seam"):
            m.remove_columns(2, 3)  # storage columns 4 and 0
        assert m.snapshot() == (*before, 0b110, 0b001)
        m.remove_columns(4, 5)
        assert m.snapshot() == before

    def test_append_requires_matching_layout(self):
        m = Matrix("X", 2, [0b01], [0, 0], 1)
        with pytest.raises(ValueError, match="line up"):
            m.append_columns(Matrix("Y", 1, piles=[0], depth=2))

    def test_from_rows_rejects_ragged(self):
        with pytest.raises(ValueError):
            Matrix.from_rows("X", 1, [mask_of((C, H)), mask_of((C,))])


@st.composite
def matrix_and_ops(draw):
    rows = draw(st.integers(1, 4))
    cols = draw(st.integers(1, 5))
    faces = [
        [draw(st.sampled_from([C, H])) for _ in range(rows)] for _ in range(cols)
    ]
    ops = draw(
        st.lists(
            st.sampled_from(["pile_shift", "scramble", "shift", "reveal"]),
            max_size=6,
        )
    )
    seed = draw(st.integers(0, 2**16))
    return faces, ops, seed


class TestInvariants:
    @given(matrix_and_ops())
    @settings(max_examples=100, deadline=None)
    def test_multiset_conservation(self, case):
        faces, ops, seed = case
        m = Matrix("X", len(faces), piles=[mask_of(col) for col in faces], depth=len(faces[0]))
        before = sorted(mask_of(col) for col in faces)
        rng = RandomSource(seed)
        t = Transcript()
        for op in ops:
            if op == "pile_shift":
                pile_shift_shuffle(m, rng)
            elif op == "scramble" and m.offset:
                assert_moves_nothing(
                    m, RuntimeError, "under offset", lambda: pile_scramble_shuffle(m, rng)
                )
            elif op == "scramble":
                pile_scramble_shuffle(m, rng)
            elif op == "shift":
                m.shift(rng.offset(m.n_cols + 1), t)
            else:
                m.reveal_segment(1, 1, m.n_rows, t)
                m._face_up = 0  # face down again
        after = sorted(m.snapshot())
        assert after == before

    @given(
        st.integers(2, 6),
        st.lists(st.integers(-7, 7), min_size=1, max_size=6),
    )
    @settings(max_examples=100, deadline=None)
    def test_rotations_compose_to_net_offset(self, width, offsets):
        m = labeled_matrix(3, width)
        for off in offsets:
            m.rotate(off)
        net = labeled_matrix(3, width)
        net.rotate(sum(offsets))
        assert column_labels(m) == column_labels(net)
        # Relative cyclic order never changes.
        labels = column_labels(m)
        start = labels.index(1)
        assert [labels[(start + i) % width] for i in range(width)] == list(
            range(1, width + 1)
        )


class ColumnModel:
    """Reference model: a matrix as a list of face lists, one per column."""

    def __init__(self, cols):
        self.cols = [list(col) for col in cols]

    def rotate(self, offset):
        o = offset % len(self.cols)
        self.cols = self.cols[-o:] + self.cols[:-o] if o else self.cols

    def faces(self):
        return tuple(tuple(col) for col in self.cols)


def as_matrix(cols, top_rows) -> Matrix:
    """The mask Matrix holding face columns ``cols``, the first ``top_rows`` rows as row masks."""
    rows = [mask_of(tuple(col[i] for col in cols)) for i in range(top_rows)]
    piles = [mask_of(col[top_rows:]) for col in cols]
    return Matrix("X", len(cols), rows, piles, len(cols[0]) - top_rows)


def column_faces(m: Matrix) -> tuple:
    return tuple(faces_of(m.n_rows, col) for col in m.snapshot())


@st.composite
def model_cases(draw):
    height = draw(st.integers(1, 5))
    top_rows = draw(st.integers(0, height))
    width = draw(st.integers(1, 5))
    face = st.sampled_from([C, H])
    cols = [[draw(face) for _ in range(height)] for _ in range(width)]
    ops = draw(st.lists(st.tuples(
        st.sampled_from(
            ["rotate", "permute", "reveal_row", "reveal_segment", "reveal_all", "append",
             "remove", "take_put"]
        ),
        st.integers(0, 2**16),
    ), max_size=8))
    return cols, top_rows, ops


class TestColumnModel:
    @given(model_cases())
    # A rotated append onto a row whose heart lies past the insertion point:
    # append_columns's mask must clear the heart from its old storage column.
    @example(([[C, H], [C, C], [H, C]], 1, [("rotate", 1), ("append", 2)]))
    @settings(max_examples=200, deadline=None)
    def test_matrix_matches_column_model(self, case):
        # Every move and reveal of the mask Matrix agrees with the same move
        # on plain face columns, whatever the split between row masks and piles.
        cols, top_rows, ops = case
        m, ref, t = as_matrix(cols, top_rows), ColumnModel(cols), Transcript()
        for op, seed in ops:
            rnd = random.Random(seed)
            width, height = m.n_cols, m.n_rows
            if op == "rotate":
                offset = rnd.randint(-7, 7)
                m.rotate(offset)
                ref.rotate(offset)
            elif op == "permute":
                perm = list(range(width))
                rnd.shuffle(perm)
                if m.rows or m.offset:
                    assert_moves_nothing(m, RuntimeError, "permuting", lambda: m.permute(perm))
                else:
                    m.permute(perm)
                    ref.cols = [ref.cols[i] for i in perm]
            elif op == "reveal_row":
                row, shown = rnd.randint(1, height), len(t.events)
                if row > len(m.rows):
                    assert_moves_nothing(
                        m, ValueError, "not a row mask", lambda: m.reveal_row(row, t)
                    )
                    assert len(t.events) == shown
                else:
                    assert m.reveal_row(row, t) == tuple(col[row - 1] for col in ref.cols)
                    m._face_up = 0  # face down again
            elif op == "reveal_segment":
                col, lo = rnd.randint(1, width), rnd.randint(1, height)
                hi = rnd.randint(lo, height)
                assert m.reveal_segment(col, lo, hi, t) == tuple(ref.cols[col - 1][lo - 1:hi])
                m._face_up = 0  # face down again
            elif op == "reveal_all":
                shown = len(t.events)
                assert m.reveal_all(t) == ref.faces()
                assert t.events[shown:] == [("reveal_all", "X", ref.faces())]
                assert m._face_up == width * height
                m._face_up = 0  # face down again
            elif op == "append":
                block_cols = [[rnd.choice([C, H]) for _ in range(height)] for _ in range(2)]
                block, block_ref = as_matrix(block_cols, len(m.rows)), ColumnModel(block_cols)
                block.rotate(seed)
                block_ref.rotate(seed)
                if block.offset:
                    assert_moves_nothing(m, ValueError, "rotated", lambda: m.append_columns(block))
                else:
                    m.append_columns(block)
                    ref.cols += block_ref.cols
            elif op == "remove" and width > 1:
                lo = rnd.randint(1, width - 1)
                hi = rnd.randint(lo, width - 1)
                if crosses_seam(m, lo, hi - lo + 1):
                    assert_moves_nothing(
                        m, ValueError, "storage seam", lambda: m.remove_columns(lo, hi)
                    )
                else:
                    assert column_faces(m)[lo - 1:hi] == tuple(
                        tuple(col) for col in ref.cols[lo - 1:hi]
                    )
                    m.remove_columns(lo, hi)
                    del ref.cols[lo - 1:hi]
            elif op == "take_put":
                # A run of whole piles from a random column, which may wrap
                # past the right edge but not past the last storage column.
                col, count, top = rnd.randint(1, width), rnd.randint(1, width), len(m.rows)
                if crosses_seam(m, col, count):
                    for move in (lambda: m.take_segment(col, count),
                                 lambda: m.put_segment(col, [0] * count)):
                        assert_moves_nothing(m, RuntimeError, "storage seam", move)
                else:
                    run = m.take_segment(col, count)
                    assert [faces_of(m.depth, pile) for pile in run] == [
                        tuple(ref.cols[(col - 1 + i) % width][top:]) for i in range(count)
                    ]
                    m.put_segment(col, run)
            assert column_faces(m) == ref.faces()
        cut = len(m.rows)
        if m.depth:
            assert_moves_nothing(
                m, ValueError, "below the row masks", lambda: m.split_rows(cut + 1, "T", "B")
            )
        top, bottom = m.split_rows(cut, "T", "B")
        assert column_faces(top) == tuple(tuple(col[:cut]) for col in ref.cols)
        assert column_faces(bottom) == tuple(tuple(col[cut:]) for col in ref.cols)

    def test_remove_columns_every_run(self):
        # Every visible run under every offset, the last column and the whole
        # width included: each that lies in one storage run is cut, and each
        # that crosses the storage seam raises; distinct columns show any
        # misplaced one.
        rnd = random.Random(28)
        for width in range(1, 7):
            for offset in range(width):
                for lo in range(1, width + 1):
                    for hi in range(lo, width + 1):
                        labels = rnd.sample(range(8), width)
                        cols = [[label >> i & 1 for i in range(3)] for label in labels]
                        m, ref = as_matrix(cols, 2), ColumnModel(cols)
                        m.rotate(offset)
                        ref.rotate(offset)
                        if crosses_seam(m, lo, hi - lo + 1):
                            assert_moves_nothing(
                                m, ValueError, "storage seam", lambda: m.remove_columns(lo, hi)
                            )
                            continue
                        before = column_faces(m)
                        assert before[lo - 1:hi] == tuple(map(tuple, ref.cols[lo - 1:hi]))
                        m.remove_columns(lo, hi)
                        del ref.cols[lo - 1:hi]
                        assert m.n_cols == len(ref.cols)
                        assert column_faces(m) == ref.faces()


# One event per tag, and the index of its faces field (None for none).
# (sample event, index of its faces field) per tag, and the fields that a
# skeleton() line shows beside the faces, which it shows only as a width or
# shape.
SKELETON_FIELDS = {
    "mark": (1, 2),
    "shift": (1,),
    "reveal_row": (1, 2),
    "reveal_segment": (1, 3, 4),
    "reveal_all": (1,),
    "verdict": (1, 2, 3),
}
SKELETON_SAMPLES = {
    "mark": (("mark", "demo", "enter"), None),
    "shift": (("shift", "X", 1), None),
    "reveal_row": (("reveal_row", "X", 1, (H, C)), 3),
    "reveal_segment": (("reveal_segment", "X", 2, 1, 2, (C, C)), 5),
    "reveal_all": (("reveal_all", "R:a", ((H, C), (C, H))), 2),
    "verdict": (("verdict", "reject", "distance", "1,1:right"), None),
}


class TestTranscript:
    def test_serialization_schema(self):
        t = Transcript()
        enter, leave = marks("demo")
        t.events.append(enter)
        m = Matrix.from_rows("X", 2, [mask_of((C, H)), mask_of((H, C))])
        m.cut_and_read(ReplaySource([0]), DrawSite("X", 1, 1), t)
        m.reveal_segment(2, 1, 2, t)
        m.reveal_all(t)
        t.events.append(leave)
        t.events.append(("verdict", "accept", None, None))
        assert t.serialize() == (
            "mark name=demo kind=enter\n"
            "reveal_row m=X row=1 faces=CH\n"
            "shift m=X offset=1\n"
            "reveal_segment m=X col=2 rows=1..2 faces=CH\n"
            "reveal_all m=X cols=HC|CH\n"
            "mark name=demo kind=exit\n"
            "verdict outcome=accept reason=none loc=none\n"
        )

    def test_skeleton_strips_chance(self):
        t1, t2 = Transcript(), Transcript()
        for t, faces in ((t1, (H, C, C)), (t2, (C, C, H))):
            m = Matrix.from_rows("X", 3, [mask_of(faces)])
            m.cut_and_read(ReplaySource([0]), DrawSite("X", 1), t)
            m.shift(faces.index(H), t)
        assert t1.serialize() != t2.serialize()
        assert t1.skeleton() == t2.skeleton()

    @pytest.mark.parametrize("tag", sorted(_EVENT_LINES))
    def test_skeleton_shows_listed_fields(self, tag):
        # SKELETON_FIELDS lists exactly the fields a skeleton line shows.
        event, faces_field = SKELETON_SAMPLES[tag]

        def skeleton(ev):
            t = Transcript()
            t.events.append(ev)
            return t.skeleton()

        for index in range(1, len(event)):
            if index == faces_field:
                continue
            value = event[index]
            edited = (value + 1) if isinstance(value, int) else f"{value}x"
            changed = skeleton(event[:index] + (edited,) + event[index + 1:]) != skeleton(event)
            assert changed == (index in SKELETON_FIELDS[tag]), index

    def test_empty_serialize(self):
        assert Transcript().serialize() == ""

    @pytest.mark.parametrize("render", ["serialize", "skeleton"])
    def test_unknown_event_rejected(self, render):
        t = Transcript()
        t.events.append(("bogus", "X"))
        sizes = len(_SERIALIZE_LINES), len(_SKELETON_LINES)
        with pytest.raises(ValueError, match="unknown event 'bogus'"):
            getattr(t, render)()
        assert (len(_SERIALIZE_LINES), len(_SKELETON_LINES)) == sizes

    def test_marks_are_shared(self):
        pair = marks("demo")
        assert pair == (("mark", "demo", "enter"), ("mark", "demo", "exit"))
        again = marks("demo")
        assert again is pair and again[0] is pair[0] and again[1] is pair[1]

    @pytest.mark.parametrize("first", ["serialize", "skeleton"])
    def test_renderers_do_not_depend_on_order(self, first, sample7x7, sample7x7_solution):
        # The two line tables fill independently: each renders the same
        # bytes whether or not the other has already seen the events.
        t = run_protocol(sample7x7, ProverInput(sample7x7_solution), RandomSource(3)).transcript
        _SERIALIZE_LINES.clear()
        _SKELETON_LINES.clear()
        second = "skeleton" if first == "serialize" else "serialize"
        rendered = {first: getattr(t, first)(), second: getattr(t, second)()}
        _SERIALIZE_LINES.clear()
        _SKELETON_LINES.clear()
        assert rendered == {"serialize": t.serialize(), "skeleton": t.skeleton()}
        assert rendered["serialize"].count("\n") == rendered["skeleton"].count("\n") == len(t.events)

    def test_tables_keep_no_room_reveal(self, sample7x7, sample7x7_solution):
        t = run_protocol(sample7x7, ProverInput(sample7x7_solution), RandomSource(4)).transcript
        t.serialize()
        t.skeleton()
        assert any(ev[0] == "reveal_all" for ev in t.events)
        for table in (_SERIALIZE_LINES, _SKELETON_LINES):
            assert table
            assert not [ev for ev in table if ev[0] == "reveal_all"]
