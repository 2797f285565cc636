from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ripple_zkp.audit import chi2_sf
from ripple_zkp.cards import (
    CLUB,
    HEART,
    AuditTrail,
    MalformedCommitmentError,
    Matrix,
    RandomSource,
    Transcript,
    decode,
    encode,
    pile_scramble_shuffle,
    pile_shift_shuffle,
    rearrangement,
)

C, H = CLUB, HEART


class StubRng:
    """Scripted draws for replaying the worked shuffle examples."""

    def __init__(self, offsets=(), perms=()):
        self._offsets = list(offsets)
        self._perms = list(perms)

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
        assert encode(1, 3) == [H, C, C]
        assert encode(3, 4) == [C, C, H, C]
        assert encode(0, 5) == [C] * 5

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            encode(4, 3)
        with pytest.raises(ValueError):
            encode(-1, 3)

    def test_decode(self):
        assert decode([C, C, H, C]) == 3
        assert decode([C, C, C]) == 0
        assert decode([H, H, C]) is None

    def test_roundtrip_exhaustive(self):
        for y in range(1, 9):
            for x in range(0, y + 1):
                assert decode(encode(x, y)) == x

    @given(st.integers(1, 30).flatmap(lambda y: st.tuples(st.just(y), st.integers(0, y))))
    def test_roundtrip_property(self, pair):
        y, x = pair
        assert decode(encode(x, y)) == x


def labeled_matrix(rows: int, cols: int) -> Matrix:
    # Column j carries the label j in every row; lets snapshots trace moves.
    return Matrix("X", [[j + 1] * rows for j in range(cols)])


def column_labels(m: Matrix) -> list[int]:
    return [col[0] for col in m.cols]


class TestShuffles:
    def test_pile_shift_worked_example(self):
        m = labeled_matrix(5, 6)
        pile_shift_shuffle(m, StubRng(offsets=[2]))
        assert column_labels(m) == [5, 6, 1, 2, 3, 4]

    def test_pile_shift_identity(self):
        m = labeled_matrix(5, 6)
        pile_shift_shuffle(m, StubRng(offsets=[0]))
        assert column_labels(m) == [1, 2, 3, 4, 5, 6]

    def test_pile_shift_uniform(self):
        counts = Counter()
        for seed in range(10_000):
            m = Matrix.from_rows("S", [encode(4, 6)])
            pile_shift_shuffle(m, RandomSource(seed))
            position = decode(m.reveal_row(1, Transcript()))
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
        m = labeled_matrix(2, 4)
        t = Transcript()
        audit = AuditTrail()
        pile_shift_shuffle(m, StubRng(offsets=[3]), audit)
        assert audit.records == [("pile_shift", "X", 3)]
        assert t.events == []  # nothing observable happened

    def test_shuffle_requires_face_down(self):
        m = labeled_matrix(2, 4)
        m.reveal_row(1, Transcript())
        with pytest.raises(RuntimeError, match="face-up"):
            pile_shift_shuffle(m, RandomSource(0))


class TestShift:
    def test_identity(self):
        m = labeled_matrix(2, 6)
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
        m = labeled_matrix(2, 4)
        t = Transcript()
        m.shift(-1, t)
        assert column_labels(m) == [2, 3, 4, 1]
        assert t.events == [("shift", "X", 3)]


class TestReveal:
    def test_rotated_indicator(self):
        m = Matrix.from_rows("X", [encode(1, 6)])
        m.rotate(2)
        faces = m.reveal_row(1, Transcript())
        assert faces.index(H) + 1 == 3

    def test_no_heart_row(self):
        m = Matrix.from_rows("X", [encode(0, 4)])
        assert H not in m.reveal_row(1, Transcript())

    def test_unshuffled_encoding(self):
        m = Matrix.from_rows("X", [encode(3, 4)])
        assert m.reveal_row(1, Transcript()).index(H) + 1 == 3

    def test_segment_all_clubs(self):
        m = Matrix.from_rows("X", [[C, C], [C, C], [C, C]])
        assert m.reveal_segment(1, 1, 3, Transcript()) == (C, C, C)

    def test_segment_with_heart(self):
        m = Matrix.from_rows("X", [[C, C], [H, C]])
        assert H in m.reveal_segment(1, 1, 2, Transcript())

    def test_empty_segment(self):
        m = Matrix.from_rows("X", [[C, C], [C, C]])
        assert m.reveal_segment(1, 3, 2, Transcript()) == ()

    def test_events_recorded(self):
        m = Matrix.from_rows("X", [[C, H], [H, C]])
        t = Transcript()
        m.reveal_row(2, t)
        m.flip_down()
        m.reveal_segment(2, 1, 2, t)
        assert t.events == [
            ("reveal_row", "X", 2, (H, C)),
            ("reveal_segment", "X", 2, 1, 2, (H, C)),
        ]


class TestRearrangement:
    def test_heart_returns_to_column_one(self):
        for seed in range(30):
            m = Matrix.from_rows("X", [encode(1, 6)])
            m.rotate(seed % 6)
            rearrangement(m, RandomSource(seed), Transcript())
            assert decode([col[0] for col in m.cols]) == 1

    def test_single_column_noop(self):
        m = Matrix.from_rows("X", [encode(1, 1)])
        rearrangement(m, RandomSource(3), Transcript())
        assert decode([col[0] for col in m.cols]) == 1

    def test_corotated_row_restored(self):
        # A second row rotated in lockstep realigns to its original value.
        for seed in range(100):
            m = Matrix.from_rows("X", [encode(1, 6), encode(4, 6)])
            m.rotate(seed % 6)
            rearrangement(m, RandomSource(seed), Transcript())
            assert decode([col[1] for col in m.cols]) == 4

    def test_malformed_rows_rejected(self):
        for bad_row in ([H, H, C, C], [C, C, C, C]):
            m = Matrix.from_rows("X", [bad_row])
            with pytest.raises(MalformedCommitmentError):
                rearrangement(m, RandomSource(0), Transcript())

    def test_reveal_position_uniform(self):
        # Transcript secrecy: the revealed heart column says nothing about
        # the column's original position.
        counts = Counter()
        for seed in range(10_000):
            m = Matrix.from_rows("X", [encode(1, 6)])
            m.rotate(seed % 6)
            t = Transcript()
            rearrangement(m, RandomSource(seed), t)
            faces = next(ev[3] for ev in t.events if ev[0] == "reveal_row")
            counts[faces.index(H) + 1] += 1
        assert uniform_p(counts, 6) > 1e-4

    def test_events_shape(self):
        m = Matrix.from_rows("M1", [encode(1, 4), encode(2, 4)])
        t = Transcript()
        rearrangement(m, StubRng(offsets=[1]), t)
        assert [ev[0] for ev in t.events] == ["mark", "reveal_row", "shift", "mark"]
        assert t.events[0] == ("mark", "rearr:M1", "enter")
        assert t.events[2] == ("shift", "M1", 3)  # left by (j-1)=1 on width 4


class TestMatrixState:
    def test_take_and_put_segment(self):
        m = Matrix("X", [[C, H, C], [H, C, C]])
        cards = m.take_segment(1, 2, 3)
        assert cards == [H, C]
        m.put_segment(1, 2, cards)
        assert m.snapshot() == ((C, H, C), (H, C, C))

    def test_put_onto_occupied_rejected(self):
        m = Matrix.from_rows("X", [[C, H]])
        with pytest.raises(RuntimeError, match="occupied"):
            m.put_segment(1, 1, [C, C])

    def test_split_and_append(self):
        m = labeled_matrix(4, 3)
        top, bottom = m.split_rows(2, "T", "B")
        assert top.n_rows == 2 and bottom.n_rows == 2
        bottom.append_columns([[9, 9]])
        assert bottom.n_cols == 4
        removed = bottom.remove_columns(4, 4)
        assert removed == [[9, 9]] and bottom.n_cols == 3

    def test_from_rows_rejects_ragged(self):
        with pytest.raises(ValueError):
            Matrix.from_rows("X", [[C, C], [C]])


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
        m = Matrix("X", [list(col) for col in faces])
        before = sorted(card for col in faces for card in col)
        rng = RandomSource(seed)
        t = Transcript()
        for op in ops:
            if op == "pile_shift":
                pile_shift_shuffle(m, rng)
            elif op == "scramble":
                pile_scramble_shuffle(m, rng)
            elif op == "shift":
                m.shift(rng.offset(m.n_cols + 1), t)
            else:
                m.reveal_row(1, t)
                m.flip_down()
        after = sorted(card for col in m.cols for card in col)
        assert after == before

    @given(
        st.integers(2, 6),
        st.lists(st.integers(-7, 7), min_size=1, max_size=6),
    )
    @settings(max_examples=100, deadline=None)
    def test_rotations_compose_to_net_offset(self, width, offsets):
        m = labeled_matrix(2, width)
        for off in offsets:
            m.rotate(off)
        net = labeled_matrix(2, width)
        net.rotate(sum(offsets))
        assert column_labels(m) == column_labels(net)
        # Relative cyclic order never changes.
        labels = column_labels(m)
        start = labels.index(1)
        assert [labels[(start + i) % width] for i in range(width)] == list(
            range(1, width + 1)
        )


class TestTranscript:
    def test_serialization_schema(self):
        t = Transcript()
        with t.span("demo"):
            m = Matrix.from_rows("X", [[C, H], [H, C]])
            m.reveal_row(1, t)
            m.flip_down()
            m.shift(-1, t)
            m.reveal_segment(2, 1, 2, t)
            m.flip_down()
            m.reveal_all(t)
        t.verdict("accept", None, None)
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
            m = Matrix("X", [[f] for f in faces])
            m.reveal_row(1, t)
            m.flip_down()
            m.shift(faces.index(H), t)
        assert t1.serialize() != t2.serialize()
        assert t1.skeleton() == t2.skeleton()

    def test_empty_serialize(self):
        assert Transcript().serialize() == ""

    @pytest.mark.parametrize("render", ["serialize", "skeleton"])
    def test_unknown_event_rejected(self, render):
        t = Transcript()
        t.events.append(("bogus", "X"))
        with pytest.raises(ValueError, match="unknown event 'bogus'"):
            getattr(t, render)()
