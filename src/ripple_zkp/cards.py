"""Physical card primitives: number encodings, face-down matrices, shuffles.

A card shows a club or a heart; a number x in 0..y is committed as a row of
y face-down cards, all clubs except a heart at position x (no heart for 0).
Matrices of face-down piles support the two trusted shuffles (secret cyclic
shift / secret full permutation of columns), deterministic public shifts,
and reveal operations. Every verifier-observable action is appended to a
Transcript; hidden shuffle draws go only to an optional AuditTrail so tests
can check secrecy on one side and correctness on the other.

Transcript serialization is line-delimited text, one event per line, with a
stable field order:

    reveal_row m=<id> row=<r> faces=<CH...>
    reveal_segment m=<id> col=<j> rows=<lo>..<hi> faces=<CH...>
    reveal_all m=<id> cols=<CH..|CH..|...>
    shift m=<id> offset=<o>            # columns moved right by o (mod width)
    mark name=<name> kind=<enter|exit>
    verdict outcome=<accept|reject> reason=<name|none> loc=<text|none>

Equal seeds yield byte-identical transcripts.
"""
from __future__ import annotations

import random

CLUB = 0
HEART = 1
_FACE_CHARS = ("C", "H")

Sequence = list[int]


class MalformedCommitmentError(Exception):
    """A reveal exposed an impossible encoding (zero or several hearts)."""


def encode(x: int, y: int) -> Sequence:
    """The y-card sequence committing x: a heart at position x, clubs elsewhere."""
    if not 0 <= x <= y:
        raise ValueError(f"cannot encode {x} with {y} cards")
    seq = [CLUB] * y
    if x >= 1:
        seq[x - 1] = HEART
    return seq


def decode(seq) -> int | None:
    """Position of the unique heart (0 if none); None when the sequence is malformed."""
    hearts = [i for i, face in enumerate(seq) if face == HEART]
    if not hearts:
        return 0
    if len(hearts) > 1:
        return None
    return hearts[0] + 1


def faces_text(faces) -> str:
    return "".join(_FACE_CHARS[f] for f in faces)


class RandomSource:
    """Seedable uniform randomness driving the trusted shuffles."""

    def __init__(self, seed: int):
        self._rng = random.Random(seed)

    def offset(self, n: int) -> int:
        """Uniform draw from 0..n-1."""
        return self._rng.randrange(n)

    def permutation(self, n: int) -> list[int]:
        """Uniform permutation of 0..n-1."""
        perm = list(range(n))
        self._rng.shuffle(perm)
        return perm


class AuditTrail:
    """Private instrumentation: hidden draws plus mid-protocol snapshots.

    Never part of a Transcript. The shuffles record their secret draws as
    ``pile_shift``/``pile_scramble`` records; the protocol adds snapshots
    that let tests assert what the transcript must hide: that the column
    reaching the rightmost slot really is the x-th neighbour, that the
    selected sequences are exactly the first x neighbours plus blanks, and
    that every sequence returns to its cell unchanged.
    """

    def __init__(self):
        self.records: list[tuple] = []

    def record(self, kind: str, *data) -> None:
        self.records.append((kind, *data))

    def of_kind(self, kind: str) -> list[tuple]:
        return [rec for rec in self.records if rec[0] == kind]


def _verdict_line(ev) -> str:
    return f"verdict outcome={ev[1]} reason={ev[2] or 'none'} loc={ev[3] or 'none'}"


def _mark_line(ev) -> str:
    return f"mark name={ev[1]} kind={ev[2]}"


def _reveal_all_shape(ev) -> str:
    shape = f"{len(ev[2][0])}x{len(ev[2])}" if ev[2] else "0x0"
    return f"reveal_all m={ev[1]} shape={shape}"


# Event tag -> (serialize() line, skeleton() line).
_EVENT_LINES = {
    "reveal_row": (
        lambda ev: f"reveal_row m={ev[1]} row={ev[2]} faces={faces_text(ev[3])}",
        lambda ev: f"reveal_row m={ev[1]} row={ev[2]} width={len(ev[3])}",
    ),
    "reveal_segment": (
        lambda ev: f"reveal_segment m={ev[1]} col={ev[2]} rows={ev[3]}..{ev[4]}"
        f" faces={faces_text(ev[5])}",
        lambda ev: f"reveal_segment m={ev[1]} rows={ev[3]}..{ev[4]}",
    ),
    "reveal_all": (
        lambda ev: f"reveal_all m={ev[1]} cols={'|'.join(faces_text(col) for col in ev[2])}",
        _reveal_all_shape,
    ),
    "shift": (lambda ev: f"shift m={ev[1]} offset={ev[2]}", lambda ev: f"shift m={ev[1]}"),
    "mark": (_mark_line, _mark_line),
    "verdict": (_verdict_line, _verdict_line),
}


class _Span:
    """Context manager that brackets a protocol step with enter/exit marks.

    The exit mark is written however the block ends, so reject paths that
    return or raise early still close every step they opened.
    """

    __slots__ = ("events", "name")

    def __init__(self, events: list, name: str):
        self.events = events
        self.name = name

    def __enter__(self) -> None:
        self.events.append(("mark", self.name, "enter"))

    def __exit__(self, *exc) -> None:
        self.events.append(("mark", self.name, "exit"))


class Transcript:
    """Append-only log of verifier-observable events."""

    __slots__ = ("events",)

    def __init__(self):
        self.events: list[tuple] = []

    def reveal_row(self, matrix_id: str, row: int, faces: tuple) -> None:
        self.events.append(("reveal_row", matrix_id, row, faces))

    def reveal_segment(
        self, matrix_id: str, col: int, row_lo: int, row_hi: int, faces: tuple
    ) -> None:
        self.events.append(("reveal_segment", matrix_id, col, row_lo, row_hi, faces))

    def reveal_all(self, matrix_id: str, cols: tuple) -> None:
        self.events.append(("reveal_all", matrix_id, cols))

    def shift(self, matrix_id: str, offset: int) -> None:
        self.events.append(("shift", matrix_id, offset))

    def span(self, name: str) -> _Span:
        """``with transcript.span(name):`` marks enter, then exit on any way out."""
        return _Span(self.events, name)

    def verdict(self, outcome: str, reason: str | None, loc: str | None) -> None:
        self.events.append(("verdict", outcome, reason, loc))

    def _lines(self, column: int) -> str:
        try:
            lines = [_EVENT_LINES[ev[0]][column](ev) for ev in self.events]
        except KeyError as exc:
            raise ValueError(f"unknown event {exc.args[0]!r}") from None
        return "\n".join(lines) + ("\n" if lines else "")

    def serialize(self) -> str:
        return self._lines(0)

    def skeleton(self) -> str:
        """Serialization with every chance-dependent field stripped.

        Heart positions, revealed faces, and the public shift offsets
        derived from them are dropped; what remains is a pure function of
        the puzzle shape and must match between real and simulated runs.
        """
        return self._lines(1)


class Matrix:
    """Rectangular grid of face-down cards, addressed (row, column), 1-based.

    Row 1 is the topmost row, Column 1 the leftmost column. Cards are
    readable only through the reveal methods, which log what was shown.
    """

    __slots__ = ("id", "cols", "_face_up")

    def __init__(self, matrix_id: str, columns: list[list[int]]):
        self.id = matrix_id
        self.cols = columns
        self._face_up = 0

    @classmethod
    def from_rows(cls, matrix_id: str, rows: list[list[int]]) -> "Matrix":
        width = len(rows[0])
        if any(len(r) != width for r in rows):
            raise ValueError("ragged rows")
        return cls(matrix_id, [[row[j] for row in rows] for j in range(width)])

    @property
    def n_rows(self) -> int:
        return len(self.cols[0])

    @property
    def n_cols(self) -> int:
        return len(self.cols)

    def _require_face_down(self) -> None:
        if self._face_up:
            raise RuntimeError(f"matrix {self.id}: cards are face-up")

    def rotate(self, offset: int) -> None:
        """Move every column j to j+offset (mod width); no event logged."""
        o = offset % len(self.cols)
        if o:
            self.cols = self.cols[-o:] + self.cols[:-o]

    def shift(self, offset: int, transcript: Transcript) -> None:
        """Public deterministic rotation; offset is logged (normalized mod width)."""
        self._require_face_down()
        o = offset % len(self.cols)
        transcript.shift(self.id, o)
        self.rotate(o)

    def reveal_row(self, row: int, transcript: Transcript) -> tuple:
        faces = tuple(col[row - 1] for col in self.cols)
        transcript.reveal_row(self.id, row, faces)
        self._face_up += len(faces)
        return faces

    def reveal_segment(self, col: int, row_lo: int, row_hi: int, transcript: Transcript) -> tuple:
        faces = tuple(self.cols[col - 1][row_lo - 1:row_hi])
        transcript.reveal_segment(self.id, col, row_lo, row_hi, faces)
        self._face_up += len(faces)
        return faces

    def reveal_all(self, transcript: Transcript) -> tuple:
        cols = tuple(tuple(col) for col in self.cols)
        transcript.reveal_all(self.id, cols)
        self._face_up += self.n_rows * self.n_cols
        return cols

    def flip_down(self) -> None:
        """Turn all face-up cards back over."""
        self._face_up = 0

    def split_rows(self, top_rows: int, top_id: str, bottom_id: str) -> tuple["Matrix", "Matrix"]:
        """Divide into a top matrix of ``top_rows`` rows and a bottom matrix."""
        self._require_face_down()
        top = Matrix(top_id, [col[:top_rows] for col in self.cols])
        bottom = Matrix(bottom_id, [col[top_rows:] for col in self.cols])
        return top, bottom

    def append_columns(self, columns: list[list[int]]) -> None:
        self._require_face_down()
        self.cols.extend(columns)

    def remove_columns(self, col_lo: int, col_hi: int) -> list[list[int]]:
        """Remove columns col_lo..col_hi (1-based, inclusive) and return them."""
        self._require_face_down()
        removed = self.cols[col_lo - 1:col_hi]
        self.cols = self.cols[:col_lo - 1] + self.cols[col_hi:]
        return removed

    def take_row(self, row: int) -> list[int]:
        """Physically remove one row of cards (leaves holes; restore or discard)."""
        out = []
        for col in self.cols:
            out.append(col[row - 1])
            col[row - 1] = None  # type: ignore[call-overload]
        return out

    def take_segment(self, col: int, row_lo: int, row_hi: int) -> list[int]:
        pile = self.cols[col - 1]
        out = pile[row_lo - 1:row_hi]
        pile[row_lo - 1:row_hi] = [None] * (row_hi - row_lo + 1)  # type: ignore[list-item]
        return out

    def put_segment(self, col: int, row_lo: int, cards: list[int]) -> None:
        pile = self.cols[col - 1]
        if any(v is not None for v in pile[row_lo - 1:row_lo - 1 + len(cards)]):
            raise RuntimeError(f"matrix {self.id}: putting cards onto occupied spots")
        pile[row_lo - 1:row_lo - 1 + len(cards)] = cards

    def snapshot(self) -> tuple:
        """Private peek at all piles for audits and tests; not an observable event."""
        return tuple(tuple(col) for col in self.cols)


def pile_shift_shuffle(matrix: Matrix, rng: RandomSource, audit: AuditTrail | None = None) -> None:
    """Secretly rotate all columns by a uniform random amount."""
    matrix._require_face_down()
    r = rng.offset(matrix.n_cols)
    if audit is not None:
        audit.record("pile_shift", matrix.id, r)
    matrix.rotate(r)


def pile_scramble_shuffle(
    matrix: Matrix, rng: RandomSource, audit: AuditTrail | None = None
) -> None:
    """Secretly reorder all columns by a uniform random permutation.

    The drawn permutation lists the old column index now sitting at each
    position, left to right.
    """
    matrix._require_face_down()
    perm = rng.permutation(matrix.n_cols)
    if audit is not None:
        audit.record("pile_scramble", matrix.id, tuple(perm))
    matrix.cols = [matrix.cols[i] for i in perm]


def single_heart(faces: tuple, matrix_id: str, row: int) -> int:
    """1-based heart position, or raise when the count is not exactly one."""
    count = faces.count(HEART)
    if count != 1:
        raise MalformedCommitmentError(
            f"matrix {matrix_id} row {row}: expected exactly one heart, saw {count}"
        )
    return faces.index(HEART) + 1


def rearrangement(
    matrix: Matrix,
    rng: RandomSource,
    transcript: Transcript,
    audit: AuditTrail | None = None,
) -> None:
    """Realign columns so the Row 1 heart returns to Column 1.

    Shuffles first, so the revealed heart position carries no information
    about where the columns originally stood.
    """
    with transcript.span(f"rearr:{matrix.id}"):
        pile_shift_shuffle(matrix, rng, audit)
        j = single_heart(matrix.reveal_row(1, transcript), matrix.id, 1)
        matrix.flip_down()
        matrix.shift(-(j - 1), transcript)
