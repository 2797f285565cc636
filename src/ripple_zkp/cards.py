"""Physical card primitives: number encodings, face-down matrices, shuffles.

A card shows a club or a heart; a number x in 0..y is committed as a row of
y face-down cards, all clubs except a heart at position x (no heart for 0).
A sequence of cards is held as an integer heart mask: bit i is set when card
i+1 shows a heart, so ``encode(x, y)`` is ``1 << (x - 1)`` (0 for x = 0) and
the sequence's length is kept by whoever holds it (a matrix's width or
height, a board's k). A mask with two or more bits set is a malformed
commitment, exactly as a face sequence with two hearts would be.

A Matrix of face-down cards is a stack of row masks (sequences laid left to
right) over piles (sequences stacked top to bottom, one mask per column),
plus one rotation offset kept as an index: the pile-shifting shuffle of
Nishimura et al. and the public shifts are a modular add to the offset, a
row reveal looks its stored mask up under the offset, and cutting columns
out or moving piles reads one run of storage at the offset. Stored cards
never rotate, and a Matrix makes only the moves the protocol makes; any
other raises (see ``Matrix``). Rows come off one at a time; piles move as
runs of whole piles over neighbouring columns, one call per run
(``take_segment``, ``put_segment``), a taken pile being ``None`` until it
is put back, and a move that raises moves nothing. Revealed faces
are tuples of CLUB/HEART made by ``faces_of`` and kept in one table keyed
by width and mask, filled on first use; the simulator builds its reveals
from the same table. Every revealed value is read off its one-heart index,
``_ONE_HEART`` (by the draw sites, the room check and the audit's decoder).

Each secret draw of the distance check is one ``Matrix.cut_and_read`` call
at a ``DrawSite``, one object per call site and card count, all seven of a
check in the protocol's one table per k: the pile-shifting shuffle, the row
reveal and the public shift that ``pile_shift_shuffle``,
``Matrix.reveal_row`` and ``Matrix.shift`` make one at a time, fused, with
the same draws, events and offsets. A site keeps, per width, offset and
stored mask, the run of events a draw logs (the reveal, the shift, and a
realignment's marks around both), its heart and the offset after it, so
every draw that shows the same faces at a site logs the same tuples; a row
without exactly one heart raises. ``serialize`` and ``skeleton`` look each
event's line up in a table of their own that renders it on first use, and
every step's enter and exit marks are one shared pair of tuples (``marks``).

Every verifier-observable action is appended to a Transcript; hidden shuffle
draws go only to the private trail, a plain list a RandomSource may carry, so
tests can check secrecy on one side and correctness on the other.

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
from collections import defaultdict
from functools import cache

CLUB = 0
HEART = 1
_FACE_CHARS = ("C", "H")

Sequence = int  # heart mask: bit i set when card i+1 shows a heart


class MalformedCommitmentError(Exception):
    """A reveal exposed an impossible encoding (zero or several hearts)."""


def encode(x: int, y: int) -> Sequence:
    """The y-card sequence committing x: a heart at position x, clubs elsewhere."""
    if not 0 <= x <= y:
        raise ValueError(f"cannot encode {x} with {y} cards")
    return 1 << (x - 1) if x else 0


def decode(mask: Sequence) -> int | None:
    """Position of the unique heart (0 if none); None when the sequence is malformed."""
    if mask & (mask - 1):
        return None
    return mask.bit_length()


# The face table: width -> stored mask -> the faces it shows unrotated, and
# _ONE_HEART, the heart position of each face tuple with exactly one heart.
# Both are filled on first use by faces_of and hold one entry per distinct
# pattern revealed: on honest runs every row a draw reveals has one heart,
# so a width holds at most width of them, and a uniqueness segment adds its
# blank. The faces a row shows under an offset are looked up by its draw
# site (``DrawSite``), which keeps the per-offset entries.
_FACES: defaultdict[int, dict[int, tuple[int, ...]]] = defaultdict(dict)
_ONE_HEART: dict[tuple[int, ...], int] = {}


def faces_of(width: int, mask: Sequence) -> tuple[int, ...]:
    """The faces of a width-card sequence, left to right."""
    table = _FACES[width]
    faces = table.get(mask)
    if faces is None:
        faces = table[mask] = tuple(mask >> i & 1 for i in range(width))
        if mask and not mask & (mask - 1):
            _ONE_HEART[faces] = mask.bit_length()
    return faces


def faces_text(faces) -> str:
    return "".join(_FACE_CHARS[f] for f in faces)


class RandomSource:
    """Seedable uniform randomness driving the trusted shuffles.

    ``trail``, when given, is a list, the private trail, never part of a
    Transcript: the shuffles append their secret draws as ``("pile_shift",
    ...)``/``("pile_scramble", ...)`` tuples, and the protocol appends
    snapshots that let tests assert what the transcript must hide: that the
    column reaching the rightmost slot really is the x-th neighbour
    (``"align_rightmost"``), that the selected sequences are exactly the
    first x neighbours plus blanks (``"selection"``), that the columns cut
    at step 15 are the blanks appended at step 7 (``"removed_block"``), and
    that every sequence returns to its cell unchanged (``"restore"``). Each
    record is ``(kind, *data)``, card sequences as heart masks. With no
    trail, each record site costs one ``is None`` test; an empty list is a
    live trail.
    """

    def __init__(self, seed: int, trail: list[tuple] | None = None):
        self._rng = random.Random(seed)
        self._getrandbits = self._rng.getrandbits
        self.trail = trail

    def offset(self, n: int) -> int:
        """Uniform draw from 0..n-1.

        The rejection sampling of ``random.Random.randrange(n)``, inlined:
        the same draws from the same seed, in one call frame instead of three.
        """
        if n < 1:
            raise ValueError(f"empty range for offset({n})")
        getrandbits = self._getrandbits
        k = n.bit_length()
        r = getrandbits(k)
        while r >= n:
            r = getrandbits(k)
        return r

    def permutation(self, n: int) -> list[int]:
        """Uniform permutation of 0..n-1, as ``random.shuffle`` draws it: ``fisher_yates``
        over ``RandomSource.offset``, which a subclass's ``offset`` does not see."""
        return fisher_yates(n, RandomSource.offset.__get__(self))


class ReplaySource:
    """Given draws, handed out in order where a RandomSource would draw at random:
    ``offset(n)`` raises ``ValueError`` unless the next draw lies in 0..n-1, and
    ``permutation(n)`` replays the n - 1 draws of its ``fisher_yates``."""

    def __init__(self, draws):
        self._draws = iter(draws)
        self.trail = None

    def offset(self, n: int) -> int:
        r = next(self._draws, None)
        if r is None or not 0 <= r < n:
            raise ValueError(f"replayed draw {r} for offset({n}) is not in 0..{n - 1}")
        return r

    def permutation(self, n: int) -> list[int]:
        return fisher_yates(n, self.offset)


def fisher_yates(n: int, offset) -> list[int]:
    """The permutation of 0..n-1 that Durstenfeld's shuffle makes from the
    draws ``offset(i + 1)``, i from n - 1 down to 1 (``random.shuffle``'s order)."""
    perm = list(range(n))
    for i in range(n - 1, 0, -1):
        j = offset(i + 1)
        perm[i], perm[j] = perm[j], perm[i]
    return perm


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


class _LineTable(dict):
    """Event -> its line in one column of ``_EVENT_LINES``, newline included,
    rendered on first lookup.

    Every line is kept but those of reveal_all events: a run repeats few
    distinct marks, shifts and row/segment reveals thousands of times, while
    room reveals are rare and vary with every permutation. A table grows
    with the distinct events rendered, about 540 for the 7x7 sample.
    """

    __slots__ = ("column",)

    def __init__(self, column: int):
        super().__init__()
        self.column = column

    def __missing__(self, ev: tuple) -> str:
        try:
            render = _EVENT_LINES[ev[0]][self.column]
        except KeyError:
            raise ValueError(f"unknown event {ev[0]!r}") from None
        line = render(ev) + "\n"
        if ev[0] != "reveal_all":
            self[ev] = line
        return line


_SERIALIZE_LINES = _LineTable(0)
_SKELETON_LINES = _LineTable(1)


def event_line(ev) -> str:
    """``ev``'s serialize() line (``repr(ev)`` if it has none), not stored in
    ``_SERIALIZE_LINES``, which events of untrusted transcripts must not grow."""
    try:
        return _EVENT_LINES[ev[0]][0](ev)
    except (LookupError, TypeError):
        return repr(ev)


@cache
def marks(name: str) -> tuple[tuple, tuple]:
    """The enter and exit mark events of step ``name``, one shared pair per name.

    A step appends the enter mark, then the exit mark in a ``finally``, so
    reject paths that return or raise early still close every step they
    opened. Sharing the tuples lets the line tables match them on identity.
    """
    return ("mark", name, "enter"), ("mark", name, "exit")


class DrawSite(dict):
    """One call site of a secret draw (``Matrix.cut_and_read``): the reveal of
    row ``row`` of matrix ``matrix_id``, given ``align_to`` the public shift
    that brings its heart to that column, and given ``marks`` its step's
    enter and exit marks around both.

    The site is its table of entries, keyed by width, then by offset (a list
    index), then by stored mask. An entry is ``(run, heart, offset after)``,
    built on first use by ``fill``: ``run`` is the events the draw logs, and
    the heart is None for a row without exactly one heart, whose run has no
    shift. Draws that show the same faces at a site log the very same tuples.
    """

    __slots__ = ("matrix_id", "row", "align_to", "marks")

    def __init__(
        self, matrix_id: str, row: int, align_to: int | None = None, marks: tuple | None = None
    ):
        super().__init__()
        self.matrix_id = matrix_id
        self.row = row
        self.align_to = align_to
        self.marks = marks

    def __missing__(self, width: int) -> list[dict]:
        layers = self[width] = [{} for _ in range(width)]
        return layers

    def fill(self, width: int, offset: int, mask: Sequence) -> tuple:
        """Store and return the entry of stored ``mask`` under ``offset``: the
        offset-0 entry of the mask it shows, with the offset moved on. At
        offset 0 the reveal shows ``faces_of`` the mask, whose heart is read
        through ``_ONE_HEART``."""
        layers = self[width]
        if offset:
            shown = (mask << offset | mask >> (width - offset)) & ((1 << width) - 1)
            run, heart, after = layers[0].get(shown) or self.fill(width, 0, shown)
            entry = run, heart, (offset + after) % width
        else:
            faces = faces_of(width, mask)
            heart = _ONE_HEART.get(faces)
            run, after = (("reveal_row", self.matrix_id, self.row, faces),), 0
            if heart is not None and self.align_to is not None:
                after = (self.align_to - heart) % width
                run += (("shift", self.matrix_id, after),)
            if self.marks is not None:
                run = (self.marks[0], *run, self.marks[1])
            entry = run, heart, after
        layers[offset][mask] = entry
        return entry


class Transcript:
    """Append-only log of verifier-observable events.

    Events are tuples, tag first: ``("reveal_row", m, row, faces)``,
    ``("reveal_segment", m, col, row_lo, row_hi, faces)``,
    ``("reveal_all", m, cols)``, ``("shift", m, offset)``,
    ``("mark", name, "enter" | "exit")`` and ``("verdict", outcome, reason,
    loc)``. ``Matrix``, the protocol's steps (with ``marks``), ``run_protocol``
    (the verdict, last) and the audit's simulator append events to
    ``events`` directly, to save a call per event.
    """

    __slots__ = ("events",)

    def __init__(self):
        self.events: list[tuple] = []

    def serialize(self) -> str:
        return "".join(map(_SERIALIZE_LINES.__getitem__, self.events))

    def skeleton(self) -> str:
        """Serialization with every chance-dependent field stripped.

        Heart positions, revealed faces, and the public shift offsets
        derived from them are dropped; what remains is a pure function of
        the puzzle shape and must match between real and simulated runs.
        """
        return "".join(map(_SKELETON_LINES.__getitem__, self.events))


def _face_up_error(matrix: "Matrix") -> RuntimeError:
    return RuntimeError(f"matrix {matrix.id}: cards are face-up")


class Matrix:
    """Rectangular grid of face-down cards, addressed (row, column), 1-based.

    Row 1 is the topmost row, Column 1 the leftmost column. The top
    ``len(rows)`` rows are row masks, bit p for storage column p; the
    ``depth`` rows below them are piles, one mask per storage column with
    bit 0 for the pile's top card. Visible column j shows storage column
    (j - 1 - offset) mod n_cols, so a rotation only moves ``offset``, and a
    reveal reads storage at the offset without rotating it. Rows are taken
    out whole (``take_row``), and runs of whole piles over neighbouring
    columns are taken and put back in one call each (``take_segment``/
    ``put_segment``); a taken pile is ``None`` in ``piles``, and reading it
    fails until it is back. Columns cut off (``remove_columns``) are
    discarded, as the protocol returns them to the deck. Cards are readable
    only through the reveal methods, which log what was shown; the lists
    passed in are taken over, not copied.

    Only the protocol's moves are made, and stored cards never rotate. A row
    reveal, the reveal of a secret draw (``cut_and_read``, at a draw site of
    this matrix) or ``take_row`` reads a row mask in 1..len(rows), ``take_row``
    one not yet taken, and a segment lies within rows
    1..n_rows of a column in 1..n_cols; ``split_rows`` cuts among the row
    masks; ``permute`` reorders a matrix of piles alone at offset 0 (the
    room check's); a column cut or pile move starts in columns 1..n_cols and
    lies in one storage run; ``take_row`` needs offset 0 and
    ``append_columns`` an unrotated block. Any other move raises before a
    card moves or an event is logged. The protocol keeps to this: piles
    start at storage column 0 (the first neighbour's) in step 1; step 7
    inserts the blank block right after the x-th neighbour's storage column,
    so step 10's k piles are storage columns 0..k-1 and steps 13-15 cut
    x..x+k-2; and every ``take_row`` follows a realignment that brings the
    indicator, at storage column 0, to column 1, which makes the offset 0.
    """

    __slots__ = ("id", "n_cols", "rows", "piles", "depth", "offset", "_face_up")

    def __init__(
        self,
        matrix_id: str,
        n_cols: int,
        rows: list[Sequence] | None = None,
        piles: list[Sequence] | None = None,
        depth: int = 0,
    ):
        self.id = matrix_id
        self.n_cols = n_cols
        self.rows = [] if rows is None else rows
        self.piles = [0] * n_cols if piles is None else piles
        self.depth = depth
        self.offset = 0
        self._face_up = 0

    @classmethod
    def from_rows(cls, matrix_id: str, n_cols: int, rows: list[Sequence]) -> "Matrix":
        """A matrix of the row masks ``rows`` (a list, taken over), each ``n_cols`` wide."""
        if rows and max(rows) >> n_cols:
            raise ValueError("row wider than the matrix")
        return cls(matrix_id, n_cols, rows)

    @property
    def n_rows(self) -> int:
        return len(self.rows) + self.depth

    def _column(self, p: int, row_lo: int, n: int) -> Sequence:
        """The n cards of storage column p from row ``row_lo`` down, as a mask."""
        bits = self.piles[p] << len(self.rows) >> (row_lo - 1)
        for i, row in enumerate(self.rows[row_lo - 1:row_lo - 1 + n]):
            if row >> p & 1:
                bits |= 1 << i
        return bits & ((1 << n) - 1)

    def rotate(self, offset: int) -> None:
        """Move every column j to j+offset (mod width); no event logged."""
        self.offset = (self.offset + offset) % self.n_cols

    def permute(self, perm: list[int]) -> None:
        """Reorder the piles of a matrix with no row masks, at offset 0: position i
        takes the pile at position perm[i]. Any other matrix raises."""
        if self.rows or self.offset:
            raise RuntimeError(
                f"matrix {self.id}: permuting {len(self.rows)} row masks under offset {self.offset}"
            )
        self.piles = [self.piles[q] for q in perm]

    def shift(self, offset: int, transcript: Transcript) -> None:
        """Public deterministic rotation; offset is logged (normalized mod width)."""
        if self._face_up:
            raise _face_up_error(self)
        o = offset % self.n_cols
        transcript.events.append(("shift", self.id, o))
        self.offset = (self.offset + o) % self.n_cols

    def reveal_row(self, row: int, transcript: Transcript) -> tuple:
        """Reveal row mask ``row``; a row outside 1..len(rows) or already taken
        raises before anything is logged."""
        if not 1 <= row <= len(self.rows):
            raise ValueError(f"matrix {self.id}: row {row} is not a row mask")
        mask = self.rows[row - 1]
        if mask is None:
            raise RuntimeError(f"matrix {self.id}: revealing row {row} from an empty spot")
        w, o = self.n_cols, self.offset
        faces = faces_of(w, (mask << o | mask >> (w - o)) & ((1 << w) - 1))
        transcript.events.append(("reveal_row", self.id, row, faces))
        self._face_up += w
        return faces

    def reveal_segment(self, col: int, row_lo: int, row_hi: int, transcript: Transcript) -> tuple:
        """Reveal rows row_lo..row_hi of column ``col``; an empty run, or one
        not within rows 1..n_rows of a column in 1..n_cols, raises."""
        h, w = self.n_rows, self.n_cols
        if not (1 <= row_lo <= row_hi <= h and 1 <= col <= w):
            raise ValueError(
                f"matrix {self.id}: rows {row_lo}..{row_hi} not within 1..{h}"
                f" or column {col} not within 1..{w}"
            )
        n = row_hi - row_lo + 1
        mask = self._column((col - 1 - self.offset) % w, row_lo, n)
        faces = _FACES[n].get(mask) or faces_of(n, mask)
        transcript.events.append(("reveal_segment", self.id, col, row_lo, row_hi, faces))
        self._face_up += n
        return faces

    def reveal_all(self, transcript: Transcript) -> tuple:
        n = self.n_rows
        cols = tuple(faces_of(n, col) for col in self.snapshot())
        transcript.events.append(("reveal_all", self.id, cols))
        self._face_up += n * self.n_cols
        return cols

    def cut_and_read(self, rng: RandomSource, site: "DrawSite", transcript: Transcript) -> int:
        """One secret draw of the protocol at ``site``: a pile-shifting shuffle,
        the reveal of row mask ``site.row`` read for its heart, and, given the
        site's ``align_to``, the public shift that brings that heart there.
        Returns the heart's column as revealed, before the shift.

        The same draw, trail record, events and offset as ``pile_shift_shuffle``,
        ``reveal_row`` read through ``_ONE_HEART``, then ``shift``, in one call;
        it logs the site's shared run of events. Cards already face up, a row
        outside 1..len(rows) or already taken, or a site of another matrix
        raise before anything is drawn, moved or logged; a row without exactly
        one heart raises after its run, left face up.
        """
        if self._face_up:
            raise _face_up_error(self)
        row = site.row
        if not 1 <= row <= len(self.rows):
            raise ValueError(f"matrix {self.id}: row {row} is not a row mask")
        if site.matrix_id != self.id:
            raise ValueError(f"matrix {self.id}: drawing at a site of matrix {site.matrix_id}")
        mask = self.rows[row - 1]
        if mask is None:
            raise RuntimeError(f"matrix {self.id}: drawing row {row} from an empty spot")
        w = self.n_cols
        r = rng.offset(w)
        if rng.trail is not None:
            rng.trail.append(("pile_shift", self.id, r))
        o = (self.offset + r) % w
        run, j, self.offset = site[w][o].get(mask) or site.fill(w, o, mask)
        transcript.events += run
        if j is None:
            self._face_up += w
            raise MalformedCommitmentError(
                f"matrix {self.id} row {row}: expected exactly one heart, saw {mask.bit_count()}"
            )
        return j

    def split_rows(self, top_rows: int, top_id: str, bottom_id: str) -> tuple["Matrix", "Matrix"]:
        """Divide into a top matrix of the first ``top_rows`` row masks and a bottom matrix.

        Only the top matrix is new: this matrix keeps the rows below the cut
        and is returned, renamed ``bottom_id``, as the bottom one. A cut
        below the row masks, or of a negative count, raises.
        """
        if self._face_up:
            raise _face_up_error(self)
        if not 0 <= top_rows <= len(self.rows):
            raise ValueError(
                f"matrix {self.id}: cutting {top_rows} rows below the row masks or above the matrix"
            )
        top = Matrix(top_id, self.n_cols, self.rows[:top_rows])
        del self.rows[:top_rows]
        top.offset = self.offset
        self.id = bottom_id
        return top, self

    def append_columns(self, block: "Matrix") -> None:
        """Put the columns of ``block``, laid out like this matrix and unrotated, on the right."""
        if self._face_up:
            raise _face_up_error(self)
        if len(block.rows) != len(self.rows) or block.depth != self.depth:
            raise ValueError(f"matrix {self.id}: block rows do not line up")
        if block.offset:
            raise ValueError(f"matrix {self.id}: block {block.id} is rotated")
        # Insert at the storage column after the one shown last; the offset
        # then still maps every old column to where it was shown.
        q, n = self.n_cols - self.offset, block.n_cols
        low = (1 << q) - 1
        rows = self.rows
        for i, extra in enumerate(block.rows):
            rows[i] = rows[i] & low | extra << q | rows[i] >> q << (q + n)
        self.piles[q:q] = block.piles
        self.n_cols += n

    def remove_columns(self, col_lo: int, col_hi: int) -> None:
        """Remove columns col_lo..col_hi (1-based, inclusive); the cut cards are
        discarded, back to the deck.

        An empty run, one that does not lie within columns 1..n_cols, or one
        that crosses the storage seam raises before any card moves.
        """
        if self._face_up:
            raise _face_up_error(self)
        w, n = self.n_cols, col_hi - col_lo + 1
        if not 1 <= col_lo <= col_hi <= w:
            raise ValueError(f"matrix {self.id}: columns {col_lo}..{col_hi} not within 1..{w}")
        s = (col_lo - 1 - self.offset) % w  # storage column of col_lo
        if s + n > w:
            raise ValueError(f"matrix {self.id}: columns {col_lo}..{col_hi} cross the storage seam")
        rows, keep = self.rows, (1 << s) - 1
        for i, row in enumerate(rows):
            rows[i] = row & keep | row >> (s + n) << s
        del self.piles[s:s + n]
        # The column shown after col_hi sits at storage column s and is now
        # shown at col_lo.
        self.n_cols = w = w - n
        self.offset = (col_lo - 1 - s) % w if w else 0

    def take_row(self, row: int) -> Sequence:
        """Physically remove one laid-out row of cards, as a mask in visible order;
        a row outside 1..len(rows), a nonzero offset, or a row already taken
        raises, taking nothing."""
        if not 1 <= row <= len(self.rows):
            raise ValueError(f"matrix {self.id}: row {row} is not a row mask")
        if self.offset:
            raise RuntimeError(f"matrix {self.id}: taking a row under offset {self.offset}")
        mask = self.rows[row - 1]
        if mask is None:
            raise RuntimeError(f"matrix {self.id}: taking row {row} from an empty spot")
        self.rows[row - 1] = None  # type: ignore[call-overload]
        return mask

    def take_segment(self, col: int, count: int) -> list[Sequence]:
        """Take the whole piles of ``count`` columns from ``col`` rightwards.

        The run may wrap past the last visible column but must lie in one
        storage run. Each pile taken leaves ``None``. A column outside
        1..n_cols, a run that crosses the storage seam (a count above the
        width does), or a spot that is already ``None`` raises before any
        pile moves, so no card is made up or lost.
        """
        w = self.n_cols
        if not 1 <= col <= w:
            raise ValueError(f"matrix {self.id}: column {col} not within 1..{w}")
        p = (col - 1 - self.offset) % w
        end = p + count
        if end > w:
            raise RuntimeError(f"matrix {self.id}: piles from column {col} cross the storage seam")
        taken = self.piles[p:end]
        if None in taken:
            raise RuntimeError(f"matrix {self.id}: taking cards from empty spots")
        self.piles[p:end] = [None] * count
        return taken

    def put_segment(self, col: int, piles: list[Sequence]) -> None:
        """Fill the gaps from ``col`` rightwards with ``piles``, in one storage run
        as ``take_segment`` takes them.

        A column outside 1..n_cols, a pile deeper than ``depth``, a run across
        the seam, or an occupied spot raises before any pile moves.
        """
        w, count = self.n_cols, len(piles)
        if not 1 <= col <= w:
            raise ValueError(f"matrix {self.id}: column {col} not within 1..{w}")
        if count and max(piles) >> self.depth:
            raise ValueError(f"matrix {self.id}: pile deeper than {self.depth} cards")
        p = (col - 1 - self.offset) % w
        end = p + count
        if end > w:
            raise RuntimeError(f"matrix {self.id}: piles from column {col} cross the storage seam")
        if self.piles[p:end].count(None) != count:
            raise RuntimeError(f"matrix {self.id}: putting cards onto occupied spots")
        self.piles[p:end] = piles

    def pile_masks(self) -> list[Sequence]:
        """Private peek at the piles, left to right; not an observable event."""
        o = self.offset
        return self.piles[-o:] + self.piles[:-o] if o else list(self.piles)

    def snapshot(self) -> tuple:
        """Private peek at every column as a mask, left to right; not an observable event."""
        n, o, w = self.n_rows, self.offset, self.n_cols
        return tuple(self._column((j - o) % w, 1, n) for j in range(w))


def pile_shift_shuffle(matrix: Matrix, rng: RandomSource) -> None:
    """Secretly rotate all columns by a uniform random amount."""
    if matrix._face_up:
        raise _face_up_error(matrix)
    r = rng.offset(matrix.n_cols)
    if rng.trail is not None:
        rng.trail.append(("pile_shift", matrix.id, r))
    matrix.rotate(r)


def pile_scramble_shuffle(matrix: Matrix, rng: RandomSource) -> None:
    """Secretly reorder all columns by a uniform random permutation.

    The drawn permutation lists the old column index now sitting at each
    position, left to right. The matrix must be one ``permute`` takes: piles
    alone, at offset 0.
    """
    if matrix._face_up:
        raise _face_up_error(matrix)
    perm = rng.permutation(matrix.n_cols)
    matrix.permute(perm)
    if rng.trail is not None:
        rng.trail.append(("pile_scramble", matrix.id, tuple(perm)))


def rearrangement(
    matrix: Matrix, rng: RandomSource, site: DrawSite, transcript: Transcript
) -> None:
    """Realign columns so the Row 1 heart returns to Column 1.

    Shuffles first, so the revealed heart position carries no information
    about where the columns originally stood. One draw at the caller's
    ``site``, which reveals Row 1, aligns its heart to column 1 and carries
    the step's marks, so a refused draw logs nothing.
    """
    matrix.cut_and_read(rng, site, transcript)
