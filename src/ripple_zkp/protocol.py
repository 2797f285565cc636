"""The card protocol: commitments, distance phase, room phase, accounting.

A board commits one length-k sequence per grid cell (k = biggest room
size); fixed cells are placed publicly from the clues, empty cells secretly
from the prover's claimed solution. Verification (``run_protocol``) then
runs two phases, each between its marks up to its first reject (``_phase``):

* distance phase: for each cell and direction, in ``check_plan`` order,
  prove that the cell's value x does not reappear within the first x cells
  that way, without revealing x. The board is one flat list in row-major
  cell order, and ``check_plan``, built once per shape, k and direction
  set, is the one statement of which checks run, in what order, and with
  what constants: each entry holds its cell as an index and its ray as a
  slice of that list, its blank padding, its two auxiliary peaks, its label
  and its marks. ``verify_distance_direction`` takes one entry, takes the
  sequences off the grid and puts them back by slice;
  ``_distance_direction`` runs the paper's steps on their masks alone: it
  inserts k-1 blank columns after the x-th neighbour under cover of
  shuffles, selects the k sequences starting at the first neighbour
  (exactly the x real neighbours plus blanks), and runs the uniqueness
  subprotocol against the cell's own sequence. Each secret draw is one
  ``Matrix.cut_and_read`` at a ``cards.DrawSite`` from one table per k,
  ``_check_constants``, which holds a check's seven sites in draw order.
* room phase: per room, scramble the room's sequences and reveal them all;
  read by ``cards._ONE_HEART``, they must be a permutation of 1..size.

Verdicts, card stats and prover inputs are named tuples; the board is the
one mutable record, changed in place by the checks and equal only to itself.

Honest runs always accept; any committed grid violating a rule is always
rejected; every revealed heart position is uniform thanks to a fresh
shuffle before each reveal.
"""
from __future__ import annotations

from functools import cache
from typing import NamedTuple

from .cards import (
    _ONE_HEART,
    HEART,
    DrawSite,
    MalformedCommitmentError,
    Matrix,
    RandomSource,
    Sequence,
    Transcript,
    decode,
    encode,
    marks,
    pile_scramble_shuffle,
    rearrangement,
)
from .puzzle import (
    DIRECTION_STEPS,
    DIRECTIONS,
    Assignment,
    Puzzle,
    RoomId,
    max_room_size,
    validate,
)

DISTANCE_HEART_FOUND = "DistanceHeartFound"
ROOM_MULTISET_MISMATCH = "RoomMultisetMismatch"
MALFORMED_COMMITMENT = "MalformedCommitment"

# Directions each cell is checked in, keyed by dedupe_directions.
CHECKED_DIRECTIONS = {False: DIRECTIONS, True: ("right", "down")}
# Each room check's matrix id and marks by room: looked up rather than built
# per call, by the decoder's layout too.
ROOM_STEP = cache(lambda room: (f"R:{room}", *marks(f"room:{room}")))
DISTANCE_PHASE, ROOM_PHASE = "distance_phase", "room_phase"


@cache
def check_plan(rows: int, cols: int, k: int, dedupe_directions: bool) -> tuple[tuple, ...]:
    """Every distance check of a rows x cols grid at card count k, in run
    order (cells row-major, each in ``CHECKED_DIRECTIONS`` order), with its
    constants.

    An entry is ``(index, ray, reach, pad, aux, aux_end, where, marks)``:
    ``index`` is the cell's spot in the row-major board and ``ray`` the
    slice of the board holding the next ``reach`` cells that way, nearest
    first, stepped from ``DIRECTION_STEPS`` up to k cells or the grid edge;
    ``pad`` is the tuple of ``k - reach`` blank sequences past the edge;
    ``aux`` and ``aux_end`` are the auxiliary peaks before the first draw and
    after step 7; ``where`` is ``(cell, direction)``, which labels the trail
    and a reject; ``marks`` is the check's shared ``cards.marks`` pair.
    Nothing in an entry is mutable, so every board of the shape shares it.
    """
    plan = []
    for i in range(rows * cols):
        r, c = divmod(i, cols)
        for direction in CHECKED_DIRECTIONS[dedupe_directions]:
            dr, dc = DIRECTION_STEPS[direction]
            # A step that leaves the grid never comes back, so the in-grid steps are the ray.
            reach = sum(0 <= r + dr * d < rows and 0 <= c + dc * d < cols for d in range(1, k + 1))
            step = dr * cols + dc
            stop = i + step * (reach + 1)
            ray = slice(i + step, stop if stop >= 0 else None, step) if reach else slice(i, i)
            aux = (3 + k - reach) * k
            plan.append((
                i, ray, reach, (0,) * (k - reach), aux, aux + (k - 1) * (k + 2),
                ((r + 1, c + 1), direction), marks(f"dist:{r + 1},{c + 1}:{direction}"),
            ))
    return tuple(plan)


class Verdict(NamedTuple):
    """Protocol outcome; a reject names the reason and where it happened."""

    accepted: bool
    reason: str | None = None
    location: tuple | str | None = None

    def loc_text(self) -> str | None:
        if self.location is None:
            return None
        if isinstance(self.location, str):
            return self.location
        cell, direction = self.location
        return f"({cell[0]},{cell[1]}):{direction}"


ACCEPT = Verdict(True)
# The last event of every accepting transcript, the one the decoder's layout renders.
ACCEPT_EVENT = ("verdict", "accept", None, None)


class CardStats(NamedTuple):
    """Deck usage: cards on the grid plus the auxiliary peak beside it."""

    grid_cards: int
    peak_aux_cards: int

    @property
    def total(self) -> int:
        return self.grid_cards + self.peak_aux_cards


class ProverInput(NamedTuple):
    """The claimed solution; honest provers are checked against the rules."""

    assignment: Assignment
    honest: bool = True


class Board:
    """Face-down commitments on the grid plus the auxiliary card peak, which
    ``verify_distance_direction`` raises from hand formulas, not a live count.

    ``cell_seq`` is one flat list, a sequence per cell in ``puzzle.cells``
    (row-major) order, ``None`` where a check has taken the cards off; a
    ``check_plan`` entry gives each check's cell and ray of neighbours as an
    index and a slice of it.
    """

    def __init__(self, puzzle: Puzzle, k: int, cell_seq: list[Sequence | None]):
        self.puzzle = puzzle
        self.k = k
        self.cell_seq = cell_seq
        self.aux_peak = 0


class ProtocolResult(NamedTuple):
    verdict: Verdict
    transcript: Transcript
    stats: CardStats


def setup(puzzle: Puzzle, prover: ProverInput) -> Board:
    """Commit one length-k sequence per cell.

    Fixed cells take the puzzle's clue value no matter what the prover
    claims (their placement is public); other cells take the prover's
    value. Values outside 0..k cannot be encoded and fail immediately.
    """
    if prover.honest and validate(puzzle, prover.assignment):
        raise ValueError("honest prover requires a rule-satisfying assignment")
    k = max_room_size(puzzle)
    cell_seq: list[Sequence | None] = []
    for cell in puzzle.cells:
        value = puzzle.fixed.get(cell)
        if value is None:
            value = prover.assignment[cell]
        if not 0 <= value <= k:
            raise MalformedCommitmentError(
                f"value {value} at cell {cell} cannot be encoded with {k} cards"
            )
        cell_seq.append(encode(value, k))
    return Board(puzzle=puzzle, k=k, cell_seq=cell_seq)


def _uniqueness_on_matrix(
    matrix: Matrix, rng: RandomSource, site: DrawSite, step_marks: tuple, transcript: Transcript
) -> bool:
    """Steps 2-5 of the uniqueness subprotocol on an already-built matrix.

    Row 2 holds the reference sequence; rows 3 and below hold the sequences
    that must not repeat its number. The shuffle and the reveal of Row 2 are
    one draw at ``site``, with no public shift, between the enter and exit
    marks ``step_marks``, whose exit follows the segment reveal. Returns
    True when the column under the reference heart shows no heart below Row 2.
    """
    enter, leave = step_marks
    events = transcript.events
    events.append(enter)
    try:
        j = matrix.cut_and_read(rng, site, transcript)
        ok = HEART not in matrix.reveal_segment(j, 3, matrix.n_rows, transcript)
    finally:
        events.append(leave)
    if ok:
        matrix._face_up = 0  # the segment's cards go face down again
    return ok


def verify_distance_direction(
    board: Board,
    check: tuple,
    rng: RandomSource,
    transcript: Transcript,
) -> Verdict:
    """One distance check, a ``check_plan`` entry of the board's shape and k:
    the cell's value x must not recur within x steps that way.

    Takes the cell's sequence and its k neighbours that way off the board,
    at the entry's index and slice, leaving ``None`` in their spots; pads
    them with the entry's public all-club sequences past the edge for
    ``_distance_direction``; on accept every sequence goes back on its cell,
    still face-down, and on reject the cards stay off. Every check starts
    with no auxiliary card out, so the peak rises to the entry's ``aux``,
    3k + pad*k (public rows and padding), before the first draw, and to its
    ``aux_end``, (k-1)(k+2) more for step 7's blank block, unless step 2
    raised. The entry also holds the marks and the label of the check, so
    no per-call value is built here.
    """
    k, seqs = board.k, board.cell_seq
    i, ray, reach, pad, aux, aux_end, where, (enter, leave) = check
    a0 = seqs[i]
    neighbours = seqs[ray]
    seqs[i] = None
    seqs[ray] = [None] * reach
    neighbours += pad
    if aux > board.aux_peak:
        board.aux_peak = aux
    events = transcript.events
    events.append(enter)
    try:
        returned = _distance_direction(k, a0, neighbours, rng, transcript, where)
    except MalformedCommitmentError:
        return Verdict(False, MALFORMED_COMMITMENT, where)
    finally:
        events.append(leave)
    if aux_end > board.aux_peak:
        board.aux_peak = aux_end
    if returned is None:
        return Verdict(False, DISTANCE_HEART_FOUND, where)
    seqs[i], piles = returned
    seqs[ray] = piles[:reach]
    if rng.trail is not None:
        back = [seqs[i], *seqs[ray], *piles[reach:]]
        values = [tuple(map(decode, side)) for side in ([a0, *neighbours], back)]
        rng.trail.append(("restore", *where, *values))
    return ACCEPT


@cache
def _check_constants(k: int) -> tuple[tuple[DrawSite, ...], tuple[tuple, tuple], Matrix]:
    """A card-count-k check's ``(sites, unique_marks, block)``, built once per k
    and shared by every check: its seven draw sites in draw order (steps 2,
    6, 8, 11, 12, 13 and 16; the realignments' carry their marks), the
    uniqueness step's marks, kept off its site since its exit follows the
    segment reveal, and step 7's k-1 appended columns, which
    ``append_columns`` only reads at offset 0."""
    sites = (
        DrawSite("M", 2, k), DrawSite("M1", 1, 1, marks("rearr:M1")), DrawSite("M2", 1),
        DrawSite("N", 2), DrawSite("N", 1, 1, marks("rearr:N")), DrawSite("M2", 2, k + 1),
        DrawSite("M2", 1, 1, marks("rearr:M2")),
    )
    return sites, marks("unique:N"), Matrix("M2", k - 1, [0, 1], [0] * (k - 1), k)


def _distance_direction(
    k: int,
    a0: Sequence,
    neighbours: list[Sequence],
    rng: RandomSource,
    transcript: Transcript,
    where: tuple,
) -> tuple[Sequence, list[Sequence]] | None:
    """Steps 1-16 on heart masks: x, a0's heart position, is not among the first
    x ``neighbours``. Returns ``(a0, piles)``, both unchanged, on accept and None
    when a heart shows; an ``a0`` without exactly one heart raises at step 2.
    Each of the seven secret draws (steps 2, 6, 8, 11, 12, 13 and 16) is one
    ``Matrix.cut_and_read`` at its site in ``_check_constants(k)``: a
    shuffle, a row reveal read for its heart and, where the step aligns, its
    public shift. ``where`` labels the tuples appended to the private trail
    and nothing else."""
    trail = rng.trail
    sites, unique_marks, block = _check_constants(k)
    step_2, realign_m1, step_8, step_11, realign_n, step_13, realign_m2 = sites

    # Step 1: rows [indicator, a0, indicator, blank] over k columns, with
    # neighbour i's sequence as the pile under column i. The indicator
    # encode(1, k) is the mask 1.
    m = Matrix("M", k, [1, a0, 1, 0], neighbours.copy(), k)

    # Steps 2-4: shuffle, find a0's heart, and shift its column to column k,
    # the right edge.
    m.cut_and_read(rng, step_2, transcript)

    if trail is not None:
        x = decode(a0)
        parked = m.pile_masks()[k - 1]
        trail.append(("align_rightmost", *where, x, neighbours[x - 1], parked))

    # Steps 5-6: split off the top two rows and realign them on their own.
    m1, m2 = m.split_rows(2, "M1", "M2")
    rearrangement(m1, rng, realign_m1, transcript)

    # Step 7: append k-1 blank columns behind a fresh indicator pair: Row 1
    # blank, Row 2 an indicator whose heart is in the first appended column.
    if k > 1:
        if trail is not None:
            appended = block.snapshot()
        m2.append_columns(block)

    # Steps 8-9: shuffle, find the first neighbour's column by Row 1's
    # heart; no public shift follows.
    j2 = m2.cut_and_read(rng, step_8, transcript)

    # Step 10: select the k consecutive piles starting there, wrapping
    # past the last column.
    selected = m2.take_segment(j2, k)

    if trail is not None:
        expected = neighbours[:x] + [0] * (k - x)
        trail.append(("selection", *where, x, expected, selected))

    # Steps 10-11: stack them under the cell's own sequence and check
    # none repeats its number.
    n = Matrix.from_rows("N", k, [m1.take_row(1), m1.take_row(2), *selected])
    if not _uniqueness_on_matrix(n, rng, step_11, unique_marks, transcript):
        return None

    # Step 12: realign, take a0 back and return the piles to the matrix.
    rearrangement(n, rng, realign_n, transcript)
    a0 = n.take_row(2)
    piles = []
    for row in range(3, k + 3):
        piles.append(n.take_row(row))
    m2.put_segment(j2, piles)

    # Steps 13-15: hide the seam again with a shuffle, shift Row 2's heart,
    # on the first appended column, to column k + 1, then cut the appended
    # columns off; they go back to the deck, and the trail reads them just
    # before the cut.
    if k > 1:
        m2.cut_and_read(rng, step_13, transcript)
        if trail is not None:
            trail.append(("removed_block", *where, appended, m2.snapshot()[k:]))
        m2.remove_columns(k + 1, 2 * k - 1)

    # Step 16: realign; the piles come back in neighbour order.
    rearrangement(m2, rng, realign_m2, transcript)
    return a0, m2.pile_masks()


def _phase(name: str, transcript: Transcript, verdicts) -> Verdict:
    """Phase ``name``'s checks between its marks, up to the first reject: ``verdicts``
    runs one check per item, so no check after a reject runs or draws."""
    enter, leave = marks(name)
    events = transcript.events
    events.append(enter)
    try:
        for verdict in verdicts:
            if not verdict.accepted:
                return verdict
    finally:
        events.append(leave)
    return ACCEPT


def verify_room(
    board: Board,
    room: RoomId,
    rng: RandomSource,
    transcript: Transcript,
) -> Verdict:
    """Scramble the room's piles and reveal them; they must read 1..size.

    Columns are read by ``cards._ONE_HEART``; one without exactly one heart
    is malformed. The cards are consumed: the room phase ends the run.
    """
    cols, seqs = board.puzzle.cols, board.cell_seq
    cells = board.puzzle.room_cells[room]
    matrix_id, enter, leave = ROOM_STEP(room)
    events = transcript.events
    events.append(enter)
    try:
        piles = []
        for r, c in cells:
            spot = (r - 1) * cols + c - 1
            piles.append(seqs[spot])
            seqs[spot] = None
        matrix = Matrix(matrix_id, len(cells), piles=piles, depth=board.k)
        pile_scramble_shuffle(matrix, rng)
        values = list(map(_ONE_HEART.get, matrix.reveal_all(transcript)))
    finally:
        events.append(leave)
    if None in values:
        return Verdict(False, MALFORMED_COMMITMENT, room)
    if sorted(values) != list(range(1, len(cells) + 1)):
        return Verdict(False, ROOM_MULTISET_MISMATCH, room)
    return ACCEPT


def run_protocol(
    puzzle: Puzzle,
    prover: ProverInput,
    rng: RandomSource,
    dedupe_directions: bool = False,
) -> ProtocolResult:
    """Full run: setup, every distance check in ``check_plan`` order, then the
    room phase over every room, which runs only when the distance phase accepts.

    With ``dedupe_directions`` only right and down run, which still covers
    every pair once since the rule is symmetric. A setup reject runs no phase
    and uses no auxiliary card.
    Secret draws and private snapshots are appended to the list ``rng.trail``
    when it is set.
    """
    transcript = Transcript()
    try:
        board = setup(puzzle, prover)
    except MalformedCommitmentError:
        k, peak = max_room_size(puzzle), 0
        verdict = Verdict(False, MALFORMED_COMMITMENT, "setup")
    else:
        k = board.k
        plan = check_plan(puzzle.rows, puzzle.cols, k, dedupe_directions)
        checks = (verify_distance_direction(board, check, rng, transcript) for check in plan)
        verdict = _phase(DISTANCE_PHASE, transcript, checks)
        if verdict.accepted:
            rooms = (verify_room(board, room, rng, transcript) for room in puzzle.room_cells)
            verdict = _phase(ROOM_PHASE, transcript, rooms)
        peak = board.aux_peak
    if verdict.accepted:
        transcript.events.append(ACCEPT_EVENT)
    else:
        transcript.events.append(("verdict", "reject", verdict.reason, verdict.loc_text()))
    return ProtocolResult(verdict, transcript, CardStats(k * puzzle.rows * puzzle.cols, peak))


def card_stats(puzzle: Puzzle) -> CardStats:
    """Closed-form deck size: k per cell plus the auxiliary peak.

    The auxiliary peak is 3k for the three public rows of the distance
    matrix, (k-1)(k+2) for the appended blank block, and k*k for the
    padding sequences of a fully off-grid direction; all three coexist
    whenever an edge cell is checked outward.
    """
    k = max_room_size(puzzle)
    return CardStats(
        grid_cards=k * puzzle.rows * puzzle.cols,
        peak_aux_cards=2 * k * k + 4 * k - 2,
    )
