"""The card protocol: commitments, distance phase, room phase, accounting.

A board commits one length-k sequence per grid cell (k = biggest room
size); fixed cells are placed publicly from the clues, empty cells secretly
from the prover's claimed solution. Verification then runs two phases:

* distance phase: for each cell and direction, in ``distance_checks`` order,
  prove that the cell's value x does not reappear within the first x cells
  that way, without revealing x. ``verify_distance_direction`` takes the
  sequences off the grid and puts them back; ``_distance_direction`` runs the
  paper's steps on their masks alone: it inserts k-1 blank columns after the
  x-th neighbour under cover of shuffles, selects the k sequences starting at
  the first neighbour (exactly the x real neighbours plus blanks), and runs
  the uniqueness subprotocol against the cell's own sequence.
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
    MalformedCommitmentError,
    Matrix,
    RandomSource,
    Sequence,
    Transcript,
    decode,
    encode,
    marks,
    pile_scramble_shuffle,
    pile_shift_shuffle,
    rearrangement,
)
from .puzzle import (
    DIRECTIONS,
    Assignment,
    Cell,
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
# The marks of each distance check by cell and direction and of each
# uniqueness step by matrix id, and each room check's matrix id and marks by
# room: looked up rather than formatted per call, by the decoder's layout too.
CHECK_MARKS = cache(lambda cell, direction: marks(f"dist:{cell[0]},{cell[1]}:{direction}"))
UNIQUE_MARKS = cache(lambda matrix_id: marks(f"unique:{matrix_id}"))
ROOM_STEP = cache(lambda room: (f"R:{room}", *marks(f"room:{room}")))
DISTANCE_PHASE, ROOM_PHASE = "distance_phase", "room_phase"


@cache
def distance_checks(rows: int, cols: int, dedupe_directions: bool) -> tuple[tuple[Cell, str], ...]:
    """The (cell, direction) of every distance check of a rows x cols grid in
    run order: cells row-major, each in ``CHECKED_DIRECTIONS`` order."""
    cells = [(r, c) for r in range(1, rows + 1) for c in range(1, cols + 1)]
    return tuple((cell, d) for cell in cells for d in CHECKED_DIRECTIONS[dedupe_directions])


class Verdict(NamedTuple):
    """Protocol outcome; a reject names the reason and where it happened."""

    accepted: bool
    reason: str | None = None
    location: tuple | str | None = None

    @property
    def outcome(self) -> str:
        return "accept" if self.accepted else "reject"

    def loc_text(self) -> str | None:
        if self.location is None:
            return None
        if isinstance(self.location, str):
            return self.location
        cell, direction = self.location
        return f"({cell[0]},{cell[1]}):{direction}"


ACCEPT = Verdict(True)


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
    ``verify_distance_direction`` raises from hand formulas, not a live count."""

    def __init__(self, puzzle: Puzzle, k: int, cell_seq: dict[Cell, Sequence], aux_peak: int = 0):
        self.puzzle = puzzle
        self.k = k
        self.cell_seq = cell_seq
        self.aux_peak = aux_peak


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
    cell_seq: dict[Cell, Sequence] = {}
    for cell in puzzle.cells:
        value = puzzle.fixed.get(cell)
        if value is None:
            value = prover.assignment[cell]
        if not 0 <= value <= k:
            raise MalformedCommitmentError(
                f"value {value} at cell {cell} cannot be encoded with {k} cards"
            )
        cell_seq[cell] = encode(value, k)
    return Board(puzzle=puzzle, k=k, cell_seq=cell_seq)


def _uniqueness_on_matrix(matrix: Matrix, rng: RandomSource, transcript: Transcript) -> bool:
    """Steps 2-5 of the uniqueness subprotocol on an already-built matrix.

    Row 2 holds the reference sequence; rows 3 and below hold the sequences
    that must not repeat its number. Returns True when the column under the
    reference heart shows no heart below Row 2.
    """
    pile_shift_shuffle(matrix, rng)
    enter, leave = UNIQUE_MARKS(matrix.id)
    events = transcript.events
    events.append(enter)
    try:
        j = matrix.read_heart(2, transcript)
        ok = HEART not in matrix.reveal_segment(j, 3, matrix.n_rows, transcript)
    finally:
        events.append(leave)
    if ok:
        matrix._face_up = 0  # flip_down, without the call
    return ok


def verify_distance_direction(
    board: Board,
    cell: Cell,
    direction: str,
    rng: RandomSource,
    transcript: Transcript,
) -> Verdict:
    """One distance check: cell's value x must not recur within x steps that way.

    Takes the cell's sequence and its k neighbours that way off the board,
    padded with public all-club sequences past the edge, for
    ``_distance_direction``; on accept every sequence goes back on its cell,
    still face-down. Every check starts with no auxiliary card out, so the
    peak rises to 3k + pad*k (public rows and padding) before the first
    draw, and by (k-1)(k+2) for step 7's blank block unless step 2 raised.
    """
    k, cell_seq = board.k, board.cell_seq
    grid_cells = board.puzzle.rays[cell, direction]
    reach = len(grid_cells)
    a0 = cell_seq.pop(cell)
    neighbours = list(map(cell_seq.pop, grid_cells))
    if reach < k:
        neighbours += [0] * (k - reach)
    aux = (3 + k - reach) * k
    if aux > board.aux_peak:
        board.aux_peak = aux
    enter, leave = CHECK_MARKS(cell, direction)
    events = transcript.events
    events.append(enter)
    try:
        returned = _distance_direction(k, a0, neighbours, rng, transcript, (cell, direction))
    except MalformedCommitmentError:
        return Verdict(False, MALFORMED_COMMITMENT, (cell, direction))
    finally:
        events.append(leave)
    aux += (k - 1) * (k + 2)
    if aux > board.aux_peak:
        board.aux_peak = aux
    if returned is None:
        return Verdict(False, DISTANCE_HEART_FOUND, (cell, direction))
    cell_seq[cell], piles = returned
    cell_seq.update(zip(grid_cells, piles))
    if rng.trail is not None:
        back = [cell_seq[c] for c in (cell, *grid_cells)] + piles[reach:]
        values = [tuple(map(decode, seqs)) for seqs in ([a0, *neighbours], back)]
        rng.trail.record("restore", cell, direction, *values)
    return ACCEPT


@cache
def _blank_block(k: int) -> Matrix:
    """Step 7's k-1 appended columns, built once per k and shared: ``append_columns``
    only reads a block whose offset is 0."""
    return Matrix("M2", k - 1, [0, 1], [0] * (k - 1), k)


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
    ``where`` labels the private trail records and nothing else."""
    trail = rng.trail

    # Step 1: rows [indicator, a0, indicator, blank] over k columns, with
    # neighbour i's sequence as the pile under column i. The indicator
    # encode(1, k) is the mask 1.
    m = Matrix("M", k, [1, a0, 1, 0], neighbours.copy(), k)

    # Steps 2-4: shuffle, find a0's heart, park its column at the right edge.
    pile_shift_shuffle(m, rng)
    m.shift(k - m.read_heart(2, transcript), transcript)

    if trail is not None:
        x = decode(a0)
        parked = m.pile_masks()[k - 1]
        trail.record("align_rightmost", *where, x, neighbours[x - 1], parked)

    # Steps 5-6: split off the top two rows and realign them on their own.
    m1, m2 = m.split_rows(2, "M1", "M2")
    rearrangement(m1, rng, transcript)

    # Step 7: append k-1 blank columns behind a fresh indicator pair: Row 1
    # blank, Row 2 an indicator whose heart is in the first appended column.
    if k > 1:
        block = _blank_block(k)
        if trail is not None:
            appended = block.snapshot()
        m2.append_columns(block)

    # Steps 8-9: shuffle, find the first neighbour's column.
    pile_shift_shuffle(m2, rng)
    j2 = m2.read_heart(1, transcript)

    # Step 10: select the k consecutive piles starting there, wrapping
    # past the last column.
    selected = m2.take_segment(j2, k)

    if trail is not None:
        expected = neighbours[:x] + [0] * (k - x)
        trail.record("selection", *where, x, expected, selected)

    # Steps 10-11: stack them under the cell's own sequence and check
    # none repeats its number.
    n = Matrix.from_rows("N", k, [m1.take_row(1), m1.take_row(2), *selected])
    if not _uniqueness_on_matrix(n, rng, transcript):
        return None

    # Step 12: realign, take a0 back and return the piles to the matrix.
    rearrangement(n, rng, transcript)
    a0 = n.take_row(2)
    piles = []
    for row in range(3, k + 3):
        piles.append(n.take_row(row))
    m2.put_segment(j2, piles)

    # Steps 13-15: hide the seam again, then cut the appended columns off.
    if k > 1:
        pile_shift_shuffle(m2, rng)
        m2.shift(k + 1 - m2.read_heart(2, transcript), transcript)
        removed = m2.remove_columns(k + 1, 2 * k - 1)
        if trail is not None:
            trail.record("removed_block", *where, appended, removed.snapshot())

    # Step 16: realign; the piles come back in neighbour order.
    rearrangement(m2, rng, transcript)
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


def verify_distance_phase(
    board: Board,
    rng: RandomSource,
    transcript: Transcript,
    dedupe_directions: bool = False,
) -> Verdict:
    """Every distance check in ``distance_checks`` order, stopping at the first
    reject. With ``dedupe_directions`` only right and down run, which still
    covers every pair once since the rule is symmetric.
    """
    puzzle = board.puzzle
    return _phase(DISTANCE_PHASE, transcript, (
        verify_distance_direction(board, cell, direction, rng, transcript)
        for cell, direction in distance_checks(puzzle.rows, puzzle.cols, dedupe_directions)
    ))


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
    cells = board.puzzle.room_cells[room]
    matrix_id, enter, leave = ROOM_STEP(room)
    events = transcript.events
    events.append(enter)
    try:
        piles = [board.cell_seq.pop(c) for c in cells]
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
    """Full run: setup, distance phase, then room phase over every room.

    A setup reject runs no phase and uses no auxiliary card; the room phase
    runs only when the distance phase accepts.
    Secret draws and private snapshots go to ``rng.trail`` when it is set.
    """
    transcript = Transcript()
    try:
        board = setup(puzzle, prover)
    except MalformedCommitmentError:
        board = Board(puzzle, max_room_size(puzzle), {})
        verdict = Verdict(False, MALFORMED_COMMITMENT, "setup")
    else:
        verdict = verify_distance_phase(board, rng, transcript, dedupe_directions)
        if verdict.accepted:
            rooms = (verify_room(board, room, rng, transcript) for room in puzzle.room_cells)
            verdict = _phase(ROOM_PHASE, transcript, rooms)
    transcript.verdict(verdict.outcome, verdict.reason, verdict.loc_text())
    grid_cards = board.k * puzzle.rows * puzzle.cols
    return ProtocolResult(verdict, transcript, CardStats(grid_cards, board.aux_peak))


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
