"""Ripple Effect puzzle model: text formats, rule validation, and solving.

A puzzle is an m x n grid split into rooms (edge-connected polyominoes),
some cells carrying a fixed clue value. A filled grid is a solution when

  1. every room of size s contains exactly the values 1..s, and
  2. two cells in the same row or column holding the same value x are
     separated by at least x cells.

A ``Puzzle`` is a plain read-only class that equals only itself; an
``Assignment`` and a ``Violation`` are named tuples, compared by value.
``validate`` is the non-cryptographic ground truth used as an oracle by the
card protocol tests; ``solve`` is a complete backtracking search with
forward checking over bitmask domains.
"""
from __future__ import annotations

from collections import Counter, deque
from functools import cached_property
from typing import NamedTuple

Cell = tuple[int, int]  # (row, col), 1-based
RoomId = str

ROOM_CONTENT = "RoomContent"
DISTANCE = "Distance"
FIXED_MISMATCH = "FixedMismatch"

DIRECTIONS = ("right", "left", "up", "down")
DIRECTION_STEPS: dict[str, Cell] = {
    "right": (0, 1),
    "left": (0, -1),
    "up": (-1, 0),
    "down": (1, 0),
}


class PuzzleFormatError(ValueError):
    """Malformed puzzle or solution text. The message carries the line number,
    except for empty text, a wrong count of content lines or of solution rows,
    and a room that is not edge-connected."""


class Puzzle:
    """Grid geometry, room partition, and fixed clue cells: read-only
    fields, identity equality, and two tables cached on first use."""

    def __init__(self, rows: int, cols: int, room_of: dict[Cell, RoomId], fixed: dict[Cell, int]):
        vars(self).update(rows=rows, cols=cols, room_of=room_of, fixed=fixed)

    def __setattr__(self, name, *_):
        raise AttributeError(f"cannot assign to Puzzle field {name!r}")

    __delattr__ = __setattr__

    @cached_property
    def cells(self) -> tuple[Cell, ...]:
        return tuple(
            (r, c) for r in range(1, self.rows + 1) for c in range(1, self.cols + 1)
        )

    @cached_property
    def room_cells(self) -> dict[RoomId, tuple[Cell, ...]]:
        """Cells per room in row-major order; rooms keyed in first-cell order."""
        grouped: dict[RoomId, list[Cell]] = {}
        for cell in self.cells:
            grouped.setdefault(self.room_of[cell], []).append(cell)
        return {room: tuple(cells) for room, cells in grouped.items()}


class Assignment(NamedTuple):
    """A value for every cell, stored as row tuples; indexed by cell, not position."""

    values: tuple[tuple[int, ...], ...]

    @classmethod
    def from_rows(cls, rows) -> "Assignment":
        return cls(tuple(tuple(int(v) for v in row) for row in rows))

    def __getitem__(self, cell: Cell) -> int:
        r, c = cell
        if r < 1 or c < 1:  # not an index from the end
            raise IndexError(f"cell {cell} is off the grid")
        return self.values[r - 1][c - 1]

    def with_value(self, cell: Cell, value: int) -> "Assignment":
        """A copy with ``int(value)`` at ``cell``; only that cell's row is rebuilt."""
        r, c = cell
        if r < 1 or c < 1:
            raise IndexError(f"cell {cell} is off the grid")
        values = list(self.values)
        row = list(values[r - 1])
        row[c - 1] = int(value)
        values[r - 1] = tuple(row)
        return Assignment(tuple(values))

    def to_text(self) -> str:
        return "\n".join(" ".join(str(v) for v in row) for row in self.values) + "\n"


class Violation(NamedTuple):
    """One broken rule: which kind, the cells involved, and a description."""

    kind: str
    cells: tuple[Cell, ...]
    detail: str


def _content_lines(text: str) -> list[tuple[int, list[str]]]:
    """Non-blank, non-comment lines as (1-based line number, tokens)."""
    out = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        out.append((lineno, line.split()))
    return out


def _rows(lines: list[tuple[int, list[str]]], n: int, what: str):
    """(line number, 1-based row, tokens) per line; a line without n tokens raises."""
    for row, (lineno, tokens) in enumerate(lines, start=1):
        if len(tokens) != n:
            raise PuzzleFormatError(
                f"line {lineno}: expected {n} {what}, got {len(tokens)} (ragged grid)"
            )
        yield lineno, row, tokens


def _number(token: str, lineno: int, what: str, top: int | None = None) -> int:
    """The value of a number token: ASCII digits only, from 1 to ``top`` (no
    upper bound when None); any other token raises, naming its line."""
    if not (token.isascii() and token.isdigit()):
        raise PuzzleFormatError(f"line {lineno}: {what} must be digits 0-9, got {token!r}")
    try:
        value = int(token)
    except ValueError:  # more digits than the interpreter converts
        raise PuzzleFormatError(f"line {lineno}: {what} is too long ({len(token)} digits)") from None
    if value < 1 or top is not None and value > top:
        bound = "positive" if top is None else f"from 1 to {top}"
        raise PuzzleFormatError(f"line {lineno}: {what} must be {bound}, got {value}")
    return value


def parse_puzzle(text: str) -> Puzzle:
    """Parse the puzzle text format.

    Line 1 holds ``m n``; the next m lines hold n room labels each (equal
    labels form one room); the final m lines hold ``.`` for empty cells or a
    clue from 1 to the cell's room size. Numbers are ASCII digits. Blank
    lines and ``#`` comments are skipped.
    """
    lines = _content_lines(text)
    if not lines:
        raise PuzzleFormatError("empty puzzle text")
    lineno, header = lines[0]
    if len(header) != 2:
        raise PuzzleFormatError(f"line {lineno}: expected 'm n', got {' '.join(header)!r}")
    m = _number(header[0], lineno, "row count")
    n = _number(header[1], lineno, "column count")
    if len(lines) != 1 + 2 * m:
        raise PuzzleFormatError(
            f"expected {1 + 2 * m} content lines for a {m}x{n} grid, got {len(lines)}"
        )

    room_of: dict[Cell, RoomId] = {}
    for _, r, tokens in _rows(lines[1 : m + 1], n, "room labels"):
        room_of.update(((r, c), label) for c, label in enumerate(tokens, start=1))
    size = Counter(room_of.values())

    fixed: dict[Cell, int] = {}
    for lineno, r, tokens in _rows(lines[m + 1 :], n, "value tokens"):
        for c, token in enumerate(tokens, start=1):
            if token != ".":
                top = size[room_of[(r, c)]]
                fixed[(r, c)] = _number(token, lineno, f"cell ({r},{c}): clue", top)

    puzzle = Puzzle(rows=m, cols=n, room_of=room_of, fixed=fixed)
    _check_rooms_connected(puzzle)
    return puzzle


def _check_rooms_connected(puzzle: Puzzle) -> None:
    for room, cells in puzzle.room_cells.items():
        members = set(cells)
        seen = {cells[0]}
        queue = deque(seen)
        while queue:
            r, c = queue.popleft()
            for nb in ((r - 1, c), (r + 1, c), (r, c - 1), (r, c + 1)):
                if nb in members and nb not in seen:
                    seen.add(nb)
                    queue.append(nb)
        if len(seen) != len(members):
            raise PuzzleFormatError(f"room {room!r} is not edge-connected")


def parse_solution(text: str, puzzle: Puzzle) -> Assignment:
    """Parse the solution text format: m lines of n positive integers."""
    lines = _content_lines(text)
    if len(lines) != puzzle.rows:
        raise PuzzleFormatError(f"expected {puzzle.rows} solution rows, got {len(lines)}")
    return Assignment(tuple(
        tuple(_number(token, lineno, "value") for token in tokens)
        for lineno, _, tokens in _rows(lines, puzzle.cols, "values")
    ))


def validate(puzzle: Puzzle, asg: Assignment) -> list[Violation]:
    """All rule violations of ``asg``; empty list iff it is a solution.

    Emits one RoomContent per bad room, one Distance per unordered pair of
    equal values placed too close in a row or column, and one FixedMismatch
    per disagreeing clue cell.

    FixedMismatch has no protocol counterpart: ``protocol.setup`` commits a
    fixed cell's clue whatever the claim says, so the protocol judges such a
    claim as if it held the clue. That is why 30 of the soundness sweep's
    245 single-cell mutations of the 7x7 (6 clue cells times 5 other values)
    stay valid.
    """
    out: list[Violation] = []
    grid = asg.values

    for room, cells in puzzle.room_cells.items():
        values = sorted(grid[r - 1][c - 1] for r, c in cells)
        if values != list(range(1, len(cells) + 1)):
            out.append(
                Violation(
                    ROOM_CONTENT,
                    cells,
                    f"room {room!r} holds {values}, wants 1..{len(cells)}",
                )
            )

    rows, cols = puzzle.rows, puzzle.cols
    columns = list(zip(*grid))
    for r1 in range(1, rows + 1):
        row = grid[r1 - 1]
        for c1 in range(1, cols + 1):
            x = row[c1 - 1]
            # Right along the row and down the column to the grid edge; each
            # close pair found once. A cell whose next x cells either way
            # hold no x has none.
            if x not in row[c1:c1 + x] and x not in columns[c1 - 1][r1:r1 + x]:
                continue
            for d in range(1, min(x, max(rows - r1, cols - c1)) + 1):
                for r2, c2 in ((r1, c1 + d), (r1 + d, c1)):
                    if r2 <= rows and c2 <= cols and grid[r2 - 1][c2 - 1] == x:
                        out.append(
                            Violation(
                                DISTANCE,
                                ((r1, c1), (r2, c2)),
                                f"value {x} repeats with {d - 1} cells between",
                            )
                        )

    for cell, value in puzzle.fixed.items():
        held = grid[cell[0] - 1][cell[1] - 1]
        if held != value:
            out.append(
                Violation(
                    FIXED_MISMATCH,
                    (cell,),
                    f"cell {cell} holds {held}, clue says {value}",
                )
            )
    return out


def max_room_size(puzzle: Puzzle) -> int:
    """Size of the biggest room; the encoding length used by the protocol."""
    return max(len(cells) for cells in puzzle.room_cells.values())


def solve(puzzle: Puzzle, limit: int | None = 1) -> list[Assignment]:
    """Up to ``limit`` solutions by backtracking with forward checking (None = all).

    Deterministic: cells are filled row-major, candidate values ascending,
    so results come out in lexicographic order. Every cell keeps a bitmask
    domain of candidates: its room's values 1..s, or only its clue (no
    candidate when the clue lies outside 1..s). Placing v clears bit v from
    the later cells of the same room and from the next v cells to the right
    and below; a placement that empties a domain is taken back at once.
    Pruning only discards provably dead branches, so an empty result means
    unsatisfiable.
    """
    if limit is not None and limit < 1:
        raise ValueError("limit must be positive")

    rows, cols = puzzle.rows, puzzle.cols
    total = rows * cols
    # Cell i is (i // cols + 1, i % cols + 1); bit v of domain[i] stands for
    # value v. peers[i] holds the later cells of i's room, then the cells to
    # its right and below by distance, so peers[i][:reach[i][v]] are the
    # cells that cannot hold v once i does.
    domain = [0] * total
    peers: list[list[int]] = [[]] * total
    reach: list[list[int]] = [[]] * total
    for room in puzzle.room_cells.values():
        s = len(room)
        order = [(r - 1) * cols + c - 1 for r, c in room]
        for k, (r, c) in enumerate(room):
            i = order[k]
            clue = puzzle.fixed.get((r, c))
            if clue is None:
                domain[i] = (1 << (s + 1)) - 2
            elif 1 <= clue <= s:
                domain[i] = 1 << clue
            near = order[k + 1 :]
            counts = [len(near)]
            for d in range(1, s + 1):
                if c + d <= cols:
                    near.append(i + d)
                if r + d <= rows:
                    near.append(i + d * cols)
                counts.append(len(near))
            peers[i] = near
            reach[i] = counts

    # An explicit stack with one level per cell in fill order, so the depth
    # is not bounded by the recursion limit. Per level: the candidates not
    # yet tried, the value placed, and the cells whose bit it cleared.
    last = total - 1
    untried = [0] * total
    value = [0] * total
    cleared: list[list[int]] = [[]] * total
    found: list[Assignment] = []
    level = 0
    untried[0] = domain[0]
    while level >= 0:
        # Take back this level's last placement; a level entered afresh has none.
        bit = 1 << value[level]
        for j in cleared[level]:
            domain[j] |= bit
        rest = untried[level]
        while rest:
            bit = rest & -rest
            rest ^= bit
            v = bit.bit_length() - 1
            undo = []
            for j in peers[level][: reach[level][v]]:
                mask = domain[j]
                if mask & bit:
                    domain[j] = mask ^ bit
                    undo.append(j)
                    if mask == bit:
                        break
            else:
                break
            for j in undo:
                domain[j] |= bit
        else:
            cleared[level] = []
            level -= 1
            continue
        untried[level] = rest
        value[level] = v
        cleared[level] = undo
        if level < last:
            level += 1
            untried[level] = domain[level]
            continue
        found.append(
            Assignment(tuple(tuple(value[k : k + cols]) for k in range(0, total, cols)))
        )
        if limit is not None and len(found) >= limit:
            break
    return found
