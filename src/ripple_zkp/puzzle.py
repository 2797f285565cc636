"""Ripple Effect puzzle model: text formats, rule validation, and solving.

A puzzle is an m x n grid split into rooms (edge-connected polyominoes),
some cells carrying a fixed clue value. A filled grid is a solution when

  1. every room of size s contains exactly the values 1..s, and
  2. two cells in the same row or column holding the same value x are
     separated by at least x cells.

``validate`` is the non-cryptographic ground truth used as an oracle by the
card protocol tests; ``solve`` is a complete backtracking search for
desk-scale instances.
"""
from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import cached_property

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
    """Malformed puzzle or solution text (message carries the line number)."""


@dataclass(frozen=True, eq=False)
class Puzzle:
    """Grid geometry, room partition, and fixed clue cells."""

    rows: int
    cols: int
    room_of: dict[Cell, RoomId]
    fixed: dict[Cell, int]

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

    def room_size(self, room: RoomId) -> int:
        return len(self.room_cells[room])


@dataclass(frozen=True)
class Assignment:
    """A value for every cell, stored as row tuples."""

    values: tuple[tuple[int, ...], ...]

    @classmethod
    def from_rows(cls, rows) -> "Assignment":
        return cls(tuple(tuple(int(v) for v in row) for row in rows))

    def __getitem__(self, cell: Cell) -> int:
        r, c = cell
        return self.values[r - 1][c - 1]

    def with_value(self, cell: Cell, value: int) -> "Assignment":
        r, c = cell
        rows = [list(row) for row in self.values]
        rows[r - 1][c - 1] = value
        return Assignment.from_rows(rows)

    def to_text(self) -> str:
        return "\n".join(" ".join(str(v) for v in row) for row in self.values) + "\n"


@dataclass(frozen=True)
class Violation:
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


def parse_puzzle(text: str) -> Puzzle:
    """Parse the puzzle text format.

    Line 1 holds ``m n``; the next m lines hold n room labels each (equal
    labels form one room); the final m lines hold ``.`` for empty cells or a
    positive integer for fixed cells. Blank lines and ``#`` comments are
    skipped.
    """
    lines = _content_lines(text)
    if not lines:
        raise PuzzleFormatError("empty puzzle text")
    lineno, header = lines[0]
    if len(header) != 2:
        raise PuzzleFormatError(f"line {lineno}: expected 'm n', got {' '.join(header)!r}")
    try:
        m, n = int(header[0]), int(header[1])
    except ValueError:
        raise PuzzleFormatError(f"line {lineno}: dimensions must be integers") from None
    if m < 1 or n < 1:
        raise PuzzleFormatError(f"line {lineno}: dimensions must be positive")
    if len(lines) != 1 + 2 * m:
        raise PuzzleFormatError(
            f"expected {1 + 2 * m} content lines for a {m}x{n} grid, got {len(lines)}"
        )

    room_of: dict[Cell, RoomId] = {}
    for r in range(1, m + 1):
        lineno, tokens = lines[r]
        if len(tokens) != n:
            raise PuzzleFormatError(
                f"line {lineno}: expected {n} room labels, got {len(tokens)} (ragged grid)"
            )
        for c, label in enumerate(tokens, start=1):
            room_of[(r, c)] = label

    fixed: dict[Cell, int] = {}
    for r in range(1, m + 1):
        lineno, tokens = lines[m + r]
        if len(tokens) != n:
            raise PuzzleFormatError(
                f"line {lineno}: expected {n} value tokens, got {len(tokens)} (ragged grid)"
            )
        for c, token in enumerate(tokens, start=1):
            if token == ".":
                continue
            try:
                value = int(token)
            except ValueError:
                raise PuzzleFormatError(
                    f"line {lineno}: cell ({r},{c}): expected '.' or integer, got {token!r}"
                ) from None
            if value < 1:
                raise PuzzleFormatError(
                    f"line {lineno}: cell ({r},{c}): fixed value must be positive"
                )
            fixed[(r, c)] = value

    puzzle = Puzzle(rows=m, cols=n, room_of=room_of, fixed=fixed)
    _check_rooms_connected(puzzle)
    for cell, value in fixed.items():
        size = puzzle.room_size(puzzle.room_of[cell])
        if value > size:
            raise PuzzleFormatError(
                f"cell {cell}: fixed value {value} exceeds room size {size}"
            )
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
        raise PuzzleFormatError(
            f"expected {puzzle.rows} solution rows, got {len(lines)}"
        )
    rows = []
    for (lineno, tokens), _ in zip(lines, range(puzzle.rows)):
        if len(tokens) != puzzle.cols:
            raise PuzzleFormatError(
                f"line {lineno}: expected {puzzle.cols} values, got {len(tokens)}"
            )
        try:
            row = [int(t) for t in tokens]
        except ValueError:
            raise PuzzleFormatError(f"line {lineno}: values must be integers") from None
        if any(v < 1 for v in row):
            raise PuzzleFormatError(f"line {lineno}: values must be positive")
        rows.append(row)
    return Assignment.from_rows(rows)


def validate(puzzle: Puzzle, asg: Assignment) -> list[Violation]:
    """All rule violations of ``asg``; empty list iff it is a solution.

    Emits one RoomContent per bad room, one Distance per unordered pair of
    equal values placed too close in a row or column, and one FixedMismatch
    per disagreeing clue cell.
    """
    out: list[Violation] = []

    for room, cells in puzzle.room_cells.items():
        values = sorted(asg[cell] for cell in cells)
        if values != list(range(1, len(cells) + 1)):
            out.append(
                Violation(
                    ROOM_CONTENT,
                    cells,
                    f"room {room!r} holds {values}, wants 1..{len(cells)}",
                )
            )

    for (r1, c1) in puzzle.cells:
        x = asg[(r1, c1)]
        # Right along the row and down the column; each close pair found once.
        for d in range(1, x + 1):
            for r2, c2 in ((r1, c1 + d), (r1 + d, c1)):
                if r2 <= puzzle.rows and c2 <= puzzle.cols and asg[(r2, c2)] == x:
                    out.append(
                        Violation(
                            DISTANCE,
                            ((r1, c1), (r2, c2)),
                            f"value {x} repeats with {d - 1} cells between",
                        )
                    )

    for cell, value in puzzle.fixed.items():
        if asg[cell] != value:
            out.append(
                Violation(
                    FIXED_MISMATCH,
                    (cell,),
                    f"cell {cell} holds {asg[cell]}, clue says {value}",
                )
            )
    return out


def max_room_size(puzzle: Puzzle) -> int:
    """Size of the biggest room; the encoding length used by the protocol."""
    return max(len(cells) for cells in puzzle.room_cells.values())


def solve(puzzle: Puzzle, limit: int | None = 1) -> list[Assignment]:
    """Up to ``limit`` solutions by complete backtracking (None = all).

    Deterministic: cells are filled row-major, candidate values ascending,
    so results come out in lexicographic order. Pruning (fixed clues, one
    value per room, distance conflicts against placed cells) only discards
    provably dead branches, so an empty result means unsatisfiable.
    """
    if limit is not None and limit < 1:
        raise ValueError("limit must be positive")

    cells = puzzle.cells
    grid = [[0] * (puzzle.cols + 1) for _ in range(puzzle.rows + 1)]
    room_used: dict[RoomId, set[int]] = {room: set() for room in puzzle.room_cells}
    sizes = {room: len(c) for room, c in puzzle.room_cells.items()}
    found: list[Assignment] = []

    def consistent(r: int, c: int, v: int) -> bool:
        # Placed cells are those left in the row / above in the column.
        for d in range(1, v + 1):
            if c - d >= 1 and grid[r][c - d] == v:
                return False
            if r - d >= 1 and grid[r - d][c] == v:
                return False
        return True

    # Per cell in fill order: its coordinates, its room's used values, and its
    # candidates. The search keeps one candidate iterator per filled cell on
    # an explicit stack, so its depth is not bounded by the recursion limit.
    plan = []
    for cell in cells:
        room = puzzle.room_of[cell]
        fixed = puzzle.fixed.get(cell)
        values = (fixed,) if fixed is not None else range(1, sizes[room] + 1)
        plan.append((*cell, room_used[room], values))
    stack = [iter(plan[0][3])]
    while stack:
        r, c, used, _ = plan[len(stack) - 1]
        # Take back this cell's last value; a cell visited first holds 0.
        used.discard(grid[r][c])
        grid[r][c] = 0
        for v in stack[-1]:
            if v not in used and consistent(r, c, v):
                grid[r][c] = v
                used.add(v)
                break
        else:
            stack.pop()
            continue
        if len(stack) < len(plan):
            stack.append(iter(plan[len(stack)][3]))
            continue
        found.append(Assignment.from_rows([row[1:] for row in grid[1:]]))
        if limit is not None and len(found) >= limit:
            break
    return found
