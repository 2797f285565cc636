"""Shared test machinery: tiny-puzzle builders and brute-force oracles."""
from collections import Counter
from itertools import product

from ripple_zkp.view import AuditError, Layout
from ripple_zkp.cards import HEART, REARR_STEP, DrawSite, RandomSource, ReplaySource
from ripple_zkp.protocol import (STEP_8_SITE, UNIQUE_STEP, ProverInput, _check_constants,
                                 check_plan, run_protocol)
from ripple_zkp.puzzle import Assignment, Puzzle, max_room_size, solve, validate

# (open rearr:/unique: step or None, matrix id, revealed row) -> family key
# for every distance-check reveal, written out by hand so that the oracle
# below does not share the classifier the audit reads off the engine.
FAMILY_OF_STEP = {
    (None, "M", 2): "dist.j1",
    ("rearr:M1", "M1", 1): "dist.rearr_m1",
    (None, "M2", 1): "dist.j2",
    ("unique:N", "N", 2): "dist.unique_s0",
    ("unique:N", "N", None): "dist.unique_seg",
    ("rearr:N", "N", 1): "dist.rearr_n",
    (None, "M2", 2): "dist.j3",
    ("rearr:M2", "M2", 1): "dist.rearr_m2",
}
# The public shift that follows a reveal of each family, from the heart
# position j and the card count k, before it is taken mod the width.
SHIFT_RULES = {
    "dist.j1": lambda j, k: k - j,
    "dist.rearr_m1": lambda j, k: -(j - 1),
    "dist.rearr_n": lambda j, k: -(j - 1),
    "dist.j3": lambda j, k: k + 1 - j,
    "dist.rearr_m2": lambda j, k: -(j - 1),
}


def draw_sites(k: int) -> list[DrawSite]:
    """The draw sites of a card-count-k distance check, in draw order."""
    step_2, step_13, _ = _check_constants(k)
    m1, n, m2 = map(REARR_STEP, ("M1", "N", "M2"))
    return [step_2, m1, STEP_8_SITE, UNIQUE_STEP("N")[2], n, step_13, m2]


def view_costs(events) -> tuple[int, int, int, int]:
    """(shuffles, reveals, cards revealed, rearrangements) of a run, counted
    as in Mizuki & Shizuya 2014 from its transcript's events alone.

    Every shuffle is followed at once by one reveal: a pile-shifting shuffle
    by a row reveal, a room's pile-scrambling shuffle by its full reveal. So
    the shuffles are the ``reveal_row`` and ``reveal_all`` events; the
    reveals are every ``reveal_*`` event, uniqueness segments included; and
    the rearrangements are the ``rearr:*`` enter marks.
    """
    shuffles = reveals = cards = rearrangements = 0
    for ev in events:
        tag = ev[0]
        if tag == "mark":
            rearrangements += ev[2] == "enter" and ev[1].startswith("rearr:")
        elif tag == "reveal_segment":
            reveals += 1
            cards += len(ev[5])
        elif tag in ("reveal_row", "reveal_all"):
            shuffles += 1
            reveals += 1
            cards += len(ev[3]) if tag == "reveal_row" else sum(map(len, ev[2]))
    return shuffles, reveals, cards, rearrangements


def zeroing_replay(*indices: int) -> type[ReplaySource]:
    """A ``ReplaySource`` that hands out 0 at ``indices`` of each check's seven
    draws (k > 1), whatever the replayed draw there: an engine whose shuffles
    at those draws take their draw and move nothing."""

    class ZeroingReplay(ReplaySource):
        def __init__(self, draws):
            super().__init__(draws)
            self.drawn = 0

        def offset(self, n: int) -> int:
            r = super().offset(n)
            self.drawn += 1
            return 0 if (self.drawn - 1) % 7 in indices else r

    return ZeroingReplay


class RecordingSource(RandomSource):
    """A RandomSource that logs (kind, n) for every draw it makes."""

    def __init__(self, seed: int):
        super().__init__(seed)
        self.draws: list[tuple[str, int]] = []

    def offset(self, n: int) -> int:
        self.draws.append(("offset", n))
        return super().offset(n)

    def permutation(self, n: int) -> list[int]:
        self.draws.append(("permutation", n))
        return super().permutation(n)


# One step each way, written out here rather than read from ``puzzle``.
STEPS = {"right": (0, 1), "left": (0, -1), "up": (-1, 0), "down": (1, 0)}


def reference_rays(puzzle: Puzzle) -> dict[tuple, tuple]:
    """Per (cell, direction): the next k cells that way, nearest first, where
    k is ``max_room_size``; a ray stops at the grid edge. Stepped cell by
    cell, apart from ``protocol.check_plan``, whose board slices it checks."""
    k = max_room_size(puzzle)
    rays = {}
    for r, c in puzzle.cells:
        for direction, (dr, dc) in STEPS.items():
            ray = ((r + dr * d, c + dc * d) for d in range(1, k + 1))
            rays[(r, c), direction] = tuple(
                (i, j) for i, j in ray if 1 <= i <= puzzle.rows and 1 <= j <= puzzle.cols
            )
    return rays


def check_of(puzzle: Puzzle, cell, direction: str) -> tuple:
    """The ``protocol.check_plan`` entry of ``puzzle``'s check of ``cell`` that way."""
    plan = check_plan(puzzle.rows, puzzle.cols, max_room_size(puzzle), False)
    return next(check for check in plan if check[6] == (cell, direction))


def assignment(rows) -> Assignment:
    """The assignment of the value rows ``rows``, e.g. [[1, 2], [2, 1]]."""
    return Assignment(tuple(tuple(int(v) for v in row) for row in rows))


def draw_tape(lay: Layout, events: list) -> list[int]:
    """The draw tape from which ``simulate_transcript``, replaying it through a
    ``ReplaySource``, renders the accepting transcript ``events``: every
    distance draw, then each room's ``cards.fisher_yates`` draws, undone from
    the room's permutation that ``Layout.read`` returns."""
    hearts, rooms = lay.read(events)
    tape = [heart - 1 for heart in hearts]
    for values in rooms:
        current = list(range(len(values)))
        for i in range(len(values) - 1, 0, -1):
            j = current.index(values[i] - 1)
            current[i], current[j] = current[j], current[i]
            tape.append(j)
    return tape


def make_puzzle(room_rows, fixed=None) -> Puzzle:
    """Puzzle from a list of room-label rows, e.g. ["a a", "b a"]."""
    rows = [r.split() for r in room_rows]
    m, n = len(rows), len(rows[0])
    room_of = {(r + 1, c + 1): rows[r][c] for r in range(m) for c in range(n)}
    return Puzzle(rows=m, cols=n, room_of=room_of, fixed=dict(fixed or {}))


def all_assignments(puzzle: Puzzle, max_value: int):
    """Every value table over 1..max_value, row-major cell order."""
    cells = puzzle.cells
    for combo in product(range(1, max_value + 1), repeat=len(cells)):
        values = {cell: v for cell, v in zip(cells, combo)}
        yield assignment(
            [
                [values[(r, c)] for c in range(1, puzzle.cols + 1)]
                for r in range(1, puzzle.rows + 1)
            ]
        )


def brute_force_solutions(puzzle: Puzzle) -> list[Assignment]:
    """All solutions by raw enumeration + validate; the solver's oracle.

    Values above a cell's room size always break the room rule, so the
    enumeration can stop at the room size without losing completeness.
    """
    cells = puzzle.cells
    ranges = [
        range(1, len(puzzle.room_cells[puzzle.room_of[cell]]) + 1) for cell in cells
    ]
    out = []
    for combo in product(*ranges):
        values = {cell: v for cell, v in zip(cells, combo)}
        asg = assignment(
            [
                [values[(r, c)] for c in range(1, puzzle.cols + 1)]
                for r in range(1, puzzle.rows + 1)
            ]
        )
        if not validate(puzzle, asg):
            out.append(asg)
    return out


def close_pairs(puzzle: Puzzle, asg: Assignment) -> list[tuple]:
    """Every unordered pair of cells in one row or column that hold the same
    value x with fewer than x cells between, sorted; ``validate``'s oracle
    for the distance rule, by direct enumeration over all pairs."""
    pairs = []
    cells = puzzle.cells
    for i, c1 in enumerate(cells):
        for c2 in cells[i + 1:]:
            if c1[0] != c2[0] and c1[1] != c2[1]:
                continue
            gap = abs(c2[0] - c1[0]) + abs(c2[1] - c1[1]) - 1
            if asg[c1] == asg[c2] and gap < asg[c1]:
                pairs.append(tuple(sorted((c1, c2))))
    return sorted(pairs)


def all_room_partitions(rows: int, cols: int) -> list[Puzzle]:
    """Every partition of the grid into edge-connected rooms."""
    cells = [(r, c) for r in range(1, rows + 1) for c in range(1, cols + 1)]

    def connected(block: frozenset) -> bool:
        block = set(block)
        start = next(iter(block))
        seen = {start}
        stack = [start]
        while stack:
            r, c = stack.pop()
            for nb in ((r - 1, c), (r + 1, c), (r, c - 1), (r, c + 1)):
                if nb in block and nb not in seen:
                    seen.add(nb)
                    stack.append(nb)
        return len(seen) == len(block)

    partitions: list[list[frozenset]] = [[]]
    for cell in cells:
        grown: list[list[frozenset]] = []
        for part in partitions:
            for i, block in enumerate(part):
                grown.append(part[:i] + [block | {cell}] + part[i + 1:])
            grown.append(part + [frozenset({cell})])
        partitions = grown

    puzzles = []
    for part in partitions:
        if not all(connected(block) for block in part):
            continue
        room_of = {}
        for idx, block in enumerate(sorted(part, key=min)):
            for cell in block:
                room_of[cell] = f"r{idx}"
        puzzles.append(Puzzle(rows=rows, cols=cols, room_of=room_of, fixed={}))
    return puzzles


def mask_of(faces) -> int:
    """The heart mask of a sequence of faces; the inverse of ``cards.faces_of``."""
    return sum(1 << i for i, face in enumerate(faces) if face == HEART)


def heart_position(faces) -> int | None:
    """1-based position of the only heart, counted; None unless there is exactly one."""
    return faces.index(HEART) + 1 if faces.count(HEART) == 1 else None


class ReferenceFamilyCounts:
    """``audit.FamilyCounts`` as a plain walk over every event of every transcript.

    The reference model for the layout's decoder. A transcript counts when
    its skeleton is that of an honest run of ``puzzle``; every row reveal
    shows one heart; every public shift follows from the reveal before it
    by the rules in ``SHIFT_RULES``; the uniqueness segment stands under
    the uniqueness heart and shows no heart; and every room reveal is a
    permutation of 1..size in columns of one height.
    """

    def __init__(self, puzzle, dedupe_directions=False, transcripts=()):
        solution = solve(puzzle, limit=1)[0]
        honest = run_protocol(puzzle, ProverInput(solution), RandomSource(0), dedupe_directions)
        self.skeleton = honest.transcript.skeleton()
        self.k = max_room_size(puzzle)
        self.trials = 0
        self.counts: dict[str, Counter] = {}
        self.shapes: dict[str, tuple[str, int]] = {}
        for transcript in transcripts:
            self.add(transcript)

    def add(self, transcript) -> None:
        step = shift = unique_heart = None
        for ev in transcript.events:
            tag = ev[0]
            if tag == "mark":
                if ev[1].startswith(("rearr:", "unique:")):
                    step = ev[1] if ev[2] == "enter" else None
                continue
            if tag == "verdict":
                continue
            if tag == "shift":
                if shift is None or ev[2] != shift:
                    raise AuditError(f"shift m={ev[1]} offset={ev[2]}: expected {shift}")
                shift = None
            elif tag == "reveal_row":
                mid, row, faces = ev[1], ev[2], ev[3]
                key = FAMILY_OF_STEP.get((step, mid, row))
                if key is None:
                    raise AuditError(f"unclassifiable reveal: m={mid} row={row}")
                j = heart_position(faces)
                if j is None:
                    raise AuditError(f"family {key}: reveal without a single heart")
                rule = SHIFT_RULES.get(key)
                shift = None if rule is None else rule(j, self.k) % len(faces)
                unique_heart = j if key == "dist.unique_s0" else None
                self._observe(key, "heart", len(faces), j)
            elif tag == "reveal_segment":
                key = FAMILY_OF_STEP.get((step, ev[1], None))
                if key is None:
                    raise AuditError(f"segment reveal outside uniqueness: m={ev[1]}")
                faces = ev[5]
                if ev[2] != unique_heart or HEART in faces or len(faces) != ev[4] - ev[3] + 1:
                    raise AuditError("segment off the uniqueness heart, or with a heart")
                self._observe(key, "segment", len(faces), faces.count(HEART))
            elif tag == "reveal_all":
                mid, cols = ev[1], ev[2]
                if not mid.startswith("R:"):
                    raise AuditError(f"full reveal outside room phase: m={mid}")
                room = mid[2:]
                size = len(cols)
                if len({len(col) for col in cols}) > 1:
                    raise AuditError(f"room {room}: accept-path reveal has columns of unequal height")
                values = [heart_position(col) for col in cols]
                if sorted(v for v in values if v is not None) != list(range(1, size + 1)):
                    raise AuditError(
                        f"room {room}: accept-path reveal is not a permutation of 1..{size}"
                    )
                for slot, value in enumerate(values, start=1):
                    self._observe(f"room.{room}.c{slot}", "room", size, value)
            else:
                raise AuditError(f"unknown event type {tag!r}")
        if transcript.skeleton() != self.skeleton:
            raise AuditError("transcript event skeleton differs from an honest run's")
        self.trials += 1

    def _observe(self, key: str, kind: str, width: int, obs) -> None:
        counter = self.counts.get(key)
        if counter is None:
            self.counts[key] = counter = Counter()
            self.shapes[key] = (kind, width)
        elif self.shapes[key][1] != width:
            raise AuditError(f"family {key}: width changed {self.shapes[key][1]} -> {width}")
        counter[obs] += 1
