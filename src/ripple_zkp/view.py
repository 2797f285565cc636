"""The verifier's view as the audit reads it: reveal families, their counts, a simulator.

A transcript is the verifier's view of a run. A reveal family groups the
same reveal step across all direction checks of a run (the value-row
heart, the three realignments, the two seam reveals, the uniqueness pair)
plus one family per room column slot: a room reveal is a uniform
permutation, so the heart position in each column slot is uniform over the
room's size, and those per-slot marginals are what the audit's statistics
run on (full-permutation histograms would drown the TVD threshold in
sampling noise at any workable trial count). Each room reveal must still
be a permutation of 1..size outright, in columns of one height; anything
else is schema drift.

What a distance check shows is read off the engine: ``_sim_chunks`` replays
the check on a public dummy board and keeps the events each secret draw
selects, and the classifier of row and segment reveals (``_family_of_step``)
is read off those runs; this module only names the families, in draw order.

The event skeleton is a function of the puzzle shape alone, so families are
classified once per skeleton, not once per transcript: the first
transcript of a new skeleton compiles a ``_Plan`` of where each family's
reveals sit, in one walk that applies every schema guard; every
transcript finds its plan by C-level field comparisons against the
cached plans and then only has its faces counted. The simulator is built the same way round:
each secret draw selects a prebuilt run of events.
"""
from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import cache
from itertools import compress
from operator import itemgetter

from .cards import _SKELETON_FIELDS, HEART, RandomSource, ReplaySource, Transcript, encode
from .cards import faces_of, heart_position, marks
from .protocol import CHECKED_DIRECTIONS, Board, _distance_direction
from .puzzle import Puzzle, max_room_size


class AuditError(Exception):
    """Transcript shape drifted from the protocol schema."""


@dataclass(frozen=True)
class RevealFamily:
    """One reveal step pooled across a run; domain is the observation space."""

    key: str
    kind: str  # "heart" | "segment" | "room"
    domain: int


# The family of each secret draw of a distance check, in draw order (no dist.j3 at k = 1).
_DRAW_FAMILIES = (
    "dist.j1", "dist.rearr_m1", "dist.j2", "dist.unique_s0",
    "dist.rearr_n", "dist.j3", "dist.rearr_m2",
)
_TAG = itemgetter(0)
# Every _Plan compiled so far, one per puzzle shape and direction set
# audited; a transcript matches at most one of them (see _Plan).
_PLANS: list["_Plan"] = []


@cache
def _family_of_step() -> dict[tuple, str]:
    """(open rearr:/unique: step or None, matrix id, revealed row) -> family key for
    every distance-check reveal, read off the runs of ``_sim_chunks(2)``."""
    family_of_step = {}
    for key, (table, _) in zip(_DRAW_FAMILIES, _sim_chunks(2)[0], strict=True):
        step = table[0][0][1] if table[0][0][0] == "mark" else None
        for ev in table[0]:
            if ev[0] == "reveal_row":
                family_of_step[step, ev[1], ev[2]] = key
            elif ev[0] == "reveal_segment":
                family_of_step[step, ev[1], None] = "dist.unique_seg"
    return family_of_step


def _picker(positions: list[int]):
    """A function from an event list to the tuple of its events at ``positions``."""
    if len(positions) == 1:
        pos = positions[0]
        return lambda events: (events[pos],)
    return itemgetter(*positions)


def _room_values(room: str, cols: tuple) -> list[int]:
    """The heart position of each column of an accepting room reveal.

    Raises unless the columns share one height and their hearts are a
    permutation of 1..size, one heart per column.
    """
    size = len(cols)
    if len(set(map(len, cols))) > 1:
        raise AuditError(f"room {room}: accept-path reveal has columns of unequal height")
    values = list(map(heart_position, cols))
    if None in values or sorted(values) != list(range(1, size + 1)):
        raise AuditError(f"room {room}: accept-path reveal is not a permutation of 1..{size}")
    return values


class _Plan:
    """Where each reveal family sits in one event skeleton.

    Compiled by one walk over a transcript that classifies every event and
    raises ``AuditError`` on the first that breaks the schema; family widths
    must also agree with ``shapes``, the families already counted. It holds
    the tag of every event; per skeleton field, a selector mask of the
    events that show it (None for all of them) and the values shown; the
    positions, face field and width of every row and segment family; per
    room reveal its position, column height and slot family keys; each
    family's kind and width, in order of first observation; and the
    skeleton text, rendered once: any transcript that ``count`` accepts has
    that text (see ``cards._SKELETON_FIELDS``). It holds no event tuple.
    """

    __slots__ = ("tags", "fields", "reveals", "rooms", "shapes", "skeleton")

    def __init__(self, transcript: Transcript, shapes: dict):
        events = transcript.events
        self.tags: list[str] = []
        self.rooms: list[tuple[int, int, list[str]]] = []
        self.shapes: dict[str, tuple[str, int]] = {}
        positions: dict[str, list[int]] = {}  # row and segment families only
        family_of_step = _family_of_step()

        def observe(key: str, kind: str, width: int) -> None:
            shape = self.shapes.get(key) or shapes.get(key)
            if shape is not None and shape[1] != width:
                raise AuditError(f"family {key}: width changed {shape[1]} -> {width}")
            self.shapes.setdefault(key, (kind, width))

        step: str | None = None
        for pos, ev in enumerate(events):
            tag = ev[0]
            self.tags.append(tag)
            if tag == "mark":
                if ev[1].startswith(("rearr:", "unique:")):
                    step = ev[1] if ev[2] == "enter" else None
            elif tag == "shift" or tag == "verdict":
                pass
            elif tag == "reveal_row":
                mid, row, faces = ev[1], ev[2], ev[3]
                key = family_of_step.get((step, mid, row))
                if key is None:
                    raise AuditError(f"unclassifiable reveal: m={mid} row={row}")
                if heart_position(faces) is None:
                    raise AuditError(f"family {key}: reveal without a single heart")
                observe(key, "heart", len(faces))
                positions.setdefault(key, []).append(pos)
            elif tag == "reveal_segment":
                key = family_of_step.get((step, ev[1], None))
                if key is None:
                    raise AuditError(f"segment reveal outside uniqueness: m={ev[1]}")
                observe(key, "segment", len(ev[5]))
                positions.setdefault(key, []).append(pos)
            elif tag == "reveal_all":
                mid, cols = ev[1], ev[2]
                if not mid.startswith("R:"):
                    raise AuditError(f"full reveal outside room phase: m={mid}")
                room = mid[2:]
                size = len(_room_values(room, cols))
                keys = [f"room.{room}.c{slot}" for slot in range(1, size + 1)]
                for key in keys:
                    observe(key, "room", size)
                self.rooms.append((pos, len(cols[0]) if cols else 0, keys))
            else:
                raise AuditError(f"unknown event type {tag!r}")
        self.reveals = []
        for key, picked in positions.items():
            kind, width = self.shapes[key]
            faces = itemgetter(3 if kind == "heart" else 5)
            self.reveals.append((key, faces, kind, width, _picker(picked)))
        self.fields = []
        for index in sorted({i for tag in set(self.tags) for i in _SKELETON_FIELDS[tag]}):
            shows = {tag: index in fields for tag, fields in _SKELETON_FIELDS.items()}
            selector = bytes(map(shows.__getitem__, self.tags))
            selector = None if all(selector) else selector
            shown = events if selector is None else compress(events, selector)
            field = itemgetter(index)
            self.fields.append((field, selector, list(map(field, shown))))
        self.skeleton = transcript.skeleton()

    def count(self, events: list, tags: list[str]) -> list[tuple[str, int, int]] | None:
        """(family key, observation, times seen) for one transcript.

        ``tags`` is the tag of each of ``events``. None when the transcript
        differs from the plan in any skeleton field, or a revealed face
        breaks the schema.
        """
        if tags != self.tags:
            return None
        for field, selector, expected in self.fields:
            shown = events if selector is None else compress(events, selector)
            if list(map(field, shown)) != expected:
                return None
        tallies = []
        for key, faces_field, kind, width, pick in self.reveals:
            for faces, n in Counter(map(faces_field, pick(events))).items():
                if len(faces) != width:
                    return None
                obs = faces.count(HEART) if kind == "segment" else heart_position(faces)
                if obs is None:
                    return None
                tallies.append((key, obs, n))
        for pos, height, keys in self.rooms:
            mid, cols = events[pos][1:3]
            if len(cols) != len(keys) or cols and len(cols[0]) != height:
                return None
            try:
                values = _room_values(mid, cols)
            except AuditError:
                return None
            tallies.extend(zip(keys, values, (1,) * len(keys)))
        return tallies


class FamilyCounts:
    """Streaming per-family histograms over many transcripts.

    Every transcript counted together must share one event skeleton, so
    the reveal families are classified once per skeleton. The first
    transcript is matched against the plans cached at module level (see
    ``_Plan``), one per puzzle shape (and direction set) audited; when none
    matches, it compiles a new one, which raises the first schema error.
    ``first_skeleton`` is that plan's text. Each later transcript is
    matched against the same plan field by field and its faces counted per
    family; on any mismatch it compiles a plan of its own, to raise the
    specific schema error or else "skeleton drifted".
    """

    def __init__(self, transcripts=()):
        self.trials = 0
        self.counts: dict[str, Counter] = {}
        self.shapes: dict[str, tuple[str, int]] = {}  # family key -> (kind, width)
        self.first_skeleton: str | None = None
        self._plan: _Plan | None = None
        for _ in map(self.add, transcripts):  # frees each transcript before the next is built
            pass

    def families(self) -> list[RevealFamily]:
        return [
            RevealFamily(key, kind, 1 if kind == "segment" else width)
            for key, (kind, width) in self.shapes.items()
        ]

    def add(self, transcript: Transcript) -> None:
        events = transcript.events
        tags = list(map(_TAG, events))
        for plan in _PLANS if self._plan is None else (self._plan,):
            tallies = plan.count(events, tags)
            if tallies is not None:
                break
        else:
            plan = _Plan(transcript, self.shapes)
            if self._plan is not None:
                raise AuditError("transcript event skeleton drifted between trials")
            _PLANS.append(plan)
            tallies = plan.count(events, tags)
        if self._plan is None:
            self._plan = plan
            self.first_skeleton = plan.skeleton
            self.shapes = dict(plan.shapes)
            self.counts = {key: Counter() for key in plan.shapes}
        counts = self.counts
        for key, obs, n in tallies:
            counts[key][obs] += n
        self.trials += 1

    def merge(self, other: "FamilyCounts") -> "FamilyCounts":
        if other.first_skeleton != self.first_skeleton:
            raise AuditError("cannot merge counts with different skeletons")
        for key, counter in other.counts.items():
            self.counts[key].update(counter)
        self.trials += other.trials
        return self


def _check_runs(k: int, draws: list[int]) -> list[tuple[tuple, tuple]]:
    """(row faces, events) per draw of a check of 1 with k off-grid neighbours: a
    draw's run opens at a step's enter mark or at a row reveal outside a step."""
    board = Board(Puzzle(1, 1, {(1, 1): "a"}, {}), k, {(1, 1): encode(1, k)})
    t = Transcript()
    _distance_direction(board, (1, 1), "right", ReplaySource(draws), t)
    runs, step = [], None
    for ev in t.events:
        if ev[0] == "mark":
            step = ev[1] if ev[2] == "enter" else None
        if ev[0] == "mark" and ev[2] == "enter" or ev[0] == "reveal_row" and step is None:
            runs.append([])
        runs[-1].append(ev)
    return [(next(ev[3] for ev in run if ev[0] == "reveal_row"), tuple(run)) for run in runs]


@cache
def _sim_chunks(k: int) -> tuple:
    """The simulator's prebuilt events for card count k: (steps, cols).

    ``steps`` holds one (table, width) pair per secret draw of a distance
    check, in draw order: ``table[r]`` is the run of events that the draw
    ``rng.offset(width) == r`` selects, the one whose reveal shows its heart
    at r + 1. The runs come from the engine, replaying the public check of
    ``_check_runs`` with the draw at each value and the others at 0; this
    raises unless those values show every heart position once. ``cols[v]``
    is the room column that shows value v + 1. Built on first use, cached per k.
    """
    zeros = [0] * len(_DRAW_FAMILIES)
    steps = []
    for i, (row, _) in enumerate(_check_runs(k, zeros)):
        width = len(row)
        variants = (_check_runs(k, zeros[:i] + [v] + zeros[i + 1 :])[i] for v in range(width))
        table = {heart_position(faces) - 1: run for faces, run in variants}
        if sorted(table) != list(range(width)):
            raise RuntimeError(f"draw {i + 1} of a k={k} check hides a heart position")
        steps.append(([table[r] for r in range(width)], width))
    return steps, [faces_of(k, 1 << v) for v in range(k)]


def simulate_transcript(
    puzzle: Puzzle, rng: RandomSource, dedupe_directions: bool = False
) -> Transcript:
    """An accepting transcript drawn without any solution.

    The event skeleton is a function of the puzzle shape alone; every heart
    position is drawn uniformly over its matrix width and every room reveal
    is a uniform permutation of the room's value range. Each secret draw
    selects its prebuilt run of events (``_sim_chunks``), drawn in the
    order and over the widths an honest run draws.
    """
    k = max_room_size(puzzle)
    steps, room_cols = _sim_chunks(k)
    t = Transcript()
    events = t.events
    append, extend, offset = events.append, events.extend, rng.offset
    directions = CHECKED_DIRECTIONS[dedupe_directions]
    phase_enter, phase_exit = marks("distance_phase")
    append(phase_enter)
    for r, c in puzzle.cells:
        for direction in directions:
            enter, leave = marks(f"dist:{r},{c}:{direction}")
            append(enter)
            for table, width in steps:
                extend(table[offset(width)])
            append(leave)
    append(phase_exit)
    phase_enter, phase_exit = marks("room_phase")
    append(phase_enter)
    for room, cells in puzzle.room_cells.items():
        enter, leave = marks(f"room:{room}")
        append(enter)
        perm = rng.permutation(len(cells))
        append(("reveal_all", f"R:{room}", tuple(map(room_cols.__getitem__, perm))))
        append(leave)
    append(phase_exit)
    t.verdict("accept", None, None)
    return t
