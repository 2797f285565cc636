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

One table, ``_DRAWS``, says what a distance check shows: one row per secret
draw, with the reveal's family, the step mark around it, the matrix and row
revealed, the width and the public shift that follows. The classifier of
row and segment reveals (``_FAMILY_OF_STEP``) and the simulator's event
runs are both built from it.

The event skeleton is a function of the puzzle shape alone, so families are
classified once per skeleton, not once per transcript: ``FamilyCounts``
walks the first transcript of a new skeleton with every schema guard and
compiles a plan of where each family's reveals sit; every transcript finds
its plan by C-level field comparisons against the cached plans and then
only has its faces counted. The simulator is built the same way round:
each secret draw selects a prebuilt run of events.
"""
from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import cache
from itertools import compress
from operator import itemgetter

from .cards import _SKELETON_FIELDS, HEART, RandomSource, Transcript, faces_of, heart_position
from .protocol import CHECKED_DIRECTIONS
from .puzzle import Puzzle, max_room_size


class AuditError(Exception):
    """Transcript shape drifted from the protocol schema."""


@dataclass(frozen=True)
class RevealFamily:
    """One reveal step pooled across a run; domain is the observation space."""

    key: str
    kind: str  # "heart" | "segment" | "room"
    domain: int


# What a distance check shows: one row per secret draw, in draw order. A row
# is (family key, rearr:/unique: step mark around the reveal or None, matrix
# id, revealed row, True when the matrix is 2k-1 columns wide rather than k,
# turn): after a heart at position r + 1 the columns shift right by
# (k + turn - r) mod width, or not at all when turn is None. A unique: step
# also reveals the all-club segment under the heart (dist.unique_seg), and
# dist.j3 is drawn only when blank columns were appended (k > 1).
_DRAWS = (
    ("dist.j1", None, "M", 2, False, -1),
    ("dist.rearr_m1", "rearr:M1", "M1", 1, False, 0),
    ("dist.j2", None, "M2", 1, True, None),
    ("dist.unique_s0", "unique:N", "N", 2, False, None),
    ("dist.rearr_n", "rearr:N", "N", 1, False, 0),
    ("dist.j3", None, "M2", 2, True, 0),
    ("dist.rearr_m2", "rearr:M2", "M2", 1, False, 0),
)
# (open rearr:/unique: step or None, matrix id, revealed row) -> family key
# for every distance-check reveal; a segment reveal has row None.
_FAMILY_OF_STEP = {(step, mid, row): key for key, step, mid, row, _, _ in _DRAWS}
_FAMILY_OF_STEP["unique:N", "N", None] = "dist.unique_seg"
_TAG = itemgetter(0)
# Every _Plan compiled so far, one per puzzle shape and direction set
# audited; a transcript matches at most one of them (see _Plan).
_PLANS: list["_Plan"] = []


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

    Compiled from a transcript that passed ``FamilyCounts``'s full walk. It
    holds the tag of every event; per skeleton field, a selector mask of
    the events that show it (None for all of them) and the values shown;
    the positions, face field and width of every row and segment family;
    per room reveal its position, column height and slot family keys; and
    the skeleton text, rendered once: any transcript that ``count`` accepts
    has that text (see ``cards._SKELETON_FIELDS``). It holds no event tuple.
    """

    __slots__ = ("tags", "fields", "reveals", "rooms", "shapes", "skeleton")

    def __init__(self, transcript: Transcript, families: dict):
        events = transcript.events
        self.skeleton = transcript.skeleton()
        self.tags = list(map(_TAG, events))
        masks: dict[int, bytearray] = {}
        room_keys: dict[int, list[str]] = {}
        for pos, tag in enumerate(self.tags):
            for index in _SKELETON_FIELDS[tag]:
                masks.setdefault(index, bytearray(len(events)))[pos] = 1
            if tag == "reveal_all":
                room_keys[pos] = []
        self.fields = []
        for index, mask in sorted(masks.items()):
            field = itemgetter(index)
            selector = None if all(mask) else bytes(mask)
            shown = events if selector is None else compress(events, selector)
            self.fields.append((field, selector, list(map(field, shown))))
        self.reveals = []
        for key, (kind, width, positions) in families.items():
            if kind == "room":
                for pos in positions:
                    room_keys[pos].append(key)
            else:
                faces = itemgetter(3 if kind == "heart" else 5)
                self.reveals.append((key, faces, kind, width, _picker(positions)))
        self.rooms = [
            (pos, len(events[pos][2][0]) if keys else 0, keys) for pos, keys in room_keys.items()
        ]
        self.shapes = {key: (kind, width) for key, (kind, width, _) in families.items()}

    def count(self, events: list) -> list[tuple[str, int, int]] | None:
        """(family key, observation, times seen) for one transcript.

        None when the transcript differs from the plan in any skeleton
        field, or a revealed face breaks the schema.
        """
        if list(map(_TAG, events)) != self.tags:
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
    matches, it goes through the full walk, with every schema guard, and
    compiles a new one. ``first_skeleton`` is that plan's text. Each later
    transcript is matched against the same plan field by field and its
    faces counted per family; on any mismatch the full walk runs again,
    to raise the specific schema error or "skeleton drifted".
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
        for plan in _PLANS if self._plan is None else (self._plan,):
            tallies = plan.count(events)
            if tallies is not None:
                break
        else:
            families = self._walk(events)
            if self._plan is not None:
                raise AuditError("transcript event skeleton drifted between trials")
            plan = _Plan(transcript, families)
            _PLANS.append(plan)
            tallies = plan.count(events)
        if self._plan is None:
            self._plan = plan
            self.first_skeleton = plan.skeleton
            self.shapes = dict(plan.shapes)
            self.counts = {key: Counter() for key in plan.shapes}
        counts = self.counts
        for key, obs, n in tallies:
            counts[key][obs] += n
        self.trials += 1

    def _walk(self, events: list) -> dict[str, tuple[str, int, list[int]]]:
        """Classify every event, raising on the first that breaks the schema.

        Returns each family's kind, width and observing event positions, in
        order of first observation. Widths must also agree with the
        families already counted.
        """
        families: dict[str, tuple[str, int, list[int]]] = {}

        def observe(key: str, kind: str, width: int, pos: int) -> None:
            family = families.get(key)
            shape = family or self.shapes.get(key)
            if shape is not None and shape[1] != width:
                raise AuditError(f"family {key}: width changed {shape[1]} -> {width}")
            if family is None:
                families[key] = family = (kind, width, [])
            family[2].append(pos)

        step: str | None = None
        for pos, ev in enumerate(events):
            tag = ev[0]
            if tag == "mark":
                if ev[1].startswith(("rearr:", "unique:")):
                    step = ev[1] if ev[2] == "enter" else None
                continue
            if tag == "shift" or tag == "verdict":
                continue
            if tag == "reveal_row":
                mid, row, faces = ev[1], ev[2], ev[3]
                key = _FAMILY_OF_STEP.get((step, mid, row))
                if key is None:
                    raise AuditError(f"unclassifiable reveal: m={mid} row={row}")
                if heart_position(faces) is None:
                    raise AuditError(f"family {key}: reveal without a single heart")
                observe(key, "heart", len(faces), pos)
            elif tag == "reveal_segment":
                key = _FAMILY_OF_STEP.get((step, ev[1], None))
                if key is None:
                    raise AuditError(f"segment reveal outside uniqueness: m={ev[1]}")
                observe(key, "segment", len(ev[5]), pos)
            elif tag == "reveal_all":
                mid, cols = ev[1], ev[2]
                if not mid.startswith("R:"):
                    raise AuditError(f"full reveal outside room phase: m={mid}")
                room = mid[2:]
                size = len(_room_values(room, cols))
                for slot in range(1, size + 1):
                    observe(f"room.{room}.c{slot}", "room", size, pos)
            else:
                raise AuditError(f"unknown event type {tag!r}")
        return families

    def merge(self, other: "FamilyCounts") -> "FamilyCounts":
        if other.first_skeleton != self.first_skeleton:
            raise AuditError("cannot merge counts with different skeletons")
        for key, counter in other.counts.items():
            self.counts[key].update(counter)
        self.trials += other.trials
        return self


@cache
def _sim_chunks(k: int) -> tuple:
    """The simulator's prebuilt events for card count k: (steps, cols).

    ``steps`` holds one (table, width) pair per row of ``_DRAWS`` drawn at
    this k, in draw order: ``table[r]`` is the run of events that the draw
    ``rng.offset(width) == r`` selects, built from the row as an honest
    check emits them: the step's enter mark, the reveal with its heart at
    r + 1, the segment reveal of a unique: step, the public shift, and the
    exit mark. ``cols[v]`` is the room column that shows value v + 1.
    Built on first use and cached per k.
    """
    steps = []
    for key, step, mid, row, wide, turn in _DRAWS:
        if key == "dist.j3" and k == 1:
            continue
        width = 2 * k - 1 if wide else k
        table = []
        for r in range(width):
            run = [("reveal_row", mid, row, faces_of(width, 1 << r))]
            if (step, mid, None) in _FAMILY_OF_STEP:
                run.append(("reveal_segment", mid, r + 1, 3, k + 2, faces_of(k, 0)))
            if turn is not None:
                run.append(("shift", mid, (k + turn - r) % width))
            if step is not None:
                run = [("mark", step, "enter"), *run, ("mark", step, "exit")]
            table.append(tuple(run))
        steps.append((table, width))
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
    append(("mark", "distance_phase", "enter"))
    for r, c in puzzle.cells:
        for direction in directions:
            name = f"dist:{r},{c}:{direction}"
            append(("mark", name, "enter"))
            for table, width in steps:
                extend(table[offset(width)])
            append(("mark", name, "exit"))
    append(("mark", "distance_phase", "exit"))
    append(("mark", "room_phase", "enter"))
    for room, cells in puzzle.room_cells.items():
        append(("mark", f"room:{room}", "enter"))
        perm = rng.permutation(len(cells))
        append(("reveal_all", f"R:{room}", tuple(map(room_cols.__getitem__, perm))))
        append(("mark", f"room:{room}", "exit"))
    append(("mark", "room_phase", "exit"))
    t.verdict("accept", None, None)
    return t
