"""The verifier's view as the audit reads it: reveal families, their counts, a simulator.

A transcript is the verifier's view of a run. A reveal family groups the
same reveal step across all direction checks of a run (the value-row
heart, the three realignments, the two seam reveals, the uniqueness pair)
plus one family per room column slot: a room reveal is a uniform
permutation, so the heart position in each column slot is uniform over the
room's size, and those per-slot marginals are what the audit's statistics
run on (full-permutation histograms would drown the TVD threshold in
sampling noise at any workable trial count). Each room reveal must still
be a permutation of 1..size outright; anything else is schema drift.

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
from itertools import compress
from operator import itemgetter

from .cards import HEART, RandomSource, Transcript, faces_of, heart_position
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


# (open rearr:/unique: step or None, matrix id, revealed row) -> family key
# for every distance-check reveal; a segment reveal has row None.
_FAMILY_OF_STEP = {
    (None, "M", 2): "dist.j1",
    ("rearr:M1", "M1", 1): "dist.rearr_m1",
    (None, "M2", 1): "dist.j2",
    ("unique:N", "N", 2): "dist.unique_s0",
    ("unique:N", "N", None): "dist.unique_seg",
    ("rearr:N", "N", 1): "dist.rearr_n",
    (None, "M2", 2): "dist.j3",
    ("rearr:M2", "M2", 1): "dist.rearr_m2",
}


# Event fields that Transcript.skeleton() shows, by tag. With the row widths
# and room shapes, which a plan also checks, they fix every skeleton line.
_SKELETON_FIELDS = {
    "mark": (1, 2),
    "shift": (1,),
    "reveal_row": (1, 2),
    "reveal_segment": (1, 3, 4),
    "reveal_all": (1,),
    "verdict": (1, 2, 3),
}
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


class _Plan:
    """Where each reveal family sits in one event skeleton.

    Compiled from a transcript that passed ``FamilyCounts``'s full walk. It
    holds the tag of every event; per skeleton field, a selector mask of
    the events that show it (None for all of them) and the values shown;
    the positions, face field and width of every row and segment family;
    per room reveal its position, column height and slot family keys; and
    the skeleton text, rendered once: any transcript that ``count`` accepts
    has that text (see ``_SKELETON_FIELDS``). It holds no event tuple.
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
            cols = events[pos][2]
            if len(cols) != len(keys) or cols and len(cols[0]) != height:
                return None
            values = list(map(heart_position, cols))
            if None in values or sorted(values) != list(range(1, len(keys) + 1)):
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
                size = len(cols)
                values = [heart_position(col) for col in cols]
                if sorted(v for v in values if v is not None) != list(range(1, size + 1)):
                    raise AuditError(
                        f"room {room}: accept-path reveal is not a permutation of 1..{size}"
                    )
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


# k -> the simulator's event chunks for that card count, built on first use.
_CHUNKS: dict[int, tuple] = {}


def _sim_chunks(k: int) -> tuple:
    """The simulator's prebuilt events for card count k: (steps, cols).

    ``steps`` holds one (table, width) pair per secret draw of a distance
    check, in draw order: ``table[r]`` is the run of events that the draw
    ``rng.offset(width) == r`` selects, from the reveal it places to the
    marks around it, as an honest check emits them. ``cols[v]`` is the
    room column that shows value v + 1.
    """
    chunks = _CHUNKS.get(k)
    if chunks is not None:
        return chunks
    wide = 2 * k - 1 if k > 1 else 1

    def reveal(mid: str, row: int, width: int, r: int) -> tuple:
        return ("reveal_row", mid, row, faces_of(width, 1 << r))

    def rearr(mid: str) -> list:
        return [
            (
                ("mark", f"rearr:{mid}", "enter"),
                reveal(mid, 1, k, r),
                ("shift", mid, -r % k),
                ("mark", f"rearr:{mid}", "exit"),
            )
            for r in range(k)
        ]

    steps = [
        ([(reveal("M", 2, k, r), ("shift", "M", (k - 1 - r) % k)) for r in range(k)], k),
        (rearr("M1"), k),
        ([(reveal("M2", 1, wide, r),) for r in range(wide)], wide),
        (
            [
                (
                    ("mark", "unique:N", "enter"),
                    reveal("N", 2, k, r),
                    ("reveal_segment", "N", r + 1, 3, k + 2, faces_of(k, 0)),
                    ("mark", "unique:N", "exit"),
                )
                for r in range(k)
            ],
            k,
        ),
        (rearr("N"), k),
    ]
    if k > 1:
        steps.append(
            ([(reveal("M2", 2, wide, r), ("shift", "M2", (k - r) % wide)) for r in range(wide)], wide)
        )
    steps.append((rearr("M2"), k))
    chunks = _CHUNKS[k] = (steps, [faces_of(k, 1 << v) for v in range(k)])
    return chunks


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
