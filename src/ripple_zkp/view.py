"""The verifier's view as the audit reads it: one layout per puzzle, its decoder, a simulator.

A transcript is the verifier's view of a run. On the accept path that view
has one fixed layout per puzzle shape and direction set: per entry of
``protocol.check_plan``, the plan the run follows, the entry's mark pair
around one run of events per secret draw (seven draws, six at k = 1), then
per room one ``reveal_all`` between the room's marks. What a
draw shows is read off the engine: ``_sim_chunks`` replays the distance
subprotocol ``protocol._distance_direction`` on the public configuration,
x = 1 against k blanks, and keeps the run of events each draw value selects:
the draw sites' shared tuples (``cards.DrawSite``), the very objects a real
run logs, so the decoder's compare mostly meets identical events.

The view is a bijection of the draws. A ``Layout`` reads a transcript back
into heart positions, as the verifier does: every draw's heart off its reveal
and every room's values off its columns, through ``cards._ONE_HEART``. It
renders what it read and accepts only when ``render(*read(events))`` equals
the events. Whatever the hearts do not explain (a shift offset, a second
heart, a renamed mark, a missing event) fails as "event i: expected <line>,
saw <line>". The simulator is the same renderer fed with random hearts.

A reveal family pools one draw of a distance check across all checks of a
run, named by draw index in ``_DRAW_FAMILIES``, plus the uniqueness segment,
plus one family per room column slot: a room reveal is a uniform
permutation, so the heart position in each column slot is uniform over the
room's size, and those per-slot marginals are what the audit's statistics
run on (full-permutation histograms would drown the TVD threshold in
sampling noise at any workable trial count). ``Layout.families`` is the one
list of them, in report order; the counts and the audit report read it.
"""
from __future__ import annotations

from collections import Counter
from functools import cache
from itertools import chain
from operator import getitem, itemgetter
from typing import NamedTuple

from .cards import _ONE_HEART, RandomSource, ReplaySource, Transcript, event_line, faces_of, marks
from .protocol import (ACCEPT_EVENT, DISTANCE_PHASE, ROOM_PHASE, ROOM_STEP, _distance_direction,
                       check_plan)
from .puzzle import Puzzle


class AuditError(Exception):
    """A transcript is not an accepting view of its puzzle, or counts do not fit together."""


class RevealFamily(NamedTuple):
    """One reveal step pooled across a run; domain is the observation space."""

    key: str
    kind: str  # "heart" | "segment" | "room"
    domain: int


# The family of each secret draw of a distance check, in draw order (no dist.j3 at k = 1).
_DRAW_FAMILIES = (
    "dist.j1", "dist.rearr_m1", "dist.j2", "dist.unique_s0",
    "dist.rearr_n", "dist.j3", "dist.rearr_m2",
)
# The uniqueness segment: an accepting check shows it with no heart.
_SEGMENT_FAMILY = "dist.unique_seg"


def layout(puzzle: Puzzle, dedupe_directions: bool = False) -> "Layout":
    """The layout of ``puzzle``'s accepting transcripts, built once per
    puzzle shape and direction set in each process."""
    rooms = tuple((room, len(cells)) for room, cells in puzzle.room_cells.items())
    return _layout((puzzle.rows, puzzle.cols, rooms, dedupe_directions))


@cache
def _layout(shape: tuple) -> "Layout":
    return Layout(shape)


class Layout:
    """Where every draw of an accepting run shows, and the runs it selects.

    ``shape`` is (rows, cols, ((room, size), ...), dedupe_directions), the
    whole of what fixes the layout, the ``check_plan`` it reads included; a
    layout pickles as its shape. The events are a list of chunks: fixed runs
    of marks, the distance checks' taken from the ``check_plan`` entries in
    run order, with a slot for each draw's run and each room's reveal
    between them, and last ``protocol.ACCEPT_EVENT``, which an accepting
    ``run_protocol`` appends too. Rendering fills the slots, one strided
    slice per draw index, and flattens the list. Decoding picks every reveal
    with one ``itemgetter`` at the ``reveal_row`` and ``reveal_all`` events
    of one rendering (every heart at 1), so every run of one draw must carry
    the same event tags, one ``reveal_row`` among them.
    """

    def __init__(self, shape: tuple):
        rows, cols, rooms, dedupe = self.shape = shape
        k = max(size for _, size in rooms)
        steps, room_cols = _sim_chunks(k)
        checks = check_plan(rows, cols, k, dedupe)
        n, n_checks = len(steps), len(checks)
        tables = [tuple(table) for table, _ in steps]
        # The runs of each draw of the run and the room columns, by heart position.
        self._runs = [(None, *table) for table in tables] * n_checks
        self._cols = (None, *room_cols)
        self.widths = [width for _, width in steps] * n_checks
        self.sizes = [size for _, size in rooms]
        self.draw_families = [name for name in _DRAW_FAMILIES if n == 7 or name != "dist.j3"]
        self.families: list[RevealFamily] = []  # report order, final domains
        self.n_checks = n_checks
        for name, table in zip(self.draw_families, tables, strict=True):
            tags = [ev[0] for ev in table[0]]
            if any([ev[0] for ev in run] != tags for run in table):
                raise RuntimeError(f"family {name}: the runs of its draw values do not line up")
            if tags.count("reveal_row") != 1:
                raise RuntimeError(f"family {name}: a draw does not show exactly one row")
            self.families.append(RevealFamily(name, "heart", len(table)))
            if "reveal_segment" in tags:
                self.families.append(RevealFamily(_SEGMENT_FAMILY, "segment", 1))  # no heart
        self.families += [
            RevealFamily(f"room.{room}.c{slot}", "room", size)
            for room, size in rooms for slot in range(1, size + 1)
        ]
        self.slot_families = [family.key for family in self.families if family.kind == "room"]
        self._room_ids = [ROOM_STEP(room)[0] for room, _ in rooms]
        self._permutations = [list(range(1, size + 1)) for size in self.sizes]

        chunks = [(marks(DISTANCE_PHASE)[0],)]
        for *_, (enter, leave) in checks:
            chunks[-1] += (enter,)
            chunks += [None] * n + [(leave,)]
        chunks[-1] += (marks(DISTANCE_PHASE)[1], marks(ROOM_PHASE)[0])
        for room, _ in rooms:
            _, enter, leave = ROOM_STEP(room)
            chunks[-1] += (enter,)
            chunks += [None, (leave,)]
        chunks[-1] += (marks(ROOM_PHASE)[1], ACCEPT_EVENT)
        self._chunks = chunks
        end = n_checks * (n + 1)
        self._draw_slots = [slice(1 + i, end, n + 1) for i in range(n)]
        self._room_slot = slice(end + 1, None, 2)
        events = self.render([1] * len(self.widths), self._permutations)
        positions = [i for i, ev in enumerate(events) if ev[0] == "reveal_row"]
        self._n_draws = len(positions)
        positions += [i for i, ev in enumerate(events) if ev[0] == "reveal_all"]
        self._positions, self._pick = positions, itemgetter(*positions)

    def __reduce__(self):
        return _layout, (self.shape,)

    def render(self, hearts: list[int], rooms) -> list[tuple]:
        """The events of the accepting run whose distance draws show their
        hearts at ``hearts``, in draw order, and whose rooms reveal the
        values ``rooms`` (``values[i]`` is the value in column i, from 1):
        the pair that ``read`` returns."""
        chunks = self._chunks.copy()
        runs = list(map(getitem, self._runs, hearts))
        n = len(self._draw_slots)
        for i, slot in enumerate(self._draw_slots):
            chunks[slot] = runs[i::n]
        chunks[self._room_slot] = [
            (("reveal_all", mid, tuple(map(self._cols.__getitem__, values))),)
            for mid, values in zip(self._room_ids, rooms)
        ]
        return list(chain.from_iterable(chunks))

    def read(self, events: list) -> tuple[list[int], list[list[int]]]:
        """(heart position of every distance draw, values of every room's
        columns) of the accepting transcript ``events``.

        Raises ``AuditError`` naming the first event that the rendering of
        those draws does not reproduce.
        """
        try:
            picked = self._pick(events)
            hearts = list(map(_ONE_HEART.get, map(itemgetter(3), picked[: self._n_draws])))
            rooms = [list(map(_ONE_HEART.get, ev[2])) for ev in picked[self._n_draws :]]
            if any(sorted(values) != perm for values, perm in zip(rooms, self._permutations)):
                raise ValueError
            rendered = self.render(hearts, rooms)
        except (LookupError, TypeError, ValueError):
            raise self._mismatch(events) from None
        if rendered != events:
            raise self._mismatch(events)
        return hearts, rooms

    def _mismatch(self, events: list) -> AuditError:
        """The first event where ``events`` leave the rendering of the hearts
        and rooms read off them, a heart that cannot be read taken as 1."""

        def heart(pos, table):
            try:
                heart = _ONE_HEART.get(events[pos][3])
            except (LookupError, TypeError):
                return 1
            return heart if heart is not None and heart < len(table) else 1

        def room(pos, perm):
            try:
                values = list(map(_ONE_HEART.get, events[pos][2]))
                return values if sorted(values) == perm else perm
            except (LookupError, TypeError):
                return perm

        rooms = map(room, self._positions[self._n_draws :], self._permutations)
        rendered = self.render(list(map(heart, self._positions, self._runs)), rooms)
        i = next(
            (i for i, (want, saw) in enumerate(zip(rendered, events)) if want != saw),
            min(len(rendered), len(events)),
        )
        want = event_line(rendered[i]) if i < len(rendered) else "end of transcript"
        saw = event_line(events[i]) if i < len(events) else "end of transcript"
        return AuditError(f"event {i + 1}: expected {want}, saw {saw}")


class FamilyCounts:
    """Per-family histograms over accepting transcripts of one puzzle.

    ``add`` decodes each transcript against the puzzle's ``Layout`` and
    tallies every distance draw's heart position under its family, the
    uniqueness segments (no heart, observation 0) and every room slot's
    value, keyed by ``layout.families``; a transcript that does not decode
    raises ``AuditError``. Counts pickle with their layout's shape only, and
    merge when their layouts are equal.
    """

    def __init__(self, puzzle: Puzzle, dedupe_directions: bool = False, transcripts=()):
        self.layout = layout(puzzle, dedupe_directions)
        self.trials = 0
        self.counts: dict[str, Counter] = {family.key: Counter() for family in self.layout.families}
        for _ in map(self.add, transcripts):  # frees each transcript before the next is built
            pass

    def add(self, transcript: Transcript) -> None:
        lay = self.layout
        hearts, rooms = lay.read(transcript.events)
        counts = self.counts
        n = len(lay.draw_families)
        for i, key in enumerate(lay.draw_families):
            counts[key].update(hearts[i::n])
        counts[_SEGMENT_FAMILY][0] += lay.n_checks  # one segment per check, with no heart
        for key, value in zip(lay.slot_families, chain.from_iterable(rooms)):
            counts[key][value] += 1
        self.trials += 1

    def merge(self, other: "FamilyCounts") -> "FamilyCounts":
        if other.layout.shape != self.layout.shape:
            raise AuditError("cannot merge counts of different layouts")
        for key, counter in other.counts.items():
            self.counts[key].update(counter)
        self.trials += other.trials
        return self


def _check_runs(k: int, draws: list[int]) -> list[tuple[tuple, tuple]]:
    """(row faces, events) per draw of the public check of 1 against k blanks: a
    draw's run opens at a step's enter mark or at a row reveal outside a step."""
    t = Transcript()
    _distance_direction(k, 1, [0] * k, ReplaySource(draws), t, ())
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
        table = {_ONE_HEART[faces] - 1: run for faces, run in variants}
        if sorted(table) != list(range(width)):
            raise RuntimeError(f"draw {i + 1} of a k={k} check hides a heart position")
        steps.append(([table[r] for r in range(width)], width))
    return steps, [faces_of(k, 1 << v) for v in range(k)]


def simulate_transcript(
    puzzle: Puzzle, rng: RandomSource, dedupe_directions: bool = False
) -> Transcript:
    """An accepting transcript drawn without any solution.

    Draws what an honest run draws, in its order and over its widths (every
    distance draw, then one permutation per room), and renders them through
    the puzzle's ``Layout``: the one place where a draw r becomes heart r + 1.
    """
    lay = layout(puzzle, dedupe_directions)
    hearts = [rng.offset(width) + 1 for width in lay.widths]
    rooms = [[v + 1 for v in rng.permutation(size)] for size in lay.sizes]
    t = Transcript()
    t.events = lay.render(hearts, rooms)
    return t
