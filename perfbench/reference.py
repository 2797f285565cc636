"""A fixed piece of work that measures how fast the machine runs right now.

On a shared machine the same proof can take 15 ms in one second and 30 ms
in the next. Every timed loop times ``reference_ms()`` right after each
proof, audit call or sweep run (``Pacer``) and scales that work's time by
``REF_MS`` over it (see perfbench/README.md). That needs work that slows
down the way a proof does. So this module copies a proof's shape: small
objects, method calls, attribute access, list slicing, tuple building and
dict traffic. It belongs to the benchmark, so a change to the package
cannot move it.
"""
from __future__ import annotations

import time

# Scaled figures read as milliseconds on a machine where
# reference_ms() returns this.
REF_MS = 2.0
_ROUNDS = 450


class _Pile:
    __slots__ = ("id", "cols", "face_up")

    def __init__(self, pile_id: str, cols: list[list[int]]):
        self.id = pile_id
        self.cols = cols
        self.face_up = 0

    def rotate(self, offset: int) -> None:
        o = offset % len(self.cols)
        if o:
            self.cols = self.cols[-o:] + self.cols[:-o]

    def reveal(self, row: int, log: list) -> tuple:
        faces = tuple(col[row] for col in self.cols)
        log.append(("reveal_row", self.id, row, faces))
        self.face_up += len(faces)
        return faces

    def take(self, row: int) -> list:
        out = []
        for col in self.cols:
            out.append(col[row])
            col[row] = None
        return out

    def put(self, row: int, cards: list) -> None:
        for col, card in zip(self.cols, cards):
            col[row] = card


def reference_ms() -> float:
    """Run the fixed work once and return its wall time in milliseconds."""
    t0 = time.perf_counter()
    log: list = []
    seqs = {cell: [1 if j == cell % 6 else 0 for j in range(6)] for cell in range(40)}
    for i in range(_ROUNDS):
        own = seqs.pop(i % 40)
        other = seqs[(i + 1) % 40]
        pile = _Pile("M", [[1 if j == 0 else 0, own[j], 0, 0, *other] for j in range(6)])
        pile.rotate(i * 7)
        faces = pile.reveal(1, log)
        pile.rotate(-(faces.index(1) if 1 in faces else 0))
        pile.put(1, pile.take(1))
        seqs[i % 40] = [col[1] for col in pile.cols]
    return (time.perf_counter() - t0) * 1000


class Pacer:
    """Cuts timed work into segments and times reference_ms() after each.

    ``sample(ops)`` closes the segment that ran since the previous sample
    (or ``restart()``), notes how many operations it finished, and runs the
    reference; the reference's own time lies in no segment.

    A call that lasts long is cut finer from outside: ``hook(fn, ops)``
    wraps a function the call makes many times, such as ``run_protocol``,
    so that a segment ends after each of its calls.
    """

    def __init__(self):
        self.segments: list[float] = []  # seconds of timed work
        self.ops: list[int] = []  # operations each segment finished
        self.refs: list[float] = []  # reference_ms() after each segment
        self.mark = time.perf_counter()

    def restart(self) -> None:
        self.mark = time.perf_counter()

    def sample(self, ops: int) -> None:
        self.segments.append(time.perf_counter() - self.mark)
        self.ops.append(ops)
        self.refs.append(reference_ms())
        self.mark = time.perf_counter()

    def hook(self, fn, ops: int):
        def paced(*args, **kwargs):
            result = fn(*args, **kwargs)
            self.sample(ops)
            return result

        return paced

    def scaled(self) -> list[float]:
        """Each segment's seconds times REF_MS over the mean of the reference
        times just before and just after it."""
        before = self.refs[:1] + self.refs[:-1]
        return [s * 2 * REF_MS / (a + b) for s, a, b in zip(self.segments, before, self.refs)]

    def per_op(self, seconds: list[float]) -> list[float]:
        """Seconds per operation from per-segment ``seconds``: one sample per
        segment that finished operations, taking in the segments before it
        that finished none."""
        out, pending = [], 0.0
        for s, ops in zip(seconds, self.ops):
            pending += s
            if ops:
                out.append(pending / ops)
                pending = 0.0
        return out
