"""Outside-in tracer: span and counter wrappers around ripple_zkp's functions.

The package carries no tracing hooks of its own, so this module patches its
public functions and the ``Matrix``/``Transcript``/``FamilyCounts`` methods
with wrappers that time each call. A function is patched in every
``ripple_zkp`` namespace that bound it (``protocol`` does ``from .cards
import ...``, ``audit`` binds ``run_protocol``, the package ``__init__``
re-exports everything), so no call slips past the wrapper.

Spans are aggregated in memory per name: calls, inclusive time and self time.
Self time is a span's duration minus the time its child spans cover. The
wrappers only call through, so they cannot change a transcript; the
benchmark still checks that the traced bytes equal the untraced ones.
"""
from __future__ import annotations

import sys
import time
from collections import Counter

# (module, attribute or Class.method, span name)
TARGETS = (
    ("cards", "pile_shift_shuffle", "cards.shuffle"),
    ("cards", "pile_scramble_shuffle", "cards.shuffle"),
    ("cards", "rearrangement", "cards.rearrangement"),
    ("cards", "Matrix.reveal_row", "cards.reveal"),
    ("cards", "Matrix.reveal_segment", "cards.reveal"),
    ("cards", "Matrix.reveal_all", "cards.reveal"),
    ("cards", "Matrix.from_rows", "cards.matrix_moves"),
    ("cards", "Matrix.rotate", "cards.matrix_moves"),
    ("cards", "Matrix.shift", "cards.matrix_moves"),
    ("cards", "Matrix.split_rows", "cards.matrix_moves"),
    ("cards", "Matrix.append_columns", "cards.matrix_moves"),
    ("cards", "Matrix.remove_columns", "cards.matrix_moves"),
    ("cards", "Matrix.take_row", "cards.matrix_moves"),
    ("cards", "Matrix.take_segment", "cards.matrix_moves"),
    ("cards", "Matrix.put_segment", "cards.matrix_moves"),
    ("cards", "Transcript.serialize", "cards.serialize"),
    ("protocol", "run_protocol", "protocol.run"),
    ("protocol", "setup", "protocol.setup"),
    ("protocol", "verify_distance_direction", "protocol.distance_direction"),
    ("protocol", "verify_room", "protocol.room"),
    ("audit", "simulate_transcript", "audit.simulate"),
    ("audit", "FamilyCounts.add", "audit.family_add"),
    ("audit", "gather_real_counts", "audit.gather"),
    ("audit", "gather_simulated_counts", "audit.gather"),
    ("audit", "full_audit", "audit.full_audit"),
    ("audit", "soundness_sweep", "audit.sweep"),
    ("puzzle", "parse_puzzle", "puzzle.parse"),
    ("puzzle", "parse_solution", "puzzle.parse"),
    ("puzzle", "solve", "puzzle.solve"),
    ("puzzle", "validate", "puzzle.validate"),
)


class Tracer:
    """Per-name span totals plus counters taken from wrapped calls' results."""

    def __init__(self):
        self.spans: dict[str, list[int]] = {}  # name -> [calls, total_ns, self_ns]
        self.counts: Counter = Counter()
        self.max_aux_peak = 0
        self._stack: list[int] = []  # time covered by children of each open span
        self._undo: list[tuple[object, str, object]] = []

    def reset(self) -> None:
        for entry in self.spans.values():
            entry[:] = [0, 0, 0]
        self.counts.clear()
        self.max_aux_peak = 0

    def calls(self, name: str) -> int:
        return self.spans.get(name, (0, 0, 0))[0]

    def total_ms(self, name: str) -> float:
        return self.spans.get(name, (0, 0, 0))[1] / 1e6

    def self_ms(self, name: str) -> float:
        return self.spans.get(name, (0, 0, 0))[2] / 1e6

    def _wrap(self, fn, name: str):
        entry = self.spans.setdefault(name, [0, 0, 0])
        stack = self._stack
        clock = time.perf_counter_ns
        observe = _OBSERVERS.get(name)
        counts = self.counts

        def traced(*args, **kwargs):
            stack.append(0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = clock() - start
                children = stack.pop()
                entry[0] += 1
                entry[1] += duration
                entry[2] += duration - children
                if stack:
                    stack[-1] += duration
            if observe is not None:
                observe(self, counts, result)
            return result

        return traced

    def install(self) -> None:
        """Patch every target in every ripple_zkp namespace that bound it."""
        if self._undo:
            raise RuntimeError("tracer already installed")
        namespaces = [m for n, m in sorted(sys.modules.items()) if n.split(".")[0] == "ripple_zkp"]
        for module_name, attr, span in TARGETS:
            module = sys.modules[f"ripple_zkp.{module_name}"]
            if "." in attr:
                cls_name, method = attr.split(".")
                cls = getattr(module, cls_name)
                original = cls.__dict__[method]
                if isinstance(original, classmethod):
                    patched = classmethod(self._wrap(original.__func__, span))
                else:
                    patched = self._wrap(original, span)
                self._undo.append((cls, method, original))
                setattr(cls, method, patched)
                continue
            original = getattr(module, attr)
            patched = self._wrap(original, span)
            for ns in namespaces:
                for key, value in list(vars(ns).items()):
                    if value is original:
                        self._undo.append((ns, key, original))
                        setattr(ns, key, patched)

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._undo):
            setattr(owner, key, original)
        self._undo.clear()


def _observe_reveal(tracer, counts, faces) -> None:
    # reveal_all returns a tuple of columns; the row/segment reveals a tuple of faces.
    if faces and isinstance(faces[0], tuple):
        counts["cards_revealed"] += sum(len(col) for col in faces)
    else:
        counts["cards_revealed"] += len(faces)


def _observe_run(tracer, counts, result) -> None:
    verdict, transcript, stats = result
    counts["events"] += len(transcript.events)
    if not verdict.accepted:
        counts["rejects"] += 1
        counts["reject_events"] += len(transcript.events)
    tracer.max_aux_peak = max(tracer.max_aux_peak, stats.peak_aux_cards)


def _observe_simulate(tracer, counts, transcript) -> None:
    counts["events"] += len(transcript.events)


def _observe_serialize(tracer, counts, text) -> None:
    counts["transcript_bytes"] += len(text.encode())


_OBSERVERS = {
    "cards.reveal": _observe_reveal,
    "protocol.run": _observe_run,
    "audit.simulate": _observe_simulate,
    "cards.serialize": _observe_serialize,
}
