"""Exact soundness and zero knowledge of one distance check and one room check,
by enumerating every secret draw.

The paper's main subprotocol shows that a hidden x does not appear among the
first x of k sequences. ``protocol._distance_direction`` runs it on heart
masks, so it is enumerated here as it stands, with no board. The paper's
threat model takes a commitment to be any k face-down cards, so at k = 1 and
2 the cell's own sequence a0 and each of the k neighbours range over every
raw mask, and each configuration runs on every tuple of the check's secret
draws, replayed through ``ReplaySource``: widths k, k, 2k-1, k, k, 2k-1, k
(six draws of width 1 at k = 1).

* Soundness and completeness: on every tuple, an a0 without exactly one heart
  raises at step 2; otherwise the check rejects iff a neighbour among the
  first x has bit x-1 set (x is a0's heart position), and accepts otherwise.
* Every accept hands a0 and the piles back unchanged.
* Zero knowledge: for every accepting configuration, the multiset of views
  over all draw tuples equals the simulator's exactly, as integer
  ``Counter``s with no threshold. The simulator's views are the product of
  the ``view._sim_chunks(k)`` tables, which are harvested from one public
  check (x = 1 against k blanks); so this also shows that every other
  accepting configuration shows the same distribution.

A room of size s draws one permutation, the s - 1 ``cards.fisher_yates``
draws of widths s, s-1, ..., 2. Over all s! tuples, an honest room reveals
every permutation of 1..s exactly once, which is the uniform permutation the
simulator draws, and a wrong multiset or a committed 0 rejects on every tuple.

Composition. A run's view is the concatenation of its checks' views: the
distance checks in ``protocol.check_plan`` order, then the rooms. Each
check makes its own draws, independent of every other check's, and an
accepting distance check puts every sequence back on its cell unchanged, so
each check starts from the committed values whatever came before. A run's
verdict is therefore that of its first violating check, on every draw, and
an accepting run's view is distributed as the concatenation of independent
per-check simulator views, which is what ``view.simulate_transcript``
renders. The per-check results above cover whole runs.
"""
from collections import Counter
from itertools import chain, permutations, product
from math import factorial

import pytest

from helpers import make_puzzle, zeroing_replay
from ripple_zkp import protocol, view
from ripple_zkp.cards import (
    _ONE_HEART,
    MalformedCommitmentError,
    ReplaySource,
    Transcript,
    encode,
)
from ripple_zkp.protocol import (
    MALFORMED_COMMITMENT,
    ROOM_MULTISET_MISMATCH,
    Board,
    Verdict,
    verify_room,
)

MALFORMED = "malformed"


def draw_widths(k: int) -> list[int]:
    """The widths of a distance check's secret draws, in draw order."""
    return [k, k, 2 * k - 1, k, k, 2 * k - 1, k] if k > 1 else [1] * 6


def rule(a0: int, neighbours: list[int]):
    """What the check must return: MALFORMED for an a0 without exactly one heart,
    None when a neighbour among the first x has bit x-1 set, else the inputs."""
    if not a0 or a0 & (a0 - 1):
        return MALFORMED
    x = a0.bit_length()
    if any(n >> (x - 1) & 1 for n in neighbours[:x]):
        return None
    return a0, neighbours


def replay(k: int, a0: int, neighbours: list[int], source=ReplaySource):
    """(result, view) of the check on every draw tuple, in product order, each
    replayed through ``source``: the result is what ``_distance_direction``
    returns, or MALFORMED when it raises."""
    for draws in product(*map(range, draw_widths(k))):
        t = Transcript()
        try:
            result = protocol._distance_direction(k, a0, neighbours, source(draws), t, ())
        except MalformedCommitmentError:
            result = MALFORMED
        yield result, tuple(t.events)


def simulated_views(k: int) -> Counter:
    """The simulator's views of one check: one per tuple of harvested runs."""
    tables = [table for table, _ in view._sim_chunks(k)[0]]
    return Counter(tuple(chain.from_iterable(runs)) for runs in product(*tables))


def check_configuration(k: int, a0: int, neighbours: list[int], simulated: Counter) -> str:
    """Replay one configuration on every draw tuple, assert the rule, the hand-back
    and the views, and return "accept", "reject" or MALFORMED."""
    want = rule(a0, neighbours)
    views = Counter()
    for result, events in replay(k, a0, neighbours):
        assert result == want, (k, a0, neighbours)
        views[events] += 1
    if want == MALFORMED:
        # Step 2 raised: each view is the one reveal of a0's row.
        assert all(len(events) == 1 and events[0][:3] == ("reveal_row", "M", 2) for events in views)
        return MALFORMED
    if want is None:
        return "reject"
    assert views == simulated, (k, a0, neighbours)
    return "accept"


def configurations(k: int, masks):
    """Every (a0, neighbours) with each of the k + 1 sequences drawn from ``masks``."""
    for a0, *neighbours in product(masks, repeat=k + 1):
        yield a0, neighbours


@pytest.mark.parametrize("k, split", [(1, (1, 1, 2)), (2, (12, 20, 32))])
def test_distance_check_is_exact_on_raw_masks(k, split):
    simulated = simulated_views(k)
    assert set(simulated.values()) == {1}  # the honest view is a bijection of the draws
    kinds = Counter(
        check_configuration(k, a0, neighbours, simulated)
        for a0, neighbours in configurations(k, range(1 << k))
    )
    assert (kinds["accept"], kinds["reject"], kinds[MALFORMED]) == split


# Mutant engines, as replays that zero chosen draws of each check (draw
# order: M at step 2, M1's realignment, M2 at step 8, N's uniqueness, N's
# realignment, M2 at step 13, M2's realignment). Each draw is still taken,
# so every replayed tuple stays in range.
# Step 2's shuffle moves nothing.
skip_step_2 = zeroing_replay(0)
# M2's shuffles at steps 8 and 13 move nothing.
constant_on_m2 = zeroing_replay(2, 5)


@pytest.mark.parametrize(
    "mutant", [skip_step_2, constant_on_m2], ids=["skip_step_2", "constant_on_m2"]
)
def test_exact_check_catches_mutant_engines(mutant):
    # Each mutant keeps every verdict and every hand-back, so only the views
    # can show it: every accepting configuration must differ from the
    # simulator. The tables are harvested from the honest engine.
    k = 2
    simulated = simulated_views(k)
    accepting = [
        (a0, neighbours)
        for a0, neighbours in configurations(k, range(1 << k))
        if rule(a0, neighbours) == (a0, neighbours)
    ]
    assert len(accepting) == 12
    for a0, neighbours in accepting:
        views = Counter()
        for result, events in replay(k, a0, neighbours, mutant):
            assert result == (a0, neighbours)
            views[events] += 1
        assert views != simulated, (a0, neighbours)


ROOMS = make_puzzle(["a b b c c c d d d d"])  # rooms of sizes 1 to 4, so k = 4
WRONG_MULTISET = {"a": [2], "b": [2, 2], "c": [1, 2, 2], "d": [1, 2, 3, 3]}


def room_runs(room: str, values: list[int]):
    """(verdict, revealed values) of ``verify_room`` with the room's cells
    committed to ``values``, on every draw tuple of its permutation."""
    cells = ROOMS.room_cells[room]
    for draws in product(*(range(i) for i in range(len(cells), 1, -1))):
        seqs = [None] * len(ROOMS.cells)
        for cell, v in zip(cells, values):
            seqs[ROOMS.cells.index(cell)] = encode(v, 4)
        board = Board(ROOMS, 4, seqs)
        t = Transcript()
        verdict = verify_room(board, room, ReplaySource(draws), t)
        (cols,) = [ev[2] for ev in t.events if ev[0] == "reveal_all"]
        yield verdict, tuple(map(_ONE_HEART.get, cols))


@pytest.mark.parametrize("room", "abcd")
def test_honest_room_shows_every_permutation_once(room):
    s = len(ROOMS.room_cells[room])
    runs = list(room_runs(room, list(range(1, s + 1))))
    assert all(verdict.accepted for verdict, _ in runs)
    assert Counter(values for _, values in runs) == Counter(permutations(range(1, s + 1)))


@pytest.mark.parametrize("room", "abcd")
def test_wrong_multiset_rejects_on_every_draw(room):
    runs = list(room_runs(room, WRONG_MULTISET[room]))
    assert len(runs) == factorial(len(ROOMS.room_cells[room]))
    assert {verdict for verdict, _ in runs} == {Verdict(False, ROOM_MULTISET_MISMATCH, room)}


@pytest.mark.parametrize("room", "abcd")
def test_committed_zero_is_malformed_on_every_draw(room):
    s = len(ROOMS.room_cells[room])
    runs = list(room_runs(room, [0, *range(2, s + 1)]))
    assert len(runs) == factorial(s)
    assert {verdict for verdict, _ in runs} == {Verdict(False, MALFORMED_COMMITMENT, room)}
