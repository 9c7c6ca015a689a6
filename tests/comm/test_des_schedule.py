"""The DES runs every action in the same global order, however it is driven.

An action is pinned as ``(kind, rank, start)``: ``start`` is the acting
rank's clock when the handler is entered, as ``float.hex()``.  The
SHA-1 of that sequence was generated before the kernel's
``max_virtual_time`` stop and ``quiescent()`` changed, by running this
module as a script at commit ``51d84c9``::

    PYTHONPATH=src python tests/comm/test_des_schedule.py

A change to the kernel that reorders, adds or drops a single action
moves a digest.  Regenerate only for a change that means to.

The hypothesis tests hold one ``run()`` against ``run(max_actions=k)``
slices, and against ``max_virtual_time`` slices with alarms at grid
times that often equal action times.  A time slice used to pop the
first action past its bound and push it back with a fresh ``seq``, so
it could lose a tie it would have won in one ``run()``.
"""

from __future__ import annotations

import hashlib
import random
import sys
from contextlib import contextmanager
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.comm.costmodel import CostModel
from repro.comm.des import DiscreteEventLoop, RankHandler
from repro.runtime.engine import DynamicEngine

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "runtime"))
from test_cost_ledger import LEGS  # noqa: E402

# A dyadic grid: every charge and latency is a small multiple of G, so
# clock sums are exact and equal times (ties) are common.
G = 2.0**-20


class ToyCost:
    """What the DES reads of a cost model, with the charges and
    latencies on the grid (CostModel's calibration is fixed)."""

    local_latency = 2 * G
    remote_latency = 5 * G
    send_cpu = G
    squash_cpu = G
    batch_send_base_cpu = G
    batch_send_per_msg_cpu = G
    channel_capacity = CostModel().channel_capacity  # no backpressure

    @staticmethod
    def node_of(rank: int) -> int:
        return rank // 2  # two ranks per node


TOY_COST = ToyCost()


def _digest(trace: list) -> str:
    return hashlib.sha1(repr(trace).encode()).hexdigest()


class Toy(RankHandler):
    """Seeded traffic on every lane: pulls send, coalesce and fan out,
    messages forward with a TTL, some over the control lane."""

    def __init__(self, n_ranks: int, pulls: int, seed: int):
        self.n_ranks = n_ranks
        self.left = [pulls] * n_ranks
        self.rng = random.Random(seed)
        self.trace: list[tuple] = []

    def pull_source(self, loop, rank):
        self.trace.append(("p", rank, loop.now(rank).hex()))
        if not self.left[rank]:
            return False
        self.left[rank] -= 1
        rng = self.rng
        loop.consume(rank, rng.randint(0, 3) * G)
        kind = rng.randint(0, 2)
        if kind == 1:
            dst = rng.randrange(self.n_ranks)
            loop.send(rank, dst, 3, coalesce_key=dst, combiner=max)
        elif kind == 2:
            batch = [(rng.randrange(self.n_ranks), 2, None) for _ in range(3)]
            loop.send_many(rank, batch)
        return True

    def on_message(self, loop, rank, ttl):
        self.trace.append(("m", rank, loop.now(rank).hex()))
        rng = self.rng
        loop.consume(rank, rng.randint(0, 2) * G)
        if ttl:
            dst = rng.randrange(self.n_ranks)
            loop.send(rank, dst, ttl - 1, priority=rng.random() < 0.2)


def toy_run(seed: int, n_ranks: int = 3, pulls: int = 12, alarms=(), drive=None):
    """One toy run driven by ``drive(loop)`` (default: one ``run()``);
    alarms inject a message and enter the trace when they fire."""
    handler = Toy(n_ranks, pulls, seed)
    loop = DiscreteEventLoop(n_ranks, TOY_COST, handler)
    for i, time in enumerate(alarms):

        def fire(time=time, i=i):
            handler.trace.append(("a", i, time.hex()))
            loop.send_at(time, i % n_ranks, (i + 1) % n_ranks, 1)

        loop.schedule_alarm(time, fire)
    loop.start()
    (drive or DiscreteEventLoop.run)(loop)
    return handler.trace, loop.actions_executed, [c.hex() for c in loop.clock]


def sliced(k: int):
    """Drive with ``run(max_actions=k)`` until a call makes no progress;
    no call may run more than ``k`` actions."""

    def drive(loop):
        while True:
            before = (loop.actions_executed, len(loop.handler.trace))
            loop.run(max_actions=k)
            assert loop.actions_executed - before[0] <= k
            if (loop.actions_executed, len(loop.handler.trace)) == before:
                return

    return drive


def time_sliced(bounds):
    """Drive with ``run(max_virtual_time=b)`` per bound, then ``run()``;
    no action may start past the bound of the call that ran it."""

    def drive(loop):
        trace = loop.handler.trace
        for bound in sorted(bounds):
            done = len(trace)
            loop.run(max_virtual_time=bound)
            assert all(
                float.fromhex(start) <= bound
                for kind, _, start in trace[done:]
                if kind != "a"
            )
        loop.run()

    return drive


@contextmanager
def recording_engine_actions():
    """Wrap ``DynamicEngine.on_message``/``pull_source`` (class level,
    before the engine is built) to record every action's start."""
    trace: list[tuple] = []
    on_message, pull_source = DynamicEngine.on_message, DynamicEngine.pull_source

    def rec_message(self, loop, rank, msg):
        trace.append(("m", rank, loop.clock[rank].hex()))
        return on_message(self, loop, rank, msg)

    def rec_pull(self, loop, rank):
        trace.append(("p", rank, loop.clock[rank].hex()))
        return pull_source(self, loop, rank)

    DynamicEngine.on_message, DynamicEngine.pull_source = rec_message, rec_pull
    try:
        yield trace
    finally:
        DynamicEngine.on_message, DynamicEngine.pull_source = on_message, pull_source


def engine_order(leg: str) -> tuple[int, int, str]:
    with recording_engine_actions() as trace:
        engine = LEGS[leg]()
    return engine.loop.actions_executed, len(trace), _digest(trace)


def toy_order(seed: int) -> tuple[int, int, str]:
    trace, executed, clocks = toy_run(seed, n_ranks=4, pulls=40)
    return executed, len(trace), _digest((trace, clocks))


# (actions_executed, handler entries, SHA-1), generated at ``51d84c9``;
# churn regenerated when the support tree's rule 1 stopped echoing an
# adopted value to its sender (1,792 actions before), and bfs_cc when
# the store's hub tables became insertion-ordered dicts (a hub's fan-out
# order moved; 16,585 actions before), then when the add-only programs
# took the same rule (16,628 actions before).
PINNED_ENGINE = {
    "bfs_cc": (15094, 15094, "6fc23858263e02bcf83173be847e48f998576129"),
    "churn": (1489, 1489, "dab8f41f8cb37bfe52b63b419ad8e53d769248b9"),
}
PINNED_TOY = {
    0: (815, 815, "79aea3c36e4b5f03ec1ce6aa94221faea42e1c3c"),
    1: (802, 802, "8a2272995d9b16c035d0ed811751873a358c5760"),
}


def test_engine_action_order_is_pinned():
    for leg, want in PINNED_ENGINE.items():
        assert engine_order(leg) == want, leg


def test_toy_action_order_is_pinned():
    for seed, want in PINNED_TOY.items():
        assert toy_order(seed) == want, seed


grid_times = st.integers(0, 400).map(lambda n: n * G)


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**16),
    n_ranks=st.integers(1, 4),
    k=st.integers(1, 7),
    alarms=st.lists(grid_times, max_size=4),
)
def test_action_slices_equal_one_run(seed, n_ranks, k, alarms):
    whole = toy_run(seed, n_ranks, alarms=alarms)
    assert toy_run(seed, n_ranks, alarms=alarms, drive=sliced(1)) == whole
    assert toy_run(seed, n_ranks, alarms=alarms, drive=sliced(k)) == whole


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**16),
    n_ranks=st.integers(1, 4),
    bounds=st.lists(grid_times, min_size=1, max_size=5),
    alarms=st.lists(grid_times, max_size=4),
)
def test_time_slices_equal_one_run(seed, n_ranks, bounds, alarms):
    whole = toy_run(seed, n_ranks, alarms=alarms)
    assert toy_run(seed, n_ranks, alarms=alarms, drive=time_sliced(bounds)) == whole


def _scanned_quiescence(loop: DiscreteEventLoop) -> bool:
    """The four-part predicate ``quiescent()`` used to evaluate."""
    return (
        loop.in_flight == 0
        and all(not ib for ib in loop._inbox)
        and all(not ib for ib in loop._inbox_prio)
        and not any(loop._source_active)
    )


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**16),
    n_ranks=st.integers(1, 4),
    alarms=st.lists(grid_times, max_size=4),
)
def test_quiescent_counters_equal_the_four_part_scan(seed, n_ranks, alarms):
    seen = []

    def drive(loop):
        # Toggles outside run() move the count too.
        loop.set_source_active(n_ranks - 1, False)
        loop.set_source_active(0, False)
        loop.set_source_active(0, True)
        progress = None
        while progress != (loop.actions_executed, len(loop._alarms)):
            progress = (loop.actions_executed, len(loop._alarms))
            seen.append(loop.quiescent())
            assert seen[-1] == _scanned_quiescence(loop)
            loop.run(max_actions=1)

    toy_run(seed, n_ranks, alarms=alarms, drive=drive)
    assert seen[0] is False and seen[-1] is True


def test_a_source_that_deactivates_itself_is_counted_once():
    class SelfStop(RankHandler):
        def pull_source(self, loop, rank):
            loop.set_source_active(rank, False)
            return False

    loop = DiscreteEventLoop(2, TOY_COST, SelfStop())
    loop.start()
    loop.run()
    assert loop.quiescent() and _scanned_quiescence(loop)


class Puller(RankHandler):
    """Rank ``r`` pulls ``pulls[r]`` times at ``costs[r]`` seconds each;
    records who pulled when."""

    def __init__(self, costs: tuple[float, ...], pulls: tuple[int, ...]):
        self.costs = costs
        self.left = list(pulls)
        self.order: list[tuple[int, float]] = []

    def pull_source(self, loop, rank):
        if not self.left[rank]:
            return False
        self.left[rank] -= 1
        self.order.append((rank, loop.now(rank)))
        loop.consume(rank, self.costs[rank])
        return True


def test_a_rank_tied_with_a_queued_rank_yields_to_it():
    """Both ranks are next at the same whole second after every pull.
    The queued rank entered the heap first, so it wins the tie: the
    ranks alternate, and no rank runs twice in a row."""
    handler = Puller(costs=(1.0, 1.0), pulls=(4, 4))
    loop = DiscreteEventLoop(2, TOY_COST, handler)
    loop.start()
    loop.run()
    assert handler.order == [
        (0, 0.0), (1, 0.0), (0, 1.0), (1, 1.0),
        (0, 2.0), (1, 2.0), (0, 3.0), (1, 3.0),
    ]  # fmt: skip


def test_a_rank_strictly_earliest_keeps_running():
    """A rank whose next time is strictly below every queued action runs
    next; each action, the two exhausted pulls included, counts once."""
    handler = Puller(costs=(1.0, 4.0), pulls=(4, 2))
    loop = DiscreteEventLoop(2, TOY_COST, handler)
    loop.start()
    loop.run()
    assert handler.order == [(0, 0.0), (1, 0.0), (0, 1.0), (0, 2.0), (0, 3.0), (1, 4.0)]
    assert loop.actions_executed == 8


if __name__ == "__main__":
    print("PINNED_ENGINE =", {leg: engine_order(leg) for leg in PINNED_ENGINE})
    print("PINNED_TOY =", {seed: toy_order(seed) for seed in PINNED_TOY})
