"""Conservative discrete-event kernel for the simulated cluster.

Model
-----
Each rank is an actor with a virtual clock (``clock[r]`` = the time at
which rank *r* next becomes free).  A rank's next action is:

* process the earliest-arrived inbox message, or
* if its inbox holds nothing it could process right now and its source
  stream is live, pull one topology event ("each rank pulling a topology
  event as soon as local work is completed", §V-A), or
* idle until the next message arrives.

The kernel executes actions in **global virtual-time order**, which makes
the simulation conservative (causally correct): when an action at time
*t* runs, every other rank's next action is at ≥ *t*, so no message that
should have arrived before *t* can materialise later.

A ``max_virtual_time`` stop peeks at the heap head and leaves it in
place, with its ``seq``: a run cut into time slices executes the same
actions in the same order as one ``run()``.  ``quiescent()`` is two
counter tests.

Channels
--------
Messages between a (sender, receiver) pair form a FIFO channel: arrival
time is ``max(departure + latency, previous arrival on the channel)``.
This is the property §III-C relies on to serialise undirected edge
creation, and §IV relies on to order same-vertex events.

Coalescing
----------
§II-D observes that monotone UPDATE events "can be combined or
squashed" in the visitor queue, which HavoqGT's middleware exploits.
The kernel supports this mechanically and policy-free: a send may carry
a ``coalesce_key`` plus a ``combiner``; when the receiver's data inbox
already holds a pending, not-yet-dispatched message under the same key,
the new payload is merged into the queued message in place (keeping the
earlier arrival time, so no entry ever moves later or earlier in the
heap and FIFO/causality of the conservative schedule is untouched) and
the send reports "squashed" instead of enqueuing a second tuple.  What
keys mean and how payloads merge is the handler's policy (the engine
keys on ``(prog, target, sender, version)`` and merges via the
program's monotone combine hook).

``send_many`` is the batched fan-out companion: one call emits a
vertex's whole neighbour fan-out, charging the fixed send cost once per
batch plus a cheap per-message increment.

Handlers
--------
The kernel is policy-free; behaviour lives in a :class:`RankHandler`
(the dynamic engine, or toy handlers in tests).  During a callback the
handler advances its own clock with :meth:`DiscreteEventLoop.consume`
and sends with :meth:`DiscreteEventLoop.send`.
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import Any, Callable

from repro.comm.costmodel import CostModel
from repro.util.validate import check_positive

_INF = float("inf")


class _PendingCoalescible(list):
    """A queued data message open for in-place payload combining:
    ``[msg, key]``.

    The heap entry references this holder instead of the raw message; a
    later same-key send rewrites ``msg`` (item 0) without touching the
    heap, so no entry ever moves and the conservative schedule is
    unchanged.  The window closes when the receiver dequeues the message
    — exactly the lifetime of an arrived-but-unprocessed visitor in a
    real queue.  A ``list`` subclass without slots of its own is built
    in C, with no Python ``__init__`` frame per coalescible send.
    """

    __slots__ = ()


class RankHandler:
    """Behaviour plugged into the kernel (subclass or duck-type).

    ``on_message`` / ``pull_source`` run as the acting rank: they should
    call ``loop.consume(rank, cpu)`` for the work they model and may call
    ``loop.send``.  ``pull_source`` returns False when the rank's stream
    is exhausted (the kernel then stops offering pulls to that rank).
    """

    def on_message(self, loop: "DiscreteEventLoop", rank: int, msg: Any) -> None:
        raise NotImplementedError

    def pull_source(self, loop: "DiscreteEventLoop", rank: int) -> bool:
        return False


class DiscreteEventLoop:
    """The simulation kernel.  See module docstring for the model."""

    def __init__(self, n_ranks: int, cost_model: CostModel, handler: RankHandler):
        check_positive("n_ranks", n_ranks)
        self.n_ranks = int(n_ranks)
        self.cost = cost_model
        self.handler = handler
        self.clock = [0.0] * self.n_ranks
        # cost.latency() per rank pair, from O(ranks) state: n_ranks is
        # unbounded by design, so never a rank x rank table.
        self._node_of = [cost_model.node_of(r) for r in range(self.n_ranks)]
        self._local_latency = cost_model.local_latency
        self._remote_latency = cost_model.remote_latency
        # inbox[r]: heap of (arrival_time, seq, msg); the priority inbox
        # models a separate control lane (probes/reports/cuts) that real
        # middleware services ahead of the data backlog.
        self._inbox: list[list[tuple[float, int, Any]]] = [[] for _ in range(self.n_ranks)]
        self._inbox_prio: list[list[tuple[float, int, Any]]] = [
            [] for _ in range(self.n_ranks)
        ]
        # _channel_last[src][lane]: receiver -> the channel's last
        # arrival (lane 0 data, 1 control), so no key tuple is built
        # and hashed per message.
        self._channel_last: list[tuple[dict[int, float], dict[int, float]]] = [
            ({}, {}) for _ in range(self.n_ranks)
        ]
        # Per-receiver index of coalescible pending data messages:
        # coalesce_key -> the live _PendingCoalescible holder.
        self._coalesce: list[dict[Any, _PendingCoalescible]] = [
            {} for _ in range(self.n_ranks)
        ]
        self._actions: list[tuple[float, int, int]] = []  # (time, seq, rank)
        self._alarms: list[tuple[float, int, Callable[[], None]]] = []
        self._scheduled: list[float | None] = [None] * self.n_ranks
        self._seq = 0
        self._source_active = [True] * self.n_ranks
        self._live_sources = self.n_ranks  # count of True in _source_active
        self.in_flight = 0  # messages queued in either lane, not yet handled
        self.messages_delivered = 0
        self.messages_squashed = 0  # sends combined into a queued message
        self.batch_sends = 0  # send_many invocations
        self.actions_executed = 0
        self.stall_time = 0.0  # total backpressure stalls (virtual s)
        self.fault_stall_time = 0.0  # injected rank freezes (virtual s)
        self._acting_rank: int | None = None

    # ------------------------------------------------------------------
    # fault injection
    # ------------------------------------------------------------------
    def stall_rank(self, rank: int, until: float) -> None:
        """Freeze ``rank`` until virtual time ``until`` (fault injection:
        a GC pause / OS hiccup).  Pending arrivals are simply serviced
        late, in channel order."""
        if until > self.clock[rank]:
            self.fault_stall_time += until - self.clock[rank]
            self.clock[rank] = until

    # ------------------------------------------------------------------
    # time & scheduling primitives
    # ------------------------------------------------------------------
    def now(self, rank: int) -> float:
        """Rank *r*'s current virtual time (its busy-until point)."""
        return self.clock[rank]

    def max_time(self) -> float:
        """The makespan so far: the furthest-ahead rank clock."""
        return max(self.clock)

    def consume(self, rank: int, cpu_seconds: float) -> None:
        """Advance ``rank``'s clock by modelled CPU work."""
        self.clock[rank] += cpu_seconds

    def _reschedule(self, rank: int) -> None:
        """Enter ``rank``'s next action — at its clock, or when its
        earliest message arrives — in the action heap (none: idle)."""
        t = self.clock[rank]
        # The rank never waits while its stream is live: at its own
        # clock it processes an already-arrived message, else pulls.
        if not self._source_active[rank]:
            inbox, prio = self._inbox[rank], self._inbox_prio[rank]
            if inbox:
                earliest = inbox[0][0]
                if prio and prio[0][0] < earliest:
                    earliest = prio[0][0]
            elif prio:
                earliest = prio[0][0]
            else:
                self._scheduled[rank] = None
                return
            if earliest > t:
                t = earliest
        self._scheduled[rank] = t
        seq = self._seq + 1
        self._seq = seq
        heappush(self._actions, (t, seq, rank))

    def send(
        self,
        src_rank: int,
        dst_rank: int,
        msg: Any,
        priority: bool = False,
        coalesce_key: Any = None,
        combiner: Callable[[Any, Any], Any] | None = None,
    ) -> bool:
        """Send ``msg`` from the acting rank ``src_rank`` to ``dst_rank``.

        Charges ``send_cpu`` to the sender and delivers after the
        channel's FIFO-respecting latency.  Self-sends are legal (a rank
        queueing a visitor to itself) and use the local latency.
        ``priority`` routes over the control lane: FIFO with respect to
        other control messages on the same channel, and serviced by the
        receiver ahead of any queued data backlog.

        When ``coalesce_key`` is not None (data lane only) and the
        receiver already queues a pending, not-yet-dispatched message
        under the same key, ``combiner(old_msg, new_msg)`` replaces
        that message's payload in place — no second tuple is enqueued, only
        ``squash_cpu`` is charged, and the call returns True.  The
        caller is then responsible for any sent/received accounting the
        squashed message still owes (the engine books it to the
        four-counter detector at squash time).

        Flow control: sending into a receiver whose data backlog exceeds
        ``cost.channel_capacity`` stalls the sender (its clock advances)
        proportionally to the excess — the DES analogue of a blocking
        MPI send into full buffers.  Control-lane sends are exempt.

        Returns True iff the message was squashed into a queued one.
        """
        if coalesce_key is not None and self._try_squash(
            src_rank, dst_rank, msg, coalesce_key, combiner
        ):
            return True
        self.clock[src_rank] += self.cost.send_cpu
        if (
            not priority
            and src_rank != dst_rank
            and len(self._inbox[dst_rank]) > self.cost.channel_capacity
        ):
            self._backpressure(src_rank, dst_rank)
        self._deliver(
            self.clock[src_rank], src_rank, dst_rank, msg, priority, coalesce_key
        )
        return False

    def send_many(
        self,
        src_rank: int,
        batch: list[tuple[int, Any, Any]],
        combiner: Callable[[Any, Any], Any] | None = None,
    ) -> list[bool]:
        """Emit a fan-out batch of data-lane messages from ``src_rank``.

        ``batch`` is a list of ``(dst_rank, msg, coalesce_key)`` triples
        (``coalesce_key`` None disables combining for that message).
        The fixed send overhead is charged once (``batch_send_base_cpu``)
        with a ``batch_send_per_msg_cpu`` increment per delivered
        message; squashed messages charge ``squash_cpu`` instead.

        Returns one bool per message: True iff it was squashed.
        """
        self.batch_sends += 1
        clock = self.clock
        clock[src_rank] += self.cost.batch_send_base_cpu
        per_msg = self.cost.batch_send_per_msg_cpu
        inboxes, capacity = self._inbox, self.cost.channel_capacity
        squashed = []
        for dst_rank, msg, key in batch:
            if key is not None and self._try_squash(
                src_rank, dst_rank, msg, key, combiner
            ):
                squashed.append(True)
                continue
            clock[src_rank] += per_msg
            if src_rank != dst_rank and len(inboxes[dst_rank]) > capacity:
                self._backpressure(src_rank, dst_rank)
            self._deliver(clock[src_rank], src_rank, dst_rank, msg, False, key)
            squashed.append(False)
        return squashed

    def _try_squash(
        self,
        src_rank: int,
        dst_rank: int,
        msg: Any,
        key: Any,
        combiner: Callable[[Any, Any], Any] | None,
    ) -> bool:
        """Combine ``msg`` into a pending same-key message if one is
        still queued (arrived or in flight, but not yet dispatched)."""
        if combiner is None:
            return False
        entry = self._coalesce[dst_rank].get(key)
        if entry is None:
            return False
        entry[0] = combiner(entry[0], msg)
        self.messages_squashed += 1
        self.clock[src_rank] += self.cost.squash_cpu
        return True

    def _backpressure(self, src_rank: int, dst_rank: int) -> None:
        """Stall ``src_rank`` behind a receiver whose data backlog is
        over ``channel_capacity`` (the callers test that first)."""
        excess = len(self._inbox[dst_rank]) - self.cost.channel_capacity
        # Blocking-send semantics: wait until the receiver will have
        # drained back to capacity.  The horizon is the receiver's
        # clock plus its excess backlog at its per-message service
        # rate; advancing to a horizon is idempotent, so a stalled
        # sender is not charged again for the same backlog.
        horizon = self.clock[dst_rank] + excess * self.cost.backpressure_stall_cpu
        if horizon > self.clock[src_rank]:
            self.stall_time += horizon - self.clock[src_rank]
            self.clock[src_rank] = horizon

    def send_at(
        self,
        time: float,
        src_rank: int,
        dst_rank: int,
        msg: Any,
        priority: bool = False,
    ) -> None:
        """Inject a message departing ``src_rank`` at ≥ ``time``.

        Used by alarms (e.g. a global-state collection request arriving
        from outside the cluster at a wall-clock instant): the message
        leaves at ``max(time, clock[src])`` without charging CPU.
        """
        self._deliver(
            max(time, self.clock[src_rank]), src_rank, dst_rank, msg, priority
        )

    def _deliver(
        self,
        departure: float,
        src_rank: int,
        dst_rank: int,
        msg: Any,
        priority: bool,
        coalesce_key: Any = None,
    ) -> None:
        node_of = self._node_of
        arrival = departure + (
            self._local_latency
            if node_of[src_rank] == node_of[dst_rank]
            else self._remote_latency
        )
        channel = self._channel_last[src_rank][priority]
        last = channel.get(dst_rank, 0.0)
        if last > arrival:
            arrival = last  # FIFO: never overtake the channel's previous arrival
        channel[dst_rank] = arrival
        queue = self._inbox_prio[dst_rank] if priority else self._inbox[dst_rank]
        if coalesce_key is not None and not priority:
            # The queue holds the open holder, not the raw message.
            msg = _PendingCoalescible((msg, coalesce_key))
            self._coalesce[dst_rank][coalesce_key] = msg
        seq = self._seq + 1
        self._seq = seq
        heappush(queue, (arrival, seq, msg))
        self.in_flight += 1
        # A new arrival can move the receiver's next action earlier.
        cur = self._scheduled[dst_rank]
        if dst_rank != self._acting_rank and (cur is None or arrival < cur):
            self._reschedule(dst_rank)

    def schedule_alarm(self, time: float, callback: Callable[[], None]) -> None:
        """Run ``callback`` when global virtual time first reaches ``time``.

        Alarms model external stimuli (a user asking for a snapshot at
        t = 15 s); the callback typically calls :meth:`send_at`.
        """
        self._seq += 1
        heappush(self._alarms, (time, self._seq, callback))

    # ------------------------------------------------------------------
    # queue introspection (telemetry sampling; never mutates state)
    # ------------------------------------------------------------------
    def inbox_depth(self, rank: int) -> int:
        """Queued data-lane messages awaiting dispatch at ``rank``."""
        return len(self._inbox[rank])

    def prio_depth(self, rank: int) -> int:
        """Queued control-lane messages awaiting dispatch at ``rank``."""
        return len(self._inbox_prio[rank])

    def coalesce_depth(self, rank: int) -> int:
        """Pending messages at ``rank`` still open for squashing."""
        return len(self._coalesce[rank])

    def set_source_active(self, rank: int, active: bool) -> None:
        """(De)activate a rank's source stream (engine wiring)."""
        active = bool(active)
        if active != self._source_active[rank]:
            self._source_active[rank] = active
            self._live_sources += 1 if active else -1
        if active and rank != self._acting_rank:
            self._reschedule(rank)

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Schedule initial actions; call once before :meth:`run`."""
        for rank in range(self.n_ranks):
            self._reschedule(rank)

    def quiescent(self) -> bool:
        """Oracle quiescence: nothing in flight, queued, or pullable.

        This is ground truth the *distributed* detector in
        :mod:`repro.comm.termination` is tested against; the engine's
        algorithms must not rely on it.  Two counters answer it:
        ``in_flight`` counts every message queued in either lane, so
        empty inboxes need no scan.
        """
        return self.in_flight == 0 and self._live_sources == 0

    def run(
        self,
        max_virtual_time: float | None = None,
        max_actions: int | None = None,
    ) -> float:
        """Execute actions in global time order until nothing remains.

        Returns the makespan (max rank clock).  ``max_virtual_time`` and
        ``max_actions`` bound the run for tests/debugging: at most
        ``max_actions`` actions run (0 runs none), and a negative bound
        is a ``ValueError``.

        ``actions_executed`` and ``messages_delivered`` are counted in
        locals and added when the call returns: they are read between
        runs (the cost ledger, the benchmark, a checkpoint restore),
        never by a handler or an alarm mid-run.
        """
        if max_actions is None:
            limit = _INF
        elif max_actions < 0:
            raise ValueError(f"max_actions must be >= 0, got {max_actions}")
        else:
            limit = max_actions
        actions, alarms = self._actions, self._alarms
        scheduled, clock = self._scheduled, self.clock
        inboxes, prios = self._inbox, self._inbox_prio
        source_active, handler = self._source_active, self.handler
        coalesce = self._coalesce
        horizon = _INF if max_virtual_time is None else max_virtual_time
        executed = delivered = 0
        try:
            while executed < limit:
                if alarms:
                    # Fire any alarms due before the next rank action.
                    next_action_t = actions[0][0] if actions else _INF
                    while alarms and alarms[0][0] <= next_action_t:
                        _, _, cb = heappop(alarms)
                        cb()
                        next_action_t = actions[0][0] if actions else _INF
                    if not actions:
                        if alarms and self.quiescent():
                            # Only alarms remain and the cluster is silent:
                            # fire them in order (they may inject new work).
                            t, _, cb = heappop(alarms)
                            cb()
                            continue
                        break
                elif not actions:
                    break
                t, _, rank = actions[0]
                if scheduled[rank] != t:
                    heappop(actions)
                    continue  # stale entry
                if t > horizon:
                    break  # left in the heap, its seq (tie rank) intact
                heappop(actions)
                scheduled[rank] = None
                # One action of ``rank`` at time ``t``: its earliest arrived
                # message (control lane first), else one source pull.
                now = clock[rank]
                if t > now:
                    now = t
                prio = prios[rank]
                inbox = prio if prio and prio[0][0] <= now else inboxes[rank]
                self._acting_rank = rank
                if inbox and inbox[0][0] <= now:
                    arrival, _, msg = heappop(inbox)
                    if type(msg) is _PendingCoalescible:
                        # Retire the coalescing window: later same-key sends
                        # must enqueue fresh (identity check — a newer entry
                        # may already have replaced this key's slot).
                        holder = msg
                        msg, key = holder
                        index = coalesce[rank]
                        if index.get(key) is holder:
                            del index[key]
                    if arrival > clock[rank]:
                        clock[rank] = arrival
                    self.in_flight -= 1
                    delivered += 1
                    handler.on_message(self, rank, msg)
                elif source_active[rank]:
                    clock[rank] = now
                    # (the handler may have deactivated it itself)
                    if not handler.pull_source(self, rank) and source_active[rank]:
                        source_active[rank] = False
                        self._live_sources -= 1
                # else: stale wake-up with an inbox drained meanwhile.
                self._acting_rank = None
                self._reschedule(rank)
                executed += 1
        finally:
            self._acting_rank = None
            self.actions_executed += executed
            self.messages_delivered += delivered
        return self.max_time()
