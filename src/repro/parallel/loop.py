"""The engine-facing message loop of one worker process.

:class:`ShmLoop` duck-types the sender-side surface of
:class:`repro.comm.des.DiscreteEventLoop` that :class:`DynamicEngine`
drives — ``send`` / ``send_many`` / ``consume`` / ``now`` / ``clock`` /
``set_source_active`` — so a completely unmodified engine runs across
real OS processes: the worker builds a normal engine, swaps
``engine.loop`` for a ShmLoop, and pumps messages itself
(:mod:`repro.parallel.worker`).

Differences from the simulated NIC, by design:

* **No virtual-time scheduling.**  ``clock`` still exists (the engine
  charges modelled CPU into it, which keeps the cost-model accounting
  meaningful per rank), but it never drives execution — the OS scheduler
  does.  ``send_at`` / ``schedule_alarm`` therefore raise: anything
  needing virtual-time injection (collections, fault plans, telemetry
  sampling) is DES-only.
* **Outbuffers instead of per-send latency.**  Cross-rank messages
  buffer per destination and travel as slabs
  (:class:`repro.parallel.codec.Codec`: one pickled tuple batch per
  flush on a per-event rank, int64 record columns on a vec rank) pushed onto
  the destination's shm ring when the buffer reaches a flush threshold
  (or the worker goes idle) — the PR 1 ``send_many`` batching moved onto
  the wire.  The threshold can be *randomized per flush*
  (``jitter_rng``), which the differential tests use to shake out
  interleaving assumptions on top of genuine OS scheduling noise.  Pipes
  carry control frames only (token, stop, and the ``"D"`` doorbell
  emitted when a push makes a ring go empty→nonempty, so a receiver
  blocked in ``Connection.poll`` wakes without busy-spinning on ring
  heads).
* **Coalescing on both ends of the wire.**  A send carrying a
  ``coalesce_key`` squashes into a pending same-key message in the
  destination's outbuffer (sender side) exactly like the DES inbox
  window; on the receive side, drained UPDATEs squash into same-key
  messages still queued in the local inbox using the engine's
  per-program lifted combiners (§II-D, "combined or squashed in the
  visitor queue").
* **Termination counters live here.**  ``wire_sent`` counts a record
  when its slab lands on the ring, ``wire_received`` when it is drained
  into the inbox — the monotone cumulative pair the token ring
  (:mod:`repro.parallel.termination`) sums.  Local (self-rank) messages
  never touch the wire counters; they cannot be in flight.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Callable, Sequence

import numpy as np

from repro.parallel.codec import Codec
from repro.parallel.shm import K_ADD, K_RADD, K_UPDATE, ShmRing
from repro.parallel.wire import FRAME_DOORBELL
from repro.runtime.visitor import VT_UPDATE


def _records(sel: Any, n: int, *cols: Any) -> np.ndarray:
    """Entries ``sel`` (``n`` of them) of ``cols`` as one C contiguous
    ``(len(cols), n)`` int64 block, a column per row; an int column is
    one value for every record.  64-bit values keep their bits."""
    out = np.empty((len(cols), n), dtype=np.int64)
    for row, col in zip(out, cols):
        row[...] = col if isinstance(col, int) else col[sel]
    return out


class _Pending:
    """A buffered message open for in-place payload combining (the
    outbuffer/inbox analogue of the DES ``_PendingCoalescible``)."""

    __slots__ = ("msg", "key")

    def __init__(self, msg: Any, key: Any):
        self.msg = msg
        self.key = key


class ShmLoop:
    """One rank's message plumbing: shm rings for data, pipes for control.

    ``rings_out`` maps every peer rank to this rank's producer ring
    toward it; a 1-rank run has no peers, so no rings, and every send is
    a self-send.  ``transmit(dst_rank, frame)`` carries the control
    frames and is injected (the worker points it at its sender thread;
    unit tests at a list), so the loop itself is process-free and
    deterministic under test.

    A rank fills one of two per-destination buffers for the whole run
    — visitor tuples (``send`` / ``send_many``, per-event ranks) or
    int64 record columns (``queue_*``, the vectorized drain of
    :mod:`repro.parallel.vecapply`, which never passes through tuple
    space) — and both join the termination accounting, with the
    **overflow queue** that holds slabs a full ring refused
    (``try_push`` never blocks — a cycle of mutually-full rings must not
    deadlock); :meth:`pump` retries them each turn.

    Until its slab lands on the ring a record is ``outbuffered``, so a
    rank with backpressured slabs can never report idle to the token
    ring.
    """

    def __init__(
        self,
        rank: int,
        n_ranks: int,
        transmit: Callable[[int, tuple], None],
        rings_out: dict[int, ShmRing],
        codec: Codec,
        partitioner: Any,
        batch_max: int = 512,
        jitter_rng: Any = None,
    ):
        if not 0 <= rank < n_ranks:
            raise ValueError(f"rank {rank} out of range for {n_ranks} ranks")
        if batch_max < 1:
            raise ValueError(f"batch_max must be >= 1, got {batch_max}")
        self.rank = rank
        self.n_ranks = n_ranks
        self._transmit = transmit
        self._rings_out = rings_out
        self._codec = codec
        self._partitioner = partitioner
        self.batch_max = batch_max
        # Optional per-rank observability capture (repro.obs.distributed
        # RankObs); None = disabled, costing one guard per flush.
        self.obs: Any = None
        self._jitter_rng = jitter_rng
        self._threshold = self._draw_threshold()
        # Engine-facing state: full-width clock (only this rank's slot
        # advances) and the counters the engine reads.
        self.clock = [0.0] * n_ranks
        self.messages_squashed = 0  # sender-side squashes (outbuf + local)
        self.batch_sends = 0  # send_many invocations
        self.stall_time = 0.0  # no backpressure model on a real wire
        self.in_flight = 0  # local inbox depth (engine never reads it)
        self._source_active = [False] * n_ranks
        # Local inbox: FIFO of raw messages / _Pending holders, plus the
        # coalesce index over still-queued UPDATE holders.
        self._inbox: deque[Any] = deque()
        self._inbox_index: dict[Any, _Pending] = {}
        self.inbox_squashed = 0  # receive-side squashes at drain
        # Per-destination outbuffers of _Pending holders + key index.
        self._outbuf: list[list[_Pending]] = [[] for _ in range(n_ranks)]
        self._outbuf_index: list[dict[Any, _Pending]] = [{} for _ in range(n_ranks)]
        # Per-program lifted UPDATE combiners for drain-side coalescing
        # (the worker hands over ``engine._combiners`` after building
        # the engine; empty = no receive-side squashing).
        self._combiners: list[Callable[[tuple, tuple], tuple] | None] = []
        self._overflow: dict[int, deque] = {d: deque() for d in rings_out}
        self._overflow_records = 0
        # dst -> list of (kind, (columns, n) int64 record block)
        self._rec_out: dict[int, list[tuple[int, np.ndarray]]] = {
            d: [] for d in rings_out
        }
        self._rec_counts: dict[int, int] = dict.fromkeys(rings_out, 0)
        # Cumulative wire counters for the termination token ring.
        self.wire_sent = 0
        self.wire_received = 0
        self.frames_sent = 0
        self.frames_received = 0
        self.doorbells = 0
        self.overflow_pushes = 0  # slabs a full ring bounced to overflow
        self.overflow_hwm_records = 0  # overflow-queue record high water
        self.pickle_slabs = 0  # K_PICKLE (tuple-lane) slabs encoded
        self.pickle_records = 0  # messages carried on the tuple lane

    # ------------------------------------------------------------------
    # wiring
    # ------------------------------------------------------------------
    def set_update_combiners(
        self, combiners: list[Callable[[tuple, tuple], tuple] | None]
    ) -> None:
        """Adopt the engine's per-program UPDATE combiners for
        receive-side coalescing."""
        self._combiners = list(combiners)

    def _draw_threshold(self) -> int:
        if self._jitter_rng is None:
            return self.batch_max
        return int(self._jitter_rng.integers(1, self.batch_max + 1))

    # ------------------------------------------------------------------
    # DiscreteEventLoop surface the engine drives
    # ------------------------------------------------------------------
    def now(self, rank: int) -> float:
        return self.clock[rank]

    def max_time(self) -> float:
        return max(self.clock)

    def consume(self, rank: int, cpu_seconds: float) -> None:
        self.clock[rank] += cpu_seconds

    def set_source_active(self, rank: int, active: bool) -> None:
        self._source_active[rank] = bool(active)

    def send(
        self,
        src_rank: int,
        dst_rank: int,
        msg: Any,
        priority: bool = False,
        coalesce_key: Any = None,
        combiner: Callable[[Any, Any], Any] | None = None,
    ) -> bool:
        """Queue one message; True iff squashed into a pending one."""
        if src_rank != self.rank:
            raise RuntimeError(f"rank {self.rank} cannot send as rank {src_rank}")
        return self._enqueue(dst_rank, msg, coalesce_key, combiner)

    def send_many(
        self,
        src_rank: int,
        batch: list[tuple[int, Any, Any]],
        combiner: Callable[[Any, Any], Any] | None = None,
    ) -> list[bool]:
        """Queue a fan-out batch; one squashed-bool per message."""
        if src_rank != self.rank:
            raise RuntimeError(f"rank {self.rank} cannot send as rank {src_rank}")
        self.batch_sends += 1
        return [
            self._enqueue(dst_rank, msg, key, combiner) for dst_rank, msg, key in batch
        ]

    def send_at(self, *_args: Any, **_kwargs: Any) -> None:
        raise RuntimeError(
            "send_at needs virtual time; the mp backend has none "
            "(collections/faults/telemetry are DES-only)"
        )

    def schedule_alarm(self, *_args: Any, **_kwargs: Any) -> None:
        raise RuntimeError(
            "schedule_alarm needs virtual time; the mp backend has none "
            "(collections/faults/telemetry are DES-only)"
        )

    # ------------------------------------------------------------------
    # queueing internals
    # ------------------------------------------------------------------
    def _enqueue(
        self,
        dst_rank: int,
        msg: Any,
        key: Any,
        combiner: Callable[[Any, Any], Any] | None,
    ) -> bool:
        if dst_rank == self.rank:
            # Self-sends bypass the wire into the local inbox, with the
            # same coalescing window a DES self-send gets.
            if key is not None and combiner is not None:
                entry = self._inbox_index.get(key)
                if entry is not None:
                    entry.msg = combiner(entry.msg, msg)
                    self.messages_squashed += 1
                    return True
                entry = _Pending(msg, key)
                self._inbox_index[key] = entry
                self._inbox.append(entry)
            else:
                self._inbox.append(msg)
            return False
        if key is not None and combiner is not None:
            entry = self._outbuf_index[dst_rank].get(key)
            if entry is not None:
                entry.msg = combiner(entry.msg, msg)
                self.messages_squashed += 1
                return True
            entry = _Pending(msg, key)
            self._outbuf_index[dst_rank][key] = entry
            self._outbuf[dst_rank].append(entry)
        else:
            self._outbuf[dst_rank].append(_Pending(msg, None))
        if len(self._outbuf[dst_rank]) >= self._threshold:
            self.flush(dst_rank)
        return False

    def flush(self, dst_rank: int) -> None:
        """Turn one destination's buffered visitors (per-event rank) or
        queued record blocks (vec rank) into slabs and push them,
        overflowing without blocking.  Either buffer is FIFO and a run
        fills only one of them, so channel order (§III-C) is the order
        of the slabs."""
        buf = self._outbuf[dst_rank]
        recs = self._rec_out.get(dst_rank)
        if not buf and not recs:
            return
        obs = self.obs
        t0 = obs.now() if obs is not None else 0.0
        if dst_rank not in self._rings_out:
            raise RuntimeError(
                f"rank {self.rank} buffered messages for {dst_rank} "
                "but has no ring to it"
            )
        # No slab may exceed half the ring: a larger one can be refused
        # by an *empty* ring forever (see ShmRing.max_payload).  Splits
        # are consecutive, so each lane stays FIFO.
        limit = self._rings_out[dst_rank].max_payload
        slabs: list[tuple[int, int, Any]] = []
        if buf:
            batch = [p.msg for p in buf]
            buf.clear()
            self._outbuf_index[dst_rank].clear()
            slabs = self._encode_fitting(batch, limit)
            self.pickle_slabs += len(slabs)
            self.pickle_records += len(batch)
        if recs:
            for kind, arr in recs:
                per = max(1, limit // (arr.itemsize * len(arr)))  # records
                for i in range(0, arr.shape[1], per):
                    # A whole block is its own contiguous slice: no copy.
                    part = np.ascontiguousarray(arr[:, i : i + per])
                    slabs.append((kind, part.shape[1], part))
            self._rec_out[dst_rank] = []
            self._rec_counts[dst_rank] = 0
        self._push_slabs(dst_rank, slabs)
        self._threshold = self._draw_threshold()
        if obs is not None:
            obs.span(
                "emit",
                t0,
                "emit",
                {"dst": dst_rank, "records": sum(n for _, n, _ in slabs)},
            )

    def _encode_fitting(self, batch: list, limit: int) -> list[tuple[int, int, Any]]:
        """``encode_batch`` with every payload within ``limit`` bytes:
        one slab, or — oversized — each half re-encoded in order."""
        slab = self._codec.encode_batch(batch)
        if len(batch) == 1 or len(slab[2]) <= limit:
            return [slab]
        mid = len(batch) // 2
        return self._encode_fitting(batch[:mid], limit) + self._encode_fitting(
            batch[mid:], limit
        )

    def _push_slabs(self, dst_rank: int, slabs: list[tuple[int, int, Any]]) -> None:
        """Hand slabs to the ring.  This is where ``wire_sent`` counts
        them: from here on, an undelivered record is visible to the
        token ring as ``sent > received``."""
        ring = self._rings_out[dst_rank]
        ovf = self._overflow[dst_rank]
        was_empty = ring.used() == 0
        pushed = False
        while ovf:
            kind, n, payload = ovf[0]
            if not ring.try_push(kind, n, payload, self.rank):
                break
            ovf.popleft()
            self._overflow_records -= n
            self.wire_sent += n
            self.frames_sent += 1
            pushed = True
        for slab in slabs:
            kind, n, payload = slab
            # Overflow keeps FIFO: nothing may overtake a queued slab.
            if ovf or not ring.try_push(kind, n, payload, self.rank):
                ovf.append(slab)
                self.overflow_pushes += 1
                self._overflow_records += n
                if self._overflow_records > self.overflow_hwm_records:
                    self.overflow_hwm_records = self._overflow_records
            else:
                self.wire_sent += n
                self.frames_sent += 1
                pushed = True
        if pushed and was_empty:
            self.doorbells += 1
            self._transmit(dst_rank, (FRAME_DOORBELL, self.rank))

    def pump(self) -> None:
        """Retry backpressured slabs (called once per worker turn)."""
        if self._overflow_records:
            for dst_rank, ovf in self._overflow.items():
                if ovf:
                    self._push_slabs(dst_rank, [])

    def flush_all(self) -> None:
        for dst_rank in range(self.n_ranks):
            self.flush(dst_rank)

    @property
    def outbuffered(self) -> int:
        """Messages buffered but not yet entrusted to the wire.  Must be
        zero before the rank may report itself idle to the token ring."""
        return (
            sum(len(b) for b in self._outbuf)
            + self._overflow_records
            + sum(self._rec_counts.values())
        )

    # ------------------------------------------------------------------
    # vectorized-drain emission lanes
    # ------------------------------------------------------------------
    def queue_add(
        self,
        srcs: np.ndarray,
        dsts: np.ndarray,
        weights: np.ndarray,
        owners: np.ndarray | None = None,
    ) -> None:
        """Queue ADD records from bulk stream ingest, routed to each
        source vertex's owner (never this rank — local events apply
        in-drain)."""
        for dst_rank, sel, n in self._by_owner(srcs, owners):
            self._queue_records(dst_rank, K_ADD, _records(sel, n, srcs, dsts, weights))

    def queue_update(
        self,
        prog: int,
        targets: np.ndarray,
        senders: np.ndarray,
        values: np.ndarray,
        weights: np.ndarray,
        owners: np.ndarray | None = None,
    ) -> None:
        """Queue UPDATE records (``values`` int64 or uint64, carried as
        their bit patterns), routed to each target's owner.  Callers
        only pass remote targets — local offers are applied in-drain."""
        for dst_rank, sel, n in self._by_owner(targets, owners):
            recs = _records(sel, n, prog, targets, senders, values, weights)
            self._queue_records(dst_rank, K_UPDATE, recs)

    def queue_radd(
        self,
        dsts: np.ndarray,
        srcs: np.ndarray,
        weights: np.ndarray,
        vals: Sequence[np.ndarray],
        owners: np.ndarray | None = None,
    ) -> None:
        """Queue REVERSE_ADD records (``vals`` one column per program,
        int64 or uint64), routed to each destination vertex's owner."""
        for dst_rank, sel, n in self._by_owner(dsts, owners):
            recs = _records(sel, n, dsts, srcs, weights, *vals)
            self._queue_records(dst_rank, K_RADD, recs)

    def _by_owner(self, vids: np.ndarray, owners: np.ndarray | None):
        """``(rank, sel, n)`` per rank owning ``n`` of ``vids``,
        ascending; ``sel`` selects them — ``slice(None)``, no mask, when
        one rank owns them all.

        ``owners`` is the owner rank of each of ``vids``: the vectorized
        drain reads it off ``DenseState.owner`` (and ingest off its own
        routing column), so it never re-hashes an emitted id; only a
        caller without that column has the partitioner compute it."""
        if owners is None:
            owners = self._partitioner.owner_array(vids)
        counts = np.bincount(owners, minlength=self.n_ranks)
        ranks = np.flatnonzero(counts).tolist()
        for dst_rank in ranks:
            sel = slice(None) if len(ranks) == 1 else owners == dst_rank
            yield dst_rank, sel, int(counts[dst_rank])

    def _queue_records(self, dst_rank: int, kind: int, recs: np.ndarray) -> None:
        if dst_rank == self.rank:
            raise RuntimeError("vectorized drain queued records to itself")
        self._rec_out[dst_rank].append((kind, recs))
        self._rec_counts[dst_rank] += recs.shape[1]
        if self._rec_counts[dst_rank] >= self._threshold:
            self.flush(dst_rank)

    # ------------------------------------------------------------------
    # receive side (driven by the worker)
    # ------------------------------------------------------------------
    def deliver_batch(self, _sender: int, batch: list[Any]) -> None:
        """Drain one decoded slab into the local inbox.

        ``wire_received`` counts every message — including ones that
        squash into a queued same-key UPDATE, which the DES books as
        received-at-squash-time for exactly this balance reason."""
        self.frames_received += 1
        self.wire_received += len(batch)
        combiners = self._combiners
        for msg in batch:
            if combiners and msg[0] == VT_UPDATE:
                combiner = combiners[msg[1]]
                if combiner is not None:
                    # Mirrors the engine's send-side key: (prog, target,
                    # sender_vertex, version).
                    key = (msg[1], msg[2], msg[3], msg[6])
                    entry = self._inbox_index.get(key)
                    if entry is not None:
                        entry.msg = combiner(entry.msg, msg)
                        self.inbox_squashed += 1
                        continue
                    entry = _Pending(msg, key)
                    self._inbox_index[key] = entry
                    self._inbox.append(entry)
                    continue
            self._inbox.append(msg)

    def enqueue_local(self, msg: Any) -> None:
        """Seed the inbox directly (ownership-gated init visitors)."""
        self._inbox.append(msg)

    def pop_message(self) -> Any | None:
        """Dequeue the next inbox message (closing its coalescing
        window), or None when the inbox is empty."""
        if not self._inbox:
            return None
        msg = self._inbox.popleft()
        if type(msg) is _Pending:
            if msg.key is not None and self._inbox_index.get(msg.key) is msg:
                del self._inbox_index[msg.key]
            return msg.msg
        return msg

    @property
    def inbox_len(self) -> int:
        return len(self._inbox)

    def idle(self) -> bool:
        """Locally idle: nothing queued in, nothing buffered out.  The
        worker adds the stream-exhausted condition on top."""
        return not self._inbox and self.outbuffered == 0

    def wire_stats(self) -> dict[str, int]:
        rings = self._rings_out.values()
        return {
            "wire_sent": self.wire_sent,
            "wire_received": self.wire_received,
            "frames_sent": self.frames_sent,
            "frames_received": self.frames_received,
            "outbuf_squashed": self.messages_squashed,
            "inbox_squashed": self.inbox_squashed,
            "batch_sends": self.batch_sends,
            "ring_stalls": sum(r.push_stalls for r in rings),
            "ring_pushes": sum(r.pushes for r in rings),
            "ring_hwm_bytes": max((r.hwm_bytes for r in rings), default=0),
            "ring_pad_slabs": sum(r.pad_slabs for r in rings),
            "ring_pad_bytes": sum(r.pad_bytes for r in rings),
            "overflow_pushes": self.overflow_pushes,
            "overflow_hwm_records": self.overflow_hwm_records,
            "pickle_slabs": self.pickle_slabs,
            "pickle_records": self.pickle_records,
            "doorbells": self.doorbells,
        }
