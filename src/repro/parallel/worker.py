"""The per-rank worker process of the mp backend.

Each worker builds a completely ordinary :class:`DynamicEngine` (full
``n_ranks``-wide configuration, so partitioning, counters and combiners
are bit-identical to the DES run), then swaps ``engine.loop`` for a
:class:`repro.parallel.loop.ShmLoop` and acts as exactly one rank of
it: every ``engine.on_message`` / ``engine.pull_source`` call happens
with this process's rank, so only this rank's store/value/counter slots
are ever touched — the cluster state is the disjoint union of the
workers' slots, harvested by the parent after termination.  The engine
carries no plugins (mp telemetry is :class:`RankObs`, not the DES
tracer), and a *run* is vectorized or per-event all the way down:
:func:`~repro.parallel.vecapply.vec_eligible` decides before the first
event, identically on every rank, and nothing de-optimizes afterwards.
A vec rank dispatches the INITs it owns, builds its applier over what
they wrote, and from then on runs no per-event code and accepts only
record slabs; a per-event rank accepts only pickled tuple slabs.

Service loop, per turn: drain arrived shm ring slabs (tuple slabs into
the inbox; record slabs, with the local rows the last ingest chunk
held, into the turn's one kernel drain of
:mod:`repro.parallel.vecapply`) and read pipe control frames →
dispatch a slice of inbox visitors → pull a slice of stream events when
the inbox is empty → if nothing progressed, force-flush the outbuffers
and do token-ring work, blocking briefly on the pipes when there is truly
nothing to do (a ``"D"`` doorbell frame wakes the block when a peer's
push makes a ring go empty→nonempty).  Quiescence is concluded by
rank 0's :class:`RingCoordinator` (two consecutive balanced all-idle
token rounds), after which rank 0 broadcasts STOP and every worker
ships its final state to the parent — the cross-process,
quiescence-based collection of the run's end state.
"""

from __future__ import annotations

import traceback
from multiprocessing.connection import wait as conn_wait
from typing import Any

from repro.obs.distributed import RankObs, harvest_payload
from repro.parallel.codec import Codec
from repro.parallel.loop import ShmLoop
from repro.parallel.shm import K_PICKLE, KIND_NAMES, RECORD_KINDS, attach_ring
from repro.parallel.termination import RingCoordinator, RingMember
from repro.parallel.vecapply import VecApplier, vec_eligible
from repro.parallel.wire import (
    FRAME_DOORBELL,
    FRAME_ERROR,
    FRAME_RESULT,
    FRAME_STOP,
    FRAME_TOKEN,
    Sender,
    WireConfig,
)
from repro.runtime.engine import DynamicEngine, EngineConfig
from repro.runtime.visitor import VT_INIT

_DISPATCH_SLICE = 512  # inbox messages dispatched per loop turn
_PULL_SLICE = 128  # stream events pulled per loop turn (per-event ingest)
_POLL_TIMEOUT = 0.02  # blocking-wait seconds when idle


def worker_main(
    rank: int,
    n_ranks: int,
    parent_conn: Any,
    peer_conns: dict[int, Any],
    programs: list,
    config: EngineConfig,
    stream_columns: tuple | None,
    init: list[tuple[Any, int, Any]],
    wire: WireConfig,
    collect_edges: bool,
    ring_names: dict[tuple[int, int], str],
    add_only: bool = True,
    obs_config: Any = None,
) -> None:
    """Process entry point (top-level, so it is spawn-picklable)."""
    try:
        result = _run_rank(
            rank,
            n_ranks,
            peer_conns,
            programs,
            config,
            stream_columns,
            init,
            wire,
            collect_edges,
            ring_names,
            add_only,
            obs_config,
        )
        parent_conn.send((FRAME_RESULT, result))
    except BaseException:  # noqa: BLE001 - forwarded to the parent
        try:
            parent_conn.send((FRAME_ERROR, rank, traceback.format_exc()))
        except (BrokenPipeError, OSError):
            pass
        raise
    finally:
        parent_conn.close()
        for conn in peer_conns.values():
            conn.close()


def _run_rank(
    rank: int,
    n_ranks: int,
    peer_conns: dict[int, Any],
    programs: list,
    config: EngineConfig,
    stream_columns: tuple | None,
    init: list[tuple[Any, int, Any]],
    wire: WireConfig,
    collect_edges: bool,
    ring_names: dict[tuple[int, int], str],
    add_only: bool,
    obs_config: Any = None,
) -> dict[str, Any]:
    engine = DynamicEngine(programs, config)
    sender = Sender(peer_conns)
    jitter_rng = None
    if wire.jitter_seed is not None:
        import numpy as np

        jitter_rng = np.random.default_rng((wire.jitter_seed, rank))
    # One producer and one consumer ring per peer; a 1-rank run has no
    # peers, so both maps stay empty and every send is a self-send.
    rings_out = {o: attach_ring(ring_names[(rank, o)]) for o in peer_conns}
    rings_in = {o: attach_ring(ring_names[(o, rank)]) for o in peer_conns}
    codec = Codec(programs)
    loop = ShmLoop(
        rank,
        n_ranks,
        sender.put,
        rings_out,
        codec,
        engine.partitioner,
        batch_max=wire.batch_max,
        jitter_rng=jitter_rng,
    )
    loop.set_update_combiners(engine._combiners)
    engine.loop = loop
    vec = vec_eligible(engine, add_only)
    # Ownership-gated seeding: every worker gets the full init list and
    # takes the visitors of vertices it owns (version 0 — inits precede
    # any stream cut).  A vec rank dispatches them now — the only
    # per-event code it ever runs — and its applier folds what they wrote.
    for prog, vertex, payload in init:
        if engine.partitioner.owner(vertex) == rank:
            msg = (VT_INIT, engine.prog_index(prog), vertex, payload, 0)
            if vec:
                engine.on_message(loop, rank, msg)
            else:
                loop.enqueue_local(msg)
    applier = VecApplier(engine, rank, codec) if vec else None
    # Per-rank wall-clock telemetry (repro.obs.distributed).  Unlike the
    # engine-level DES telemetry plugins (virtual time, one process),
    # this layer is built for the mp runtime: wall timestamps,
    # per-process capture, harvested and clock-aligned by the parent.
    # Disabled = obs stays None and every emission site below costs one
    # identity check.
    obs: Any = None
    if obs_config is not None and obs_config.enabled:
        obs = RankObs(rank, obs_config)
        loop.obs = obs
        if applier is not None:
            applier.obs = obs
    stream_live = False
    vec_stream = None
    if stream_columns is not None:
        from repro.events.stream import ArrayEventStream

        stream = ArrayEventStream(*stream_columns)
        if applier is not None:
            # Vec runs bulk-ingest straight from the columns; the
            # engine never sees a stream, so its store stays empty and
            # the applier's mirror is the rank's topology of record.
            vec_stream = stream
        else:
            engine.attach_stream(rank, stream)
        stream_live = True
    sender.start()

    accepted = RECORD_KINDS if vec else (K_PICKLE,)
    ring = RingMember(rank, n_ranks)
    coordinator = RingCoordinator() if rank == 0 else None
    conns = list(peer_conns.values())
    round_id = 0
    token_outstanding = False
    stopping = False

    def drain_rings() -> bool:
        """Consume every committed slab from the incoming rings.

        On a vec rank the record slabs accumulate for one kernel drain
        (counting their own wire_received — they bypass
        ``deliver_batch``), which also applies the local ADD rows the
        applier holds from the last ingest — held rows are progress, so
        a rank holding some never reports idle; on a per-event rank the
        tuple slabs unpickle into the inbox.  A slab of the other mode
        means the ranks disagreed about the run (``run_parallel``
        decides it once, for all of them: no rank vectorizes unless
        every stream is pure ADD), which is an error, not a case to
        handle.  Rings are
        committed only after the kernel drain, which copies out of the
        shared pages before any emission it triggers could need the
        space back.
        """
        if not rings_in:
            return False
        t0 = obs.now() if obs is not None else 0.0
        got = False
        n_slabs = 0
        vec_slabs: list[tuple[int, int, int, Any]] = []
        touched = []
        for r_in in rings_in.values():
            slabs = r_in.pop_slabs()
            if not slabs:
                r_in.commit()  # release PAD-only space, if any
                continue
            got = True
            touched.append(r_in)
            n_slabs += len(slabs)
            for kind, n, sender_rank, payload in slabs:
                if kind not in accepted:
                    raise RuntimeError(
                        f"rank {rank} is {'vectorized' if vec else 'per-event'} "
                        f"but got a {KIND_NAMES.get(kind, kind)} slab from rank "
                        f"{sender_rank}: a run is record slabs between vec ranks "
                        "or K_PICKLE slabs between per-event ranks, never both"
                    )
                if vec:
                    vec_slabs.append((kind, n, sender_rank, payload))
                    loop.wire_received += n
                    loop.frames_received += 1
                else:
                    loop.deliver_batch(sender_rank, codec.decode_to_tuples(payload))
        if applier is not None and (vec_slabs or applier.holding):
            got = True
            applier.drain(vec_slabs, loop)
        for r_in in touched:
            r_in.commit()
        if got and obs is not None:
            obs.inc("slabs_decoded", n_slabs)
            obs.span("drain", t0, "drain", {"slabs": n_slabs})
        return got

    def drain(block: bool) -> bool:
        nonlocal stopping
        got = drain_rings()
        if block and conns and not got:
            if obs is not None:
                t_wait = obs.now()
                ready = conn_wait(conns, _POLL_TIMEOUT)
                obs.span("wait", t_wait, "wait")
            else:
                ready = conn_wait(conns, _POLL_TIMEOUT)
        else:
            ready = [c for c in conns if c.poll()]
        rang = False
        for conn in ready:
            while conn.poll():
                try:
                    frame = conn.recv()
                except EOFError:
                    # The peer exited: that only happens after it saw
                    # rank 0's STOP, i.e. after global termination was
                    # proved, so our own STOP is queued (rank 0 sends
                    # it before closing) — stop polling this channel.
                    conns.remove(conn)
                    break
                tag = frame[0]
                if tag == FRAME_DOORBELL:
                    rang = True
                elif tag == FRAME_TOKEN:
                    ring.receive(frame[1], frame[2], frame[3], frame[4])
                elif tag == FRAME_STOP:
                    stopping = True
                    return got
                else:
                    raise ValueError(f"unknown wire frame {frame!r}")
        if rang:
            if obs is not None:
                # Doorbell boundaries are where the occupancy picture
                # just changed — the designated ring-sampling instants.
                obs.sample_rings(rings_in, loop)
            if not got:
                # The doorbell only says "ring went nonempty"; the slabs
                # themselves are picked up here — or, when this call has
                # drained already, by the next turn: one drain per turn.
                got = drain_rings()
        return got

    while not stopping:
        sender.check()
        loop.pump()  # retry any backpressured slabs
        progressed = drain(block=False)
        t_disp = obs.now() if obs is not None else 0.0
        dispatched = 0
        for _ in range(_DISPATCH_SLICE):
            msg = loop.pop_message()
            if msg is None:
                break
            engine.on_message(loop, rank, msg)
            dispatched += 1
        if dispatched:
            progressed = True
            if obs is not None:
                obs.span("dispatch", t_disp, "compute", {"messages": dispatched})
        if stream_live and loop.inbox_len == 0:
            t_ing = obs.now() if obs is not None else 0.0
            pulled = 0
            if vec_stream is not None:
                assert applier is not None
                s_col, d_col, w_col = vec_stream.pull_chunk(wire.ingest_chunk)
                if s_col.size == 0:
                    stream_live = False
                else:
                    applier.ingest(s_col, d_col, w_col, loop)
                    engine.counters[rank].source_events += int(s_col.size)
                    pulled = int(s_col.size)
                    progressed = True
            else:
                for _ in range(_PULL_SLICE):
                    if not engine.pull_source(loop, rank):
                        stream_live = False
                        break
                    pulled += 1
                    progressed = True
            if pulled and obs is not None:
                obs.span("ingest", t_ing, "ingest", {"events": pulled})
        if progressed:
            continue
        # Locally quiescent this turn: entrust everything buffered to
        # the wire (making it visible to the counters), then do ring
        # work.  Idle = empty inbox ∧ empty outbuffers ∧ dead stream.
        loop.flush_all()
        idle = loop.idle() and not stream_live
        if rank == 0:
            assert coordinator is not None  # rank 0 always builds one
            payload = ring.take_if_idle(loop.wire_sent, loop.wire_received, idle)
            if payload is not None:
                token_outstanding = False
                _, sent_sum, recv_sum, all_idle = payload
                if obs is not None:
                    obs.inc("token_rounds")
                    obs.instant(
                        "token_round",
                        args={"sent": sent_sum, "received": recv_sum},
                    )
                if coordinator.round_complete(sent_sum, recv_sum, all_idle):
                    for other in peer_conns:
                        sender.put(other, (FRAME_STOP,))
                    stopping = True
                    continue
            if idle and not token_outstanding and not ring.holding:
                round_id += 1
                payload = ring.originate(round_id, loop.wire_sent, loop.wire_received)
                if n_ranks == 1:
                    # Degenerate ring: the round completes immediately.
                    if coordinator.round_complete(payload[1], payload[2], True):
                        stopping = True
                        continue
                else:
                    token_outstanding = True
                    sender.put(ring.next_rank, (FRAME_TOKEN,) + payload)
        else:
            payload = ring.take_if_idle(loop.wire_sent, loop.wire_received, idle)
            if payload is not None:
                if obs is not None:
                    obs.inc("token_forwards")
                sender.put(ring.next_rank, (FRAME_TOKEN,) + payload)
        if idle or loop.outbuffered:
            # Not idle but still outbuffered = backpressured: the
            # consumer must run before a retry can succeed, so block
            # briefly instead of hot-spinning.
            drain(block=True)

    # Termination was proved globally: nothing may remain queued here.
    if loop.inbox_len or loop.outbuffered or stream_live:
        raise AssertionError(
            f"rank {rank} stopped non-quiescent: inbox={loop.inbox_len} "
            f"outbuf={loop.outbuffered} stream_live={stream_live}"
        )
    sender.close()
    t_harvest = obs.now() if obs is not None else 0.0

    # Drain-side squashes are this rank's visitor-queue combines; fold
    # them into the same counter the DES books sender-observed squashes
    # to, so totals are comparable across backends.
    engine.counters[rank].updates_squashed += loop.inbox_squashed
    counters = engine.counters[0]
    for c in engine.counters[1:]:
        counters = counters.merge(c)
    wire_stats = loop.wire_stats()
    # Consumer-side ring health: the producer counters live on the
    # *peer's* ring object; only torn-write retries are observed on
    # this side of each inbound ring.
    wire_stats["ring_torn_retries"] = sum(r.torn_retries for r in rings_in.values())
    if applier is not None:
        applier.write_back()  # the dicts are read below, and only there
        wire_stats.update(applier.stats)
        num_edges = applier.num_edges
        edges = applier.edges() if collect_edges else None
    else:
        num_edges = engine.stores[rank].num_edges
        edges = list(engine.stores[rank].edges()) if collect_edges else None
    result: dict[str, Any] = {
        "rank": rank,
        "values": {
            prog.name: dict(engine.values[rank][p])
            for p, prog in enumerate(engine.programs)
        },
        "counters": counters,
        "wire": wire_stats,
        "virtual_time": loop.clock[rank],
        "num_edges": num_edges,
        "edges": edges,
    }
    if coordinator is not None:
        result["token_rounds"] = coordinator.rounds_completed
    if obs is not None:
        obs.span("harvest", t_harvest, "ctrl")
        result["obs"] = harvest_payload(obs, wire_stats)
    for r_ring in (*rings_in.values(), *rings_out.values()):
        r_ring.close()  # drop mappings; the parent unlinks the segments
    return result
