"""The dynamic graph engine (Fig. 1 / Fig. 2 of the paper).

The engine plugs into the discrete-event kernel as the behaviour of every
rank: it owns each rank's DegAwareRHH topology store and per-program
vertex values, routes topology events to vertex owners via consistent
hashing, dispatches the Alg.-3 visitor switch (ADD / REVERSE_ADD /
UPDATE / INIT, plus DELETE for the §VI-B extension), and runs the
control plane: four-counter termination probes and versioned global
state collection (§III-D).

Orderings the algorithms rely on (provided by
:class:`repro.comm.des.DiscreteEventLoop`'s FIFO channels):

* undirected edge creation is serialised — the ADD is processed at the
  source's owner before the REVERSE_ADD is even sent (§III-C);
* events touching the same vertex are processed one at a time, in
  arrival order ("ordered in the infrastructure layer by the built-in
  visitor queue in FIFO ordering", §IV).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable, Iterable

from repro.comm.costmodel import CostModel, RankCounters
from repro.comm.des import DiscreteEventLoop, RankHandler
from repro.comm.termination import FourCounterState, TerminationCoordinator
from repro.events.stream import EventStream
from repro.events.types import ADD as EV_ADD
from repro.partition.partitioners import ConsistentHashPartitioner, Partitioner
from repro.runtime.plugins import EnginePlugin, PluginRegistry
from repro.runtime.program import VertexContext, VertexProgram
from repro.runtime.queries import Trigger, TriggerManager
from repro.runtime.snapshot import ActiveCollection, CollectionResult
from repro.runtime.visitor import (
    CTRL_CUT,
    CTRL_HARVEST,
    CTRL_PART,
    CTRL_PROBE,
    CTRL_REPORT,
    VT_ADD,
    VT_CTRL,
    VT_DEL,
    VT_INIT,
    VT_RADD,
    VT_RDEL,
    VT_UPDATE,
)
from repro.storage.degaware import DegAwareRHH
from repro.util.validate import check_positive

if TYPE_CHECKING:  # pragma: no cover - annotation-only imports
    from repro.obs.registry import MetricsRegistry, VirtualTimeSampler
    from repro.obs.tracer import Tracer
    from repro.runtime.bulk import BulkIngestor

# Trace span names per dispatched message type (repro.obs).  The "cat"
# is what busy-coverage aggregation keys on (see BUSY_CATEGORIES).
_VT_SPAN_NAMES = {
    VT_UPDATE: "visit/update",
    VT_ADD: "visit/add",
    VT_RADD: "visit/radd",
    VT_INIT: "visit/init",
    VT_DEL: "visit/del",
    VT_RDEL: "visit/rdel",
}
_CTRL_SPAN_NAMES = {
    CTRL_CUT: "ctrl/cut",
    CTRL_PROBE: "ctrl/probe",
    CTRL_REPORT: "ctrl/report",
    CTRL_HARVEST: "ctrl/harvest",
    CTRL_PART: "ctrl/part",
}
_PROBE_BACKOFF = 20e-6  # virtual pause between a collection's probe waves


class UnsupportedCollectionError(RuntimeError):
    """A versioned (continuous) global-state collection was requested
    for a program that cannot support it.

    The generational delete programs (§VI-B) declare
    ``supports_versioned_collection = False``: a delete's invalidation
    rewrites state that the prev/new version split would have frozen,
    so a harvested cut would be silently wrong.  Use quiescence
    collection (run to quiescence, read ``DynamicEngine.state``)
    instead.
    """


@dataclass(frozen=True)
class EngineConfig:
    """Construction-time knobs of the engine."""

    n_ranks: int = 1
    undirected: bool = True
    promote_threshold: int = 8
    vertex_index: str = "robinhood"
    partition_salt: int = 0
    coordinator_rank: int = 0
    # §II-D visitor-queue fast path: squash monotone UPDATEs into
    # pending same-key messages (programs opt in via their ``combine``
    # hook) and emit a vertex's fan-out as one send_many batch.  Both
    # ON by default; the coalescing ablation bench turns them off.
    coalesce_updates: bool = True
    batch_updates: bool = True

    def __post_init__(self) -> None:
        check_positive("n_ranks", self.n_ranks)
        check_positive("promote_threshold", self.promote_threshold)
        if not 0 <= self.coordinator_rank < self.n_ranks:
            raise ValueError("coordinator_rank out of range")


class DynamicEngine(RankHandler):
    """Hosts one or more vertex programs over a simulated cluster.

    Parameters
    ----------
    programs:
        The algorithm instances to maintain.  Unlike the paper's
        prototype (limited to one hooked algorithm), several programs
        may run concurrently over the same topology — the stated design
        intent of §I.
    config:
        :class:`EngineConfig`; ``EngineConfig(n_ranks=...)`` is typical.
    cost_model / partitioner:
        Default to the calibrated :class:`CostModel` and the paper's
        consistent-hash partitioner.
    plugins:
        Cross-cutting attachments (:mod:`repro.runtime.plugins`): bulk
        ingest, tracer, metrics sampler, fault plan, ...  None attaches
        nothing.
    """

    def __init__(
        self,
        programs: list[VertexProgram],
        config: EngineConfig | None = None,
        cost_model: CostModel | None = None,
        partitioner: Partitioner | None = None,
        plugins: list[EnginePlugin] | None = None,
    ):
        self.config = config or EngineConfig()
        self.cost = cost_model or CostModel()
        n = self.config.n_ranks
        self.partitioner = partitioner or ConsistentHashPartitioner(
            n, salt=self.config.partition_salt
        )
        if self.partitioner.n_ranks != n:
            raise ValueError(
                f"partitioner rank count {self.partitioner.n_ranks} != n_ranks {n}"
            )
        # An empty program list is legal: it gives the construction-only
        # (CON) configuration the evaluation uses as its baseline.
        names = [p.name for p in programs]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate program names: {names}")
        self.programs = list(programs)
        self.loop = DiscreteEventLoop(n, self.cost, self)
        self.stores = [
            DegAwareRHH(self.config.promote_threshold, self.config.vertex_index)
            for _ in range(n)
        ]
        # values[rank][prog]: vid -> S_new (or sole) value; 0 = unset
        self.values: list[list[dict[int, Any]]] = [
            [dict() for _ in programs] for _ in range(n)
        ]
        self._nbr_cache: list[list[dict[int, dict[int, Any]] | None]] = [
            [dict() if p.needs_nbr_cache else None for p in programs] for _ in range(n)
        ]
        self._ctx = [
            [VertexContext(self, r, p) for p in range(len(programs))] for r in range(n)
        ]
        # Per-program message-level UPDATE combiners (None = program
        # opted out of §II-D coalescing, or it is globally disabled).
        self._combiners: list[Callable[[tuple, tuple], tuple] | None] = [
            self._make_update_combiner(p.combine)
            if self.config.coalesce_updates and p.combine is not None
            else None
            for p in programs
        ]
        # Run-invariants of the per-visit path, resolved once here: the
        # bound program callbacks per message type (CallbackProgram sets
        # its own in __init__, so construction is late enough), the node
        # of each rank (O(ranks): never a rank x rank table), and
        # whether the memory budget can spill at all.
        self._on_init = [p.on_init for p in programs]
        self._on_add = [p.on_add for p in programs]
        self._on_reverse_add = [p.on_reverse_add for p in programs]
        self._on_update = [p.on_update for p in programs]
        self._on_delete = [p.on_delete for p in programs]
        self._on_reverse_delete = [p.on_reverse_delete for p in programs]
        self._node_of = [self.cost.node_of(r) for r in range(n)]
        self._can_spill = self.cost.rank_memory_bytes != float("inf")
        self.counters = [RankCounters() for _ in range(n)]
        self.term = [FourCounterState() for _ in range(n)]
        self.triggers = TriggerManager()
        self.stream_version = [0] * n
        self._proc_version = [0] * n
        self._suppress_sends = [False] * n
        self._cb_effect = [False] * n
        self._edge_was_new = [True] * n
        self._streams: list[EventStream | None] = [None] * n
        self._stream_done = [True] * n
        self.active_collection: ActiveCollection | None = None
        self._prev_vals: list[dict[int, Any]] = [dict() for _ in range(n)]
        # Directed (vertex, nbr) adjacency entries inserted at or after
        # the active collection's cut: prev-version emissions must not
        # traverse them (the edge is absent from the discretized
        # prefix, §III-D) — see _emit_version.
        self._cut_new_edges: list[set[tuple[int, int]]] = [set() for _ in range(n)]
        self.collection_results: list[CollectionResult] = []
        # collection_id -> {rank: source events ingested at its cut}
        self.cut_positions: dict[int, dict[int, int]] = {}
        self._pending_collections: list[tuple[int, Any]] = []
        self._next_version = 1
        self._next_collection_id = 0
        self._started = False
        # Bulk-ingest bookkeeping: generation counters let the bulk
        # controller detect (and resync after) any per-event activity.
        self._topo_mutations = 0
        self._value_mutations = 0
        self._streams_add_only = True
        # Cross-cutting state slots.  These stay plain attributes (the
        # compiled "single-slot" form every hot-path guard reads as one
        # ``is not None`` check); plugins own their *construction*:
        # BulkIngestPlugin/TracerPlugin/MetricsPlugin populate them in
        # setup.  _prog_visits is always-on (a bare list increment per
        # callback).
        self._prog_visits = [0] * len(programs)
        self._bulk: BulkIngestor | None = None
        self.tracer: Tracer | None = None
        self.metrics: MetricsRegistry | None = None
        self.sampler: VirtualTimeSampler | None = None
        # Hook-site tuples (repro.runtime.plugins): the two places a
        # second copy of vertex values — the mp backend's dense mirror
        # (vecapply), the serving layer's stable-value cache — hears
        # about a change to the first.  The empty tuple is the disabled
        # state, so each site costs the hot path exactly one attribute
        # load + truth test (``if self._hk_write:``) — the same grade as
        # the ``is not None`` guards, gated by bench_obs_overhead.py.
        self._hk_write: tuple[Callable[[int, int, Any], None], ...] = ()
        self._hk_bulk_flush: tuple[Callable[[int], None], ...] = ()
        for r in range(n):
            self.loop.set_source_active(r, False)
        self.plugins = PluginRegistry(plugins or ())
        self.plugins.compile(self)

    # ------------------------------------------------------------------
    # public API: setup and execution
    # ------------------------------------------------------------------
    def prog_index(self, name_or_index: int | str) -> int:
        """Resolve a program by name or index."""
        if isinstance(name_or_index, int):
            if not 0 <= name_or_index < len(self.programs):
                raise ValueError(f"program index {name_or_index} out of range")
            return name_or_index
        for i, p in enumerate(self.programs):
            if p.name == name_or_index:
                return i
        raise ValueError(f"no program named {name_or_index!r}")

    def attach_streams(self, streams: Iterable[EventStream]) -> None:
        """Attach one ordered event stream per rank (at most ``n_ranks``).

        Streams are assigned to ranks in order; ranks beyond the list
        have no source.  Must be called before :meth:`run`.
        """
        streams = list(streams)
        if len(streams) > self.config.n_ranks:
            raise ValueError(
                f"{len(streams)} streams for {self.config.n_ranks} ranks"
            )
        for r, s in enumerate(streams):
            self.attach_stream(r, s)

    def attach_stream(self, rank: int, stream: EventStream) -> None:
        """Attach one stream to one specific rank.

        The mp backend's workers use this directly: each worker only
        holds (and pulls) its own rank's stream slice.
        """
        if not 0 <= rank < self.config.n_ranks:
            raise ValueError(f"rank {rank} out of range")
        self._streams[rank] = stream
        self._stream_done[rank] = False
        self.loop.set_source_active(rank, True)
        self._streams_add_only = all(
            s.add_only for s in self._streams if s is not None
        )

    def inject_timed_events(
        self, events: Iterable[tuple[float, int, int, int, int]]
    ) -> int:
        """Offer topology events at explicit virtual arrival times.

        ``events`` are ``(time, kind, src, dst, weight)`` tuples.  This
        models an *offered load* below saturation (the paper's streams
        are saturation tests; §V-A notes any lower offered load is
        handled in real time): each event enters the cluster at its
        arrival instant instead of being pulled as fast as possible.
        Returns the number of events injected.  Combine freely with
        pulled streams.
        """
        if self._bulk is not None:
            # Timed events interleave with pulled ones at explicit
            # instants; chunked replay would reorder across them, so
            # bulk ingest is conservatively disabled for the run.
            self._bulk.disabled = True
        n = 0
        for at_time, kind, src, dst, weight in events:
            if self.config.undirected and dst < src:
                src, dst = dst, src  # canonical edge routing, as in pull
            owner = self.partitioner.owner(src)
            # The send happens inside an alarm at the arrival instant:
            # sending eagerly would stamp the channel's FIFO clock with
            # a *future* time and incorrectly delay every intervening
            # runtime message on the same channel.
            self.loop.schedule_alarm(
                at_time,
                lambda t=at_time, o=owner, k=kind, s=src, d=dst, w=weight: (
                    self._fire_injected(t, o, k, s, d, w)
                ),
            )
            n += 1
        return n

    def _fire_injected(
        self, at_time: float, owner: int, kind: int, src: int, dst: int, weight: int
    ) -> None:
        ver = self.stream_version[owner]
        if kind == EV_ADD:
            msg = (VT_ADD, src, dst, weight, ver)
        else:
            msg = (VT_DEL, src, dst, ver)
        self.term[owner].record_send(ver)
        self.counters[owner].source_events += 1
        self.loop.send_at(at_time, owner, owner, msg)

    def vertex_removal_events(self, vertex: int) -> list[tuple[int, int, int, int]]:
        """Delete events removing every current edge of ``vertex``.

        The paper models vertex-level changes as "a set of edge changes"
        (§III-A footnote); this helper materialises that set from the
        owner's live adjacency, ready to feed into a stream or
        :meth:`inject_timed_events`.
        """
        from repro.events.types import DELETE as EV_DELETE

        rank = self.partitioner.owner(vertex)
        return [
            (EV_DELETE, vertex, nbr, 0)
            for nbr, _w in self.stores[rank].neighbors(vertex)
        ]

    def init_program(
        self,
        prog: int | str,
        vertex: int,
        payload: Any = None,
        at_time: float = 0.0,
    ) -> None:
        """Inject an ``init()`` visitor at ``vertex`` ("can be initiated
        at any time", §IV) arriving no earlier than ``at_time``."""
        p = self.prog_index(prog)
        owner = self.partitioner.owner(vertex)
        ver = self.stream_version[owner]
        self.term[owner].record_send(ver)
        self.loop.send_at(at_time, owner, owner, (VT_INIT, p, vertex, payload, ver))

    def add_trigger(
        self,
        prog: int | str,
        predicate: Callable[[int, Any], bool],
        callback: Callable[[int, Any, float], None],
        vertex: int | None = None,
        once: bool = True,
    ) -> Trigger:
        """Register a "When" query on a program's vertex-local state."""
        return self.triggers.add(self.prog_index(prog), predicate, callback, vertex, once)

    @property
    def transport(self):
        """The reliable-delivery transport, or None (fault-free runs)."""
        return self.loop.transport

    def _install_fault_plan(self, plan) -> None:
        """Wire a fault plan into the loop (FaultInjectionPlugin body)."""
        from repro.comm.channel import ReliableDelivery

        if self._started:
            raise RuntimeError("register the fault plan before the engine runs")
        self.loop.attach_transport(ReliableDelivery(self.loop, plan))
        if self._bulk is not None:
            self._bulk.disabled = True
        tracer, metrics = self.tracer, self.metrics
        if tracer is not None or metrics is not None:

            def on_drop(frame) -> None:
                if metrics is not None:
                    metrics.inc("frames_dropped")
                if tracer is not None:
                    tracer.instant(
                        frame.dst,
                        "fault/drop",
                        self.loop.clock[frame.src],
                        "fault",
                        {"src": frame.src, "kind": frame.kind, "seq": frame.seq},
                    )

            self.loop.on_frame_dropped = on_drop
        for stall in plan.stalls:
            rank = stall.rank if stall.rank >= 0 else plan.pick_rank(self.config.n_ranks)
            until = stall.time + stall.duration

            def fire(rank=rank, at=stall.time, until=until) -> None:
                self.loop.stall_rank(rank, until)
                if self.metrics is not None:
                    self.metrics.inc("stalls")
                if self.tracer is not None:
                    self.tracer.instant(
                        rank, "fault/stall", at, "fault", {"until": until}
                    )

            self.loop.schedule_alarm(stall.time, fire)

    def run(self, max_virtual_time: float | None = None, max_actions: int | None = None) -> float:
        """Drive the cluster; returns the virtual makespan so far."""
        if not self._started:
            self.loop.start()
            self._started = True
        makespan = self.loop.run(
            max_virtual_time=max_virtual_time, max_actions=max_actions
        )
        if self._bulk is not None and self._bulk.engaged:
            # End-of-run flush so observation APIs read exact values;
            # not a de-optimization (nothing forced per-event replay).
            self._bulk.flush_values(count_fallback=False)
        return makespan

    # ------------------------------------------------------------------
    # hooks (repro.runtime.plugins)
    # ------------------------------------------------------------------
    def install_hook(self, site: str, fn: Callable[..., None]) -> None:
        """Install a callback at a named hook site (see
        :data:`repro.runtime.plugins.HOOK_SITES`); it fires after the
        ones installed before it, from the next event on."""
        self.plugins.install(site, fn)

    def uninstall_hook(self, site: str, fn: Callable[..., None]) -> bool:
        """Remove an installed callback; returns whether it was
        present."""
        return self.plugins.uninstall(site, fn)

    # ------------------------------------------------------------------
    # public API: observation
    # ------------------------------------------------------------------
    def value_of(self, prog: int | str, vertex: int) -> Any:
        """Constant-time local-state read of one vertex (§III-E)."""
        p = self.prog_index(prog)
        rank = self.partitioner.owner(vertex)
        return self.values[rank][p].get(vertex, 0)

    def state(self, prog: int | str) -> dict[int, Any]:
        """Merge every rank's live values for a program (omniscient
        read; use :meth:`request_collection` for the in-protocol path)."""
        p = self.prog_index(prog)
        merged: dict[int, Any] = {}
        for rank_vals in self.values:
            merged.update(rank_vals[p])
        return merged

    # -- serving-layer accessors (repro.serving) ------------------------
    def vtime(self) -> float:
        """The cluster's current virtual time (max over rank clocks) —
        the ``as_of_vtime`` a served answer is stamped with."""
        return self.loop.max_time()

    def drained(self) -> bool:
        """True iff every ingested event has fully propagated: nothing
        in flight or queued, and no bulk mirror ahead of the value
        dicts.  For REMO programs this is the *stability criterion*
        (§II-D monotone convergence): a drained engine's live state
        equals the static answer on the ingested-so-far prefix, so any
        value read now is provably converged for that prefix.  Streams
        may still hold future events — those are not in the prefix.
        """
        if self.loop.in_flight:
            return False
        b = self._bulk
        return b is None or not b.engaged

    def ingest_watermark(self) -> int:
        """Total source events ingested across all ranks — identifies
        the discretized prefix a served answer reflects."""
        return sum(c.source_events for c in self.counters)

    def write_epoch(self) -> int:
        """Monotone counter over topology + value mutations.  Two reads
        bracketed by equal epochs observed identical engine state; the
        freshness-probe stability criterion keys off it."""
        return self._topo_mutations + self._value_mutations

    @property
    def num_edges(self) -> int:
        """Directed edges stored across all ranks (undirected runs store
        each input edge twice, once per endpoint)."""
        return sum(s.num_edges for s in self.stores)

    @property
    def num_vertices(self) -> int:
        return sum(s.num_vertices for s in self.stores)

    def has_edge(self, src: int, dst: int) -> bool:
        return self.stores[self.partitioner.owner(src)].has_edge(src, dst)

    def edges(self) -> Iterable[tuple[int, int, int]]:
        """All stored directed edges (for verification)."""
        for store in self.stores:
            yield from store.edges()

    def add_freshness_probe(self, prog: int | str, reference_fn) -> None:
        """Watch a program's convergence lag (repro.obs.freshness).

        ``reference_fn(engine, prog_name)`` must return the current
        live-vs-static mismatch list (the ``repro.analytics.verify``
        contract; build one with :func:`repro.obs.make_reference`).
        Requires the virtual-time sampler — register
        ``MetricsPlugin(sample_interval=...)`` first — because lag is
        measured at sample instants.
        """
        if self.sampler is None:
            raise RuntimeError(
                "freshness probes ride the virtual-time sampler; "
                "register MetricsPlugin(sample_interval=...) first"
            )
        if self.sampler.freshness is None:
            from repro.obs.freshness import FreshnessProbe

            self.sampler.freshness = FreshnessProbe(self)
        name = self.programs[self.prog_index(prog)].name
        self.sampler.freshness.watch(name, reference_fn)

    def total_counters(self) -> RankCounters:
        total = RankCounters()
        for c in self.counters:
            total = total.merge(c)
        return total

    def source_event_rate(self) -> float:
        """Topology events per virtual second over the whole run —
        the paper's headline events/s metric."""
        makespan = self.loop.max_time()
        events = sum(c.source_events for c in self.counters)
        return events / makespan if makespan > 0 else 0.0

    # ------------------------------------------------------------------
    # public API: versioned global state collection (§III-D)
    # ------------------------------------------------------------------
    def request_collection(
        self,
        prog: int | str = 0,
        at_time: float = 0.0,
        callback: Callable[[CollectionResult], None] | None = None,
    ) -> None:
        """Schedule a continuous (non-pausing) global state collection.

        At virtual ``at_time`` the coordinator cuts a new version on
        every stream, drains prior-version traffic (proved by the
        four-counter detector), harvests each rank's ``S_prev`` and
        appends a :class:`CollectionResult` to ``collection_results``.

        Only one collection runs at a time (as in the paper's
        prototype); a request arriving while another is active is
        deferred and begins — with a fresh cut — when it concludes.

        Raises :class:`UnsupportedCollectionError` for programs that
        declare ``supports_versioned_collection = False`` (the
        generational delete programs): their invalidations are not
        expressible as a prev/new version split, so the harvested cut
        would be silently wrong.
        """
        p = self.prog_index(prog)
        program = self.programs[p]
        if not getattr(program, "supports_versioned_collection", True):
            raise UnsupportedCollectionError(
                f"program {program.name!r} does not support versioned "
                "collection (generational delete state cannot be split "
                "into prev/new versions); pause-and-drain quiescence "
                "collection is the supported path"
            )
        self.loop.schedule_alarm(at_time, lambda: self._begin_collection(p, at_time, callback))

    def _begin_collection(self, prog: int, requested_at: float, callback) -> None:
        if self.active_collection is not None:
            # One collection at a time (as in the paper's prototype):
            # defer this request until the active one concludes.  Its
            # requested_at becomes the time it actually begins.
            self._pending_collections.append((prog, callback))
            return
        cut = self._next_version
        self._next_version += 1
        col = ActiveCollection(
            collection_id=self._next_collection_id,
            prog=prog,
            cut_version=cut,
            requested_at=requested_at,
            detector=TerminationCoordinator(self.config.n_ranks),
            callback=callback,
        )
        self._next_collection_id += 1
        self.active_collection = col
        coord = self.config.coordinator_rank
        if self.tracer is not None:
            self.tracer.instant(
                coord,
                "collection/cut",
                requested_at,
                "collection",
                {"id": col.collection_id, "version": cut},
            )
        wave = col.detector.start_wave()
        for r in range(self.config.n_ranks):
            self.loop.send_at(
                requested_at,
                coord,
                r,
                (VT_CTRL, CTRL_CUT, col.collection_id, cut),
                priority=True,
            )
            self.loop.send_at(
                requested_at,
                coord,
                r,
                (VT_CTRL, CTRL_PROBE, col.collection_id, wave, cut),
                priority=True,
            )

    # ------------------------------------------------------------------
    # RankHandler: source ingestion
    # ------------------------------------------------------------------
    def _bulk_eligible(self) -> bool:
        """Pure saturation replay: every condition under which chunked
        array processing is provably bitwise-equal to per-event DES."""
        b = self._bulk
        return (
            b is not None
            and b.supported
            and not b.disabled
            and self.active_collection is None
            and not self._pending_collections
            and not self.triggers.has_any()
            and self._streams_add_only
        )

    def pull_source(self, loop: DiscreteEventLoop, rank: int) -> bool:
        b = self._bulk
        if b is not None:
            eligible = self._bulk_eligible()
            if b.engaged and not eligible:
                b.deoptimize()
            if eligible:
                stream = self._streams[rank]
                if stream is not None and b.process_chunk(rank, stream):
                    return True
                # Exhausted (or no stream): fall through so the
                # per-event path records stream completion.
        stream = self._streams[rank]
        if stream is None:
            self._stream_done[rank] = True
            return False
        tracer = self.tracer
        if tracer is not None:
            t0 = loop.clock[rank]
        ev = stream.pull()
        if ev is None:
            self._stream_done[rank] = True
            return False
        kind, src, dst, weight = ev
        self.counters[rank].source_events += 1
        loop.clock[rank] += self.cost.stream_pull_cpu
        ver = self.stream_version[rank]
        if self.config.undirected and dst < src:
            # Canonicalise the endpoint order so *all* events touching
            # the same undirected edge serialise through one owner's
            # FIFO queue.  §III-C's routing (owner of the first vertex)
            # is race-free for a single creation, but concurrent
            # [a,b] / [b,a] / delete events in different streams would
            # otherwise initiate at two different owners and can leave
            # the edge half-present.
            src, dst = dst, src
        owner = self.partitioner.owner(src)
        if kind == EV_ADD:
            msg = (VT_ADD, src, dst, weight, ver)
        else:
            msg = (VT_DEL, src, dst, ver)
        self._send_visitor(rank, owner, msg, ver)
        if tracer is not None:
            tracer.span(rank, "source/pull", t0, loop.clock[rank], "source")
        return True

    # ------------------------------------------------------------------
    # RankHandler: visitor dispatch (Alg. 3's VISIT switch)
    # ------------------------------------------------------------------
    def on_message(self, loop: DiscreteEventLoop, rank: int, msg: tuple) -> None:
        tracer = self.tracer
        metrics = self.metrics
        if tracer is not None or metrics is not None:
            t0 = loop.clock[rank]
        b = self._bulk
        if b is not None and b.engaged:
            # Any per-event dispatch (visitor or control) while the
            # dense mirror is ahead forces a de-optimizing flush first,
            # so the callback below observes exact state.
            b.deoptimize()
        vt = msg[0]
        if vt == VT_UPDATE:
            _, p, target, vis_id, vis_val, weight, ver = msg
            self.term[rank].record_receive(ver)
            self._proc_version[rank] = ver
            cache = self._nbr_cache[rank][p]
            if cache is not None:
                cache.setdefault(target, {})[vis_id] = vis_val
            self._run_callback(
                rank, p, target, self._on_update[p], vis_id, vis_val, weight
            )
        elif vt == VT_ADD:
            _, src, dst, weight, ver = msg
            self.term[rank].record_receive(ver)
            self._proc_version[rank] = ver
            self._edge_was_new[rank] = self._apply_insert(rank, src, dst, weight)
            if self.active_collection is not None:
                self._note_cut_edge(rank, src, dst, ver)
            for p, fn in enumerate(self._on_add):
                self._run_callback(rank, p, src, fn, dst, 0, weight)
            vals = self._values_for_send(rank, src, ver)
            if self.config.undirected:
                dst_owner = self.partitioner.owner(dst)
                self._send_visitor(
                    rank, dst_owner, (VT_RADD, dst, src, vals, weight, ver), ver
                )
            else:
                # Directed mode: no reverse edge, but the source's state
                # must still flow along the new edge (the "few more
                # trivial cases" of directed BFS, §II-B) — emit one
                # UPDATE per program carrying the source's value.
                dst_owner = self.partitioner.owner(dst)
                for p, val in enumerate(vals):
                    combiner = self._combiners[p]
                    self._send_visitor(
                        rank,
                        dst_owner,
                        (VT_UPDATE, p, dst, src, val, weight, ver),
                        ver,
                        (p, dst, src, ver) if combiner is not None else None,
                        combiner,
                    )
        elif vt == VT_RADD:
            _, dst, src, vals, weight, ver = msg
            self.term[rank].record_receive(ver)
            self._proc_version[rank] = ver
            self._edge_was_new[rank] = self._apply_insert(rank, dst, src, weight)
            if self.active_collection is not None:
                self._note_cut_edge(rank, dst, src, ver)
            for p, fn in enumerate(self._on_reverse_add):
                cache = self._nbr_cache[rank][p]
                if cache is not None:
                    cache.setdefault(dst, {})[src] = vals[p]
                self._run_callback(rank, p, dst, fn, src, vals[p], weight)
        elif vt == VT_INIT:
            _, p, target, payload, ver = msg
            self.term[rank].record_receive(ver)
            self._proc_version[rank] = ver
            self._run_callback(rank, p, target, self._on_init[p], payload)
        elif vt == VT_DEL:
            _, src, dst, ver = msg
            self.term[rank].record_receive(ver)
            self._proc_version[rank] = ver
            weight = self.stores[rank].edge_weight(src, dst)
            self._apply_delete(rank, src, dst)
            for p, fn in enumerate(self._on_delete):
                cache = self._nbr_cache[rank][p]
                if cache is not None:
                    cache.get(src, {}).pop(dst, None)
                self._run_callback(rank, p, src, fn, dst, weight or 0)
            if self.config.undirected:
                vals = self._values_for_send(rank, src, ver)
                dst_owner = self.partitioner.owner(dst)
                self._send_visitor(rank, dst_owner, (VT_RDEL, dst, src, vals, ver), ver)
        elif vt == VT_RDEL:
            _, dst, src, vals, ver = msg
            self.term[rank].record_receive(ver)
            self._proc_version[rank] = ver
            weight = self.stores[rank].edge_weight(dst, src)
            self._apply_delete(rank, dst, src)
            for p, fn in enumerate(self._on_reverse_delete):
                cache = self._nbr_cache[rank][p]
                if cache is not None:
                    cache.get(dst, {}).pop(src, None)
                self._run_callback(rank, p, dst, fn, src, vals[p], weight or 0)
        elif vt == VT_CTRL:
            self._on_control(rank, msg)
        else:  # pragma: no cover - corrupted message
            raise ValueError(f"unknown visitor type in {msg!r}")
        if tracer is not None or metrics is not None:
            t1 = loop.clock[rank]
            if tracer is not None:
                if vt == VT_CTRL:
                    name, cat = _CTRL_SPAN_NAMES.get(msg[1], "ctrl/?"), "ctrl"
                else:
                    name, cat = _VT_SPAN_NAMES.get(vt, "visit/?"), "visit"
                tracer.span(rank, name, t0, t1, cat)
            if metrics is not None:
                metrics.histogram("dispatch_virtual_us").observe(
                    (t1 - t0) * 1e6
                )

    # ------------------------------------------------------------------
    # topology application
    # ------------------------------------------------------------------
    def _apply_insert(self, rank: int, src: int, dst: int, weight: int) -> bool:
        store = self.stores[rank]
        self._topo_mutations += 1
        new = store.insert_edge(src, dst, weight)
        counters = self.counters[rank]
        if new:
            counters.edge_inserts += 1
        cpu = self.cost.edge_insert_cpu  # _charge, in place
        self.loop.clock[rank] += cpu
        counters.busy_time += cpu
        if self._can_spill:
            self._charge_spill(rank, store)
        return new

    def _apply_delete(self, rank: int, src: int, dst: int) -> None:
        store = self.stores[rank]
        self._topo_mutations += 1
        counters = self.counters[rank]
        if store.delete_edge(src, dst):
            counters.edge_deletes += 1
        cpu = self.cost.edge_insert_cpu  # _charge, in place
        self.loop.clock[rank] += cpu
        counters.busy_time += cpu
        if self._can_spill:
            self._charge_spill(rank, store)

    def _charge_spill(self, rank: int, store: DegAwareRHH) -> None:
        """Out-of-core penalty (§III-B): a topology access misses DRAM
        with probability equal to the rank's NVRAM-spill fraction.
        Only reached under a finite memory budget (``_can_spill``)."""
        frac = self.cost.spill_fraction(store.approx_bytes())
        if frac > 0.0:
            self._charge(rank, frac * self.cost.nvram_access_cpu)

    # ------------------------------------------------------------------
    # program callback plumbing (incl. S_prev/S_new views)
    # ------------------------------------------------------------------
    def _run_callback(
        self, rank: int, prog: int, vertex: int, fn: Callable[..., None], *args
    ) -> None:
        """Run the bound program callback ``fn`` at ``vertex``.

        ``self.loop`` is read per call, never held: the mp worker swaps
        the loop in after construction."""
        ctx = self._ctx[rank][prog]
        ctx.vertex = vertex
        clock = self.loop.clock
        ctx.time = clock[rank]
        counters = self.counters[rank]
        counters.visits += 1
        self._prog_visits[prog] += 1
        # Effect-dependent charging: a callback that neither writes nor
        # emits is a redundant event that a real visitor queue squashes
        # cheaply (§II-D: monotone updates "can be combined or
        # squashed") — charge the discard cost instead of a full visit.
        self._cb_effect[rank] = False
        col = self.active_collection
        try:
            if (
                col is not None
                and col.prog == prog
                and self._proc_version[rank] < col.cut_version
                and vertex in self._prev_vals[rank]
            ):
                # Prev-version event at a split vertex: apply to S_prev
                # (with event emission), then to S_new per the program's
                # mode (merge mode folds inside _write_value).
                ctx._view_prev = True
                try:
                    fn(ctx, *args)
                finally:
                    ctx._view_prev = False
                if self.programs[prog].snapshot_mode == "replay":
                    self._suppress_sends[rank] = True
                    try:
                        fn(ctx, *args)
                    finally:
                        self._suppress_sends[rank] = False
            else:
                fn(ctx, *args)
        finally:
            cost = self.cost
            cpu = cost.visit_cpu if self._cb_effect[rank] else cost.visit_discard_cpu
            # _charge, in place and in its order: clock, then busy_time.
            clock[rank] += cpu
            counters.busy_time += cpu

    def _read_prev_value(self, rank: int, prog: int, vertex: int) -> Any:
        """``vertex``'s value in the S_prev view (its live value unless
        the vertex is split)."""
        prev = self._prev_vals[rank]
        if vertex in prev:
            return prev[vertex]
        return self.values[rank][prog].get(vertex, 0)

    def _write_value(
        self, rank: int, prog: int, vertex: int, value: Any, view_prev: bool
    ) -> None:
        self._cb_effect[rank] = True
        self._value_mutations += 1
        vals = self.values[rank][prog]
        if view_prev:
            self._prev_vals[rank][vertex] = value
            program = self.programs[prog]
            if program.snapshot_mode == "merge":
                old = vals.get(vertex, 0)
                merged = program.merge(old, value)
                if merged != old:
                    vals[vertex] = merged
                    if self._hk_write:
                        for h in self._hk_write:
                            h(prog, vertex, merged)
                    if self.triggers.has_triggers(prog):
                        self.triggers.on_change(prog, vertex, merged, self.loop.now(rank))
            return
        col = self.active_collection
        if (
            col is not None
            and col.prog == prog
            and self._proc_version[rank] >= col.cut_version
        ):
            prev = self._prev_vals[rank]
            if vertex not in prev:
                # First new-version touch: split, preserving the
                # prev-version view (§III-D).
                prev[vertex] = vals.get(vertex, 0)
        vals[vertex] = value
        if self._hk_write:
            for h in self._hk_write:
                h(prog, vertex, value)
        if self.triggers.has_triggers(prog):
            self.triggers.on_change(prog, vertex, value, self.loop.now(rank))

    def _values_for_send(self, rank: int, vertex: int, ver: int) -> tuple:
        """The per-program values a REVERSE_ADD/DELETE carries for
        ``vertex`` — for the program under collection, the S_prev view
        when the carrying event is prev-version and the vertex is split."""
        vals = [d.get(vertex, 0) for d in self.values[rank]]
        col = self.active_collection
        if col is not None and ver < col.cut_version:
            prev = self._prev_vals[rank]
            if vertex in prev:
                vals[col.prog] = prev[vertex]
        return tuple(vals)

    def _nbr_cache_for(self, rank: int, prog: int, vertex: int) -> dict[int, Any]:
        cache = self._nbr_cache[rank][prog]
        if cache is None:
            raise RuntimeError(
                f"program {self.programs[prog].name!r} did not declare "
                "needs_nbr_cache=True"
            )
        return cache.setdefault(vertex, {})

    # ------------------------------------------------------------------
    # event emission
    # ------------------------------------------------------------------
    @staticmethod
    def _make_update_combiner(combine) -> Callable[[tuple, tuple], tuple]:
        """Lift a program's payload-level ``combine`` to full UPDATE
        tuples: ``(VT_UPDATE, prog, target, sender, value, weight, ver)``
        — identity fields and the earlier arrival stay with the queued
        message, payloads merge monotonically, the weight refreshes to
        the newest (latest edge attribute)."""

        def merge_msgs(old_msg: tuple, new_msg: tuple) -> tuple:
            return (
                old_msg[0],
                old_msg[1],
                old_msg[2],
                old_msg[3],
                combine(old_msg[4], new_msg[4]),
                new_msg[5],
                old_msg[6],
            )

        return merge_msgs

    def _note_cut_edge(self, rank: int, src: int, dst: int, ver: int) -> None:
        """Remember a ``(src, dst)`` adjacency entry inserted at or
        after the active collection's cut — it is not part of the
        discretized prefix the snapshot represents."""
        col = self.active_collection
        if col is not None and ver >= col.cut_version and self._edge_was_new[rank]:
            self._cut_new_edges[rank].add((src, dst))

    def _emit_version(self, rank: int, vertex: int, nbr: int, ver: int) -> int:
        """Version label for an UPDATE from ``vertex`` over its edge to
        ``nbr``.  A prev-version emission crossing an edge inserted
        after the cut is relabelled to the cut version: the edge does
        not exist in the discretized prefix (§III-D), so its value may
        only enter S_new — the receiver splits and applies it to the
        new view, never to the harvested S_prev.  (Suppressing the
        message instead would lose it for the final state.)"""
        col = self.active_collection
        if (
            col is not None
            and ver < col.cut_version
            and (vertex, nbr) in self._cut_new_edges[rank]
        ):
            return col.cut_version
        return ver

    def _emit_update_all(self, rank: int, prog: int, vertex: int, value: Any) -> None:
        if self._suppress_sends[rank]:
            return
        self._cb_effect[rank] = True
        ver = self._proc_version[rank]
        owner = self.partitioner.owner
        combiner = self._combiners[prog]
        col = self.active_collection
        relabel = (
            col is not None
            and ver < col.cut_version
            and bool(self._cut_new_edges[rank])
        )
        if not self.config.batch_updates:
            for nbr, weight in self.stores[rank].neighbors(vertex):
                mver = self._emit_version(rank, vertex, nbr, ver) if relabel else ver
                self._send_visitor(
                    rank,
                    owner(nbr),
                    (VT_UPDATE, prog, nbr, vertex, value, weight, mver),
                    mver,
                    (prog, nbr, vertex, mver) if combiner is not None else None,
                    combiner,
                )
            return
        # Batched fast path: one send_many per fan-out, built over the
        # store's borrowed parallel adjacency lists (no pair tuples).
        nbrs, weights = self.stores[rank].neighbors_arrays(vertex)
        if not nbrs:
            return
        if relabel:
            # Rare (prev-version fan-out while post-cut edges exist):
            # partition by label so each batch stays homogeneous for
            # the four-counter accounting.
            prev_batch, cut_batch = [], []
            for i, nbr in enumerate(nbrs):
                mver = self._emit_version(rank, vertex, nbr, ver)
                entry = (
                    owner(nbr),
                    (VT_UPDATE, prog, nbr, vertex, value, weights[i], mver),
                    (prog, nbr, vertex, mver) if combiner is not None else None,
                )
                (prev_batch if mver == ver else cut_batch).append(entry)
            if prev_batch:
                self._dispatch_batch(rank, prev_batch, ver, combiner)
            if cut_batch:
                self._dispatch_batch(rank, cut_batch, col.cut_version, combiner)
            return
        if combiner is not None:
            batch = [
                (
                    owner(nbr),
                    (VT_UPDATE, prog, nbr, vertex, value, weights[i], ver),
                    (prog, nbr, vertex, ver),
                )
                for i, nbr in enumerate(nbrs)
            ]
        else:
            batch = [
                (
                    owner(nbr),
                    (VT_UPDATE, prog, nbr, vertex, value, weights[i], ver),
                    None,
                )
                for i, nbr in enumerate(nbrs)
            ]
        self._dispatch_batch(rank, batch, ver, combiner)

    def _dispatch_batch(
        self,
        rank: int,
        batch: list[tuple[int, tuple, Any]],
        ver: int,
        combiner: Callable[[tuple, tuple], tuple] | None,
    ) -> None:
        """Emit one fan-out batch, with per-message squash accounting."""
        self.term[rank].record_send(ver, len(batch))
        self.counters[rank].batch_sends += 1
        squashed = self.loop.send_many(rank, batch, combiner)
        node_of = self._node_of
        src_node = node_of[rank]
        counters = self.counters[rank]
        for (dst_rank, _msg, _key), was_squashed in zip(batch, squashed):
            if was_squashed:
                # Squashed = sent and received at squash time: the
                # four-counter detector sees a balanced pair instantly.
                self.term[dst_rank].record_receive(ver)
                self.counters[dst_rank].updates_squashed += 1
            elif node_of[dst_rank] == src_node:
                counters.messages_sent_local += 1
            else:
                counters.messages_sent_remote += 1

    def _emit_update_one(
        self, rank: int, prog: int, vertex: int, nbr: int, value: Any, weight: int | None
    ) -> None:
        if self._suppress_sends[rank]:
            return
        self._cb_effect[rank] = True
        if weight is None:
            weight = self.stores[rank].edge_weight(vertex, nbr)
            self._charge(rank, self.cost.storage_probe_cpu)
            if weight is None:
                weight = 1  # edge raced away (delete); carry the default
        ver = self._emit_version(rank, vertex, nbr, self._proc_version[rank])
        combiner = self._combiners[prog]
        self._send_visitor(
            rank,
            self.partitioner.owner(nbr),
            (VT_UPDATE, prog, nbr, vertex, value, weight, ver),
            ver,
            (prog, nbr, vertex, ver) if combiner is not None else None,
            combiner,
        )

    def _send_visitor(
        self,
        src_rank: int,
        dst_rank: int,
        msg: tuple,
        version: int,
        coalesce_key: Any = None,
        combiner: Callable[[tuple, tuple], tuple] | None = None,
    ) -> None:
        self.term[src_rank].record_send(version)
        if self.loop.send(src_rank, dst_rank, msg, False, coalesce_key, combiner):
            # Squashed into a pending UPDATE: count it as received at
            # squash time so four-counter termination stays balanced.
            self.term[dst_rank].record_receive(version)
            self.counters[dst_rank].updates_squashed += 1
            return
        if self._node_of[src_rank] == self._node_of[dst_rank]:
            self.counters[src_rank].messages_sent_local += 1
        else:
            self.counters[src_rank].messages_sent_remote += 1

    def _charge(self, rank: int, cpu: float) -> None:
        """Bill ``cpu`` to ``rank``: clock first, then ``busy_time``.
        The per-visit sites (``_run_callback``, ``_apply_insert``,
        ``_apply_delete``) do these two statements in place."""
        self.loop.consume(rank, cpu)
        self.counters[rank].busy_time += cpu

    # ------------------------------------------------------------------
    # control plane: probes, reports, cut, harvest
    # ------------------------------------------------------------------
    def _on_control(self, rank: int, msg: tuple) -> None:
        self._charge(rank, self.cost.control_cpu)
        self.counters[rank].control_messages += 1
        subtype = msg[1]
        coord = self.config.coordinator_rank
        col = self.active_collection
        if subtype == CTRL_CUT:
            _, _, col_id, cut = msg
            self.stream_version[rank] = max(self.stream_version[rank], cut)
            # Record how many source events this rank had ingested at the
            # cut — this *defines* the discretized prefix the snapshot
            # represents ("identifying an event for each stream that is
            # the last event to be processed in this collection", §III-D)
            # and lets tests check the snapshot against a static run on
            # exactly that prefix.
            self.cut_positions.setdefault(col_id, {})[rank] = self.counters[
                rank
            ].source_events
        elif subtype == CTRL_PROBE:
            _, _, col_id, wave, cut = msg
            sent = self.term[rank].sent_below(cut)
            recv = self.term[rank].received_below(cut)
            idle = self.stream_version[rank] >= cut or self._stream_done[rank]
            self.loop.send(
                rank,
                coord,
                (VT_CTRL, CTRL_REPORT, col_id, wave, rank, sent, recv, idle),
                priority=True,
            )
        elif subtype == CTRL_REPORT:
            _, _, col_id, wave, src_rank, sent, recv, idle = msg
            if col is None or col.collection_id != col_id:
                return  # stale report from a finished collection
            col.detector.report(wave, src_rank, sent, recv, idle)
            if not col.detector.wave_complete():
                return
            # conclude() is call-once per wave: capture the verdict so
            # the trace instant and the branch read the same result.
            concluded = col.detector.conclude()
            if self.tracer is not None:
                self.tracer.instant(
                    rank,
                    "probe/wave",
                    self.loop.now(rank),
                    "collection",
                    {"id": col_id, "wave": wave, "concluded": concluded},
                )
            if concluded:
                for r in range(self.config.n_ranks):
                    self.loop.send(
                        rank, r, (VT_CTRL, CTRL_HARVEST, col_id, col.prog), priority=True
                    )
            else:
                next_at = self.loop.now(rank) + _PROBE_BACKOFF
                wave_id = col.detector.start_wave()
                for r in range(self.config.n_ranks):
                    self.loop.send_at(
                        next_at,
                        rank,
                        r,
                        (VT_CTRL, CTRL_PROBE, col_id, wave_id, col.cut_version),
                        priority=True,
                    )
        elif subtype == CTRL_HARVEST:
            _, _, col_id, prog = msg
            prev = self._prev_vals[rank]
            vals = self.values[rank][prog]
            part = {vid: prev.get(vid, val) for vid, val in vals.items()}
            self._charge(rank, self.cost.gather_per_vertex_cpu * len(part))
            self._prev_vals[rank] = {}
            self._cut_new_edges[rank].clear()
            self.loop.send(
                rank, coord, (VT_CTRL, CTRL_PART, col_id, rank, part), priority=True
            )
        elif subtype == CTRL_PART:
            _, _, col_id, src_rank, part = msg
            if col is None or col.collection_id != col_id:
                return
            col.parts[src_rank] = part
            self._charge(rank, self.cost.gather_per_vertex_cpu * len(part))
            if col.all_parts_in(self.config.n_ranks):
                merged = col.merged_state()
                result = CollectionResult(
                    collection_id=col.collection_id,
                    prog=col.prog,
                    cut_version=col.cut_version,
                    requested_at=col.requested_at,
                    completed_at=self.loop.now(rank),
                    state=merged,
                    probe_waves=col.detector.waves_run,
                    vertices_collected=len(merged),
                )
                self.collection_results.append(result)
                if self.tracer is not None:
                    # cat "collection" (not a BUSY_CATEGORY): the epoch
                    # overlaps the ctrl/visit spans running inside it.
                    self.tracer.span(
                        rank,
                        "collection/epoch",
                        col.requested_at,
                        result.completed_at,
                        "collection",
                        {
                            "id": result.collection_id,
                            "prog": self.programs[col.prog].name,
                            "probe_waves": result.probe_waves,
                            "vertices": result.vertices_collected,
                        },
                    )
                if self.metrics is not None:
                    self.metrics.inc("collections")
                    self.metrics.histogram("collection_latency_us").observe(
                        result.latency * 1e6
                    )
                self.active_collection = None
                if col.callback is not None:
                    col.callback(result)
                if self._pending_collections:
                    prog, cb = self._pending_collections.pop(0)
                    self._begin_collection(prog, self.loop.now(rank), cb)
        else:  # pragma: no cover - corrupted control message
            raise ValueError(f"unknown control subtype in {msg!r}")
