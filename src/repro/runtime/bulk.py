"""Bulk-ingest fast path: chunked saturation replay with array kernels.

Motivation (wall-clock, not virtual-time): the per-event engine pays
full Python dispatch — heap push/pop, tuple churn, one callback per
edge endpoint — for every topology event.  During *pure saturation
replay* none of that machinery is observable: no collection cut is
active, no trigger watches the state, every program's state is REMO
monotone.  Under those conditions the final fixpoint is independent of
event interleaving (§II-B), so a whole chunk of ADD events can be
applied at once and the algorithm state advanced by vectorized
delta-frontier relaxation (:mod:`repro.kernels.frontier`) with a result
bitwise-equal to the per-event path.

A chunk relaxes the edges it brought, as the per-event ADD /
REVERSE_ADD pair relaxes its one new edge (Alg. 3): one
``DenseState.offer`` of every tail's value along the chunk's directed
rows seeds each program's frontier with the heads that adopted, and
only what changes travels further.  That is exact because the values
are at the fixpoint over the edges stored before the chunk, except
where a per-event visitor still in flight carries its own change or a
dict-fold improvement waits in the pending frontier (which joins the
seed); so the chunk's own rows are the only constraints it can violate.

The :class:`BulkIngestor` holds one
:class:`~repro.kernels.mirror.DenseState` with ``rank=None`` (every
vertex local): the universe, the per-program value columns, the global
directed edge set (each undirected input edge appears as two directed
edges, exactly as the per-event ADD / REVERSE_ADD pair stores them) and the
dict fold / write-back rules are the ones the mp rank drain uses.  What
is its own is the chunk: store appends, cost charges, spans.

Exactness contract
------------------
* **Engage** only while eligible (``DynamicEngine._bulk_eligible``): no
  active or pending collection, no registered triggers, no injected
  timed events, add-only streams, every program kernel-capable.
* **Topology** appended in bulk lands in ``DegAwareRHH`` array append
  buffers: every owner's buffer holds the chunk's shared columns (no
  per-owner copy) plus the owner column and its rank; any classic store
  access materialises them, owner-filtered, through the exact
  ``insert_edge`` path first, so per-event code never observes a stale
  store.
* **De-optimize** (:meth:`deoptimize`): the moment per-event processing
  must resume — any message dispatch, or eligibility lost — the dense
  values that changed since the last flush (``DenseState.stale``) are
  written back into the per-rank value dicts *before* the event is
  handled.  Folding is the program's monotone combine, so a per-event
  write that raced ahead is never regressed.
* **Resync**: per-event activity bumps ``_topo_mutations`` /
  ``_value_mutations`` on the engine; the next chunk re-reads the stores
  and ``DenseState.fold``s the dicts before trusting its dense state.
  (Counters, not a per-write callback: checkpoint restore and
  ``_rebuild_topology`` change state outside ``_write_value``.)

Virtual-time accounting is kept comparable to the per-event path: each
chunk charges ``stream_pull_cpu`` per event to the ingesting rank,
``edge_insert_cpu`` per appended directed edge to its owner rank (plus
the NVRAM spill penalty when configured), and ``visit_discard_cpu`` per
kernel edge relaxation — each offered row and each edge the frontier
loop gathers — to the ingesting rank.  ``visits`` counters are
*not* incremented — bulk chunks report through the dedicated
``bulk_chunks`` / ``bulk_events`` / ``fallback_flushes`` counters.
"""

from __future__ import annotations

import numpy as np

from repro.kernels.frontier import kernel_eligible, relax_to_fixpoint
from repro.kernels.mirror import DenseState, EdgeRuns
from repro.runtime.visitor import COORDINATOR_RANK


class BulkIngestor:
    """Array-native chunk processor attached to one :class:`DynamicEngine`."""

    def __init__(self, engine, chunk: int):
        self.engine = engine
        self.chunk = chunk  # stream events drained per process_chunk
        programs = engine.programs
        self.kernels = [p.bulk_kernel for p in programs]
        # Construction-only (no programs) is vacuously supported.
        self.supported = kernel_eligible(programs)
        self.disabled = False  # set when injected timed events exist
        self.engaged = False  # dense state is ahead of the value dicts
        # An unsupported program list never engages; its state is empty.
        self.state = DenseState(
            self.kernels if self.supported else [], engine.partitioner.owner_array
        )
        # Positions a dict fold improved, to re-propagate with the next chunk.
        self._pending_frontier: list[list[np.ndarray]] = [[] for _ in self.kernels]
        self._synced_topo = -1
        self._synced_vals = -1

    # ------------------------------------------------------------------
    # resync with per-event state
    # ------------------------------------------------------------------
    def _sync(self) -> None:
        eng = self.engine
        if eng._topo_mutations != self._synced_topo:
            self._rebuild_topology()
            self._synced_topo = eng._topo_mutations
        if eng._value_mutations != self._synced_vals:
            self._merge_dict_values()
            self._synced_vals = eng._value_mutations

    def _rebuild_topology(self) -> None:
        """Re-read every store's exact edge set (flushes append buffers)."""
        edges = [e for store in self.engine.stores for e in store.edges()]
        t, h, w = np.array(edges, dtype=np.int64).reshape(-1, 3).T
        st = self.state
        pos = st.resolve(np.concatenate([t, h]))
        # A stored edge's endpoints are, or will be once the visitors in
        # flight land, first-touched by every program.
        for written in st.written:
            written[pos] = True
        st.edges = EdgeRuns()
        st.edges.insert(pos[: t.size], pos[t.size :], w)

    def _merge_dict_values(self) -> None:
        """Fold per-event dict values into the dense state and queue the
        improved vertices for re-propagation."""
        st = self.state
        for p, kernel in enumerate(self.kernels):
            for rank_vals in self.engine.values:
                if d := rank_vals[p]:
                    vids = np.fromiter(d.keys(), np.int64, len(d))
                    vals = np.fromiter(d.values(), kernel.dtype, len(d))
                    self._pending_frontier[p].append(st.fold(p, vids, vals))

    # ------------------------------------------------------------------
    # chunk processing
    # ------------------------------------------------------------------
    def process_chunk(self, rank: int, stream) -> int:
        """Drain up to ``chunk`` events from ``stream`` and advance
        topology + all program states to the new fixpoint.  Returns the
        number of events ingested (0 = stream exhausted)."""
        eng = self.engine
        src, dst, w = stream.pull_chunk(self.chunk)
        n = len(src)
        if n == 0:
            return 0
        tracer = eng.tracer
        if tracer is not None:
            t0 = eng.loop.clock[rank]
        self._sync()
        counters = eng.counters[rank]
        counters.source_events += n
        counters.bulk_chunks += 1
        counters.bulk_events += n
        swap = dst < src
        if swap.any():
            src, dst = np.where(swap, dst, src), np.where(swap, src, dst)
        # The chunk's one id resolution: positions of both columns.
        st = self.state
        pos = st.resolve(np.concatenate([src, dst]))
        for written in st.written:  # each endpoint's first touch, per program
            written[pos] = True
        t_d, h_d = pos[:n], pos[n:]
        # Topology: array append buffers on each owner's store (the
        # ADD side), plus the REVERSE_ADD side.
        self._append_to_stores(src, dst, w, st.owner[t_d])
        self._append_to_stores(dst, src, w, st.owner[h_d])
        tails = np.concatenate([t_d, h_d])
        heads = np.concatenate([h_d, t_d])
        wts = np.concatenate([w, w])
        # Dedup is exact (keep-last, existing pairs overwritten), so the
        # fresh tails are the per-event first inserts, owner by owner.
        new_tails = st.edges.insert(tails, heads, wts)
        if new_tails.size:
            counts = np.bincount(st.owner[new_tails], minlength=eng.config.n_ranks)
            for r, c in enumerate(counts):
                if c:
                    eng.counters[r].edge_inserts += int(c)
        # REMO propagation from the chunk's own rows (the module
        # docstring says why nothing else can be violated): one offer
        # per program, unreached tails masked out, then the frontier
        # loop from what adopted plus the dict-fold improvements.
        total_relax = 0
        for p, kernel in enumerate(self.kernels):
            adopted, offered = st.offer_edges(p, tails, heads, wts)
            frontier = np.concatenate([adopted, *self._pending_frontier[p]])
            self._pending_frontier[p] = []
            _rounds, relaxed = relax_to_fixpoint(
                st.edges, st.values[p], frontier, kernel
            )
            total_relax += offered + relaxed
        eng._charge(
            rank,
            n * eng.cost.stream_pull_cpu + total_relax * eng.cost.visit_discard_cpu,
        )
        if tracer is not None:
            # The owner-rank append charges inside _append_to_stores got
            # their own "bulk/append" spans; this span covers the
            # ingesting rank's whole chunk window (appends to its own
            # store nest inside it).
            tracer.span(
                rank,
                "bulk/chunk",
                t0,
                eng.loop.clock[rank],
                "bulk",
                {"events": n, "relaxations": total_relax},
            )
        self.engaged = True
        return n

    def _append_to_stores(self, srcs, dsts, ws, owners) -> None:
        """Append directed edges to the stores of ``owners`` (the rank
        of each ``srcs`` entry, as the dense state already holds it).
        Every store shares the chunk's columns; each picks out its own
        rows only if it is ever materialised."""
        eng = self.engine
        tracer = eng.tracer
        counts = np.bincount(owners, minlength=eng.config.n_ranks)
        for r in np.nonzero(counts)[0]:
            r = int(r)
            store = eng.stores[r]
            store.bulk_append_edges(srcs, dsts, ws, owners, r, int(counts[r]))
            cpu = int(counts[r]) * eng.cost.edge_insert_cpu
            if eng.cost.rank_memory_bytes != float("inf"):
                frac = eng.cost.spill_fraction(store.approx_bytes())
                cpu += int(counts[r]) * frac * eng.cost.nvram_access_cpu
            if tracer is not None:
                a0 = eng.loop.clock[r]
            eng._charge(r, cpu)
            if tracer is not None:
                tracer.span(
                    r,
                    "bulk/append",
                    a0,
                    eng.loop.clock[r],
                    "bulk",
                    {"edges": int(counts[r])},
                )

    # ------------------------------------------------------------------
    # de-optimization / finalization
    # ------------------------------------------------------------------
    def deoptimize(self) -> None:
        """Exactness barrier: flush dense values back into the per-rank
        dicts so per-event processing resumes on exact state.  Counted
        in ``fallback_flushes``."""
        if self.engaged:
            eng = self.engine
            if eng.tracer is not None:
                eng.tracer.instant(
                    COORDINATOR_RANK,
                    "bulk/deopt",
                    eng.loop.now(COORDINATOR_RANK),
                    "bulk",
                )
        self.flush_values(count_fallback=True)

    def flush_values(self, count_fallback: bool = True) -> None:
        if not self.engaged:
            return
        eng = self.engine
        if eng._value_mutations != self._synced_vals:
            # Defensive: per-event writes while engaged are normally
            # impossible (on_message de-optimizes first), but merge
            # rather than clobber if it ever happens.
            self._merge_dict_values()
        st = self.state
        ids = st.universe.ids
        n_ranks = eng.config.n_ranks
        for p in range(len(self.kernels)):
            idx = st.stale(p)
            if not idx.size:
                continue
            fire = eng.triggers.has_triggers(p)
            vals = st.values[p][idx]
            owners = st.owner[idx]
            for r in np.flatnonzero(np.bincount(owners, minlength=n_ranks)).tolist():
                m = owners == r
                d = eng.values[r][p]
                pairs = zip(ids[idx[m]].tolist(), vals[m].tolist())
                if fire:
                    now = eng.loop.now(r)
                    for vid, v in pairs:
                        d[vid] = v
                        eng.triggers.on_change(p, vid, v, now)
                else:
                    d.update(pairs)
            # A bulk flush bypasses _write_value's per-write
            # invalidation, so each attached serving cache drops the
            # whole program at once instead.  Absorbing entries survive
            # only while the monotone-bound argument does (insert-only
            # sources).
            for cache in eng._serve_caches:
                cache.flush_prog(p, keep_absorbing=eng._streams_add_only)
        self.engaged = False
        self._synced_vals = eng._value_mutations
        if count_fallback:
            eng.counters[COORDINATOR_RANK].fallback_flushes += 1
