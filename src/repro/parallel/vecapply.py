"""Vectorized application of shm wire slabs inside one mp rank.

The per-event engine dispatches every remote visitor through the full
callback machinery — context rebind, dict reads, Python-level compare,
per-neighbour emission.  When every loaded program declares a
``bulk_kernel``, a rank can instead drain whole record slabs
(:mod:`repro.parallel.codec`) with array kernels: offers are scattered
with ``np.minimum.at`` / ``np.maximum.at`` and adopted values are
re-broadcast by frontier relaxation over the rank's
:class:`~repro.kernels.mirror.DenseState` (the layer the DES bulk path
holds too, here with ``rank=`` this rank), exactly the §II-B argument
that the REMO fixpoint is interleaving-independent.

A drain costs what it brings, not what the rank already holds: dense
positions never move (per-vertex arrays only grow at the end), a drain's
edges merge into the mirror's small delta run, and the mirror's count of
keys it had not stored *is* the per-event ``edge_inserts`` test.  Its
fixed cost (one id resolution, one edge insert, one relaxation per
program) is paid once per worker turn: :meth:`VecApplier.ingest` only
routes and holds, and the turn's one :meth:`VecApplier.drain` takes the
held rows together with every slab that arrived.

Bit-equality with the per-event path rests on five invariants:

* **Same offers.**  Every record produces the offer its per-event
  callback would: UPDATE offers ``relax(vis_val, weight)`` at the
  target, REVERSE_ADD additionally inserts the reverse edge and seeds
  the target, ADD inserts the edge, seeds the source, and synthesizes
  the REVERSE_ADD toward the destination's owner.  When this rank owns
  the destination too, the REVERSE_ADD never leaves it: both directed
  edges are stored and offered along both directions before the one
  relaxation, as a DES bulk chunk offers its rows — which is also what
  that REVERSE_ADD's notify-back would have delivered.  Values carried
  to other ranks may be *newer* (better) than the per-event
  interleaving would have carried — monotone-safe over-approximation:
  any carried value is a real vertex value relaxed along a real edge.
* **Same seeds.**  Per-event callbacks write the materialized sentinel
  (INF, the CC hash label) into the value dict on *first touch*, even
  when nothing improves.  ``DenseState.written`` follows the same
  touch rules (``offer``, ``fold`` and the relax loop set it) and only
  written entries are ever written back.
* **REVERSE_ADD notify-backs are load-bearing.**  When the edge's
  destination does not adopt, the source's owner learns the
  destination's (better) value only from the notify-back — it is
  emitted from post-fixpoint values (again monotone-safe, and it never
  misses one the per-event path would send: the destination's value
  only improves, so the improvement test can only flip from False to
  True).  A REVERSE_ADD comes only from its source's owner, so every
  notify-back leaves the rank as an UPDATE record.
* **UPDATE notify-backs are redundant.**  Any value they would carry is
  also delivered by the edge-creation exchange or by an adoption
  broadcast over an edge both stores hold by then, so the drain skips
  them — this is where most of the duplicated work of the per-event
  path goes away.
* **Dicts in at construction, out at harvest.**  Stream ingest is
  vectorized too (:meth:`VecApplier.ingest` takes the stream's column
  chunks), so the only per-event visitors of a vec rank are its
  INITs, and the worker dispatches those *before* it builds the applier:
  the constructor folds what they wrote into the dense state, once, and
  nothing reads or writes the engine's value dicts again until
  :meth:`VecApplier.write_back` puts ``DenseState.stale`` — written
  entries whose dense value differs from what the dict holds — into
  them for the harvest.  No per-event edge insert occurs either, so the
  rank's adjacency store stays empty and the edge mirror is its
  topology of record.

Deletes (§VI-B) never run vectorized: ``run_parallel`` sniffs the
streams and engages the applier only when *every* rank's stream is
add-only, so delete-carrying streams run per-event on every rank, where
the generational support-tree protocol owns support breaks and every
message is a tuple.  A tuple slab arriving at an engaged applier means
that invariant was broken, and the worker raises instead of guessing.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from repro.kernels.frontier import kernel_eligible, relax_to_fixpoint
from repro.kernels.mirror import DenseState, edge_keys, last_of_each
from repro.parallel.codec import Codec
from repro.parallel.shm import K_ADD, K_RADD, K_UPDATE


def vec_eligible(engine, wire, add_only: bool) -> bool:
    """Can this run drain slabs through the kernels?

    Requires: vectorize on, peers to exchange slabs with (a 1-rank run
    stays per-event), undirected mode, add-only streams (one that
    carries deletes puts every rank on the per-event path), at least one
    program, and :func:`~repro.kernels.frontier.kernel_eligible` programs.
    """
    if not wire.vectorize or not add_only or engine.config.n_ranks < 2:
        return False
    if not engine.config.undirected or not engine.programs:
        return False
    return kernel_eligible(engine.programs)


class VecApplier:
    """One rank's slab semantics over its
    :class:`~repro.kernels.mirror.DenseState`: which records seed,
    offer, insert and emit what.  The state's edge mirror stands in for
    the adjacency store — a drain merges its edges into the small delta
    run instead of rebuilding a CSR over the graph so far.
    """

    def __init__(self, engine, rank: int, codec: Codec):
        self.engine = engine
        self.rank = rank
        self.codec = codec
        # Optional RankObs capture (set by the worker); one identity
        # check per kernel drain when disabled.
        self.obs: Any = None
        self.kernels = [p.bulk_kernel for p in engine.programs]
        self.n_programs = len(self.kernels)
        self.partitioner = engine.partitioner
        st = self.state = DenseState(self.kernels, self.partitioner.owner_array, rank)
        # What this rank's INITs wrote.  No edge exists yet, so the
        # folded values have nowhere to broadcast: the first ADD or RADD
        # touching such a vertex carries them.
        for p, k in enumerate(self.kernels):
            items = engine.values[rank][p]
            if items:
                raw = np.fromiter(items.keys(), dtype=np.int64, count=len(items))
                st.fold(p, raw, np.array(list(items.values()), dtype=k.dtype))
        self._held: list[np.ndarray] = []  # local ADD rows awaiting the next drain
        self._stats = {
            "kernel_batches": 0,
            "kernel_records": 0,
            "kernel_relaxations": 0,
            "kernel_rounds": 0,
        }

    @property
    def stats(self) -> dict[str, int]:
        """Kernel work counts plus the mirror's fold accounting."""
        return {
            **self._stats,
            "mirror_folds": self.state.edges.folds,
            "mirror_moved_edges": self.state.edges.moved_edges,
        }

    # -- stream ingest -------------------------------------------------
    def ingest(
        self, src: np.ndarray, dst: np.ndarray, weights: np.ndarray, loop
    ) -> None:
        """Bulk stream ingest — the vec analogue of ``pull_source``.

        Events whose source another rank owns travel as ADD records to
        their owners; the rest are *held* as local ADD rows, which the
        next :meth:`drain` applies together with the slabs that arrived
        by then — one drain per worker turn, however the turn's records
        came in.  With ingest vectorized too, no per-event topology
        visitor ever fires in a vec run, which is what lets the engine's
        (pure-Python) adjacency store stay empty — the edge mirror is
        the rank's only topology, harvested by :meth:`edges`.
        """
        src = np.asarray(src, dtype=np.int64)
        dst = np.asarray(dst, dtype=np.int64)
        weights = np.asarray(weights, dtype=np.int64)
        owner = self.partitioner.owner_array(src)
        local = owner == self.rank
        remote = ~local
        if remote.any():
            loop.queue_add(src[remote], dst[remote], weights[remote], owner[remote])
        if local.any():
            # Held as the ADD record columns a slab would decode to.
            self._held.append(np.stack([src[local], dst[local], weights[local]]))

    @property
    def holding(self) -> bool:
        """Are local ADD rows waiting for the next :meth:`drain`?"""
        return bool(self._held)

    # -- topology harvest ----------------------------------------------
    @property
    def num_edges(self) -> int:
        return self.state.edges.num_edges

    def edges(self) -> list[tuple[int, int, int]]:
        """This rank's stored directed edges with keep-last weights
        (what ``store.edges()`` would have held)."""
        t, h, w = self.state.edges.edges()
        ids = self.state.universe.ids
        return list(zip(ids[t].tolist(), ids[h].tolist(), w.tolist()))

    # -- drain ---------------------------------------------------------
    def drain(self, slabs: list[tuple[int, int, int, np.ndarray]], loop) -> int:
        """Apply the held local ADD rows and the record ``slabs``, and
        queue the resulting emissions on ``loop``: one id resolution,
        one edge insert and one relaxation per program, whatever the
        mix of records.

        Returns the number of records applied.
        """
        codec = self.codec
        adds = self._held + [
            codec.add_view(p) for kind, _n, _s, p in slabs if kind == K_ADD
        ]
        self._held = []
        radds = [codec.radd_view(p) for kind, _n, _s, p in slabs if kind == K_RADD]
        upds = [codec.update_view(p) for kind, _n, _s, p in slabs if kind == K_UPDATE]
        # (columns, n) blocks, records along axis 1 (codec's row order).
        add = np.concatenate(adds, axis=1) if adds else None
        radd = np.concatenate(radds, axis=1) if radds else None
        upd = np.concatenate(upds, axis=1) if upds else None
        n_records = sum(a.shape[1] for a in (add, radd, upd) if a is not None)
        if n_records == 0:
            return 0
        obs = self.obs
        t0 = obs.now() if obs is not None else 0.0
        changed: list[list[np.ndarray]] = [[] for _ in self.kernels]
        self._stats["kernel_batches"] += 1
        self._stats["kernel_records"] += n_records

        # The drain's one id resolution, every id column at once (it
        # grows the universe, so every array captured below stays current).
        cols = {}
        if add is not None:
            cols["add_src"], cols["add_dst"] = add[0], add[1]
        if radd is not None:
            cols["radd_dst"], cols["radd_src"] = radd[0], radd[1]
        if upd is not None:
            cols["upd_target"] = upd[1]
        st = self.state
        pos = st.resolve(np.concatenate(list(cols.values())))
        cuts = np.cumsum([c.size for c in cols.values()])[:-1]
        idx = dict(zip(cols, np.split(pos, cuts)))

        # --- ADD: insert at the source's owner, seed, re-emit ---------
        # Edges of the whole drain, in arrival order (keep-last), go to
        # the mirror in one batch before anything relaxes over it.
        arrived: list[tuple[np.ndarray, np.ndarray, np.ndarray]] = []
        if add is not None:
            src_idx, dst_idx = idx["add_src"], idx["add_dst"]
            w = add[2]
            arrived.append((src_idx, dst_idx, w))
            for written in st.written:
                written[src_idx] = True  # on_add seeds the source
            local = st.local[dst_idx]
            remote = ~local
            if remote.any():
                # Synthesize the REVERSE_ADD the per-event path emits,
                # carrying the source's current (seeded) values.
                s_r = src_idx[remote]
                loop.queue_radd(
                    add[1][remote],
                    add[0][remote],
                    w[remote],
                    [v[s_r] for v in st.values],
                    st.owner[dst_idx[remote]],
                )
            if local.any():
                # Both endpoints here: the REVERSE_ADD stays on this
                # rank, so store its edge and offer along both
                # directions — what it and its notify-back would carry.
                s_l, d_l, w_l = src_idx[local], dst_idx[local], w[local]
                arrived.append((d_l, s_l, w_l))
                tails = np.concatenate([s_l, d_l])
                heads = np.concatenate([d_l, s_l])
                w_2 = np.concatenate([w_l, w_l])
                for p in range(self.n_programs):
                    st.written[p][d_l] = True  # on_reverse_add seeds it
                    changed[p].append(st.offer_edges(p, tails, heads, w_2)[0])

        # --- REVERSE_ADD: insert reverse edge, seed, offer ------------
        if radd is not None:
            dst_idx, rsrc_idx = idx["radd_dst"], idx["radd_src"]
            own = st.local[rsrc_idx]
            if own.any():
                raise RuntimeError(
                    f"rank {self.rank} got a REVERSE_ADD from vertex "
                    f"{int(radd[1][own][0])}, which it owns: a REVERSE_ADD "
                    "comes only from its source's owner, never to it"
                )
            rsrc, rw = radd[1], radd[2]
            arrived.append((dst_idx, rsrc_idx, rw))
            carried = []
            for p, k in enumerate(self.kernels):
                vis = k.materialize(radd[3 + p].view(k.dtype), rsrc)
                # on_reverse_add seeds the destination, then offers.
                changed[p].append(st.offer(p, dst_idx, k.relax(vis, rw)))
                carried.append(vis)

        # --- UPDATE: offer relax(vis_val, weight) at the target -------
        if upd is not None:
            progs, _target, senders, values, weights = upd
            target_idx = idx["upd_target"]
            for p, k in enumerate(self.kernels):
                sel = progs == p
                if not sel.any():
                    continue
                sender, w = senders[sel], weights[sel]
                vis = k.materialize(values[sel].view(k.dtype), sender)
                # on_update seeds the target, then offers.
                changed[p].append(st.offer(p, target_idx[sel], k.relax(vis, w)))

        # --- frontier relaxation + adoption broadcast -----------------
        if arrived:
            fresh = st.edges.insert(*(np.concatenate(col) for col in zip(*arrived)))
            self.engine.counters[self.rank].edge_inserts += fresh.size
        self._relax_and_broadcast(changed, loop)

        # --- REVERSE_ADD notify-backs (load-bearing) ------------------
        if radd is not None:
            ids = st.universe.ids
            for p, k in enumerate(self.kernels):
                final = st.values[p][dst_idx]
                mask = k.improves(k.relax(final, rw), carried[p])
                if mask.any():
                    loop.queue_update(
                        p,
                        rsrc[mask],
                        ids[dst_idx[mask]],
                        final[mask],
                        rw[mask],
                        st.owner[rsrc_idx[mask]],
                    )

        if obs is not None:
            # busy=False: this span nests inside the worker's "drain"
            # span, which already accounts the time.
            obs.span("kernel_drain", t0, "compute", {"records": n_records}, busy=False)
        return n_records

    def _relax_and_broadcast(self, frontiers: list[list[np.ndarray]], loop) -> None:
        """Relax each program's frontier parts to the local fixpoint
        over the edge mirror and send what reached remote heads as
        UPDATE records (the adoption broadcast of Alg. 3, batched and
        §II-D-coalesced)."""
        st = self.state
        ids = st.universe.ids
        for p, parts in enumerate(frontiers):
            if not parts:
                continue
            remote: list[tuple[np.ndarray, ...]] = []
            rounds, relaxed = relax_to_fixpoint(
                st.edges,
                st.values[p],
                np.concatenate(parts),
                self.kernels[p],
                st.local,
                st.written[p],
                remote,
            )
            self._stats["kernel_rounds"] += rounds
            self._stats["kernel_relaxations"] += relaxed
            if not remote:
                continue
            heads, tails, v, w, _candidates = zip(*remote)
            heads, tails, v, w = map(np.concatenate, (heads, tails, v, w))
            # Coalesce by (target, sender) — the array analogue of the
            # outbuf §II-D squash — keeping the pair's last row: a pair
            # recurs only in a later round, after its tail improved, and
            # ``extend`` is monotone, so the last candidate is the best.
            _keys, last = last_of_each(edge_keys(heads, tails))
            heads, tails = heads[last], tails[last]
            loop.queue_update(
                p,
                ids[heads],
                ids[tails],
                v[last],
                w[last],
                st.owner[heads],
            )

    # -- dict write-back ----------------------------------------------
    def write_back(self) -> None:
        """Write the state's stale entries into the engine's value
        dicts — once, when the harvest is about to read them."""
        st = self.state
        ids = st.universe.ids
        for p in range(self.n_programs):
            idx = st.stale(p)
            if idx.size:
                target = self.engine.values[self.rank][p]
                target.update(zip(ids[idx].tolist(), st.values[p][idx].tolist()))
