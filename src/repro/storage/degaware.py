"""Degree-aware dynamic adjacency store (the DegAwareRHH substrate).

The paper incorporates DegAwareRHH [18] as its node-local topology store
(§III-B): open-addressing Robin Hood hash tables give good locality for
high-degree vertices, while a "separate, compact data structure" serves
low-degree vertices — important because power-law graphs are dominated by
low-degree vertices, for which a full hash table per vertex wastes space
and probes.

This reproduction keeps both tiers:

* **low-degree tier** — a compact insertion-ordered list of
  ``(neighbour, weight)`` pairs, linearly scanned (degree < threshold, so
  scans are O(threshold));
* **high-degree tier** — a :class:`~repro.storage.robin_hood.RobinHoodMap`
  keyed by neighbour ID, promoted to lazily when a vertex's degree
  crosses ``promote_threshold``.

The vertex index itself is also a Robin Hood map by default (pass
``vertex_index="dict"`` to use a Python dict — the storage ablation bench
compares the two).  Edge weights are stored as int64; unweighted graphs
use weight 1.

The store is *rank-local*: each simulated process owns one instance and
only ever inserts edges whose source vertex it owns (§III-C).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator

import numpy as np

from repro.storage.robin_hood import RobinHoodMap
from repro.util.validate import check_positive


@dataclass
class AdjacencyStats:
    """Lifetime counters for one DegAwareRHH instance."""

    edge_inserts: int = 0  # successful (new-edge) inserts
    duplicate_inserts: int = 0  # inserts of an already-present edge
    edge_deletes: int = 0
    promotions: int = 0  # low-degree lists promoted to hash tables
    low_degree_scans: int = 0  # linear-scan comparison steps


class _LowDegreeAdjacency:
    """Compact adjacency for the low-degree tier.

    Two parallel Python lists keep the footprint minimal and preserve
    insertion order, matching the 'compact data structure for low-degree
    vertices' in DegAwareRHH.
    """

    __slots__ = ("nbrs", "weights")

    def __init__(self) -> None:
        self.nbrs: list[int] = []
        self.weights: list[int] = []

    def find(self, dst: int) -> int:
        try:
            return self.nbrs.index(dst)
        except ValueError:
            return -1


class DegAwareRHH:
    """Dynamic, degree-aware adjacency store for one rank's vertices.

    Parameters
    ----------
    promote_threshold:
        Degree at which a vertex's adjacency is promoted from the compact
        list tier to a per-vertex Robin Hood table (default 8, matching
        the "low degree" regime of scale-free graphs).
    vertex_index:
        ``"robinhood"`` (default, faithful) or ``"dict"`` (Python dict
        baseline used by the storage ablation).
    """

    def __init__(self, promote_threshold: int = 8, vertex_index: str = "robinhood"):
        check_positive("promote_threshold", promote_threshold)
        if vertex_index not in ("robinhood", "dict"):
            raise ValueError(f"vertex_index must be 'robinhood' or 'dict', got {vertex_index!r}")
        self.promote_threshold = int(promote_threshold)
        self._index_kind = vertex_index
        # vertex id -> slot in self._adj
        self._index: RobinHoodMap | dict[int, int]
        self._index = RobinHoodMap(64) if vertex_index == "robinhood" else {}
        # Bind the index-lookup strategy once: _slot_of is on every
        # edge operation's critical path, so a per-call string compare on
        # the index kind is measurable (see bench_ablation_storage.py).
        self._slot_of = (
            self._slot_of_dict if vertex_index == "dict" else self._slot_of_rhh
        )
        self._adj: list[_LowDegreeAdjacency | RobinHoodMap] = []
        self._vids: list[int] = []
        self._num_edges = 0
        # Bulk-ingest append buffers: (src, dst, weights, owners, rank)
        # column chunks, materialised through insert_edge on first
        # classic access — see bulk_append_edges.
        self._pending: list[tuple] = []
        self._pending_count = 0
        self.stats = AdjacencyStats()

    # ------------------------------------------------------------------
    # vertex level
    # ------------------------------------------------------------------
    def _slot_of_dict(self, vid: int) -> int:
        return self._index.get(vid, -1)  # type: ignore[union-attr]

    def _slot_of_rhh(self, vid: int) -> int:
        got = self._index.get(vid)  # type: ignore[union-attr]
        return -1 if got is None else got

    def ensure_vertex(self, vid: int) -> bool:
        """Register ``vid`` if unseen; returns True iff it was new."""
        if self._pending_count:
            self._flush_pending()
        if self._slot_of(vid) >= 0:
            return False
        self._add_vertex(vid)
        return True

    def _add_vertex(self, vid: int) -> int:
        """Give the unseen ``vid`` an empty adjacency; returns its slot."""
        slot = len(self._adj)
        self._adj.append(_LowDegreeAdjacency())
        self._vids.append(vid)
        if self._index_kind == "dict":
            self._index[vid] = slot  # type: ignore[index]
        else:
            self._index.put(vid, slot)  # type: ignore[union-attr]
        return slot

    def has_vertex(self, vid: int) -> bool:
        if self._pending_count:
            self._flush_pending()
        return self._slot_of(vid) >= 0

    def vertices(self) -> Iterator[int]:
        """Iterate all registered vertex IDs (insertion order)."""
        if self._pending_count:
            self._flush_pending()
        return iter(self._vids)

    @property
    def num_vertices(self) -> int:
        if self._pending_count:
            self._flush_pending()
        return len(self._vids)

    @property
    def num_edges(self) -> int:
        """Number of stored directed edges (undirected edges count twice
        across the whole system, once per endpoint's rank)."""
        if self._pending_count:
            self._flush_pending()
        return self._num_edges

    # -- no-flush observation (telemetry sampling) ---------------------
    # The exact properties above materialise pending bulk appends, which
    # would make the act of sampling de-facto disable the bulk fast
    # path's laziness.  These stay O(1) and never touch the buffers:
    # edge count is exact up to within-buffer duplicates, vertex count
    # excludes vertices seen only in pending appends.
    @property
    def approx_num_edges(self) -> int:
        return self._num_edges + self._pending_count

    @property
    def approx_num_vertices(self) -> int:
        return len(self._vids)

    # ------------------------------------------------------------------
    # bulk-ingest tier (array append buffers)
    # ------------------------------------------------------------------
    def bulk_append_edges(
        self,
        src: np.ndarray,
        dst: np.ndarray,
        weights: np.ndarray,
        owners: np.ndarray | None = None,
        rank: int = 0,
        count: int | None = None,
    ) -> None:
        """Append directed edges as numpy columns without touching the
        per-vertex tiers (the bulk-ingest fast path).

        With ``owners``, the columns are a whole bulk chunk shared by
        every rank's store and this store's rows are those with
        ``owners == rank`` (``count`` of them, if the caller knows): the
        store keeps a reference to the columns, not a copy, and applies
        the filter only when it materialises them.  The columns must not
        be written to while pending.

        The buffers are invisible to the classic API until
        :meth:`flush_bulk` runs — every classic accessor triggers it
        lazily, replaying the buffered edges in append order through the
        exact ``insert_edge`` path (dedup, weight overwrite, promotion),
        so correctness is by construction and only the *timing* of the
        per-edge work moves.
        """
        n = len(src)
        columns = (dst, weights) if owners is None else (dst, weights, owners)
        if any(len(c) != n for c in columns):
            raise ValueError("bulk_append_edges column length mismatch")
        if count is None:
            count = n if owners is None else int(np.count_nonzero(owners == rank))
        if not count:
            return
        self._pending.append(
            (
                np.asarray(src, dtype=np.int64),
                np.asarray(dst, dtype=np.int64),
                np.asarray(weights, dtype=np.int64),
                owners,
                rank,
            )
        )
        self._pending_count += count

    @property
    def bulk_pending(self) -> int:
        """Edges appended in bulk but not yet materialised."""
        return self._pending_count

    def flush_bulk(self) -> int:
        """Materialise the append buffers now; returns edges replayed."""
        n = self._pending_count
        if n:
            self._flush_pending()
        return n

    def _flush_pending(self) -> None:
        pending, self._pending = self._pending, []
        self._pending_count = 0
        insert = self.insert_edge
        for srcs, dsts, ws, owners, rank in pending:
            if owners is not None:
                mine = owners == rank
                srcs, dsts, ws = srcs[mine], dsts[mine], ws[mine]
            for s, d, w in zip(srcs.tolist(), dsts.tolist(), ws.tolist()):
                insert(s, d, w)

    # ------------------------------------------------------------------
    # edge level
    # ------------------------------------------------------------------
    def insert_edge(self, src: int, dst: int, weight: int = 1) -> bool:
        """Insert directed edge ``src -> dst``; returns True iff new.

        Re-inserting an existing edge overwrites its weight (attribute
        update, which the paper treats "similar to an addition").
        """
        if self._pending_count:
            self._flush_pending()
        # One index probe per insert: the vertex is created on a miss.
        slot = self._slot_of(src)
        if slot < 0:
            slot = self._add_vertex(src)
        adj = self._adj[slot]
        if isinstance(adj, RobinHoodMap):
            new = adj.put(dst, weight)
            if new:
                self._num_edges += 1
                self.stats.edge_inserts += 1
            else:
                self.stats.duplicate_inserts += 1
            return new
        # low-degree tier
        pos = adj.find(dst)
        self.stats.low_degree_scans += pos + 1 if pos >= 0 else len(adj.nbrs)
        if pos >= 0:
            adj.weights[pos] = weight
            self.stats.duplicate_inserts += 1
            return False
        adj.nbrs.append(dst)
        adj.weights.append(weight)
        self._num_edges += 1
        self.stats.edge_inserts += 1
        if len(adj.nbrs) >= self.promote_threshold:
            self._promote(slot, adj)
        return True

    def _promote(self, slot: int, adj: _LowDegreeAdjacency) -> None:
        table = RobinHoodMap(initial_capacity=2 * self.promote_threshold)
        for nbr, w in zip(adj.nbrs, adj.weights):
            table.put(nbr, w)
        self._adj[slot] = table
        self.stats.promotions += 1

    def delete_edge(self, src: int, dst: int) -> bool:
        """Remove directed edge ``src -> dst``; returns True iff present.

        High-degree vertices are not demoted back to the compact tier
        (matching the promote-only behaviour of DegAwareRHH).
        """
        if self._pending_count:
            self._flush_pending()
        slot = self._slot_of(src)
        if slot < 0:
            return False
        adj = self._adj[slot]
        if isinstance(adj, RobinHoodMap):
            removed = adj.delete(dst)
        else:
            pos = adj.find(dst)
            self.stats.low_degree_scans += pos + 1 if pos >= 0 else len(adj.nbrs)
            if pos < 0:
                removed = False
            else:
                adj.nbrs.pop(pos)
                adj.weights.pop(pos)
                removed = True
        if removed:
            self._num_edges -= 1
            self.stats.edge_deletes += 1
        return removed

    def has_edge(self, src: int, dst: int) -> bool:
        return self.edge_weight(src, dst) is not None

    def edge_weight(self, src: int, dst: int) -> int | None:
        """Weight of ``src -> dst``, or None if the edge is absent."""
        if self._pending_count:
            self._flush_pending()
        slot = self._slot_of(src)
        if slot < 0:
            return None
        adj = self._adj[slot]
        if isinstance(adj, RobinHoodMap):
            return adj.get(dst)
        pos = adj.find(dst)
        self.stats.low_degree_scans += pos + 1 if pos >= 0 else len(adj.nbrs)
        return adj.weights[pos] if pos >= 0 else None

    def degree(self, src: int) -> int:
        if self._pending_count:
            self._flush_pending()
        slot = self._slot_of(src)
        if slot < 0:
            return 0
        adj = self._adj[slot]
        return len(adj) if isinstance(adj, RobinHoodMap) else len(adj.nbrs)

    def neighbors(self, src: int) -> Iterator[tuple[int, int]]:
        """Iterate ``(neighbour, weight)`` pairs of ``src``.

        Low-degree vertices iterate in insertion order; promoted vertices
        iterate in table order.  Mutating during iteration is undefined.
        """
        if self._pending_count:
            self._flush_pending()
        slot = self._slot_of(src)
        if slot < 0:
            return iter(())
        adj = self._adj[slot]
        if isinstance(adj, RobinHoodMap):
            return adj.items()
        return iter(zip(list(adj.nbrs), list(adj.weights)))

    def neighbors_arrays(self, src: int) -> tuple[list[int], list[int]]:
        """``src``'s adjacency as parallel ``(nbrs, weights)`` lists.

        The fast path for bulk fan-out emission: on the low-degree tier
        the *internal* parallel lists are returned directly — no pair
        tuples, no copies.  The lists are borrowed, read-only views:
        callers must fully consume them before any store mutation (same
        contract as :meth:`neighbors`' "mutating during iteration is
        undefined").  Promoted vertices materialise fresh lists from the
        hash table.
        """
        if self._pending_count:
            self._flush_pending()
        slot = self._slot_of(src)
        if slot < 0:
            return [], []
        adj = self._adj[slot]
        if isinstance(adj, RobinHoodMap):
            nbrs: list[int] = []
            weights: list[int] = []
            for nbr, w in adj.items():
                nbrs.append(nbr)
                weights.append(w)
            return nbrs, weights
        return adj.nbrs, adj.weights

    def edges(self) -> Iterable[tuple[int, int, int]]:
        """Iterate all stored directed edges as ``(src, dst, weight)``."""
        if self._pending_count:
            self._flush_pending()
        for vid in self._vids:
            for dst, w in self.neighbors(vid):
                yield vid, dst, w

    def is_promoted(self, src: int) -> bool:
        """True if ``src``'s adjacency lives in the high-degree tier."""
        if self._pending_count:
            self._flush_pending()
        slot = self._slot_of(src)
        return slot >= 0 and isinstance(self._adj[slot], RobinHoodMap)

    def approx_bytes(self) -> int:
        """O(1) estimate of the store's memory footprint, used by the
        cost model's NVRAM-spill fraction (§III-B).

        Per vertex: index entry + container header (~88 B); per stored
        edge: neighbour id + weight + container slack (~40 B); promoted
        tables carry extra open-addressing slack (~24 B per threshold
        slot at promotion time).  Pending bulk-append edges count at
        their packed column footprint (3 x int64) per row this store
        owns, without forcing a flush — whether the columns are its own
        or a chunk shared with the other ranks' stores.
        """
        return (
            88 * len(self._vids)
            + 40 * self._num_edges
            + 24 * self.promote_threshold * self.stats.promotions
            + 24 * self._pending_count
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"DegAwareRHH(vertices={self.num_vertices}, edges={self._num_edges}, "
            f"promotions={self.stats.promotions})"
        )
