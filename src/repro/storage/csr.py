"""Static Compressed Sparse Row graph — the paper's static baseline.

Figure 3 compares "static construction + static BFS" against the dynamic
pipeline.  Static construction, as in the paper, includes compressing the
input ``[src, dst]`` pairs into CSR (a sort + offset build) and benefits
from knowing vertex degrees a priori; this is exactly why the paper finds
static construction ~2x faster per edge than dynamic ingestion, and static
algorithms faster on CSR than on the dynamic structure (better locality,
pre-sized state buffers).

Vertex IDs are *not* assumed dense: construction builds a dense relabeling
(``vertex_ids`` maps dense index -> original ID), mirroring the relabel
pass a real loader performs.  All arrays are NumPy; neighbour access is a
zero-copy slice.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class CSRBuildStats:
    """Operation counts from CSR construction, fed to the cost model."""

    num_input_edges: int
    num_vertices: int
    num_stored_edges: int
    symmetrized: bool


class CSRGraph:
    """Immutable CSR adjacency built from edge arrays.

    Use :meth:`from_edges` to construct.  Attributes:

    * ``offsets`` — int64 array of length ``num_vertices + 1``;
    * ``targets`` — int64 array of dense neighbour indices;
    * ``weights`` — int64 array parallel to ``targets``;
    * ``vertex_ids`` — dense index -> original vertex ID.
    """

    def __init__(
        self,
        offsets: np.ndarray,
        targets: np.ndarray,
        weights: np.ndarray,
        vertex_ids: np.ndarray,
        build_stats: CSRBuildStats,
    ):
        self.offsets = offsets
        self.targets = targets
        self.weights = weights
        self.vertex_ids = vertex_ids
        self.build_stats = build_stats
        # original ID -> dense index (kept as a dict: lookups are only on
        # the query path, never inside traversal inner loops)
        self._id_to_dense = {int(v): i for i, v in enumerate(vertex_ids)}

    # ------------------------------------------------------------------
    @classmethod
    def from_edges(
        cls,
        src: np.ndarray,
        dst: np.ndarray,
        weights: np.ndarray | None = None,
        symmetrize: bool = False,
    ) -> "CSRGraph":
        """Build a CSR graph from parallel ``src``/``dst`` (original IDs).

        ``symmetrize=True`` adds the reverse of every edge (the paper makes
        graphs "undirected with reverse edges where needed").  Duplicate
        edges are preserved — like the paper's loaders, CSR construction
        does not deduplicate; callers control multiplicity upstream.
        """
        src = np.asarray(src, dtype=np.int64)
        dst = np.asarray(dst, dtype=np.int64)
        if src.shape != dst.shape:
            raise ValueError(f"src/dst length mismatch: {src.shape} vs {dst.shape}")
        n_input = len(src)
        if weights is None:
            weights = np.ones(n_input, dtype=np.int64)
        else:
            weights = np.asarray(weights, dtype=np.int64)
            if weights.shape != src.shape:
                raise ValueError("weights must parallel src/dst")
        if symmetrize:
            src, dst = np.concatenate([src, dst]), np.concatenate([dst, src])
            weights = np.concatenate([weights, weights])

        # Dense relabeling (the "compression from input pairs" step).
        all_ids = np.unique(np.concatenate([src, dst])) if n_input else np.empty(0, np.int64)
        n = len(all_ids)
        src_d = np.searchsorted(all_ids, src)
        dst_d = np.searchsorted(all_ids, dst)

        # Sort edges by source, then build offsets with bincount/cumsum.
        order = np.argsort(src_d, kind="stable")
        src_sorted = src_d[order]
        targets = dst_d[order]
        w_sorted = weights[order]
        counts = np.bincount(src_sorted, minlength=n) if n else np.empty(0, np.int64)
        offsets = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(counts, out=offsets[1:])

        stats = CSRBuildStats(
            num_input_edges=n_input,
            num_vertices=n,
            num_stored_edges=len(targets),
            symmetrized=symmetrize,
        )
        return cls(offsets, targets.astype(np.int64), w_sorted, all_ids, stats)

    # ------------------------------------------------------------------
    @property
    def num_vertices(self) -> int:
        return len(self.offsets) - 1

    @property
    def num_edges(self) -> int:
        """Number of stored directed edges (after any symmetrization)."""
        return len(self.targets)

    def dense_index(self, vertex_id: int) -> int:
        """Dense index of an original vertex ID (KeyError if absent)."""
        return self._id_to_dense[int(vertex_id)]

    def has_vertex(self, vertex_id: int) -> bool:
        return int(vertex_id) in self._id_to_dense

    def degree(self, dense_v: int) -> int:
        return int(self.offsets[dense_v + 1] - self.offsets[dense_v])

    def neighbors(self, dense_v: int) -> np.ndarray:
        """Dense neighbour indices of ``dense_v`` (zero-copy slice)."""
        return self.targets[self.offsets[dense_v] : self.offsets[dense_v + 1]]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"CSRGraph(V={self.num_vertices}, E={self.num_edges})"
