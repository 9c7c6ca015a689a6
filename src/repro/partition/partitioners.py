"""Owner-of-vertex partitioning strategies.

All partitioners are pure functions of the vertex ID: "as each process
uses the same hash function, any process can determine in constant time
which process owns a vertex" (§III-C).  This purity is what allows every
rank to ingest edges independently and route them without a directory
service — the key enabler of split-stream ingestion.
"""

from __future__ import annotations

import numpy as np

from repro.util.hashing import stable_vertex_hash, stable_vertex_hash_array
from repro.util.validate import check_positive


class Partitioner:
    """Maps vertex IDs to owning ranks; immutable after construction."""

    n_ranks: int

    def owner(self, vertex_id: int) -> int:
        """Rank that owns ``vertex_id`` (in ``[0, n_ranks)``)."""
        raise NotImplementedError

    def owner_array(self, vertex_ids: np.ndarray) -> np.ndarray:
        """Vectorised :meth:`owner`; default falls back to the scalar."""
        return np.fromiter(
            (self.owner(int(v)) for v in vertex_ids), dtype=np.int64, count=len(vertex_ids)
        )


class ConsistentHashPartitioner(Partitioner):
    """The paper's partitioner: ``hash(V) mod P`` with a mixed hash.

    ``salt`` draws an independent hash function, so experiments can check
    sensitivity to the particular hash draw.
    """

    def __init__(self, n_ranks: int, salt: int = 0):
        check_positive("n_ranks", n_ranks)
        self.n_ranks = int(n_ranks)
        self.salt = int(salt)
        # Ownership is a pure function of the ID, so the scalar path
        # (per-event routing; bulk and mp use owner_array) pays the
        # pure-Python 64-bit mix once per distinct vertex.
        self._owners: dict[int, int] = {}

    def owner(self, vertex_id: int) -> int:
        rank = self._owners.get(vertex_id)
        if rank is None:
            rank = stable_vertex_hash(vertex_id, self.salt) % self.n_ranks
            self._owners[vertex_id] = rank
        return rank

    def owner_array(self, vertex_ids: np.ndarray) -> np.ndarray:
        hashes = stable_vertex_hash_array(np.asarray(vertex_ids, dtype=np.int64), self.salt)
        return (hashes % np.uint64(self.n_ranks)).astype(np.int64)

    def __repr__(self) -> str:  # pragma: no cover
        return f"ConsistentHashPartitioner(n_ranks={self.n_ranks}, salt={self.salt})"


class ModuloPartitioner(Partitioner):
    """Naive ``V mod P`` — a baseline showing why mixing matters.

    On generator output with structured IDs (e.g. RMAT quadrant bias),
    raw modulo correlates rank with graph structure; the ablation bench
    quantifies the resulting imbalance.
    """

    def __init__(self, n_ranks: int):
        check_positive("n_ranks", n_ranks)
        self.n_ranks = int(n_ranks)

    def owner(self, vertex_id: int) -> int:
        return int(vertex_id) % self.n_ranks

    def owner_array(self, vertex_ids: np.ndarray) -> np.ndarray:
        return np.asarray(vertex_ids, dtype=np.int64) % self.n_ranks


class BlockPartitioner(Partitioner):
    """Contiguous blocks over ``[0, num_vertices)`` — the static-layout
    baseline.  Requires the vertex universe size up front, which is
    exactly what a *dynamic* graph cannot provide (§III-C); it exists to
    let the ablation quantify what that a-priori knowledge buys."""

    def __init__(self, n_ranks: int, num_vertices: int):
        check_positive("n_ranks", n_ranks)
        check_positive("num_vertices", num_vertices)
        self.n_ranks = int(n_ranks)
        self.num_vertices = int(num_vertices)
        self._block = -(-self.num_vertices // self.n_ranks)  # ceil div

    def owner(self, vertex_id: int) -> int:
        v = int(vertex_id)
        if not 0 <= v < self.num_vertices:
            raise ValueError(
                f"vertex {v} outside the static universe [0, {self.num_vertices})"
            )
        return v // self._block

    def owner_array(self, vertex_ids: np.ndarray) -> np.ndarray:
        v = np.asarray(vertex_ids, dtype=np.int64)
        if ((v < 0) | (v >= self.num_vertices)).any():
            raise ValueError("vertex outside the static universe")
        return v // self._block
