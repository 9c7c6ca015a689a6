"""The vec drain across its mirror's fold boundary, and what a drain costs.

Two ``VecApplier`` ranks are driven in one process over real ``ShmLoop``
rings — the worker's data path minus the processes — with many small,
equal ingest chunks, so each rank's edge mirror folds its delta into its
base several times while ADD, RADD and UPDATE slabs keep arriving.  The
result must equal a per-event ``DynamicEngine`` on the same streams,
entry for entry, and the always-on ``mirror_*`` counts must show that no
drain rebuilt the graph.
"""

import numpy as np
import pytest

from repro import DynamicEngine, EngineConfig, IncrementalBFS, IncrementalSSSP
from repro.events.stream import ArrayEventStream, split_streams
from repro.generators.rmat import rmat_edges
from repro.parallel import WireConfig, run_parallel
from repro.parallel.codec import Codec
from repro.parallel.loop import ShmLoop
from repro.parallel.shm import K_ADD, K_RADD, K_UPDATE, create_ring
from repro.parallel.vecapply import VecApplier

N_RANKS = 2
CHUNK = 48  # events per ingest: >= 64 equal ADD slabs per rank
SOURCE = 0


def programs():
    return [IncrementalBFS(), IncrementalSSSP()]


def streams_columns():
    src, dst = rmat_edges(9, edge_factor=14, rng=np.random.default_rng(21))
    keep = src != dst
    src, dst = src[keep], dst[keep]
    lo, hi = np.minimum(src, dst), np.maximum(src, dst)
    w = (lo * 31 + hi) % 7 + 1  # one weight per pair: the REMO re-add contract
    perm = np.random.default_rng(22).permutation(len(src))
    src, dst, w = src[perm], dst[perm], w[perm]
    return [(src[r::N_RANKS], dst[r::N_RANKS], w[r::N_RANKS]) for r in range(N_RANKS)]


class VecCluster:
    """Both ranks of a vectorized run, stepped by hand."""

    def __init__(self):
        self.rings = {
            (a, b): create_ring(1 << 22) for a in range(N_RANKS) for b in range(N_RANKS) if a != b
        }
        self.engines, self.appliers, self.loops = [], [], []
        for rank in range(N_RANKS):
            engine = DynamicEngine(programs(), EngineConfig(n_ranks=N_RANKS))
            codec = Codec(engine.programs)
            loop = ShmLoop(
                rank, N_RANKS, lambda dst, frame: None,
                {o: self.rings[(rank, o)] for o in range(N_RANKS) if o != rank},
                codec, engine.partitioner, batch_max=64,
            )
            # As in the worker: a rank's INITs run first (seeds through
            # the real write path), then its applier folds the dicts.
            if engine.partitioner.owner(SOURCE) == rank:
                for name in ("bfs", "sssp"):
                    engine.init_program(name, SOURCE)
                engine.run()
            self.engines.append(engine)
            self.appliers.append(VecApplier(engine, rank, codec))
            self.loops.append(loop)
        self.slab_kinds = [set() for _ in range(N_RANKS)]

    def close(self):
        for ring in self.rings.values():
            ring.destroy()

    def deliver(self) -> bool:
        """One turn of every rank: flush, then one drain of what arrived
        together with the local rows its last ingest held."""
        moved = False
        for rank in range(N_RANKS):
            self.loops[rank].flush_all()
            self.loops[rank].pump()
        for rank in range(N_RANKS):
            applier, rings, slabs = self.appliers[rank], [], []
            for other in range(N_RANKS):
                if other != rank:
                    rings.append(self.rings[(other, rank)])
                    slabs += rings[-1].pop_slabs()
            if slabs or applier.holding:
                self.slab_kinds[rank].update(kind for kind, *_ in slabs)
                applier.drain(slabs, self.loops[rank])
                moved = True
            for ring in rings:
                ring.commit()
        return moved or any(loop.outbuffered for loop in self.loops)

    def run(self, columns):
        cursors = [0] * N_RANKS
        live = True
        while live:
            live = False
            for rank, (src, dst, w) in enumerate(columns):
                lo = cursors[rank]
                if lo < len(src):
                    hi = cursors[rank] = lo + CHUNK
                    self.appliers[rank].ingest(src[lo:hi], dst[lo:hi], w[lo:hi], self.loops[rank])
                    self.engines[rank].counters[rank].source_events += len(src[lo:hi])
                    live = True
            live = self.deliver() or live
        for applier in self.appliers:
            applier.write_back()  # the harvest: dicts are read from here on


@pytest.fixture(scope="module")
def converged():
    columns = streams_columns()
    cluster = VecCluster()
    cluster.run(columns)
    des = DynamicEngine(programs(), EngineConfig(n_ranks=N_RANKS))
    for name in ("bfs", "sssp"):
        des.init_program(name, SOURCE)
    des.attach_streams([ArrayEventStream(*cols) for cols in columns])
    des.run()
    yield cluster, des, columns
    cluster.close()


def test_vec_ranks_equal_the_per_event_engine_across_folds(converged):
    cluster, des, columns = converged
    for rank in range(N_RANKS):
        applier, engine = cluster.appliers[rank], cluster.engines[rank]
        stats = applier.stats
        assert len(columns[rank][0]) >= 64 * CHUNK
        assert stats["kernel_batches"] >= 64
        assert stats["mirror_folds"] >= 3
        assert {K_RADD, K_UPDATE} <= cluster.slab_kinds[rank] <= {K_ADD, K_RADD, K_UPDATE}
        # Values *and* which entries exist: the written mask reproduces
        # the per-event first-touch seeds.
        for p in range(2):
            assert engine.values[rank][p] == des.values[rank][p]
        assert engine.counters[rank].edge_inserts == des.counters[rank].edge_inserts
        assert sorted(applier.edges()) == sorted(des.stores[rank].edges())
        assert applier.num_edges == des.stores[rank].num_edges


def test_no_drain_rebuilt_the_graph(converged):
    """The complexity guard: a mirror that re-sorted (or re-indexed)
    every edge on every drain would move ``E * drains`` edge slots —
    here ``>= 64 E``.  Folds move a geometric series of base sizes and
    the delta stays below a quarter of the base."""
    cluster, _des, _columns = converged
    for applier in cluster.appliers:
        stats = applier.stats
        edges, drains = applier.num_edges, stats["kernel_batches"]
        assert stats["mirror_moved_edges"] <= 2 * edges * np.log2(drains)
        assert stats["mirror_folds"] <= 4 * np.log2(drains)


def test_mirror_counts_reach_the_parallel_result():
    src, dst = rmat_edges(9, edge_factor=8, rng=np.random.default_rng(3))
    res = run_parallel(
        [IncrementalBFS()],
        split_streams(src, dst, 2, rng=np.random.default_rng(4)),
        config=EngineConfig(n_ranks=2),
        wire=WireConfig(start_method="fork", ingest_chunk=256),
        init=[("bfs", int(src[0]), None)],
        timeout=60.0,
    )
    assert res.wire["kernel_records"] > 0
    assert res.wire["mirror_folds"] >= 2  # one per rank at the least
    edges = sum(info["num_edges"] for info in res.per_rank)
    assert edges <= res.wire["mirror_moved_edges"] <= 2 * edges * np.log2(
        res.wire["kernel_batches"]
    )
