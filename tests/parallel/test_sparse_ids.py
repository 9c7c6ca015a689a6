"""Sparse vertex ids reach their positions through the sorted index.

RMAT ids spread to a stride of 2^33 lie far outside the direct id
table's bound, so the first batch of either vectorized path switches its
universe to the sorted index, and every later id is placed there.  The
DES bulk replay and two ``VecCluster`` ranks on such ids must equal the
per-event engine on the same streams and the static oracle.
"""

import numpy as np
import pytest

from repro import (
    DynamicEngine,
    EngineConfig,
    IncrementalBFS,
    IncrementalCC,
    IncrementalSSSP,
)
from repro.analytics import verify_bfs, verify_cc, verify_sssp
from repro.events.stream import ArrayEventStream
from repro.generators.rmat import rmat_edges
from repro.runtime.plugins import BulkIngestPlugin
from vec_cluster import VecCluster

N_RANKS = 2
STRIDE = 1 << 33


def programs():
    return [IncrementalBFS(), IncrementalSSSP(), IncrementalCC()]


def sparse_columns():
    src, dst = rmat_edges(9, edge_factor=8, rng=np.random.default_rng(41))
    lo, hi = np.minimum(src, dst), np.maximum(src, dst)
    w = (lo * 31 + hi) % 7 + 1  # one weight per pair: the REMO re-add contract
    src, dst = src * STRIDE + 5, dst * STRIDE + 5
    return [(src[r::N_RANKS], dst[r::N_RANKS], w[r::N_RANKS]) for r in range(N_RANKS)]


def seeded(engine, source):
    for name in ("bfs", "sssp"):
        engine.init_program(name, source)
    engine.run()
    return engine


@pytest.fixture(scope="module")
def per_event():
    columns = sparse_columns()
    source = int(columns[0][0][0])
    des = seeded(DynamicEngine(programs(), EngineConfig(n_ranks=N_RANKS)), source)
    des.attach_streams([ArrayEventStream(*cols) for cols in columns])
    des.run()
    return columns, source, des


def check(run, des, source):
    for name in ("bfs", "sssp", "cc"):
        assert run.state(name) == des.state(name), name
    assert verify_bfs(run, "bfs", source) == []
    assert verify_sssp(run, "sssp", source) == []
    assert verify_cc(run, "cc") == []


def test_a_bulk_replay_on_sparse_ids_equals_the_per_event_engine(per_event):
    columns, source, des = per_event
    config = EngineConfig(n_ranks=N_RANKS)
    eng = seeded(DynamicEngine(programs(), config, plugins=[BulkIngestPlugin(256)]), source)
    eng.attach_streams([ArrayEventStream(*cols) for cols in columns])
    eng.run()
    assert eng.total_counters().bulk_events == sum(len(c[0]) for c in columns)
    assert eng._bulk.state.universe._table is None  # the sorted index placed them
    check(eng, des, source)


def test_vec_ranks_on_sparse_ids_equal_the_per_event_engine(per_event):
    columns, source, des = per_event
    cluster = VecCluster(programs, [("bfs", source), ("sssp", source)], chunk=128)
    try:
        cluster.run(columns)
        for rank, applier in enumerate(cluster.appliers):
            assert applier.stats["kernel_records"] > 0
            assert applier.state.universe._table is None
            inserts = cluster.engines[rank].counters[rank].edge_inserts
            assert inserts == des.counters[rank].edge_inserts
        check(cluster, des, source)
    finally:
        cluster.close()
