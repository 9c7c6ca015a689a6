"""Micro-benchmarks — wall-clock cost of the core building blocks.

Unlike the figure benches (which report virtual time), these measure the
*simulator's own* throughput so regressions in the hot paths show up in
pytest-benchmark's comparison output.
"""

import numpy as np
import pytest

from harness import SEEDS

from repro import (
    DynamicEngine,
    EngineConfig,
    IncrementalBFS,
    IncrementalCC,
    split_streams,
)
from repro.generators import rmat_edges
from repro.storage.csr import CSRGraph
from repro.storage.robin_hood import RobinHoodMap
from repro.staticalgs import static_bfs


@pytest.fixture(scope="module")
def rmat_workload():
    rng = SEEDS.rng("micro")
    return rmat_edges(11, edge_factor=8, rng=rng)


def test_micro_robinhood_put_get(benchmark):
    keys = SEEDS.rng("micro-rhh").integers(0, 1 << 40, size=20_000)

    def workload():
        m = RobinHoodMap(initial_capacity=1 << 12)
        for k in keys:
            m.put(int(k), 1)
        hits = sum(1 for k in keys if m.get(int(k)) is not None)
        return hits

    hits = benchmark(workload)
    assert hits == len(keys)


def test_micro_engine_bfs_ingestion(benchmark, rmat_workload):
    src, dst = rmat_workload

    def workload():
        e = DynamicEngine([IncrementalBFS()], EngineConfig(n_ranks=8))
        e.init_program("bfs", int(src[0]))
        e.attach_streams(split_streams(src, dst, 8, rng=np.random.default_rng(0)))
        e.run()
        return e.total_counters().source_events

    events = benchmark.pedantic(workload, iterations=1, rounds=3)
    assert events == len(src)


def test_micro_engine_construction_only(benchmark, rmat_workload):
    src, dst = rmat_workload

    def workload():
        e = DynamicEngine([], EngineConfig(n_ranks=8))
        e.attach_streams(split_streams(src, dst, 8, rng=np.random.default_rng(0)))
        e.run()
        return e.num_edges

    edges = benchmark.pedantic(workload, iterations=1, rounds=3)
    assert edges > 0


def test_micro_engine_cc(benchmark, rmat_workload):
    src, dst = rmat_workload

    def workload():
        e = DynamicEngine([IncrementalCC()], EngineConfig(n_ranks=8))
        e.attach_streams(split_streams(src, dst, 8, rng=np.random.default_rng(0)))
        e.run()
        return len(e.state("cc"))

    n = benchmark.pedantic(workload, iterations=1, rounds=3)
    assert n > 0


@pytest.mark.parametrize("vertex_index", ["robinhood", "dict"])
def test_micro_degaware_slot_lookup(benchmark, vertex_index):
    # Hot-path regression guard for DegAwareRHH._slot_of: the index
    # strategy is bound once at construction (not string-compared per
    # lookup), so vertex slot resolution is one attribute call.
    from repro.storage.degaware import DegAwareRHH

    rng = SEEDS.rng("micro-slot")
    src = rng.integers(0, 4000, size=20_000)
    dst = rng.integers(0, 4000, size=20_000)
    store = DegAwareRHH(8, vertex_index)
    for s, d in zip(src.tolist(), dst.tolist()):
        store.insert_edge(s, d, 1)
    probe = src.tolist()

    def workload():
        total = 0
        for v in probe:
            total += store.degree(v)
        return total

    total = benchmark(workload)
    assert total > 0


def test_micro_robinhood_scalar_ops(benchmark):
    # The per-event path reads the table one slot at a time; this is the
    # cost of that access pattern on the slot containers (growth from
    # the default capacity, hits, and backward-shift deletes included).
    keys = SEEDS.rng("micro-rhh-ops").integers(0, 1 << 40, size=20_000).tolist()

    def workload():
        m = RobinHoodMap()
        for k in keys:
            m.put(k, 1)
        hits = sum(m.get(k, 0) for k in keys)
        for k in keys:
            m.delete(k)
        return hits, len(m)

    hits, left = benchmark(workload)
    assert hits == len(keys) and left == 0


def test_micro_csr_build(benchmark, rmat_workload):
    src, dst = rmat_workload
    graph = benchmark(lambda: CSRGraph.from_edges(src, dst, symmetrize=True))
    assert graph.num_edges == 2 * len(src)


def test_micro_static_bfs(benchmark, rmat_workload):
    src, dst = rmat_workload
    graph = CSRGraph.from_edges(src, dst, symmetrize=True)
    levels, _ = benchmark(lambda: static_bfs(graph, int(src[0])))
    assert len(levels) > 1
