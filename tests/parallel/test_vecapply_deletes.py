"""Unit tests for the VecApplier delete path (§VI-B on the vec mirror).

``apply_deletes`` is all-or-nothing per K_DEL slab: every named edge —
both directed twins — must be provably non-support under every
program's ``delete_safe`` analysis, judged on post-fold values.  On
success the twins retire from the edge mirror with no value motion; any
unsafe edge (or a kernel declining) leaves the mirror untouched and the
worker de-opts to per-event generational dispatch.
"""

import numpy as np

from repro import (
    DynamicEngine,
    EngineConfig,
    IncrementalBFS,
    IncrementalCC,
)
from repro.parallel.codec import ADD_DTYPE, DEL_DTYPE, Codec
from repro.parallel.shm import K_ADD
from repro.parallel.vecapply import VecApplier


class LoopStub:
    """Records the emissions a drain would put on the wire."""

    def __init__(self):
        self.adds = []
        self.radds = []
        self.updates = []

    def queue_add(self, src, dst, weights):
        self.adds.append((src, dst, weights))

    def queue_radd(self, dst, src, weights, vals):
        self.radds.append((dst, src, weights, vals))

    def queue_update(self, p, targets, senders, vals, weights):
        self.updates.append((p, targets, senders, vals, weights))


def add_slab(edges):
    """One K_ADD slab over ``[(src, dst, w), ...]`` directed records."""
    arr = np.empty(len(edges), dtype=ADD_DTYPE)
    arr["src"] = [e[0] for e in edges]
    arr["dst"] = [e[1] for e in edges]
    arr["weight"] = [e[2] for e in edges]
    arr["ver"] = 0
    return [(K_ADD, len(arr), 0, arr)]


def del_recs(pairs):
    arr = np.empty(len(pairs), dtype=DEL_DTYPE)
    arr["src"] = [p[0] for p in pairs]
    arr["dst"] = [p[1] for p in pairs]
    arr["ver"] = 0
    return arr


def bfs_applier():
    """Single-rank BFS applier over the triangle 0-1, 1-2, 0-2 with the
    source seeded at 0 (level 1): levels are 0->1, 1->2, 2->2."""
    engine = DynamicEngine(
        [IncrementalBFS()], EngineConfig(n_ranks=1, undirected=True)
    )
    applier = VecApplier(engine, 0, Codec(engine.programs))
    loop = LoopStub()
    # Seed through the real per-event write path: the engine's value
    # dict gets the source level and the hook mirrors it as dirty state
    # folded on the next drain.
    engine.init_program("bfs", 0)
    engine.run()
    applier.drain(add_slab([(0, 1, 1), (1, 2, 1), (0, 2, 1)]), loop)
    return engine, applier, loop


class TestApplyDeletes:
    def test_non_support_edge_retires_vectorized(self):
        engine, applier, loop = bfs_applier()
        before = applier.num_edges
        # 1-2 offers 2+1=3 to a head already at 2: a losing candidate.
        assert applier.apply_deletes(del_recs([(1, 2)]), loop) is True
        assert applier.num_edges == before - 2  # both directed twins
        assert engine.counters[0].edge_deletes == 2
        # The fixpoint is untouched: folded values survive in the dicts.
        assert engine.value_of("bfs", 0) == 1
        assert engine.value_of("bfs", 1) == 2
        assert engine.value_of("bfs", 2) == 2

    def test_support_edge_declines_and_leaves_mirror_untouched(self):
        engine, applier, loop = bfs_applier()
        before = applier.num_edges
        # 0-1 offers 1+1=2 == head value: possibly the sole support.
        assert applier.apply_deletes(del_recs([(0, 1)]), loop) is False
        assert applier.num_edges == before
        assert engine.counters[0].edge_deletes == 0

    def test_one_unsafe_edge_fails_the_whole_slab(self):
        engine, applier, loop = bfs_applier()
        before = applier.num_edges
        recs = del_recs([(1, 2), (0, 1)])  # safe + unsafe together
        assert applier.apply_deletes(recs, loop) is False
        assert applier.num_edges == before

    def test_absent_edge_is_vacuously_safe(self):
        engine, applier, loop = bfs_applier()
        before = applier.num_edges
        assert applier.apply_deletes(del_recs([(7, 8)]), loop) is True
        assert applier.num_edges == before
        assert engine.counters[0].edge_deletes == 0

    def test_pairs_outside_the_universe_are_a_noop(self):
        # The universe lookup is checked: an id it never saw (above,
        # below or between the known 0..2) must not resolve to the
        # position of the vertex it sorts next to and alias a real edge.
        engine, applier, loop = bfs_applier()
        before = sorted(applier.edges())
        unknown = del_recs([(7, 8), (1, 99), (99, 1), (-5, 2), (3, 0)])
        assert applier.apply_deletes(unknown, loop) is True
        assert sorted(applier.edges()) == before
        assert engine.counters[0].edge_deletes == 0
        assert applier.retire_edges(
            np.array([1, 99, 3], dtype=np.int64), np.array([99, 0, 3], dtype=np.int64)
        ) == 0
        assert sorted(applier.edges()) == before

    def test_kernel_without_analysis_always_declines(self):
        # MaxLabelKernel (CC) returns None from delete_safe: every
        # named delete must force the de-opt path.
        engine = DynamicEngine(
            [IncrementalCC()], EngineConfig(n_ranks=1, undirected=True)
        )
        applier = VecApplier(engine, 0, Codec(engine.programs))
        loop = LoopStub()
        applier.drain(add_slab([(0, 1, 1), (1, 2, 1), (0, 2, 1)]), loop)
        assert applier.apply_deletes(del_recs([(1, 2)]), loop) is False
        assert applier.num_edges == 6


class TestRetireEdges:
    def test_retires_only_named_present_pairs(self):
        _, applier, _ = bfs_applier()
        n = applier.retire_edges(
            np.array([1, 9], dtype=np.int64), np.array([2, 9], dtype=np.int64)
        )
        assert n == 1  # directed (1, 2) present, (9, 9) absent
        assert (1, 2) not in {(t, h) for t, h, _ in applier.edges()}
        assert (2, 1) in {(t, h) for t, h, _ in applier.edges()}

    def test_empty_input_is_a_noop(self):
        _, applier, _ = bfs_applier()
        assert applier.retire_edges(
            np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
        ) == 0


class TestDeopt:
    def test_deopt_replays_mirror_into_store_and_detaches_hooks(self):
        engine, applier, loop = bfs_applier()
        mirror = sorted(applier.edges())
        applier.deopt(loop)
        store = engine.stores[0]
        assert sorted(store.edges()) == mirror
        assert engine._hk_write == ()
        assert engine._hk_insert == ()
        # Folded values were written back for the per-event path.
        assert engine.value_of("bfs", 2) == 2
