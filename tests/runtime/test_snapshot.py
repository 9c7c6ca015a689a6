"""Tests for versioned (continuous) global state collection — §III-D."""

import numpy as np

from repro import (
    DegreeTracker,
    DynamicEngine,
    EngineConfig,
    IncrementalBFS,
    IncrementalCC,
    INF,
    ListEventStream,
    split_streams,
)
from repro.analytics import verify_bfs
from repro.events.types import ADD
from repro.generators import rmat_edges
from repro.staticalgs import static_bfs
from repro.storage.csr import CSRGraph


def rmat_engine(n_ranks, scale=8, seed=0, programs=None):
    rng = np.random.default_rng(seed)
    src, dst = rmat_edges(scale, edge_factor=8, rng=rng)
    progs = programs or [IncrementalBFS()]
    e = DynamicEngine(progs, EngineConfig(n_ranks=n_ranks))
    e.attach_streams(split_streams(src, dst, n_ranks, rng=rng))
    return e, src, dst


class TestCollectionBasics:
    def test_collection_completes_and_reports(self):
        e, src, _ = rmat_engine(4)
        e.init_program("bfs", int(src[0]))
        e.request_collection("bfs", at_time=1e-3)
        e.run()
        assert len(e.collection_results) == 1
        r = e.collection_results[0]
        assert r.completed_at > r.requested_at
        assert r.latency > 0
        assert r.probe_waves >= 2  # four-counter needs two agreeing waves
        assert r.vertices_collected == len(r.state)

    def test_collection_does_not_disturb_final_state(self):
        e, src, _ = rmat_engine(4, seed=1)
        source = int(src[0])
        e.init_program("bfs", source)
        e.request_collection("bfs", at_time=5e-4)
        e.run()
        assert verify_bfs(e, "bfs", source) == []

    def test_collection_after_quiescence_equals_final_state(self):
        e, src, _ = rmat_engine(2, seed=2)
        source = int(src[0])
        e.init_program("bfs", source)
        e.run()
        final = dict(e.state("bfs"))
        e.request_collection("bfs", at_time=e.loop.max_time() + 1.0)
        e.run()
        r = e.collection_results[0]
        assert r.state == final

    def test_snapshot_is_monotone_upper_bound_of_final(self):
        # BFS levels only decrease, so any prefix snapshot dominates the
        # final answer pointwise.
        e, src, _ = rmat_engine(8, seed=3)
        e.init_program("bfs", int(src[0]))
        e.request_collection("bfs", at_time=1e-3)
        e.run()
        snap = e.collection_results[0].state
        final = e.state("bfs")
        for v, val in snap.items():
            if val == 0:
                continue
            assert final.get(v, 0) != 0
            assert final[v] <= val

    def test_overlapping_collections_queue(self):
        # A request landing while another collection is active defers
        # until the active one concludes (one at a time, like the
        # paper's prototype).
        e, src, _ = rmat_engine(4, scale=10, seed=4)
        e.init_program("bfs", int(src[0]))
        e.request_collection("bfs", at_time=1e-4)
        e.request_collection("bfs", at_time=1.01e-4)  # while first active
        e.run()
        assert len(e.collection_results) == 2
        first, second = e.collection_results
        assert second.requested_at >= first.completed_at
        assert second.cut_version > first.cut_version

    def test_a_request_due_inside_the_last_epoch_begins_when_it_ends(self):
        # The first collection ends at 48.23 us, inside the action that
        # ran past 48 us, so the second request's alarm fires after it:
        # that collection begins at the end of the first, its epoch does
        # not overlap it, and its latency counts no time the first held.
        events = [(ADD, 2, 1, 1), (ADD, 1, 1, 1), (ADD, 2, 0, 1), (ADD, 1, 0, 1)]
        e = DynamicEngine([IncrementalCC()], EngineConfig(n_ranks=2))
        e.attach_streams([ListEventStream(events[k::2], stream_id=k) for k in (0, 1)])
        e.request_collection("cc", at_time=0.0)
        e.request_collection("cc", at_time=48e-6)
        e.run()
        first, second = e.collection_results
        assert first.completed_at > 48e-6
        assert second.requested_at == first.completed_at

    def test_sequential_collections_allowed(self):
        e, src, _ = rmat_engine(4, seed=5)
        e.init_program("bfs", int(src[0]))
        e.request_collection("bfs", at_time=5e-4)
        e.run()
        e.request_collection("bfs", at_time=e.loop.max_time() + 1e-3)
        e.run()
        assert len(e.collection_results) == 2
        a, b = e.collection_results
        assert b.cut_version > a.cut_version


class TestPrefixExactness:
    def test_single_rank_snapshot_equals_static_prefix(self):
        """On one rank the cut position fully determines the prefix: the
        snapshot must equal static BFS on exactly that prefix graph."""
        rng = np.random.default_rng(7)
        src, dst = rmat_edges(8, edge_factor=8, rng=rng)
        e = DynamicEngine([IncrementalBFS()], EngineConfig(n_ranks=1))
        source = int(src[0])
        e.init_program("bfs", source)
        e.attach_streams(split_streams(src, dst, 1))
        e.request_collection("bfs", at_time=2e-4)
        e.run()
        r = e.collection_results[0]
        k = e.cut_positions[r.collection_id][0]
        assert 0 < k < len(src)
        prefix = CSRGraph.from_edges(src[:k], dst[:k], symmetrize=True)
        expect, _ = static_bfs(prefix, source)
        got = {v: val for v, val in r.state.items() if 0 < val < INF}
        assert got == expect

    def test_multi_rank_snapshot_equals_static_on_cut_prefixes(self):
        """With per-rank cuts, the discretized graph is the union of each
        stream's prefix; the snapshot must match static BFS on it."""
        rng = np.random.default_rng(8)
        src, dst = rmat_edges(8, edge_factor=8, rng=rng)
        n_ranks = 4
        streams = split_streams(src, dst, n_ranks, rng=np.random.default_rng(9))
        # Keep replayable copies of each stream's event order.
        replay = [[ev for ev in list(s)] for s in streams]
        for s in streams:
            s.reset()
        e = DynamicEngine([IncrementalBFS()], EngineConfig(n_ranks=n_ranks))
        source = int(src[0])
        e.init_program("bfs", source)
        e.attach_streams(streams)
        e.request_collection("bfs", at_time=3e-4)
        e.run()
        r = e.collection_results[0]
        cuts = e.cut_positions[r.collection_id]
        pre_src, pre_dst = [], []
        for rank, events in enumerate(replay):
            for _, s_, d_, _w in events[: cuts[rank]]:
                pre_src.append(s_)
                pre_dst.append(d_)
        prefix = CSRGraph.from_edges(
            np.array(pre_src), np.array(pre_dst), symmetrize=True
        )
        expect, _ = static_bfs(prefix, source)
        got = {v: val for v, val in r.state.items() if 0 < val < INF}
        assert got == expect


class TestReplayModePrograms:
    def test_degree_collection_completes(self):
        deg = DegreeTracker()
        e, src, dst = rmat_engine(4, seed=11, programs=[deg])
        e.request_collection("degree", at_time=1e-3)
        e.run()
        r = e.collection_results[0]
        assert r.vertices_collected > 0
        # Post-run live degrees match the store exactly.
        for v, d in e.state("degree").items():
            rank = e.partitioner.owner(v)
            assert e.stores[rank].degree(v) == d


class TestMultiProgramCollection:
    def test_collection_targets_one_program_only(self):
        bfs, cc = IncrementalBFS(), IncrementalCC()
        e, src, _ = rmat_engine(4, seed=12, programs=[bfs, cc])
        source = int(src[0])
        e.init_program("bfs", source)
        e.request_collection("cc", at_time=1e-3)
        e.run()
        r = e.collection_results[0]
        assert r.prog == e.prog_index("cc")
        # BFS unaffected by the CC collection.
        assert verify_bfs(e, "bfs", source) == []
