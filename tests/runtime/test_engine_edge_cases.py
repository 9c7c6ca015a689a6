"""Engine edge cases: partial streams, deletes without programs,
directed deletes, re-running, and version bookkeeping."""

import numpy as np

from repro import (
    DegreeTracker,
    DynamicEngine,
    EngineConfig,
    IncrementalBFS,
    IncrementalCC,
    ListEventStream,
    split_streams,
)
from repro.events.types import ADD, DELETE


class TestPartialStreams:
    def test_fewer_streams_than_ranks(self):
        e = DynamicEngine([IncrementalBFS()], EngineConfig(n_ranks=8))
        e.init_program("bfs", 0)
        e.attach_streams([ListEventStream([(ADD, i, i + 1, 1) for i in range(5)])])
        e.run()
        assert e.value_of("bfs", 5) == 6
        assert e.loop.quiescent()

    def test_streams_of_unequal_length(self):
        e = DynamicEngine([DegreeTracker()], EngineConfig(n_ranks=3))
        e.attach_streams(
            [
                ListEventStream([(ADD, 0, 1, 1)] ),
                ListEventStream([(ADD, i, i + 1, 1) for i in range(10)]),
            ]
        )
        e.run()
        # stream 1's (0,1) duplicates stream 2's: 10 unique undirected
        # edges, stored in both directions
        assert e.num_edges == 20

    def test_attach_more_streams_after_run(self):
        e = DynamicEngine([DegreeTracker()], EngineConfig(n_ranks=2))
        e.attach_streams([ListEventStream([(ADD, 0, 1, 1)])])
        e.run()
        e.attach_streams([ListEventStream([(ADD, 1, 2, 1)])])
        e.run()
        assert e.value_of("degree", 1) == 2


class TestDeletes:
    def test_delete_without_programs(self):
        e = DynamicEngine([], EngineConfig(n_ranks=2))
        e.attach_streams(
            [ListEventStream([(ADD, 0, 1, 1), (DELETE, 0, 1, 0)])]
        )
        e.run()
        assert e.num_edges == 0
        assert e.total_counters().edge_deletes == 2  # both directions

    def test_delete_of_absent_edge_is_noop(self):
        e = DynamicEngine([], EngineConfig(n_ranks=2))
        e.attach_streams([ListEventStream([(DELETE, 5, 6, 0)])])
        e.run()
        assert e.num_edges == 0
        assert e.total_counters().edge_deletes == 0

    def test_canonicalised_routing_keeps_edges_symmetric(self):
        # Adversarial interleaving: both orientations + a delete spread
        # over different streams must never leave a half-edge.
        e = DynamicEngine([], EngineConfig(n_ranks=4))
        e.attach_streams(
            [
                ListEventStream([(ADD, 7, 3, 1)]),
                ListEventStream([(ADD, 3, 7, 1)]),
                ListEventStream([(DELETE, 7, 3, 0)]),
            ]
        )
        e.run()
        assert e.has_edge(3, 7) == e.has_edge(7, 3)


class TestVersionBookkeeping:
    def test_stream_version_starts_zero(self):
        e = DynamicEngine([IncrementalBFS()], EngineConfig(n_ranks=3))
        assert e.stream_version == [0, 0, 0]

    def test_cut_bumps_all_stream_versions(self):
        rng = np.random.default_rng(0)
        src = rng.integers(0, 50, 200)
        dst = (src + 1 + rng.integers(0, 48, 200)) % 50
        e = DynamicEngine([IncrementalBFS()], EngineConfig(n_ranks=4))
        e.init_program("bfs", int(src[0]))
        e.attach_streams(split_streams(src, dst, 4))
        e.request_collection("bfs", at_time=1e-5)
        e.run()
        assert all(v >= 1 for v in e.stream_version)

    def test_term_counters_balance_per_version(self):
        rng = np.random.default_rng(1)
        src = rng.integers(0, 50, 300)
        dst = (src + 1 + rng.integers(0, 48, 300)) % 50
        e = DynamicEngine([IncrementalCC()], EngineConfig(n_ranks=4))
        e.attach_streams(split_streams(src, dst, 4))
        e.request_collection("cc", at_time=2e-5)
        e.run()
        for version in (0, 1):
            sent = sum(t.sent(version) for t in e.term)
            recv = sum(t.received(version) for t in e.term)
            assert sent == recv, f"version {version}: {sent} != {recv}"


class TestSelfLoopsAndOddShapes:
    def test_self_loop_with_programs(self):
        e = DynamicEngine([IncrementalCC()], EngineConfig(n_ranks=2))
        e.attach_streams([ListEventStream([(ADD, 3, 3, 1), (ADD, 3, 4, 1)])])
        e.run()
        assert e.value_of("cc", 3) == e.value_of("cc", 4) != 0

    def test_large_vertex_ids(self):
        big = 10**17
        e = DynamicEngine([IncrementalBFS()], EngineConfig(n_ranks=3))
        e.init_program("bfs", big)
        e.attach_streams([ListEventStream([(ADD, big, big + 1, 1)])])
        e.run()
        assert e.value_of("bfs", big + 1) == 2

    def test_negative_vertex_ids(self):
        e = DynamicEngine([IncrementalBFS()], EngineConfig(n_ranks=3))
        e.init_program("bfs", -5)
        e.attach_streams([ListEventStream([(ADD, -5, -6, 1)])])
        e.run()
        assert e.value_of("bfs", -6) == 2
