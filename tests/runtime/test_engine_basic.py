"""Engine fundamentals: construction, routing, topology, counters."""

from dataclasses import fields

import numpy as np
import pytest

from repro import (
    DegreeTracker,
    DynamicEngine,
    EngineConfig,
    IncrementalBFS,
    IncrementalCC,
    ListEventStream,
    split_streams,
)
from repro.events.types import ADD
from repro.partition import ConsistentHashPartitioner
from repro.runtime.reference import ReferenceEngine


def path_stream(n):
    return ListEventStream([(ADD, i, i + 1, 1) for i in range(n)])


class TestConstruction:
    def test_construction_only_no_programs(self):
        # The evaluation's CON baseline: topology maintenance alone.
        e = DynamicEngine([], EngineConfig(n_ranks=2))
        e.attach_streams([path_stream(5)])
        e.run()
        assert e.num_edges == 10
        assert e.total_counters().visits == 0

    def test_duplicate_program_names_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            DynamicEngine([IncrementalBFS(), IncrementalBFS()])

    def test_partitioner_rank_mismatch_rejected(self):
        with pytest.raises(ValueError, match="rank count"):
            DynamicEngine(
                [IncrementalBFS()],
                EngineConfig(n_ranks=4),
                partitioner=ConsistentHashPartitioner(2),
            )

    def test_config_validation(self):
        with pytest.raises(ValueError):
            EngineConfig(n_ranks=0)

    def test_one_graph_model_no_graph_setting(self):
        # Every input edge is undirected; no setting picks another model.
        assert [f.name for f in fields(EngineConfig)] == [
            "n_ranks",
            "partition_salt",
            "coalesce_updates",
        ]
        with pytest.raises(TypeError):
            EngineConfig(undirected=False)
        with pytest.raises(TypeError):
            EngineConfig(vertex_index="dict")  # one store index, no switch
        with pytest.raises(TypeError):
            ReferenceEngine([IncrementalBFS()], undirected=False)

    def test_prog_index_lookup(self):
        e = DynamicEngine([IncrementalBFS(), IncrementalCC()])
        assert e.prog_index("bfs") == 0
        assert e.prog_index("cc") == 1
        assert e.prog_index(1) == 1
        with pytest.raises(ValueError):
            e.prog_index("nope")
        with pytest.raises(ValueError):
            e.prog_index(7)

    def test_too_many_streams_rejected(self):
        e = DynamicEngine([IncrementalBFS()], EngineConfig(n_ranks=1))
        with pytest.raises(ValueError):
            e.attach_streams([path_stream(1), path_stream(1)])


class TestTopologyMaintenance:
    def test_undirected_stores_both_directions(self):
        e = DynamicEngine([DegreeTracker()], EngineConfig(n_ranks=3))
        e.attach_streams([ListEventStream([(ADD, 1, 2, 7)])])
        e.run()
        assert e.has_edge(1, 2)
        assert e.has_edge(2, 1)
        assert e.num_edges == 2

    def test_duplicate_edges_stored_once(self):
        e = DynamicEngine([DegreeTracker()], EngineConfig(n_ranks=2))
        e.attach_streams([ListEventStream([(ADD, 1, 2, 1)] * 5)])
        e.run()
        assert e.num_edges == 2  # one per direction
        total = e.total_counters()
        assert total.edge_inserts == 2
        assert total.source_events == 5

    def test_edges_iterator_covers_everything(self):
        e = DynamicEngine([DegreeTracker()], EngineConfig(n_ranks=4))
        events = [(ADD, 0, 1, 5), (ADD, 1, 2, 6), (ADD, 0, 2, 7)]
        e.attach_streams([ListEventStream(events)])
        e.run()
        got = set(e.edges())
        expected = set()
        for _, s, d, w in events:
            expected.add((s, d, w))
            expected.add((d, s, w))
        assert got == expected

    def test_vertices_distributed_by_partitioner(self):
        e = DynamicEngine([DegreeTracker()], EngineConfig(n_ranks=4))
        e.attach_streams([path_stream(50)])
        e.run()
        for rank, store in enumerate(e.stores):
            for vid in store.vertices():
                assert e.partitioner.owner(vid) == rank
        assert e.num_vertices == 51

    def test_weights_stored(self):
        e = DynamicEngine([DegreeTracker()], EngineConfig(n_ranks=2))
        e.attach_streams([ListEventStream([(ADD, 3, 4, 42)])])
        e.run()
        rank = e.partitioner.owner(3)
        assert e.stores[rank].edge_weight(3, 4) == 42


class TestExecution:
    def test_run_is_resumable_after_new_injection(self):
        bfs = IncrementalBFS()
        e = DynamicEngine([bfs], EngineConfig(n_ranks=2))
        e.attach_streams([path_stream(5)])
        e.run()
        from repro import INF

        assert e.value_of("bfs", 3) == INF  # touched but no init yet
        e.init_program("bfs", 0)
        e.run()
        assert e.value_of("bfs", 3) == 4

    def test_multiple_programs_share_topology(self):
        bfs, deg = IncrementalBFS(), DegreeTracker()
        e = DynamicEngine([bfs, deg], EngineConfig(n_ranks=3))
        e.init_program("bfs", 0)
        e.attach_streams([path_stream(6)])
        e.run()
        assert e.value_of("bfs", 6) == 7
        assert e.value_of("degree", 0) == 1
        assert e.value_of("degree", 3) == 2
        assert e.num_edges == 12  # topology stored once, not per program

    def test_counters_accumulate(self):
        e = DynamicEngine([IncrementalBFS()], EngineConfig(n_ranks=2))
        e.init_program("bfs", 0)
        e.attach_streams([path_stream(10)])
        e.run()
        total = e.total_counters()
        assert total.source_events == 10
        assert total.edge_inserts == 20
        assert total.visits > 0
        assert total.busy_time > 0
        assert total.messages_sent_local + total.messages_sent_remote > 0

    def test_makespan_advances_and_rate_positive(self):
        e = DynamicEngine([IncrementalBFS()], EngineConfig(n_ranks=2))
        e.init_program("bfs", 0)
        e.attach_streams([path_stream(10)])
        e.run()
        assert e.loop.max_time() > 0
        assert e.source_event_rate() > 0

    def test_state_merges_ranks(self):
        e = DynamicEngine([IncrementalBFS()], EngineConfig(n_ranks=4))
        e.init_program("bfs", 0)
        e.attach_streams([path_stream(8)])
        e.run()
        state = e.state("bfs")
        assert len(state) == 9
        assert state[0] == 1 and state[8] == 9

    def test_parallel_streams_equivalent_to_single(self):
        src = np.arange(30)
        dst = np.arange(30) + 1
        single = DynamicEngine([IncrementalBFS()], EngineConfig(n_ranks=1))
        single.init_program("bfs", 0)
        single.attach_streams(split_streams(src, dst, 1))
        single.run()
        multi = DynamicEngine([IncrementalBFS()], EngineConfig(n_ranks=6))
        multi.init_program("bfs", 0)
        multi.attach_streams(split_streams(src, dst, 6))
        multi.run()
        assert single.state("bfs") == multi.state("bfs")

    def test_empty_stream_quiesces(self):
        e = DynamicEngine([IncrementalBFS()], EngineConfig(n_ranks=2))
        e.attach_streams([ListEventStream([])])
        e.run()
        assert e.loop.quiescent()
        assert e.num_edges == 0
