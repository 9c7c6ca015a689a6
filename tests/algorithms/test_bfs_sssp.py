"""Unit tests for incremental BFS (Alg. 4) and SSSP (Alg. 5)."""

import numpy as np
import pytest

from repro import (
    DynamicEngine,
    EngineConfig,
    IncrementalBFS,
    IncrementalSSSP,
    INF,
    ListEventStream,
    split_streams,
)
from repro.analytics import verify_bfs, verify_sssp
from repro.events.types import ADD
from repro.generators import rmat_edges
from repro.generators.weights import pairwise_weights


def run_events(prog, events, source=None, n_ranks=2):
    e = DynamicEngine([prog], EngineConfig(n_ranks=n_ranks))
    if source is not None:
        e.init_program(prog.name, source)
    e.attach_streams([ListEventStream(events)])
    e.run()
    return e


class TestBFSCases:
    """The three §II-B edge-addition cases, explicitly."""

    def test_case_same_level_no_change(self):
        # 0-1, 0-2 puts 1 and 2 both at level 2; edge 1-2 changes nothing.
        e = run_events(
            IncrementalBFS(),
            [(ADD, 0, 1, 1), (ADD, 0, 2, 1), (ADD, 1, 2, 1)],
            source=0,
        )
        assert e.value_of("bfs", 1) == 2
        assert e.value_of("bfs", 2) == 2

    def test_case_level_plus_one_no_change(self):
        # path 0-1-2; adding 0-1 again / 1-2 (level diff 1) changes nothing.
        e = run_events(
            IncrementalBFS(),
            [(ADD, 0, 1, 1), (ADD, 1, 2, 1), (ADD, 1, 2, 1)],
            source=0,
        )
        assert e.value_of("bfs", 2) == 3

    def test_case_shortcut_repairs_downstream(self):
        # long path, then a shortcut from the source to the far end.
        events = [(ADD, i, i + 1, 1) for i in range(6)] + [(ADD, 0, 6, 1)]
        e = run_events(IncrementalBFS(), events, source=0)
        assert e.value_of("bfs", 6) == 2
        assert e.value_of("bfs", 5) == 3  # repaired via the shortcut


class TestBFSBehaviour:
    def test_source_is_level_one(self):
        e = run_events(IncrementalBFS(), [(ADD, 0, 1, 1)], source=0)
        assert e.value_of("bfs", 0) == 1

    def test_disconnected_component_stays_inf(self):
        e = run_events(
            IncrementalBFS(), [(ADD, 0, 1, 1), (ADD, 5, 6, 1)], source=0
        )
        assert e.value_of("bfs", 5) == INF
        assert e.value_of("bfs", 6) == INF

    def test_components_merging_updates_everything(self):
        # two islands built first, then a bridge.
        events = [(ADD, 0, 1, 1), (ADD, 10, 11, 1), (ADD, 11, 12, 1), (ADD, 1, 10, 1)]
        e = run_events(IncrementalBFS(), events, source=0)
        assert e.value_of("bfs", 12) == 5

    def test_init_after_construction(self):
        e = DynamicEngine([IncrementalBFS()], EngineConfig(n_ranks=2))
        e.attach_streams([ListEventStream([(ADD, i, i + 1, 1) for i in range(4)])])
        e.run()
        e.init_program("bfs", 2)  # init mid-path, after all edges exist
        e.run()
        assert e.value_of("bfs", 2) == 1
        assert e.value_of("bfs", 0) == 3
        assert e.value_of("bfs", 4) == 3

    def test_self_loop_harmless(self):
        e = run_events(IncrementalBFS(), [(ADD, 0, 0, 1), (ADD, 0, 1, 1)], source=0)
        assert e.value_of("bfs", 0) == 1
        assert e.value_of("bfs", 1) == 2

    def test_random_graph_verifies(self):
        rng = np.random.default_rng(0)
        src, dst = rmat_edges(8, edge_factor=6, rng=rng)
        e = DynamicEngine([IncrementalBFS()], EngineConfig(n_ranks=6))
        source = int(src[0])
        e.init_program("bfs", source)
        e.attach_streams(split_streams(src, dst, 6, rng=rng))
        e.run()
        assert verify_bfs(e, "bfs", source) == []


class TestSSSP:
    def test_weighted_path_costs(self):
        events = [(ADD, 0, 1, 5), (ADD, 1, 2, 3)]
        e = run_events(IncrementalSSSP(), events, source=0)
        assert e.value_of("sssp", 0) == 1
        assert e.value_of("sssp", 1) == 6
        assert e.value_of("sssp", 2) == 9

    def test_cheaper_path_wins_over_fewer_hops(self):
        # direct heavy edge vs. two light hops.
        events = [(ADD, 0, 2, 10), (ADD, 0, 1, 2), (ADD, 1, 2, 3)]
        e = run_events(IncrementalSSSP(), events, source=0)
        assert e.value_of("sssp", 2) == 6  # 1 + 2 + 3, not 1 + 10

    def test_weight_decrease_propagates(self):
        # re-add with a smaller weight (attribute update, §II-B).
        events = [(ADD, 0, 1, 10), (ADD, 1, 2, 1), (ADD, 0, 1, 2)]
        e = run_events(IncrementalSSSP(), events, source=0)
        assert e.value_of("sssp", 1) == 3
        assert e.value_of("sssp", 2) == 4

    def test_bfs_equivalence_on_unit_weights(self):
        events = [(ADD, i, i + 1, 1) for i in range(5)] + [(ADD, 0, 3, 1)]
        bfs = run_events(IncrementalBFS(), events, source=0)
        sssp = run_events(IncrementalSSSP(), events, source=0)
        assert bfs.state("bfs") == sssp.state("sssp")

    def test_random_weighted_graph_verifies(self):
        rng = np.random.default_rng(2)
        src, dst = rmat_edges(8, edge_factor=6, rng=rng)
        w = pairwise_weights(src, dst, 1, 50)
        e = DynamicEngine([IncrementalSSSP()], EngineConfig(n_ranks=6))
        source = int(src[0])
        e.init_program("sssp", source)
        e.attach_streams(split_streams(src, dst, 6, weights=w, rng=rng))
        e.run()
        assert verify_sssp(e, "sssp", source) == []

    def test_data_dependent_traversal_differs_from_bfs(self):
        # §IV.2: the execution path is data-dependent — with skewed
        # weights SSSP's answer differs from BFS level-scaling.
        events = [(ADD, 0, 1, 100), (ADD, 0, 2, 1), (ADD, 2, 3, 1), (ADD, 3, 1, 1)]
        e = run_events(IncrementalSSSP(), events, source=0)
        assert e.value_of("sssp", 1) == 4  # 3-hop light path beats direct


class TestValueFormatting:
    @pytest.mark.parametrize("prog_cls", [IncrementalBFS, IncrementalSSSP])
    def test_format_value(self, prog_cls):
        p = prog_cls()
        assert p.format_value(0) == "unseen"
        assert p.format_value(INF) == "inf"
        assert p.format_value(3) == "3"
