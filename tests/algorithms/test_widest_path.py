"""Tests for the widest-path (bottleneck) REMO extension."""

import numpy as np
import pytest

from repro import DynamicEngine, EngineConfig, ListEventStream, split_streams
from repro.algorithms import WidestPath
from repro.algorithms.widest_path import CAP_INF, static_widest_path
from repro.analytics.verify import csr_from_engine
from repro.events.types import ADD
from repro.generators import erdos_renyi_edges, rmat_edges
from repro.generators.weights import pairwise_weights


def run_events(events, source, n_ranks=3):
    e = DynamicEngine([WidestPath()], EngineConfig(n_ranks=n_ranks))
    e.init_program("widest", source)
    e.attach_streams([ListEventStream(events)])
    e.run()
    return e


def verify_widest(engine, source):
    graph = csr_from_engine(engine)
    expect = static_widest_path(graph, source)
    got = {v: c for v, c in engine.state("widest").items() if c > 0}
    return got, expect


class TestWidestPath:
    def test_source_capacity_infinite(self):
        e = run_events([(ADD, 0, 1, 5)], source=0)
        assert e.value_of("widest", 0) == CAP_INF
        assert e.value_of("widest", 1) == 5

    def test_bottleneck_along_path(self):
        events = [(ADD, 0, 1, 10), (ADD, 1, 2, 3), (ADD, 2, 3, 7)]
        e = run_events(events, source=0)
        assert e.value_of("widest", 1) == 10
        assert e.value_of("widest", 2) == 3
        assert e.value_of("widest", 3) == 3  # bottleneck sticks

    def test_wider_alternative_route_wins(self):
        # narrow direct edge vs. a wide two-hop route
        events = [(ADD, 0, 2, 2), (ADD, 0, 1, 9), (ADD, 1, 2, 8)]
        e = run_events(events, source=0)
        assert e.value_of("widest", 2) == 8

    def test_capacity_only_grows_with_new_edges(self):
        events = [(ADD, 0, 1, 2)]
        e = run_events(events, source=0)
        assert e.value_of("widest", 1) == 2
        # a later, wider edge upgrades the capacity
        e.attach_streams([ListEventStream([(ADD, 0, 1, 6)])])
        e.run()
        assert e.value_of("widest", 1) == 6

    def test_unreachable_is_zero(self):
        e = run_events([(ADD, 0, 1, 5), (ADD, 8, 9, 5)], source=0)
        assert e.value_of("widest", 8) == 0

    def test_notify_back_widens_upstream(self):
        # vertex 2 learns a wide route after 1 did; 1 must be upgraded
        # through the notify-back path: 0-(2)-1, 0-(9)-3, 3-(9)-1.
        events = [(ADD, 0, 1, 2), (ADD, 3, 1, 9), (ADD, 0, 3, 9)]
        e = run_events(events, source=0, n_ranks=1)
        assert e.value_of("widest", 1) == 9

    @pytest.mark.parametrize("n_ranks", [1, 4, 8])
    def test_random_graph_matches_static_oracle(self, n_ranks):
        rng = np.random.default_rng(3)
        src, dst = rmat_edges(8, edge_factor=6, rng=rng)
        w = pairwise_weights(src, dst, 1, 30)
        e = DynamicEngine([WidestPath()], EngineConfig(n_ranks=n_ranks))
        source = int(src[0])
        e.init_program("widest", source)
        e.attach_streams(split_streams(src, dst, n_ranks, weights=w, rng=rng))
        e.run()
        got, expect = verify_widest(e, source)
        assert got == expect

    def test_interleaving_independence(self):
        rng = np.random.default_rng(4)
        src, dst = erdos_renyi_edges(60, 240, rng=rng)
        w = pairwise_weights(src, dst, 1, 9)
        states = []
        for seed in (1, 2, 3):
            e = DynamicEngine([WidestPath()], EngineConfig(n_ranks=4))
            e.init_program("widest", int(src[0]))
            e.attach_streams(
                split_streams(src, dst, 4, weights=w, rng=np.random.default_rng(seed))
            )
            e.run()
            states.append(e.state("widest"))
        assert states[0] == states[1] == states[2]

    def test_merge_and_format(self):
        p = WidestPath()
        assert p.merge(3, 7) == 7
        assert p.format_value(0) == "unreached"
        assert p.format_value(CAP_INF) == "source"
        assert p.format_value(12) == "12"


class TestStaticOracle:
    def test_oracle_simple(self):
        from repro.storage.csr import CSRGraph

        g = CSRGraph.from_edges(
            np.array([0, 1, 0]),
            np.array([1, 2, 2]),
            np.array([10, 3, 2]),
            symmetrize=True,
        )
        expect = static_widest_path(g, 0)
        assert expect[0] == CAP_INF
        assert expect[1] == 10
        assert expect[2] == 3  # via the 10/3 route, not the direct 2

    def test_oracle_missing_source(self):
        from repro.storage.csr import CSRGraph

        g = CSRGraph.from_edges(np.array([0]), np.array([1]))
        assert static_widest_path(g, 99) == {99: CAP_INF}
