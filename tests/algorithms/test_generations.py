"""Tests for the decremental (state-generations) algorithms — §VI-B."""

import numpy as np
import pytest

from repro import (
    DynamicEngine,
    EngineConfig,
    GenerationalBFS,
    GenerationalCC,
    GenerationalSSSP,
    GenerationalST,
    GenerationalWidest,
    INF,
    ListEventStream,
    split_streams,
)
from repro.algorithms.widest_path import CAP_INF
from repro.analytics import verify_bfs, verify_cc, verify_sssp
from repro.analytics.verify import verify_st, verify_widest
from repro.events.types import ADD, DELETE
from repro.generators import erdos_renyi_edges
from repro.generators.weights import pairwise_weights

DIST = lambda v: v[1]  # noqa: E731 - extract distance from (gen, dist, parent)
LABEL = lambda v: v[1]  # noqa: E731 - extract label from (gen, label, support)
MASK = GenerationalST.mask_of
CAP = lambda v: v[1]  # noqa: E731 - extract capacity from (gen, cap, parent)


def run_events(prog, events, source=None, n_ranks=3):
    e = DynamicEngine([prog], EngineConfig(n_ranks=n_ranks))
    if source is not None:
        e.init_program(prog.name, source)
    e.attach_streams([ListEventStream(events)])
    e.run()
    return e


class TestGenerationalBFSAddsOnly:
    def test_matches_plain_bfs_semantics(self):
        events = [(ADD, i, i + 1, 1) for i in range(5)] + [(ADD, 0, 4, 1)]
        e = run_events(GenerationalBFS(), events, source=0)
        assert DIST(e.value_of("gen-bfs", 0)) == 1
        assert DIST(e.value_of("gen-bfs", 4)) == 2
        assert DIST(e.value_of("gen-bfs", 5)) == 3

    def test_epoch_stays_initial_without_deletes(self):
        from repro.algorithms.generations import EPOCH0

        events = [(ADD, i, i + 1, 1) for i in range(4)]
        e = run_events(GenerationalBFS(), events, source=0)
        for v in range(5):
            generation, _, _ = e.value_of("gen-bfs", v)
            assert generation == EPOCH0


class TestGenerationalBFSDeletes:
    def test_delete_unsupporting_edge_changes_nothing(self):
        # triangle 0-1, 0-2, 1-2; deleting 1-2 leaves all levels intact.
        events = [(ADD, 0, 1, 1), (ADD, 0, 2, 1), (ADD, 1, 2, 1), (DELETE, 1, 2, 0)]
        e = run_events(GenerationalBFS(), events, source=0)
        assert DIST(e.value_of("gen-bfs", 1)) == 2
        assert DIST(e.value_of("gen-bfs", 2)) == 2

    def test_delete_parent_edge_repairs_through_alternative(self):
        # 0-1, 0-2, 1-3, 2-3: delete 1-3 -> 3 repairs through 2.
        events = [
            (ADD, 0, 1, 1),
            (ADD, 1, 3, 1),
            (ADD, 0, 2, 1),
            (ADD, 2, 3, 1),
            (DELETE, 1, 3, 0),
        ]
        e = run_events(GenerationalBFS(), events, source=0, n_ranks=1)
        assert DIST(e.value_of("gen-bfs", 3)) == 3

    def test_delete_bridge_disconnects(self):
        events = [(ADD, 0, 1, 1), (ADD, 1, 2, 1), (DELETE, 0, 1, 0)]
        e = run_events(GenerationalBFS(), events, source=0, n_ranks=1)
        assert DIST(e.value_of("gen-bfs", 1)) == INF
        assert DIST(e.value_of("gen-bfs", 2)) == INF
        from repro.algorithms.generations import EPOCH0

        generation, _, _ = e.value_of("gen-bfs", 1)
        assert generation > EPOCH0  # the far side entered a new generation
        assert e.value_of("gen-bfs", 0)[0] == EPOCH0  # the near side never froze

    def test_delete_then_readd_reconnects(self):
        events = [
            (ADD, 0, 1, 1),
            (ADD, 1, 2, 1),
            (DELETE, 0, 1, 0),
            (ADD, 0, 1, 1),
        ]
        e = run_events(GenerationalBFS(), events, source=0, n_ranks=1)
        assert DIST(e.value_of("gen-bfs", 2)) == 3

    def test_cascading_invalidation_repair(self):
        # long chain plus a far alternative route; cutting the chain head
        # must re-route the whole tail.
        chain = [(ADD, i, i + 1, 1) for i in range(6)]
        alt = [(ADD, 0, 10, 1), (ADD, 10, 3, 1)]
        e = run_events(
            GenerationalBFS(), chain + alt + [(DELETE, 0, 1, 0)], source=0, n_ranks=2
        )
        # path now 0-10-3: vertex 3 at level 3, chain repaired both ways.
        assert DIST(e.value_of("gen-bfs", 3)) == 3
        assert DIST(e.value_of("gen-bfs", 1)) == 5  # 0-10-3-2-1
        assert DIST(e.value_of("gen-bfs", 6)) == 6

    @pytest.mark.parametrize("n_ranks", [1, 4])
    def test_random_add_delete_stream_verifies(self, n_ranks):
        rng = np.random.default_rng(10)
        src, dst = erdos_renyi_edges(50, 250, rng=rng)
        del_idx = rng.choice(len(src), size=60, replace=False)
        all_src = np.concatenate([src, src[del_idx]])
        all_dst = np.concatenate([dst, dst[del_idx]])
        kinds = np.concatenate(
            [np.zeros(len(src), np.int64), np.ones(60, np.int64)]
        )
        e = DynamicEngine([GenerationalBFS()], EngineConfig(n_ranks=n_ranks))
        source = int(src[0])
        e.init_program("gen-bfs", source)
        e.attach_streams(split_streams(all_src, all_dst, n_ranks, kinds=kinds))
        e.run()
        assert verify_bfs(e, "gen-bfs", source, value_of=DIST) == []


class TestGenerationalSSSP:
    def test_weighted_repair_after_delete(self):
        events = [
            (ADD, 0, 1, 1),
            (ADD, 1, 2, 1),
            (ADD, 0, 2, 10),
            (DELETE, 1, 2, 0),
        ]
        e = run_events(GenerationalSSSP(), events, source=0, n_ranks=1)
        assert DIST(e.value_of("gen-sssp", 2)) == 11  # falls back to heavy edge

    def test_random_weighted_add_delete_verifies(self):
        rng = np.random.default_rng(11)
        src, dst = erdos_renyi_edges(40, 200, rng=rng)
        w = pairwise_weights(src, dst, 1, 9)
        del_idx = rng.choice(len(src), size=40, replace=False)
        all_src = np.concatenate([src, src[del_idx]])
        all_dst = np.concatenate([dst, dst[del_idx]])
        all_w = np.concatenate([w, np.zeros(40, np.int64)])
        kinds = np.concatenate([np.zeros(len(src), np.int64), np.ones(40, np.int64)])
        e = DynamicEngine([GenerationalSSSP()], EngineConfig(n_ranks=3))
        source = int(src[0])
        e.init_program("gen-sssp", source)
        e.attach_streams(
            split_streams(all_src, all_dst, 3, weights=all_w, kinds=kinds)
        )
        e.run()
        assert verify_sssp(e, "gen-sssp", source, value_of=DIST) == []


class TestGenerationalCC:
    def test_adds_only_matches_static(self):
        events = [(ADD, 0, 1, 1), (ADD, 1, 2, 1), (ADD, 5, 6, 1)]
        e = run_events(GenerationalCC(), events)
        assert verify_cc(e, "gen-cc", value_of=LABEL) == []

    def test_component_split_gets_distinct_labels(self):
        events = [(ADD, 0, 1, 1), (ADD, 1, 2, 1), (DELETE, 1, 2, 0)]
        e = run_events(GenerationalCC(), events, n_ranks=1)
        assert LABEL(e.value_of("gen-cc", 0)) == LABEL(e.value_of("gen-cc", 1))
        assert LABEL(e.value_of("gen-cc", 2)) != LABEL(e.value_of("gen-cc", 0))
        assert verify_cc(e, "gen-cc", value_of=LABEL) == []

    def test_delete_within_cycle_keeps_one_component(self):
        events = [
            (ADD, 0, 1, 1),
            (ADD, 1, 2, 1),
            (ADD, 2, 0, 1),
            (DELETE, 0, 1, 0),
        ]
        e = run_events(GenerationalCC(), events, n_ranks=2)
        labels = {LABEL(e.value_of("gen-cc", v)) for v in (0, 1, 2)}
        assert len(labels) == 1
        assert verify_cc(e, "gen-cc", value_of=LABEL) == []

    @pytest.mark.parametrize("n_ranks", [1, 4])
    def test_random_add_delete_stream_verifies(self, n_ranks):
        rng = np.random.default_rng(12)
        src, dst = erdos_renyi_edges(60, 200, rng=rng)
        del_idx = rng.choice(len(src), size=80, replace=False)
        all_src = np.concatenate([src, src[del_idx]])
        all_dst = np.concatenate([dst, dst[del_idx]])
        kinds = np.concatenate([np.zeros(len(src), np.int64), np.ones(80, np.int64)])
        e = DynamicEngine([GenerationalCC()], EngineConfig(n_ranks=n_ranks))
        e.attach_streams(split_streams(all_src, all_dst, n_ranks, kinds=kinds))
        e.run()
        assert verify_cc(e, "gen-cc", value_of=LABEL) == []


class TestGenerationalST:
    def _engine(self, events, sources=(0, 1), n_ranks=2):
        st = GenerationalST()
        bits = [st.register_source(s) for s in sources]
        e = DynamicEngine([st], EngineConfig(n_ranks=n_ranks))
        for s, b in zip(sources, bits):
            e.init_program("gen-st", s, b)
        e.attach_streams([ListEventStream(events)])
        e.run()
        return e

    def test_adds_only_reachability(self):
        # path 0-2-3 plus isolated source 1: 3 sees only source 0.
        e = self._engine([(ADD, 0, 2, 1), (ADD, 2, 3, 1)])
        assert MASK(e.value_of("gen-st", 3)) == 0b01
        assert MASK(e.value_of("gen-st", 2)) == 0b01
        assert verify_st(e, "gen-st", [0, 1], value_of=MASK) == []

    def test_delete_disconnects_source_bit(self):
        # both sources reach 3 through 2; cutting 2-3 clears both bits.
        events = [
            (ADD, 0, 2, 1),
            (ADD, 1, 2, 1),
            (ADD, 2, 3, 1),
            (DELETE, 2, 3, 0),
        ]
        e = self._engine(events, n_ranks=1)
        assert MASK(e.value_of("gen-st", 3)) == 0
        assert MASK(e.value_of("gen-st", 2)) == 0b11
        assert verify_st(e, "gen-st", [0, 1], value_of=MASK) == []

    def test_delete_with_alternative_path_keeps_bits(self):
        events = [
            (ADD, 0, 2, 1),
            (ADD, 2, 3, 1),
            (ADD, 0, 3, 1),
            (DELETE, 2, 3, 0),
        ]
        e = self._engine(events, n_ranks=2)
        assert MASK(e.value_of("gen-st", 3)) == 0b01
        assert verify_st(e, "gen-st", [0, 1], value_of=MASK) == []

    def test_partial_disconnect_loses_only_one_source(self):
        # source 0 reaches 4 via 2; source 1 via 3.  Cutting 3-4 keeps
        # source 0's bit and clears source 1's.
        events = [
            (ADD, 0, 2, 1),
            (ADD, 2, 4, 1),
            (ADD, 1, 3, 1),
            (ADD, 3, 4, 1),
            (DELETE, 3, 4, 0),
        ]
        e = self._engine(events, n_ranks=1)
        assert MASK(e.value_of("gen-st", 4)) == 0b01
        assert MASK(e.value_of("gen-st", 3)) == 0b10
        assert verify_st(e, "gen-st", [0, 1], value_of=MASK) == []

    @pytest.mark.parametrize("n_ranks", [1, 3])
    def test_random_add_delete_stream_verifies(self, n_ranks):
        rng = np.random.default_rng(13)
        src, dst = erdos_renyi_edges(40, 160, rng=rng)
        del_idx = rng.choice(len(src), size=50, replace=False)
        all_src = np.concatenate([src, src[del_idx]])
        all_dst = np.concatenate([dst, dst[del_idx]])
        kinds = np.concatenate(
            [np.zeros(len(src), np.int64), np.ones(50, np.int64)]
        )
        st = GenerationalST()
        sources = [int(src[0]), int(dst[1])]
        bits = [st.register_source(s) for s in sources]
        e = DynamicEngine([st], EngineConfig(n_ranks=n_ranks))
        for s, b in zip(sources, bits):
            e.init_program("gen-st", s, b)
        e.attach_streams(split_streams(all_src, all_dst, n_ranks, kinds=kinds))
        e.run()
        assert verify_st(e, "gen-st", sources, value_of=MASK) == []


class TestGenerationalWidest:
    def test_adds_only_bottleneck(self):
        # 0 -9- 1 -3- 2 and the shortcut 0 -5- 2: best bottleneck to 2
        # is 5 via the shortcut.
        events = [(ADD, 0, 1, 9), (ADD, 1, 2, 3), (ADD, 0, 2, 5)]
        e = run_events(GenerationalWidest(), events, source=0)
        assert CAP(e.value_of("gen-widest", 0)) == CAP_INF
        assert CAP(e.value_of("gen-widest", 1)) == 9
        assert CAP(e.value_of("gen-widest", 2)) == 5
        assert verify_widest(e, "gen-widest", 0, value_of=CAP) == []

    def test_delete_widest_edge_falls_back_to_narrow(self):
        events = [
            (ADD, 0, 1, 9),
            (ADD, 1, 2, 3),
            (ADD, 0, 2, 5),
            (DELETE, 0, 2, 0),
        ]
        e = run_events(GenerationalWidest(), events, source=0, n_ranks=1)
        assert CAP(e.value_of("gen-widest", 2)) == 3  # min(9, 3) via 1
        assert verify_widest(e, "gen-widest", 0, value_of=CAP) == []

    def test_delete_bridge_unreaches(self):
        events = [(ADD, 0, 1, 7), (ADD, 1, 2, 4), (DELETE, 0, 1, 0)]
        e = run_events(GenerationalWidest(), events, source=0, n_ranks=1)
        assert CAP(e.value_of("gen-widest", 1)) == 0
        assert CAP(e.value_of("gen-widest", 2)) == 0
        assert verify_widest(e, "gen-widest", 0, value_of=CAP) == []

    def test_delete_then_readd_restores_capacity(self):
        events = [
            (ADD, 0, 1, 7),
            (ADD, 1, 2, 4),
            (DELETE, 0, 1, 0),
            (ADD, 0, 1, 7),
        ]
        e = run_events(GenerationalWidest(), events, source=0, n_ranks=1)
        assert CAP(e.value_of("gen-widest", 2)) == 4
        assert verify_widest(e, "gen-widest", 0, value_of=CAP) == []

    @pytest.mark.parametrize("n_ranks", [1, 4])
    def test_random_weighted_add_delete_verifies(self, n_ranks):
        rng = np.random.default_rng(14)
        src, dst = erdos_renyi_edges(40, 180, rng=rng)
        w = pairwise_weights(src, dst, 1, 9)
        del_idx = rng.choice(len(src), size=45, replace=False)
        all_src = np.concatenate([src, src[del_idx]])
        all_dst = np.concatenate([dst, dst[del_idx]])
        all_w = np.concatenate([w, np.zeros(45, np.int64)])
        kinds = np.concatenate(
            [np.zeros(len(src), np.int64), np.ones(45, np.int64)]
        )
        e = DynamicEngine([GenerationalWidest()], EngineConfig(n_ranks=n_ranks))
        source = int(src[0])
        e.init_program("gen-widest", source)
        e.attach_streams(
            split_streams(all_src, all_dst, n_ranks, weights=all_w, kinds=kinds)
        )
        e.run()
        assert verify_widest(e, "gen-widest", source, value_of=CAP) == []


class TestFormatting:
    def test_distance_format(self):
        p = GenerationalBFS()
        assert p.format_value(0) == "unseen"
        assert p.format_value((1, INF, -2)) == "g1:inf"
        assert p.format_value((0, 3, 7)) == "g0:3"
        frozen = (2, INF, None, (7, 4), frozenset({5}), frozenset())
        assert p.format_value(frozen) == "g2:inf (frozen)"

    def test_cc_format(self):
        p = GenerationalCC()
        assert p.format_value(0) == "unseen"
        assert p.format_value((2, 0xAB, -2)) == "g2:comp:00000000000000ab"

    def test_st_format(self):
        p = GenerationalST()
        p.register_source(4)
        p.register_source(9)
        assert p.format_value(0) == "unseen"
        assert p.format_value((1, 0b01, {0: -2})) == "g1:sources:{4}"
        assert p.format_value((3, 0b11, {0: -2, 1: 6})) == "g3:sources:{4,9}"

    def test_widest_format(self):
        p = GenerationalWidest()
        assert p.format_value(0) == "unseen"
        assert p.format_value((0, CAP_INF, -2)) == "g0:source"
        assert p.format_value((1, 7, 0)) == "g1:7"
        assert p.format_value((1, 0, -2)) == "g1:unreached"
