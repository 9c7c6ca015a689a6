"""Tests for the virtual-time cost model."""

import dataclasses
import json

import pytest

from repro.comm.costmodel import CostModel, RankCounters


class TestCostModel:
    def test_defaults_valid(self):
        cm = CostModel()
        assert cm.visit_cpu > 0
        assert cm.remote_latency > cm.local_latency

    def test_node_mapping(self):
        cm = CostModel(ranks_per_node=24)
        assert cm.node_of(0) == 0
        assert cm.node_of(23) == 0
        assert cm.node_of(24) == 1

    def test_latency_intra_vs_inter_node(self):
        cm = CostModel(ranks_per_node=4)
        assert cm.latency(0, 3) == cm.local_latency
        assert cm.latency(0, 4) == cm.remote_latency
        assert cm.latency(5, 5) == cm.local_latency  # self-send

    def test_with_overrides(self):
        cm = CostModel()
        cm2 = cm.with_overrides(channel_capacity=16)
        assert cm2.channel_capacity == 16
        assert cm2.send_cpu == cm.send_cpu
        assert cm.channel_capacity != 16  # original untouched (frozen)

    def test_validation(self):
        with pytest.raises(ValueError):
            CostModel(ranks_per_node=0)
        with pytest.raises(ValueError):
            CostModel(channel_capacity=0)
        with pytest.raises(ValueError):
            CostModel(rank_memory_bytes=0)

    def test_frozen(self):
        cm = CostModel()
        with pytest.raises(Exception):
            cm.visit_cpu = 0.5  # type: ignore[misc]

    def test_dynamic_edge_event_magnitude(self):
        # Calibration sanity: one undirected edge event (pull + ADD visit
        # + REVERSE_ADD visit + ~2 sends) should land in the low single-
        # digit microseconds, matching the paper's ~2.4us/event per core.
        cm = CostModel()
        per_event = (
            cm.stream_pull_cpu
            + 2 * (cm.edge_insert_cpu + cm.visit_cpu)
            + 2 * cm.send_cpu
        )
        assert 1e-6 < per_event < 5e-6


#: Every value the calibrated model reports, as it reports it.
CALIBRATION = {
    "stream_pull_cpu": 2e-07,
    "edge_insert_cpu": 5.5e-07,
    "storage_probe_cpu": 5e-08,
    "visit_cpu": 3e-07,
    "visit_discard_cpu": 5e-08,
    "send_cpu": 1.5e-07,
    "control_cpu": 3e-07,
    "squash_cpu": 2e-08,
    "batch_send_base_cpu": 1.5e-07,
    "batch_send_per_msg_cpu": 5e-08,
    "local_latency": 4e-07,
    "remote_latency": 1.5e-06,
    "ranks_per_node": 24,
    "channel_capacity": 1 << 40,
    "backpressure_stall_cpu": 5e-08,
    "rank_memory_bytes": None,
    "nvram_access_cpu": 9.999999999999999e-06,
    "gather_per_vertex_cpu": 2e-08,
    "static_build_edge_cpu": 4e-07,
    "static_vertex_cpu": 2.5e-07,
    "static_edge_cpu": 5.4999999999999996e-08,
    "static_local_msg_cpu": 1e-07,
    "static_remote_msg_cpu": 4e-07,
    "dynamic_read_penalty": 2.6,
}
SETTABLE = ["ranks_per_node", "channel_capacity", "rank_memory_bytes"]
FIXED = [name for name in CALIBRATION if name not in SETTABLE]


class TestFixedCalibration:
    def test_three_values_are_settable(self):
        assert [f.name for f in dataclasses.fields(CostModel) if f.init] == SETTABLE
        assert len(FIXED) == 21

    @pytest.mark.parametrize("name", FIXED)
    def test_a_fixed_value_is_no_argument(self, name):
        with pytest.raises(TypeError, match=name):
            CostModel(**{name: 1.0})
        with pytest.raises(ValueError, match=name):
            CostModel().with_overrides(**{name: 1.0})

    def test_to_dict_reports_every_value(self):
        d = CostModel().to_dict()
        assert list(d) == list(CALIBRATION)
        for name, value in CALIBRATION.items():
            assert d[name] == value and type(d[name]) is type(value), name


class TestRankCounters:
    def test_merge(self):
        a = RankCounters(source_events=1, visits=2, busy_time=0.5)
        b = RankCounters(source_events=3, edge_inserts=4, busy_time=0.25)
        m = a.merge(b)
        assert m.source_events == 4
        assert m.visits == 2
        assert m.edge_inserts == 4
        assert m.busy_time == 0.75

    def test_defaults_zero(self):
        c = RankCounters()
        assert c.source_events == 0
        assert c.busy_time == 0.0

    def test_merge_covers_every_field(self):
        # Reflection guard: adding a counter field without extending
        # merge() silently drops it from total_counters(); this fails
        # the moment a field stops being summed.
        flds = dataclasses.fields(RankCounters)
        a = RankCounters(**{f.name: i + 1 for i, f in enumerate(flds)})
        b = RankCounters(**{f.name: 100 * (i + 1) for i, f in enumerate(flds)})
        m = a.merge(b)
        for i, f in enumerate(flds):
            assert getattr(m, f.name) == 101 * (i + 1), f.name


class TestCostModelToDict:
    def test_json_ready(self):
        d = CostModel().to_dict()
        assert d["ranks_per_node"] == CostModel().ranks_per_node
        # inf is not valid JSON; the unbounded-memory default maps to None.
        assert d["rank_memory_bytes"] is None
        json.dumps(d)

    def test_finite_memory_preserved(self):
        d = CostModel(rank_memory_bytes=1024.0).to_dict()
        assert d["rank_memory_bytes"] == 1024.0
