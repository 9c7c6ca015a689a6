"""Tests for the metrics registry, histograms, and the virtual-time
sampler's engine integration."""

import numpy as np
import pytest

from repro import (
    DynamicEngine,
    EngineConfig,
    IncrementalCC,
    rmat_edges,
    split_streams,
)
from repro.obs import DEFAULT_BOUNDS_US, Histogram, MetricsRegistry, VirtualTimeSampler
from repro.runtime.plugins import MetricsPlugin, TracerPlugin


class TestHistogram:
    def test_bucketing(self):
        h = Histogram(bounds=(1.0, 10.0))
        for v in (0.5, 1.0, 5.0, 100.0):
            h.observe(v)
        # bisect_right: bucket i holds values strictly below bounds[i],
        # a value equal to a bound rolls up; 100 overflows the last.
        assert h.counts == [1, 2, 1]
        assert h.count == 4
        assert h.total == 106.5
        assert h.min == 0.5
        assert h.max == 100.0

    def test_mean_of_empty_is_zero(self):
        assert Histogram().mean == 0.0

    def test_to_dict_empty_min_max_are_none(self):
        d = Histogram().to_dict()
        assert d["count"] == 0
        assert d["min"] is None and d["max"] is None
        assert d["bounds"] == list(DEFAULT_BOUNDS_US)

    def test_to_dict_roundtrips_observations(self):
        h = Histogram(bounds=(1.0,))
        h.observe(0.25)
        h.observe(0.75)
        d = h.to_dict()
        assert d["counts"] == [2, 0]
        assert d["mean"] == 0.5


class TestMetricsRegistry:
    def test_counters_accumulate(self):
        reg = MetricsRegistry()
        reg.inc("collections")
        reg.inc("collections", by=2)
        assert reg.counters["collections"] == 3

    def test_gauges_overwrite(self):
        reg = MetricsRegistry()
        reg.set_gauge("edges", 10)
        reg.set_gauge("edges", 20)
        assert reg.gauges["edges"] == 20

    def test_histogram_get_or_create(self):
        reg = MetricsRegistry()
        h1 = reg.histogram("dispatch_virtual_us")
        h1.observe(1.0)
        h2 = reg.histogram("dispatch_virtual_us")
        assert h1 is h2
        assert h2.count == 1

    def test_rows_filter_by_kind(self):
        reg = MetricsRegistry()
        reg.record({"kind": "sample", "t": 0.0, "edges": 1})
        reg.record({"kind": "freshness", "t": 0.0, "prog": "cc", "stale": 2})
        reg.record({"kind": "sample", "t": 1.0, "edges": 5})
        assert len(reg.rows()) == 3
        assert [r["edges"] for r in reg.rows("sample")] == [1, 5]
        assert len(reg.rows("freshness")) == 1

    def test_series_extracts_time_value_pairs(self):
        reg = MetricsRegistry()
        reg.record({"kind": "sample", "t": 0.0, "edges": 1})
        reg.record({"kind": "sample", "t": 1.0})  # key absent -> skipped
        reg.record({"kind": "freshness", "t": 2.0, "stale": 9})
        assert reg.series("edges") == [(0.0, 1)]
        assert reg.series("stale", kind="freshness") == [(2.0, 9)]


def sampled_run(n_ranks=2, trace=False, divisor=10):
    """Run a small CC workload twice: once to learn the makespan, once
    sampled every makespan/divisor virtual seconds."""
    rng = np.random.default_rng(3)
    src, dst = rmat_edges(8, edge_factor=4, rng=rng)

    def build(plugins=None):
        e = DynamicEngine(
            [IncrementalCC()], EngineConfig(n_ranks=n_ranks), plugins=plugins
        )
        e.attach_streams(
            split_streams(src, dst, n_ranks, rng=np.random.default_rng(7))
        )
        return e

    probe = build()
    probe.run()
    makespan = probe.loop.max_time()
    plugins = [TracerPlugin()] if trace else []
    eng = build(plugins + [MetricsPlugin(makespan / divisor)])
    eng.run()
    return eng, makespan


class TestVirtualTimeSampler:
    def test_rejects_non_positive_interval(self):
        with pytest.raises(ValueError):
            VirtualTimeSampler(None, MetricsRegistry(), 0.0)

    def test_engine_wires_sampler_from_config(self):
        eng, _ = sampled_run()
        assert eng.sampler is not None
        assert eng.metrics is eng.sampler.registry

    def test_periodic_samples_cover_the_run(self):
        eng, makespan = sampled_run(divisor=10)
        samples = eng.metrics.rows("sample")
        # One at t=0, one per interval, plus the final quiescent firing.
        assert len(samples) >= 10
        ts = [r["t"] for r in samples]
        assert ts == sorted(ts)
        assert ts[0] == 0.0
        assert ts[-1] >= makespan

    def test_sample_row_shape(self):
        eng, _ = sampled_run()
        n = eng.config.n_ranks
        row = eng.metrics.rows("sample")[-1]
        for key in (
            "events", "events_remaining", "in_flight", "edges", "vertices",
            "updates_squashed", "stall_time",
        ):
            assert key in row, key
        for key in ("queue_depth", "prio_depth", "coalesce_pending", "clock",
                    "busy", "busy_frac"):
            assert len(row[key]) == n, key
        assert row["visits"] == {"cc": sum(c.visits for c in eng.counters)}

    def test_final_sample_sees_the_drained_cluster(self):
        eng, _ = sampled_run()
        last = eng.metrics.rows("sample")[-1]
        assert last["events"] == sum(c.source_events for c in eng.counters)
        assert last["events_remaining"] == 0
        assert last["in_flight"] == 0
        assert all(d == 0 for d in last["queue_depth"])

    def test_sampler_stops_at_quiescence(self):
        # engine.run() returning at all proves the alarm chain stopped;
        # additionally the schedule must not have run away past the end.
        eng, makespan = sampled_run(divisor=10)
        ts = [r["t"] for r in eng.metrics.rows("sample")]
        assert ts[-1] <= makespan + 2 * eng.sampler.interval

    def test_samples_are_virtual_time_deterministic(self):
        a, _ = sampled_run()
        b, _ = sampled_run()
        assert a.metrics.rows("sample") == b.metrics.rows("sample")

    def test_mirrors_series_to_tracer_counters(self):
        eng, _ = sampled_run(trace=True)
        n_samples = len(eng.metrics.rows("sample"))
        queues = [ev for ev in eng.tracer.events if ev[2] == "queues"]
        busy = [ev for ev in eng.tracer.events if ev[2] == "busy_frac"]
        assert len(queues) == n_samples * eng.config.n_ranks
        assert len(busy) == n_samples * eng.config.n_ranks

    def test_dispatch_histogram_populated(self):
        eng, _ = sampled_run(trace=True)
        h = eng.metrics.histograms["dispatch_virtual_us"]
        assert h.count > 0
        assert h.min >= 0.0
