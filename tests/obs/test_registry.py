"""Tests for the metrics registry and the virtual-time sampler's engine
integration."""

import numpy as np
import pytest

from repro import (
    DynamicEngine,
    EngineConfig,
    IncrementalCC,
    rmat_edges,
    split_streams,
)
from repro.obs import MetricsRegistry, VirtualTimeSampler
from repro.runtime.plugins import MetricsPlugin, TracerPlugin


class TestMetricsRegistry:
    def test_counters_accumulate(self):
        reg = MetricsRegistry()
        reg.inc("collections")
        reg.inc("collections", by=2)
        assert reg.counters["collections"] == 3

    def test_holds_counters_and_rows_only(self):
        """A number the engine or a result already owns (a collection's
        latency, a dispatch span, a rank's wall seconds) is not copied
        into the registry."""
        assert MetricsRegistry.__slots__ == ("counters", "samples")

    def test_dispatch_does_not_read_the_registry(self):
        assert "metrics" not in DynamicEngine.on_message.__code__.co_names

    def test_rows_filter_by_kind(self):
        reg = MetricsRegistry()
        reg.record({"kind": "sample", "t": 0.0, "edges": 1})
        reg.record({"kind": "freshness", "t": 0.0, "prog": "cc", "stale": 2})
        reg.record({"kind": "sample", "t": 1.0, "edges": 5})
        assert len(reg.rows()) == 3
        assert [r["edges"] for r in reg.rows("sample")] == [1, 5]
        assert len(reg.rows("freshness")) == 1


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
