"""Tests for the convergence-lag probe and its static references."""

import numpy as np
import pytest

from repro import (
    DynamicEngine,
    EngineConfig,
    IncrementalBFS,
    IncrementalCC,
    rmat_edges,
    split_streams,
)
from repro.obs import FreshnessProbe, make_reference
from repro.runtime.plugins import BulkIngestPlugin, MetricsPlugin, TracerPlugin


def sampled(sample_interval):
    """The plugins of a run sampled every ``sample_interval`` virtual
    seconds (None = unsampled)."""
    return [MetricsPlugin(sample_interval)] if sample_interval is not None else []


def probed_run(programs, init=None, kind="cc", source=None, n_ranks=2,
               divisor=20, plugins=()):
    """Two-pass helper: learn the makespan, then rerun sampled with a
    freshness probe on ``programs[0]``."""
    rng = np.random.default_rng(5)
    src, dst = rmat_edges(8, edge_factor=4, rng=rng)

    def build(sample_interval=None):
        e = DynamicEngine(
            list(programs),
            EngineConfig(n_ranks=n_ranks),
            plugins=[*plugins, *sampled(sample_interval)],
        )
        for prog, vertex in init or []:
            e.init_program(prog, vertex)
        e.attach_streams(
            split_streams(src, dst, n_ranks, rng=np.random.default_rng(9))
        )
        return e

    probe = build()
    probe.run()
    makespan = probe.loop.max_time()
    eng = build(sample_interval=makespan / divisor)
    eng.add_freshness_probe(
        programs[0].name, make_reference(kind, source=source)
    )
    eng.run()
    return eng


class TestMakeReference:
    def test_unknown_kind_raises(self):
        with pytest.raises(ValueError, match="pagerank"):
            make_reference("pagerank")

    def test_each_kind_builds_a_callable(self):
        for kind in ("bfs", "sssp", "cc", "st", "widest"):
            assert callable(make_reference(kind, source=0, sources=[0]))


class TestFreshnessProbe:
    def test_requires_sampler(self):
        eng = DynamicEngine([IncrementalCC()], EngineConfig(n_ranks=1))
        with pytest.raises(RuntimeError, match=r"MetricsPlugin\(sample_interval"):
            eng.add_freshness_probe("cc", make_reference("cc"))

    def test_watched_programs_listed(self):
        eng = DynamicEngine(
            [IncrementalCC()], EngineConfig(n_ranks=1), plugins=sampled(1.0)
        )
        eng.add_freshness_probe("cc", make_reference("cc"))
        assert eng.sampler.freshness.watched == ["cc"]

    def test_empty_probe_records_nothing(self):
        reg_rows = []

        class Reg:
            def record(self, row):
                reg_rows.append(row)

        FreshnessProbe(engine=None).sample(0.0, Reg())
        assert reg_rows == []

    def test_records_one_series_per_watched_program(self):
        eng = probed_run([IncrementalCC()], kind="cc")
        rows = eng.metrics.rows("freshness")
        assert len(rows) == len(eng.metrics.rows("sample"))
        assert {r["prog"] for r in rows} == {"cc"}
        for r in rows:
            assert set(r) >= {"t", "stale", "frac", "lag", "lag_events", "events"}
            assert 0.0 <= r["frac"] <= 1.0
            assert r["lag"] >= 0.0

    def test_lag_is_zero_once_converged(self):
        eng = probed_run([IncrementalCC()], kind="cc")
        final = eng.metrics.rows("freshness")[-1]
        assert final["stale"] == 0
        assert final["frac"] == 0.0
        assert final["lag"] == 0.0
        assert final["lag_events"] == 0

    def test_mid_stream_staleness_observed(self):
        # CC on a random stream: mid-ingest the live labels genuinely
        # trail the prefix reference at least once at this resolution.
        eng = probed_run([IncrementalCC()], kind="cc", divisor=40)
        assert any(r["stale"] > 0 for r in eng.metrics.rows("freshness"))

    def test_lag_monotone_while_stale(self):
        eng = probed_run([IncrementalCC()], kind="cc", divisor=40)
        rows = eng.metrics.rows("freshness")
        for prev, cur in zip(rows, rows[1:]):
            if prev["stale"] > 0 and cur["stale"] > 0:
                assert cur["lag"] > prev["lag"]
                assert cur["lag_events"] >= prev["lag_events"]

    def test_bfs_reference_with_source(self):
        eng = probed_run(
            [IncrementalBFS()], init=[("bfs", 0)], kind="bfs", source=0
        )
        final = eng.metrics.rows("freshness")[-1]
        assert final["stale"] == 0

    def test_probe_emits_tracer_counter_when_tracing(self):
        eng = probed_run([IncrementalCC()], kind="cc", plugins=[TracerPlugin()])
        series = [ev for ev in eng.tracer.events if ev[2] == "freshness/cc"]
        assert len(series) == len(eng.metrics.rows("freshness"))

    def test_widest_reference_with_weights(self):
        from repro import WidestPath
        from repro.generators.weights import pairwise_weights

        rng = np.random.default_rng(6)
        src, dst = rmat_edges(7, edge_factor=4, rng=rng)
        w = pairwise_weights(src, dst, 1, 9)
        source = int(src[0])

        def build(sample_interval=None):
            e = DynamicEngine(
                [WidestPath()],
                EngineConfig(n_ranks=2),
                plugins=sampled(sample_interval),
            )
            e.init_program("widest", source)
            e.attach_streams(split_streams(src, dst, 2, weights=w))
            return e

        probe = build()
        probe.run()
        makespan = probe.loop.max_time()
        eng = build(sample_interval=makespan / 20)
        eng.add_freshness_probe(
            "widest", make_reference("widest", source=source)
        )
        eng.run()
        final = eng.metrics.rows("freshness")[-1]
        assert final["stale"] == 0

    def test_churn_stream_reference_stays_truthful(self):
        # §VI-B: the oracle recomputes on the *current* topology with
        # every applied delete retired, so a generational program on a
        # churn stream must read stale == 0 at quiescence.
        from repro import GenerationalBFS
        from repro.generators.churn import churn_events, split_churn_streams

        cols = churn_events(
            30, 140, delete_ratio=0.25, rng=np.random.default_rng(7)
        )

        def build(sample_interval=None):
            e = DynamicEngine(
                [GenerationalBFS()],
                EngineConfig(n_ranks=2),
                plugins=sampled(sample_interval),
            )
            e.init_program("gen-bfs", 0)
            e.attach_streams(split_churn_streams(*cols, 2))
            return e

        probe = build()
        probe.run()
        assert sum(c.edge_deletes for c in probe.counters) > 0
        makespan = probe.loop.max_time()
        eng = build(sample_interval=makespan / 25)
        eng.add_freshness_probe(
            "gen-bfs",
            make_reference("bfs", source=0, value_of=lambda v: v[1]),
        )
        eng.run()
        rows = eng.metrics.rows("freshness")
        assert rows[-1]["stale"] == 0
        assert rows[-1]["lag"] == 0.0

    def test_st_reference_passes_value_of(self):
        from repro import GenerationalST
        from repro.events.types import ADD, DELETE
        from repro import ListEventStream

        st = GenerationalST()
        bit = st.register_source(0)
        e = DynamicEngine([st], EngineConfig(n_ranks=1), plugins=sampled(1e-5))
        e.init_program("gen-st", 0, bit)
        e.add_freshness_probe(
            "gen-st",
            make_reference(
                "st", sources=[0], value_of=GenerationalST.mask_of
            ),
        )
        events = [(ADD, 0, 1, 1), (ADD, 1, 2, 1), (DELETE, 1, 2, 0)]
        e.attach_streams([ListEventStream(events)])
        e.run()
        assert e.metrics.rows("freshness")[-1]["stale"] == 0

    def test_bulk_mirror_flush_is_not_a_deoptimization(self):
        # Probing a bulk-ingest run folds the dense mirror back before
        # each reference check; that observer read must not count as a
        # fallback flush (nothing forced per-event replay).
        eng = probed_run([IncrementalCC()], kind="cc", plugins=[BulkIngestPlugin()])
        assert eng.total_counters().bulk_events > 0
        assert eng.total_counters().fallback_flushes == 0
        assert eng.metrics.rows("freshness")[-1]["stale"] == 0
