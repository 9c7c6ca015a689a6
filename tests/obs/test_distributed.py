"""The distributed (mp-backend) observability layer: per-rank capture,
clock alignment, cross-rank merge, and the merged Chrome trace."""

import numpy as np
import pytest

from repro import IncrementalCC
from repro.events.stream import split_streams
from repro.obs import (
    ClockAnchor,
    Histogram,
    MetricsRegistry,
    ObsConfig,
    RankObs,
    chrome_trace_dict,
    harvest_payload,
    merge_rank_obs,
    validate_chrome_trace,
)
from repro.parallel import WireConfig, run_parallel
from repro.runtime.engine import EngineConfig


# ----------------------------------------------------------------------
# config + anchor
# ----------------------------------------------------------------------
class TestObsConfig:
    def test_enabled_iff_any_capture_requested(self):
        assert not ObsConfig().enabled
        assert ObsConfig(trace=True).enabled
        assert ObsConfig(metrics=True).enabled

    def test_ring_sample_every_validated(self):
        with pytest.raises(ValueError, match="ring_sample_every"):
            ObsConfig(metrics=True, ring_sample_every=0)


class TestClockAnchor:
    def test_offset_is_wall_delta(self):
        parent = ClockAnchor(wall=100.0, perf=5.0)
        child = ClockAnchor(wall=100.25, perf=77.0)
        assert child.offset_from(parent) == pytest.approx(0.25)

    def test_offset_clamped_non_negative_under_clock_step(self):
        parent = ClockAnchor(wall=100.0, perf=5.0)
        stepped = ClockAnchor(wall=99.0, perf=3.0)  # NTP stepped back
        assert stepped.offset_from(parent) == 0.0

    def test_capture_orders_with_real_time(self):
        a = ClockAnchor.capture()
        b = ClockAnchor.capture()
        assert b.offset_from(a) >= 0.0


# ----------------------------------------------------------------------
# merge associativity (satellite: MetricsRegistry cross-rank folding)
# ----------------------------------------------------------------------
def _registry(counter: float, values: list[float]) -> MetricsRegistry:
    reg = MetricsRegistry()
    reg.inc("events", counter)
    h = reg.histogram("latency_us")
    for v in values:
        h.observe(v)
    return reg


class TestMergeAssociativity:
    def test_counter_and_histogram_merge_is_associative(self):
        parts = [
            _registry(3, [1.0, 50.0]),
            _registry(5, [200.0]),
            _registry(7, [0.5, 3000.0, 8.0]),
        ]
        left = MetricsRegistry.merged(
            [MetricsRegistry.merged(parts[:2]), parts[2]]
        )
        right = MetricsRegistry.merged(
            [parts[0], MetricsRegistry.merged(parts[1:])]
        )
        flat = MetricsRegistry.merged(parts)
        for merged in (left, right):
            assert merged.counters == flat.counters == {"events": 15}
            assert (
                merged.histograms["latency_us"].to_dict()
                == flat.histograms["latency_us"].to_dict()
            )

    def test_merged_does_not_mutate_parts(self):
        parts = [_registry(1, [2.0]), _registry(2, [4.0])]
        before = [p.histograms["latency_us"].to_dict() for p in parts]
        MetricsRegistry.merged(parts)
        assert [p.histograms["latency_us"].to_dict() for p in parts] == before

    def test_histogram_merge_requires_matching_bounds(self):
        a = Histogram(bounds=(1.0, 2.0))
        b = Histogram(bounds=(1.0, 3.0))
        with pytest.raises(ValueError, match="bounds"):
            a.merge_from(b)

    def test_histogram_roundtrip_and_quantiles_survive_merge(self):
        a, b = Histogram(), Histogram()
        for v in (5.0, 70.0, 900.0):
            a.observe(v)
        b.observe(12000.0)
        a.merge_from(Histogram.from_dict(b.to_dict()))
        assert a.count == 4
        assert a.quantile(1.0) >= 900.0
        assert a.max >= 12000.0


# ----------------------------------------------------------------------
# RankObs capture semantics
# ----------------------------------------------------------------------
class TestRankObs:
    def test_metrics_only_capture_has_no_tracer(self):
        obs = RankObs(0, ObsConfig(metrics=True))
        assert obs.tracer is None
        t0 = obs.now()
        obs.span("drain", t0, "drain")
        obs.inc("slabs_decoded", 3)
        assert obs.busy_seconds > 0.0
        assert obs.registry.counters == {"slabs_decoded": 3}

    def test_wait_spans_do_not_accrue_busy(self):
        obs = RankObs(0, ObsConfig(trace=True))
        obs.span("wait", obs.now() - 0.5, "wait")
        assert obs.busy_seconds == 0.0

    def test_busy_never_exceeds_wall_under_nested_spans(self):
        obs = RankObs(0, ObsConfig(trace=True))
        t_outer = obs.now()
        # An emit flushed mid-dispatch overlaps the enclosing span; the
        # watermark accounting must not double-count the overlap.
        obs.span("emit", t_outer, "emit")
        obs.span("dispatch", t_outer, "compute")
        assert obs.busy_seconds <= obs.now()

    def test_busy_false_spans_record_but_do_not_accrue(self):
        obs = RankObs(1, ObsConfig(trace=True))
        obs.span("kernel_drain", obs.now() - 0.25, "compute", busy=False)
        assert obs.busy_seconds == 0.0
        assert len(obs.tracer) == 1


# ----------------------------------------------------------------------
# harvest + merge (pure, no processes)
# ----------------------------------------------------------------------
def _fake_payload(rank: int, anchor_wall: float, t0: float) -> dict:
    obs = RankObs(rank, ObsConfig(trace=True, metrics=True))
    # Overwrite the real anchor with a deterministic one.
    obs.anchor = ClockAnchor(wall=anchor_wall, perf=0.0)
    obs.tracer.span(rank, "drain", t0, t0 + 0.010, "drain")
    obs.tracer.span(rank, "dispatch", t0 + 0.010, t0 + 0.030, "compute")
    obs.inc("wire_sent", 10 * (rank + 1))
    obs.inc("wire_received", 10 * (rank + 1))
    obs.busy_seconds = 0.030
    payload = harvest_payload(obs, {"ring_hwm_bytes": 64 * (rank + 1)})
    payload["wall_seconds"] = 0.040
    return payload


class TestMergeRankObs:
    def test_alignment_preserves_per_track_monotonicity(self):
        parent = ClockAnchor(wall=1000.0, perf=0.0)
        payloads = [
            _fake_payload(0, 1000.001, 0.0),
            _fake_payload(1, 1000.020, 0.0),
        ]
        merged = merge_rank_obs(payloads, parent)
        assert merged.offsets == {
            0: pytest.approx(0.001),
            1: pytest.approx(0.020),
        }
        # The merged trace validates: per-pid timestamps stay monotone
        # because each rank's shift is one constant.
        counts = validate_chrome_trace(chrome_trace_dict(merged.tracer))
        assert counts["X"] == 4 and counts["M"] == 2

    def test_rank1_events_shifted_later_than_rank0(self):
        parent = ClockAnchor(wall=1000.0, perf=0.0)
        merged = merge_rank_obs(
            [_fake_payload(0, 1000.0, 0.0), _fake_payload(1, 1000.5, 0.0)],
            parent,
        )
        by_rank = {}
        for _ph, rank, _name, _cat, ts, _dur, _args in merged.tracer.events:
            by_rank.setdefault(rank, []).append(ts)
        assert min(by_rank[1]) >= min(by_rank[0]) + 0.5

    def test_counters_sum_and_hwm_takes_max(self):
        parent = ClockAnchor(wall=1000.0, perf=0.0)
        merged = merge_rank_obs(
            [_fake_payload(0, 1000.0, 0.0), _fake_payload(1, 1000.0, 0.0)],
            parent,
        )
        assert merged.registry.counters["wire_sent"] == 30
        assert merged.registry.gauges["ring_hwm_bytes"] == 128
        rank_rows = merged.registry.rows("rank")
        assert [r["rank"] for r in rank_rows] == [0, 1]
        assert merged.skew() == pytest.approx(1.0)
        summary = merged.summary()
        assert summary["ranks"] == [0, 1]
        assert summary["counters"]["wire_received"] == 30


# ----------------------------------------------------------------------
# end-to-end: merged multi-pid trace under fork AND spawn
# ----------------------------------------------------------------------
def _obs_run(start_method: str, n_ranks: int = 2):
    rng = np.random.default_rng(3)
    n = 600
    src = rng.integers(0, 100, n).astype(np.int64)
    dst = (src + 1 + rng.integers(0, 98, n).astype(np.int64)) % 100
    return run_parallel(
        [IncrementalCC()],
        split_streams(src, dst, n_ranks, rng=rng),
        config=EngineConfig(n_ranks=n_ranks),
        wire=WireConfig(start_method=start_method),
        obs=ObsConfig(trace=True, metrics=True),
    )


@pytest.mark.parametrize("start_method", ["fork", "spawn"])
def test_merged_trace_validates_fork_and_spawn(start_method):
    result = _obs_run(start_method)
    merged = result.obs
    assert merged is not None
    counts = validate_chrome_trace(chrome_trace_dict(merged.tracer))
    assert counts["X"] > 0 and counts["M"] == 2
    pids = {ev[1] for ev in merged.tracer.events}
    assert pids == {0, 1}
    # Cross-rank counters survived the harvest and balance.
    counters = merged.registry.counters
    assert counters["wire_sent"] == counters["wire_received"]
    assert counters["slabs_decoded"] > 0
    assert result.to_dict()["obs"]["busy_skew"] >= 1.0


def test_single_rank_capture_has_no_ring_samples():
    """One rank has no peers, so no rings to sample — the capture still
    validates."""
    result = _obs_run("fork", n_ranks=1)
    merged = result.obs
    assert merged.registry.rows("ring_sample") == []
    assert {ev[1] for ev in merged.tracer.events} == {0}
    validate_chrome_trace(chrome_trace_dict(merged.tracer))


def test_disabled_config_yields_no_capture():
    rng = np.random.default_rng(3)
    src = rng.integers(0, 50, 200).astype(np.int64)
    dst = (src + 1) % 50
    result = run_parallel(
        [IncrementalCC()],
        split_streams(src, dst, 2, rng=rng),
        config=EngineConfig(n_ranks=2),
        wire=WireConfig(start_method="fork"),
        obs=ObsConfig(),  # trace=False, metrics=False
    )
    assert result.obs is None
    assert all("obs" not in info for info in result.per_rank)
