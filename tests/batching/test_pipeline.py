"""Tests for the snapshot/batching baseline pipeline (§VI-A)."""

import numpy as np
import pytest

from repro.batching import SnapshotPipeline


def chain(n):
    return np.arange(n, dtype=np.int64), np.arange(n, dtype=np.int64) + 1


class TestBatching:
    def test_batch_count_by_interval(self):
        src, dst = chain(100)
        p = SnapshotPipeline(batch_interval=1e-5, arrival_rate=1e6, n_ranks=4)
        r = p.run(src, dst, 0)
        # 10 events per batch -> 10 batches
        assert r.n_batches == 10
        assert r.n_events == 100

    def test_staleness_at_least_waiting_time(self):
        src, dst = chain(50)
        p = SnapshotPipeline(batch_interval=1e-5, arrival_rate=1e6, n_ranks=4)
        r = p.run(src, dst, 0)
        # The first event of every batch waits the whole interval before
        # compute even starts.
        assert r.staleness_max >= 1e-5
        assert 0 < r.staleness_mean <= r.staleness_max

    def test_smaller_batches_reduce_staleness_but_raise_compute(self):
        # In the regime where compute keeps up with the cadence, finer
        # batches trade compute for freshness.  (When compute cannot
        # keep up, finer batches *backlog* and staleness explodes — see
        # test_backlogged_compute_serialises.)
        src, dst = chain(200)
        fine = SnapshotPipeline(batch_interval=2.5e-5, arrival_rate=1e6, n_ranks=64)
        coarse = SnapshotPipeline(batch_interval=1e-4, arrival_rate=1e6, n_ranks=64)
        rf, rc = fine.run(src, dst, 0), coarse.run(src, dst, 0)
        assert rf.staleness_mean < rc.staleness_mean
        # Finer batching recomputes from scratch far more often.
        assert rf.compute_time > rc.compute_time
        assert rf.n_batches > rc.n_batches

    def test_compute_grows_superlinearly_with_stream(self):
        # Drawback (i): every batch rebuilds everything so far, so total
        # compute grows ~quadratically in the number of batches.
        p = SnapshotPipeline(batch_interval=1e-5, arrival_rate=1e6, n_ranks=4)
        src1, dst1 = chain(100)
        src2, dst2 = chain(200)
        r1, r2 = p.run(src1, dst1, 0), p.run(src2, dst2, 0)
        assert r2.compute_time > 3 * r1.compute_time

    def test_backlogged_compute_serialises(self):
        # With a compute stage slower than the batch cadence (one event
        # per microsecond, one rank recomputing), completions queue:
        # each completion strictly after the previous.
        p = SnapshotPipeline(batch_interval=1e-6, arrival_rate=1e6, n_ranks=1)
        src, dst = chain(30)
        r = p.run(src, dst, 0)
        assert all(
            b < a for b, a in zip(r.batch_completion_times, r.batch_completion_times[1:])
        )
        # The stage never idles after the first batch closes at t=0.
        assert r.total_time == pytest.approx(r.compute_time)
        # staleness blows up under backlog
        assert r.staleness_max > 10 * 1e-6

    def test_empty_stream(self):
        p = SnapshotPipeline(batch_interval=1e-5, arrival_rate=1e6, n_ranks=2)
        r = p.run(np.empty(0, np.int64), np.empty(0, np.int64), 0)
        assert r.n_batches == 0
        assert r.staleness_mean == 0.0

    def test_summary_readable(self):
        src, dst = chain(20)
        p = SnapshotPipeline(batch_interval=1e-5, arrival_rate=1e6, n_ranks=2)
        assert "batches=" in p.run(src, dst, 0).summary()

    def test_validation(self):
        with pytest.raises(ValueError):
            SnapshotPipeline(batch_interval=0, arrival_rate=1, n_ranks=1)
        with pytest.raises(ValueError):
            SnapshotPipeline(batch_interval=1, arrival_rate=0, n_ranks=1)
        with pytest.raises(ValueError):
            SnapshotPipeline(batch_interval=1, arrival_rate=1, n_ranks=0)
