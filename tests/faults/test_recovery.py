"""Crash recovery: checkpoints, whole-cluster rollback, suffix replay.

The FaultTolerantRunner must drive a workload through rank crashes —
with and without periodic checkpoints — and end in exactly the state a
fault-free run produces, replaying only the suffix when a checkpoint
exists.
"""

import numpy as np
import pytest

from repro import (
    DynamicEngine,
    EngineConfig,
    FaultPlan,
    FaultTolerantRunner,
    IncrementalBFS,
    IncrementalCC,
    RankCrash,
    RankStall,
)
from repro.analytics import verify_bfs, verify_cc
from repro.events.stream import split_streams
from repro.runtime.plugins import BulkIngestPlugin, MetricsPlugin

N_RANKS = 3


def workload(seed=7, n_vertices=80, n_events=500):
    rng = np.random.default_rng(seed)
    src = rng.integers(0, n_vertices, n_events, dtype=np.int64)
    dst = rng.integers(0, n_vertices, n_events, dtype=np.int64)
    return src, dst


def make_harness(src, dst, tmp_path, sample_interval=None):
    def engine_factory():
        return DynamicEngine(
            [IncrementalBFS(), IncrementalCC()],
            EngineConfig(n_ranks=N_RANKS),
            plugins=[MetricsPlugin(sample_interval)] if sample_interval else None,
        )

    def stream_factory():
        return split_streams(src, dst, N_RANKS)

    def init_fn(eng):
        eng.init_program("bfs", 0)

    return engine_factory, stream_factory, init_fn, tmp_path / "ckpt.npz"


def fault_free_state(src, dst):
    eng = DynamicEngine(
        [IncrementalBFS(), IncrementalCC()], EngineConfig(n_ranks=N_RANKS)
    )
    eng.init_program("bfs", 0)
    eng.attach_streams(split_streams(src, dst, N_RANKS))
    eng.run()
    return eng.state("bfs"), eng.state("cc"), eng.loop.max_time()


class TestCrashRecovery:
    def test_single_crash_with_checkpoints_converges(self, tmp_path):
        src, dst = workload()
        bfs_ref, cc_ref, vt = fault_free_state(src, dst)
        ef, sf, init, path = make_harness(src, dst, tmp_path)
        plan = FaultPlan(seed=4, crashes=[RankCrash(time=vt * 0.5)])
        res = FaultTolerantRunner(
            ef, sf, plan, path, checkpoint_interval=vt * 0.2, init_fn=init
        ).run()
        assert res.recoveries == 1 and res.incarnations == 2
        assert res.checkpoints >= 1
        assert res.engine.loop.quiescent()
        assert res.engine.state("bfs") == bfs_ref
        assert res.engine.state("cc") == cc_ref
        assert verify_bfs(res.engine, "bfs", 0) == []
        assert verify_cc(res.engine, "cc") == []

    def test_checkpoint_bounds_replay(self, tmp_path):
        # With checkpoints the second incarnation replays a suffix,
        # not the whole stream.
        src, dst = workload()
        _, _, vt = fault_free_state(src, dst)
        ef, sf, init, path = make_harness(src, dst, tmp_path)
        plan = FaultPlan(seed=0, crashes=[RankCrash(time=vt * 0.8)])
        res = FaultTolerantRunner(
            ef, sf, plan, path, checkpoint_interval=vt * 0.25, init_fn=init
        ).run()
        assert res.checkpoints >= 2
        assert 0 < res.events_replayed < len(src)

    def test_no_checkpoint_rolls_back_to_start(self, tmp_path):
        src, dst = workload()
        bfs_ref, _, vt = fault_free_state(src, dst)
        ef, sf, init, path = make_harness(src, dst, tmp_path)
        plan = FaultPlan(seed=0, crashes=[RankCrash(time=vt * 0.5)])
        res = FaultTolerantRunner(ef, sf, plan, path, init_fn=init).run()
        assert res.checkpoints == 0
        assert res.events_replayed == len(src)  # full replay
        assert res.engine.state("bfs") == bfs_ref

    def test_two_crashes_survived(self, tmp_path):
        src, dst = workload(seed=11)
        bfs_ref, cc_ref, vt = fault_free_state(src, dst)
        ef, sf, init, path = make_harness(src, dst, tmp_path)
        plan = FaultPlan(
            seed=9,
            crashes=[RankCrash(time=vt * 0.6), RankCrash(time=vt * 0.4)],
        )
        res = FaultTolerantRunner(
            ef, sf, plan, path, checkpoint_interval=vt * 0.3, init_fn=init
        ).run()
        assert res.recoveries == 2
        assert res.engine.state("bfs") == bfs_ref
        assert res.engine.state("cc") == cc_ref

    def test_crash_after_completion_is_moot(self, tmp_path):
        src, dst = workload()
        _, _, vt = fault_free_state(src, dst)
        ef, sf, init, path = make_harness(src, dst, tmp_path)
        plan = FaultPlan(seed=0, crashes=[RankCrash(time=vt * 100)])
        res = FaultTolerantRunner(
            ef, sf, plan, path, checkpoint_interval=vt * 0.4, init_fn=init
        ).run()
        assert res.incarnations == 1 and res.recoveries == 0

    def test_virtual_time_sums_incarnations(self, tmp_path):
        src, dst = workload()
        _, _, vt = fault_free_state(src, dst)
        ef, sf, init, path = make_harness(src, dst, tmp_path)
        plan = FaultPlan(seed=0, crashes=[RankCrash(time=vt * 0.5)])
        res = FaultTolerantRunner(
            ef, sf, plan, path, checkpoint_interval=vt * 0.2, init_fn=init
        ).run()
        assert res.virtual_time > res.engine.loop.max_time()

    def test_runaway_crash_schedule_raises(self, tmp_path):
        src, dst = workload(n_events=100)
        ef, sf, init, path = make_harness(src, dst, tmp_path)
        plan = FaultPlan(
            seed=0, crashes=[RankCrash(time=1e-9) for _ in range(5)]
        )
        with pytest.raises(RuntimeError, match="incarnations"):
            FaultTolerantRunner(
                ef, sf, plan, path, init_fn=init, max_incarnations=3
            ).run()

    def test_bad_checkpoint_interval_rejected(self, tmp_path):
        src, dst = workload(n_events=10)
        ef, sf, init, path = make_harness(src, dst, tmp_path)
        with pytest.raises(ValueError, match="checkpoint_interval"):
            FaultTolerantRunner(
                ef, sf, FaultPlan(), path, checkpoint_interval=0.0
            )

    def test_recoveries_counter_reaches_metrics(self, tmp_path):
        src, dst = workload()
        _, _, vt = fault_free_state(src, dst)
        ef, sf, init, path = make_harness(
            src, dst, tmp_path, sample_interval=vt / 10
        )
        plan = FaultPlan(seed=0, crashes=[RankCrash(time=vt * 0.5)])
        res = FaultTolerantRunner(
            ef, sf, plan, path, checkpoint_interval=vt * 0.25, init_fn=init
        ).run()
        assert res.engine.metrics.counters["recoveries"] == 1
        assert res.engine.metrics.counters["checkpoints"] == res.checkpoints

    def test_sampler_survives_checkpoint_pauses(self, tmp_path):
        # Checkpoints drain to quiescence mid-run, which stops the
        # sampler; the runner must re-arm it so the resumed segment
        # keeps producing rows.
        src, dst = workload()
        _, _, vt = fault_free_state(src, dst)
        ef, sf, init, path = make_harness(
            src, dst, tmp_path, sample_interval=vt / 20
        )
        plan = FaultPlan(seed=1)
        res = FaultTolerantRunner(
            ef, sf, plan, path, checkpoint_interval=vt * 0.25, init_fn=init
        ).run()
        assert res.checkpoints >= 2
        rows = res.engine.metrics.rows("sample")
        assert len(rows) >= res.checkpoints + 1
        assert rows[-1]["t"] > vt * 0.5


def test_empty_plan_is_the_fault_free_run(tmp_path):
    """A plan with no crash and no stall runs on the plain FIFO channels:
    the runner's engine is the fault-free engine, clock for clock."""
    src, dst = workload(seed=5, n_vertices=120, n_events=800)

    def engine_factory():
        return DynamicEngine(
            [IncrementalBFS(), IncrementalCC()],
            EngineConfig(n_ranks=4, coalesce_updates=True),
        )

    def init_fn(eng):
        eng.init_program("bfs", 0)

    plain = engine_factory()
    init_fn(plain)
    plain.attach_streams(split_streams(src, dst, 4))
    plain.run()
    res = FaultTolerantRunner(
        engine_factory,
        lambda: split_streams(src, dst, 4),
        FaultPlan(seed=1),
        tmp_path / "ckpt.npz",
        init_fn=init_fn,
    ).run()
    eng = res.engine
    assert res.incarnations == 1 and res.checkpoints == 0
    assert [c.hex() for c in eng.loop.clock] == [c.hex() for c in plain.loop.clock]
    assert eng.loop.messages_delivered == plain.loop.messages_delivered
    assert eng.loop.messages_squashed == plain.loop.messages_squashed > 0
    assert eng._prog_visits == plain._prog_visits
    assert eng.state("bfs") == plain.state("bfs")
    assert eng.state("cc") == plain.state("cc")


def test_every_incarnation_runs_under_the_plan(tmp_path):
    """The runner sets the plan up on each fresh engine before it runs:
    a factory's bulk ingestor stays off in every incarnation (a chunk
    would step over the plan's instants), and the stall fires in the
    incarnation that finishes."""
    src, dst = workload()
    bfs_ref, cc_ref, vt = fault_free_state(src, dst)
    built = []

    def engine_factory():
        built.append(
            DynamicEngine(
                [IncrementalBFS(), IncrementalCC()],
                EngineConfig(n_ranks=N_RANKS),
                plugins=[BulkIngestPlugin()],
            )
        )
        return built[-1]

    _, sf, init, path = make_harness(src, dst, tmp_path)
    plan = FaultPlan(
        seed=2,
        crashes=[RankCrash(time=vt * 0.4)],
        stalls=[RankStall(time=vt * 0.7, rank=1)],
    )
    res = FaultTolerantRunner(
        engine_factory, sf, plan, path, checkpoint_interval=vt * 0.2, init_fn=init
    ).run()
    assert res.incarnations == len(built) == 2
    for eng in built:
        assert eng._bulk is not None and eng._bulk.disabled
        assert eng.total_counters().bulk_chunks == 0
    assert res.engine is built[-1]
    assert res.engine.loop.fault_stall_time > 0
    assert res.engine.state("bfs") == bfs_ref
    assert res.engine.state("cc") == cc_ref
