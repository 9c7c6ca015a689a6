"""Crash recovery under churn — checkpoints as consistent generational cuts.

A quiescent checkpoint carries the generational programs' whole epoch /
generation state inside the value tuples plus the per-rank counters, so
replaying a delete-carrying suffix after a crash must land on exactly
the fault-free answers.  Equality is stated on the §VI-B projections
(distance / label / mask / capacity); raw epoch tags legitimately
differ across incarnations.

Crash timing matters: churn runs are compute-dominated, so the sources
exhaust within a small fraction of the virtual makespan and the first
post-exhaustion checkpoint completes the run.  Crashes are planted
inside the ingestion window (3% and 6% of the fault-free makespan, with
a 4% checkpoint interval) so both incarnations genuinely die mid-churn.
"""

import numpy as np
import pytest

from repro import (
    DynamicEngine,
    EngineConfig,
    FaultPlan,
    FaultTolerantRunner,
    GenerationalBFS,
    GenerationalCC,
    GenerationalSSSP,
    GenerationalST,
    GenerationalWidest,
    RankCrash,
)
from repro.analytics.verify import (
    verify_bfs,
    verify_cc,
    verify_sssp,
    verify_st,
    verify_widest,
)
from repro.faults import runner as runner_module
from repro.generators.churn import churn_events, split_churn_streams

N_RANKS = 3

DIST = lambda v: v[1]  # noqa: E731
LABEL = lambda v: v[1]  # noqa: E731
MASK = GenerationalST.mask_of
CAP = lambda v: v[1]  # noqa: E731

PROJECTIONS = [
    ("gen-bfs", DIST),
    ("gen-sssp", DIST),
    ("gen-cc", LABEL),
    ("gen-st", MASK),
    ("gen-widest", CAP),
]


def programs():
    st = GenerationalST()
    st.register_source(0)
    st.register_source(1)
    return [
        GenerationalBFS(),
        GenerationalSSSP(),
        GenerationalCC(),
        st,
        GenerationalWidest(),
    ]


def init(engine):
    engine.init_program("gen-bfs", 0)
    engine.init_program("gen-sssp", 0)
    engine.init_program("gen-st", 0, 0)
    engine.init_program("gen-st", 1, 1)
    engine.init_program("gen-widest", 0)


def projected(engine):
    return {
        name: {k: proj(v) for k, v in engine.state(name).items()}
        for name, proj in PROJECTIONS
    }


@pytest.mark.parametrize("seed", [3, 4])
def test_crash_mid_churn_recovers_fault_free_projections(seed, tmp_path):
    cols = churn_events(
        50, 220, delete_ratio=0.25, rng=np.random.default_rng(seed)
    )

    def engine_factory():
        return DynamicEngine(
            programs(), EngineConfig(n_ranks=N_RANKS)
        )

    def stream_factory():
        return split_churn_streams(*cols, N_RANKS)

    # Fault-free reference run (also supplies the makespan for timing).
    ref = engine_factory()
    init(ref)
    ref.attach_streams(stream_factory())
    ref.run()
    vt = ref.loop.max_time()
    ref_proj = projected(ref)
    assert sum(c.edge_deletes for c in ref.counters) > 0

    plan = FaultPlan(
        seed=seed,
        crashes=[RankCrash(time=vt * 0.03), RankCrash(time=vt * 0.06)],
    )
    res = FaultTolerantRunner(
        engine_factory,
        stream_factory,
        plan,
        tmp_path / "churn.npz",
        checkpoint_interval=vt * 0.04,
        init_fn=init,
    ).run()

    assert res.recoveries == 2
    assert res.checkpoints >= 1
    assert res.events_replayed > 0
    assert res.engine.loop.quiescent()
    assert projected(res.engine) == ref_proj
    # The recovered run also verifies against the static oracles on the
    # final (deletes-applied) topology.
    e = res.engine
    assert verify_bfs(e, "gen-bfs", 0, value_of=DIST) == []
    assert verify_sssp(e, "gen-sssp", 0, value_of=DIST) == []
    assert verify_cc(e, "gen-cc", value_of=LABEL) == []
    assert verify_st(e, "gen-st", [0, 1], value_of=MASK) == []
    assert verify_widest(e, "gen-widest", 0, value_of=CAP) == []


def test_delete_counters_survive_recovery(tmp_path):
    """edge_deletes must not undercount after a crash: the checkpoint
    round-trips the per-rank counters, and the replayed suffix only adds
    the deletes the restored incarnation actually re-applies."""
    cols = churn_events(
        40, 180, delete_ratio=0.3, rng=np.random.default_rng(11)
    )

    def engine_factory():
        return DynamicEngine(
            programs(), EngineConfig(n_ranks=N_RANKS)
        )

    def stream_factory():
        return split_churn_streams(*cols, N_RANKS)

    ref = engine_factory()
    init(ref)
    ref.attach_streams(stream_factory())
    ref.run()
    vt = ref.loop.max_time()
    ref_deletes = sum(c.edge_deletes for c in ref.counters)

    plan = FaultPlan(seed=11, crashes=[RankCrash(time=vt * 0.03)])
    res = FaultTolerantRunner(
        engine_factory,
        stream_factory,
        plan,
        tmp_path / "counters.npz",
        checkpoint_interval=vt * 0.02,
        init_fn=init,
    ).run()
    assert res.recoveries == 1
    got = sum(c.edge_deletes for c in res.engine.counters)
    # Replay may re-apply a delete from the suffix at most once per
    # occurrence; it must never LOSE the pre-crash deletes.
    assert got >= ref_deletes
    assert projected(res.engine) == projected(ref)


def test_every_checkpoint_saves_stream_progress(tmp_path, monkeypatch):
    """A checkpoint drain outlasts several checkpoint intervals here, so
    the next checkpoint is due at the first interval instant after the
    drain: none may save the positions of the one before it."""
    saved = []
    real_save = runner_module.save_checkpoint

    def logged_save(engine, path, extra=None):
        saved.append(sum(extra["stream_positions"].values()))
        return real_save(engine, path, extra=extra)

    monkeypatch.setattr(runner_module, "save_checkpoint", logged_save)
    cols = churn_events(
        50, 220, delete_ratio=0.25, rng=np.random.default_rng(3)
    )

    def engine_factory():
        return DynamicEngine(
            programs(), EngineConfig(n_ranks=N_RANKS)
        )

    def stream_factory():
        return split_churn_streams(*cols, N_RANKS)

    ref = engine_factory()
    init(ref)
    ref.attach_streams(stream_factory())
    ref.run()
    vt = ref.loop.max_time()

    plan = FaultPlan(
        seed=3, crashes=[RankCrash(time=vt * 0.03), RankCrash(time=vt * 0.06)]
    )
    res = FaultTolerantRunner(
        engine_factory,
        stream_factory,
        plan,
        tmp_path / "progress.npz",
        checkpoint_interval=vt * 0.04,
        init_fn=init,
    ).run()
    assert res.recoveries == 2
    assert len(saved) == res.checkpoints >= 2
    assert all(a < b for a, b in zip(saved, saved[1:])), saved
    assert projected(res.engine) == projected(ref)
