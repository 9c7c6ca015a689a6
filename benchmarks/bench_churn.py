"""Churn — fully dynamic add+delete streams, end to end (§VI-B).

Every other ingest bench replays insert-only streams; this one retires
the add-only assumption.  Two scenarios from
:mod:`repro.generators.churn` drive all five generational programs
(BFS, SSSP, CC, multi S-T, widest-path) at once:

* **steady** — an ER add stream at a 25% delete ratio (above the >=20%
  acceptance floor), every delete naming an earlier add;
* **flash-crowd** — a baseline phase, a burst of adds on one hub, then
  a decay phase deleting 60% of the crowd edges.

Each DES run is verified against the static oracles on the *final*
topology (deletes applied).  Its table prints visits per event, an
exact count that repeats per seed (the write amplification of a
delete), and the virtual rate (deletes ride the same cost model as
adds; it is *not* a wall-clock throughput — that is
``benchmarks/core``'s ``churn`` workload).  At scale 0 both are pinned
exactly by the ``churn_bench_*`` legs of
``tests/runtime/test_cost_ledger.py``.  A scaling series repeats the
steady scenario at 16 x 64, 128 x 512 and 1,024 x 4,096: cost must
follow the change, not the graph.

The steady stream then replays on the mp backend (shm wire, real
processes) and must agree with DES on every program's value projection
— distance / label / mask / capacity — the §VI-B statement of
bit-equality (raw generational tags are interleaving-dependent; the
projections are not).

Finally a crash-recovery sweep drives the same churn stream through
the FaultTolerantRunner (two mid-ingest crashes + periodic checkpoints,
scheduled off the fault-free steady makespan) and must land on exactly
the fault-free projections: a checkpoint is a consistent generational
cut, so suffix replay with deletes recovers the same answers.
"""

import tempfile
from pathlib import Path

import numpy as np

from conftest import report_table
from harness import BENCH_SCALE, fmt_rate, fmt_table, fmt_time

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
    throughput_report,
)
from repro.analytics.verify import (
    verify_bfs,
    verify_cc,
    verify_sssp,
    verify_st,
    verify_widest,
)
from repro.generators.churn import (
    churn_events,
    flash_crowd_events,
    split_churn_streams,
)
from repro.parallel import WireConfig, run_parallel
from repro.parallel.runner import ParallelStateView

N_VERTICES = 1 << (7 + BENCH_SCALE)
N_ADDS = 1 << (9 + BENCH_SCALE)
DELETE_RATIO = 0.25  # acceptance floor is >= 20% of total events
N_RANKS = 4
#: (vertices, adds) of the steady-churn scaling series.
SCALING = [(16, 64), (128, 512), (1024, 4096)]

#: Value projections per program: the §VI-B comparison domain.
PROJECTIONS = [
    ("gen-bfs", lambda v: v[1]),
    ("gen-sssp", lambda v: v[1]),
    ("gen-cc", lambda v: v[1]),
    ("gen-st", GenerationalST.mask_of),
    ("gen-widest", lambda v: v[1]),
]


def _programs():
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


def _init(engine):
    engine.init_program("gen-bfs", 0)
    engine.init_program("gen-sssp", 0)
    engine.init_program("gen-st", 0, 0)
    engine.init_program("gen-st", 1, 1)
    engine.init_program("gen-widest", 0)


def _run_des(cols):
    import time

    engine = DynamicEngine(
        _programs(), EngineConfig(n_ranks=N_RANKS)
    )
    _init(engine)
    engine.attach_streams(split_churn_streams(*cols, N_RANKS))
    t0 = time.perf_counter()
    engine.run()
    wall = time.perf_counter() - t0
    return engine, throughput_report(engine, wall_seconds=wall), wall


def _verify_all(target, value_source=None):
    """Mismatch counts for all five programs (0 everywhere = verified)."""
    return {
        "gen-bfs": len(
            verify_bfs(target, "gen-bfs", 0, value_of=lambda v: v[1])
        ),
        "gen-sssp": len(
            verify_sssp(target, "gen-sssp", 0, value_of=lambda v: v[1])
        ),
        "gen-cc": len(verify_cc(target, "gen-cc", value_of=lambda v: v[1])),
        "gen-st": len(
            verify_st(target, "gen-st", [0, 1], value_of=GenerationalST.mask_of)
        ),
        "gen-widest": len(
            verify_widest(target, "gen-widest", 0, value_of=lambda v: v[1])
        ),
    }


def _projected(state_of):
    return {
        name: {k: proj(v) for k, v in state_of(name).items()}
        for name, proj in PROJECTIONS
    }


def _experiment():
    rng = np.random.default_rng(0xC4A2)
    steady = churn_events(
        N_VERTICES, N_ADDS, delete_ratio=DELETE_RATIO, rng=rng
    )
    flash = flash_crowd_events(
        N_VERTICES, N_ADDS // 2, N_ADDS // 2, decay_ratio=0.6, rng=rng
    )

    runs = {
        "steady": _run_des(steady),
        "flash_crowd": _run_des(flash),
    }
    scaling = []
    for n_vertices, n_adds in SCALING:
        cols = churn_events(
            n_vertices,
            n_adds,
            delete_ratio=DELETE_RATIO,
            rng=np.random.default_rng(0xC4A2),
        )
        engine, report, _wall = _run_des(cols)
        mismatches = _verify_all(engine)
        assert all(n == 0 for n in mismatches.values()), (n_vertices, mismatches)
        scaling.append(
            {
                "vertices": n_vertices,
                "adds": n_adds,
                "events": len(cols[0]),
                "visits_per_event": report.visits_per_event,
            }
        )
    mp = run_parallel(
        _programs(),
        split_churn_streams(*steady, N_RANKS),
        config=EngineConfig(n_ranks=N_RANKS),
        wire=WireConfig(start_method="fork"),
        init=[
            ("gen-bfs", 0, None),
            ("gen-sssp", 0, None),
            ("gen-st", 0, 0),
            ("gen-st", 1, 1),
            ("gen-widest", 0, None),
        ],
        collect_edges=True,
        timeout=600.0,
    )

    # Crash-recovery sweep on the steady stream.
    def engine_factory():
        return DynamicEngine(
            _programs(), EngineConfig(n_ranks=N_RANKS)
        )

    def stream_factory():
        return split_churn_streams(*steady, N_RANKS)

    # Both crashes land inside the ingestion window of the fault-free
    # steady run; a checkpoint every 20% of it bounds each replay.
    vt = runs["steady"][0].loop.max_time()
    plan = FaultPlan(
        seed=0xC4A2,
        crashes=[RankCrash(time=vt * 0.15), RankCrash(time=vt * 0.30)],
    )
    with tempfile.TemporaryDirectory() as tmp:
        recovered = FaultTolerantRunner(
            engine_factory,
            stream_factory,
            plan,
            Path(tmp) / "churn.npz",
            checkpoint_interval=vt * 0.20,
            init_fn=_init,
        ).run()
    return steady, flash, runs, scaling, mp, recovered


def test_churn(benchmark):
    steady, flash, runs, scaling, mp, recovered = benchmark.pedantic(
        _experiment, iterations=1, rounds=1
    )

    rows = []
    for name, cols in (("steady", steady), ("flash_crowd", flash)):
        engine, report, wall = runs[name]
        kinds = cols[3]
        n_dels = int((kinds != 0).sum())
        mismatches = _verify_all(engine)
        assert all(n == 0 for n in mismatches.values()), (name, mismatches)
        applied_deletes = sum(c.edge_deletes for c in engine.counters)
        assert applied_deletes > 0, f"{name}: no deletes reached the stores"
        rows.append(
            [
                name,
                f"{len(kinds):,}",
                f"{n_dels / len(kinds):.0%}",
                f"{report.visits_per_event:.1f}",
                f"{fmt_rate(report.events_per_second)} (virtual)",
                fmt_time(wall),
                f"{applied_deletes:,}",
                "5/5",
            ]
        )
    for row in scaling:
        rows.append(
            [
                f"steady {row['vertices']:,} x {row['adds']:,}",
                f"{row['events']:,}",
                f"{DELETE_RATIO:.0%}",
                f"{row['visits_per_event']:.1f}",
                "-",
                "-",
                "-",
                "5/5",
            ]
        )
    # The mp and crash-sweep rows replay the steady stream.
    steady_events, steady_deletes = rows[0][1], rows[0][2]
    n_steady = len(steady[3])

    # mp backend: static oracles + projection equality with DES.
    des_engine = runs["steady"][0]
    view = ParallelStateView(mp)
    mp_mismatches = _verify_all(view)
    assert all(n == 0 for n in mp_mismatches.values()), mp_mismatches
    des_proj = _projected(des_engine.state)
    mp_proj = _projected(mp.state)
    assert des_proj == mp_proj, "mp projections diverged from DES"
    rows.append(
        [
            "mp/shm",
            steady_events,
            steady_deletes,
            f"{mp.counters.visits / n_steady:.1f}",
            f"{fmt_rate(mp.events_per_second)} (wall)",
            fmt_time(mp.wall_seconds),
            f"{mp.counters.edge_deletes:,}",
            "5/5",
        ]
    )

    # Crash-recovery sweep: fault-free projections, exactly.
    assert recovered.recoveries == 2, "a scheduled crash missed the churn"
    assert 1 <= recovered.checkpoints < 10, recovered.checkpoints
    assert recovered.engine.loop.quiescent()
    rec_proj = _projected(recovered.engine.state)
    assert rec_proj == des_proj, "recovered projections diverged"
    rec_mismatches = _verify_all(recovered.engine)
    assert all(n == 0 for n in rec_mismatches.values()), rec_mismatches
    rows.append(
        [
            "crash sweep",
            steady_events,
            steady_deletes,
            "-",
            f"{recovered.recoveries} recoveries",
            f"{recovered.checkpoints} ckpts",
            f"{recovered.events_replayed:,} replayed",
            "5/5",
        ]
    )

    table = fmt_table(
        ["scenario", "events", "deletes", "visits/ev", "rate", "wall",
         "applied dels", "verified"],
        rows,
        title=(
            f"Churn (add+delete) ingest: {N_VERTICES:,} vertices, "
            f"{N_ADDS:,} adds at {DELETE_RATIO:.0%} delete ratio, all five "
            f"generational programs on {N_RANKS} ranks"
        ),
    )
    report_table("churn", table)
