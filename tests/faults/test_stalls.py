"""Rank stalls: frozen ranks on the plain FIFO channels.

A stall freezes one rank's clock; its peers keep sending and its queued
arrivals are serviced late, in channel order.  The REMO contract must be
undisturbed: the quiesced state equals the static oracle, and the
four-counter quiescence detector never fires early (checked against the
ground-truth dispatch order) nor hangs.
"""

import numpy as np

from repro import (
    DynamicEngine,
    EngineConfig,
    FaultPlan,
    IncrementalBFS,
    RankStall,
)
from repro.analytics import verify_bfs
from repro.comm.termination import FourCounterState, TerminationCoordinator
from repro.events.stream import split_streams
from repro.runtime.plugins import BulkIngestPlugin, FaultInjectionPlugin, TracerPlugin


def workload(seed=0, n_vertices=120, n_events=800):
    rng = np.random.default_rng(seed)
    src = rng.integers(0, n_vertices, n_events, dtype=np.int64)
    dst = rng.integers(0, n_vertices, n_events, dtype=np.int64)
    lo, hi = np.minimum(src, dst), np.maximum(src, dst)
    weights = (lo * 13 + hi) % 9 + 1
    return src, dst, weights


def stalled_plan(seed, n_ranks):
    """Several freezes, one per rank, overlapping a mid-stream cut."""
    return FaultPlan(
        seed=seed,
        stalls=[
            RankStall(time=(20 + 30 * r) * 1e-6, rank=r, duration=150e-6)
            for r in range(n_ranks)
        ],
    )


def run_faulty(programs, plan, init=(), n_ranks=4, seed=0, plugins=()):
    src, dst, weights = workload(seed)
    # Telemetry first: the fault plan wires its instants into whatever
    # tracer/metrics exist when it is set up.
    plugins = list(plugins)
    if plan is not None:
        plugins.append(FaultInjectionPlugin(plan))
    eng = DynamicEngine(programs, EngineConfig(n_ranks=n_ranks), plugins=plugins)
    for prog, vertex in init:
        eng.init_program(prog, vertex)
    eng.attach_streams(split_streams(src, dst, n_ranks, weights=weights))
    eng.run()
    return eng


class TestDetectorSoundness:
    def test_collection_never_concludes_early_under_stalls(self, monkeypatch):
        """Four-counter conclusion vs the DES ground truth.

        We log every application-level receive (FourCounterState.
        record_receive) and every detector conclusion in the exact
        order the DES executes them.  Soundness: after a collection
        for cut version C concludes, no receive with label < C may
        ever be logged — that would be a pre-cut message the detector
        failed to wait for (an early fire).  Frozen ranks report late
        and hold pre-cut messages back, which makes this a real hazard.
        """
        events = []
        real_recv = FourCounterState.record_receive
        real_conclude = TerminationCoordinator.conclude
        engines = []

        def logged_recv(self, label, n=1):
            events.append(("recv", label))
            return real_recv(self, label, n)

        def logged_conclude(self):
            out = real_conclude(self)
            if out and engines and engines[0].active_collection is not None:
                events.append(
                    ("concluded", engines[0].active_collection.cut_version)
                )
            return out

        monkeypatch.setattr(FourCounterState, "record_receive", logged_recv)
        monkeypatch.setattr(TerminationCoordinator, "conclude", logged_conclude)

        src, dst, weights = workload(seed=3)
        eng = DynamicEngine(
            [IncrementalBFS()], EngineConfig(n_ranks=4),
            plugins=[FaultInjectionPlugin(stalled_plan(55, 4))],
        )
        engines.append(eng)
        eng.init_program("bfs", 0)
        eng.attach_streams(split_streams(src, dst, 4, weights=weights))
        # Mid-stream cut, while the later stalls are still running.
        eng.request_collection("bfs", at_time=100e-6)
        eng.run()

        assert len(eng.collection_results) == 1, "collection hung under stalls"
        assert eng.loop.fault_stall_time > 0
        cuts = [c for e, c in events if e == "concluded"]
        assert cuts, "detector never concluded"
        for i, (kind, label) in enumerate(events):
            if kind != "concluded":
                continue
            cut = label
            late = [
                lbl for k, lbl in events[i + 1:] if k == "recv" and lbl < cut
            ]
            assert late == [], (
                f"detector fired early: pre-cut receives {late} after "
                f"conclusion for cut {cut}"
            )
        assert verify_bfs(eng, "bfs", 0) == []

    def test_collection_result_consistent_under_stalls(self):
        src, dst, weights = workload(seed=9)
        eng = DynamicEngine(
            [IncrementalBFS()], EngineConfig(n_ranks=3),
            plugins=[FaultInjectionPlugin(stalled_plan(8, 3))],
        )
        eng.init_program("bfs", 0)
        eng.attach_streams(split_streams(src, dst, 3, weights=weights))
        eng.request_collection("bfs", at_time=150e-6)
        eng.run()
        [res] = eng.collection_results
        assert res.vertices_collected > 0
        # Monotone program: every snapshotted level is an upper bound
        # on (or equal to) the fully converged level (0 = never seen).
        final = eng.state("bfs")
        for v, lvl in res.state.items():
            if lvl > 0:
                assert lvl >= final[v]


def test_stall_freezes_rank_and_is_traced():
    plan = FaultPlan(
        seed=0, stalls=[RankStall(time=50e-6, rank=1, duration=300e-6)]
    )
    eng = run_faulty(
        [IncrementalBFS()], plan, init=[("bfs", 0)], plugins=[TracerPlugin()]
    )
    # The freeze runs from the alarm instant to time + duration, so
    # the recorded stall is duration minus the (tiny) alarm skew.
    assert 250e-6 <= eng.loop.fault_stall_time <= 300e-6
    stalls = [e for e in eng.tracer.events if e[2] == "fault/stall"]
    assert len(stalls) == 1
    assert verify_bfs(eng, "bfs", 0) == []


def test_fault_plan_forces_the_per_event_path():
    # A chunk would step its rank over thousands of events at once, so
    # the fault plugin must have turned bulk ingest off (and still
    # converge).
    eng = run_faulty(
        [IncrementalBFS()], FaultPlan(seed=0), init=[("bfs", 0)],
        plugins=[BulkIngestPlugin()],
    )
    assert eng.total_counters().bulk_chunks == 0
    assert verify_bfs(eng, "bfs", 0) == []
