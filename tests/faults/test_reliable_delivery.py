"""Engine-level fault injection: convergence and detector soundness.

The engine's whole visitor pipeline — streams, REMO programs, triggers,
four-counter collection — runs above the reliable transport here, with
the wire dropping/duplicating/delaying frames.  The REMO contract must
be completely undisturbed: the quiesced state equals the static oracle,
every application message is delivered exactly once, and the
four-counter quiescence detector neither fires early (checked against
the ground-truth dispatch order) nor hangs.
"""

import numpy as np
import pytest

from repro import (
    DynamicEngine,
    EngineConfig,
    FaultPlan,
    IncrementalBFS,
    IncrementalCC,
    IncrementalSSSP,
    RankStall,
)
from repro.analytics import verify_bfs, verify_cc, verify_sssp
from repro.comm.termination import FourCounterState, TerminationCoordinator
from repro.events.stream import split_streams
from repro.runtime.plugins import (
    BulkIngestPlugin,
    FaultInjectionPlugin,
    MetricsPlugin,
    TracerPlugin,
)


def workload(seed=0, n_vertices=120, n_events=800):
    rng = np.random.default_rng(seed)
    src = rng.integers(0, n_vertices, n_events, dtype=np.int64)
    dst = rng.integers(0, n_vertices, n_events, dtype=np.int64)
    lo, hi = np.minimum(src, dst), np.maximum(src, dst)
    weights = (lo * 13 + hi) % 9 + 1
    return src, dst, weights


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


class TestConvergenceUnderLoss:
    @pytest.mark.parametrize("drop", [0.05, 0.2])
    def test_bfs_equals_static_oracle(self, drop):
        plan = FaultPlan(drop=drop, dup=0.03, delay=0.05, seed=13)
        eng = run_faulty([IncrementalBFS()], plan, init=[("bfs", 0)])
        assert eng.loop.quiescent()
        assert verify_bfs(eng, "bfs", 0) == []
        assert eng.transport.frames_dropped > 0

    def test_cc_equals_static_oracle(self):
        plan = FaultPlan(drop=0.15, dup=0.05, seed=21)
        eng = run_faulty([IncrementalCC()], plan)
        assert verify_cc(eng, "cc") == []

    def test_sssp_equals_static_oracle(self):
        plan = FaultPlan(drop=0.1, delay=0.1, seed=34)
        eng = run_faulty([IncrementalSSSP()], plan, init=[("sssp", 0)])
        assert verify_sssp(eng, "sssp", 0) == []

    def test_faulty_state_identical_to_fault_free(self):
        clean = run_faulty([IncrementalBFS()], None, init=[("bfs", 0)])
        lossy = run_faulty(
            [IncrementalBFS()],
            FaultPlan(drop=0.2, dup=0.05, delay=0.05, seed=77),
            init=[("bfs", 0)],
        )
        assert clean.state("bfs") == lossy.state("bfs")

    def test_exactly_once_bookkeeping(self):
        plan = FaultPlan(drop=0.2, dup=0.05, seed=5)
        eng = run_faulty([IncrementalBFS()], plan, init=[("bfs", 0)])
        t = eng.transport
        assert t.app_sent == t.app_delivered
        assert t.unacked_total() == 0
        assert t.reorder_total() == 0
        assert eng.loop.in_flight == 0


class TestZeroLossOverheadPath:
    def test_no_retransmits_on_perfect_wire(self):
        # The transport attached with no plan (or an all-ok plan) must
        # never retransmit: the ablation's <5% overhead depends on it.
        eng = run_faulty([IncrementalBFS()], FaultPlan(seed=0), init=[("bfs", 0)])
        assert eng.transport.retransmits == 0
        assert eng.transport.frames_dropped == 0
        assert verify_bfs(eng, "bfs", 0) == []

    def test_transport_disables_bulk_ingest(self):
        plan = FaultPlan(seed=0)
        eng = run_faulty(
            [IncrementalBFS()], plan, init=[("bfs", 0)], plugins=[BulkIngestPlugin()]
        )
        # Bulk ingest short-circuits the wire, so the fault plugin must
        # have forced the per-event path (and still converge).
        assert verify_bfs(eng, "bfs", 0) == []
        assert eng.transport.app_sent > 0


class TestDetectorSoundness:
    def test_collection_never_concludes_early_under_faults(self, monkeypatch):
        """Four-counter conclusion vs the DES ground truth.

        We log every application-level receive (FourCounterState.
        record_receive) and every detector conclusion in the exact
        order the DES executes them.  Soundness: after a collection
        for cut version C concludes, no receive with label < C may
        ever be logged — that would be a pre-cut message the detector
        failed to wait for (an early fire).  Retransmissions and
        duplicates make this a real hazard, hence the lossy plan.
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
        plan = FaultPlan(drop=0.2, dup=0.05, delay=0.05, seed=55)
        eng = DynamicEngine(
            [IncrementalBFS()], EngineConfig(n_ranks=4),
            plugins=[FaultInjectionPlugin(plan)],
        )
        engines.append(eng)
        eng.init_program("bfs", 0)
        eng.attach_streams(split_streams(src, dst, 4, weights=weights))
        # Mid-stream cut: loss stretches the makespan, so a cut at a
        # fault-free-scale instant lands well inside the run.
        eng.request_collection("bfs", at_time=100e-6)
        eng.run()

        assert len(eng.collection_results) == 1, "collection hung under loss"
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

    def test_collection_result_consistent_under_faults(self):
        src, dst, weights = workload(seed=9)
        plan = FaultPlan(drop=0.15, dup=0.05, seed=8)
        eng = DynamicEngine(
            [IncrementalBFS()], EngineConfig(n_ranks=3),
            plugins=[FaultInjectionPlugin(plan)],
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


class TestFaultTelemetry:
    def test_sampler_rows_carry_wire_counters(self):
        plan = FaultPlan(drop=0.1, seed=2)
        eng = run_faulty(
            [IncrementalBFS()], plan, init=[("bfs", 0)],
            plugins=[MetricsPlugin(50e-6)],
        )
        rows = eng.metrics.rows("sample")
        assert rows
        assert all("retransmits" in r and "dropped" in r for r in rows)
        assert rows[-1]["dropped"] == eng.transport.frames_dropped

    def test_drop_instants_reach_tracer_and_metrics(self):
        plan = FaultPlan(drop=0.1, seed=2)
        eng = run_faulty(
            [IncrementalBFS()],
            plan,
            init=[("bfs", 0)],
            plugins=[TracerPlugin(), MetricsPlugin(50e-6)],
        )
        drops = [e for e in eng.tracer.events if e[2] == "fault/drop"]
        assert len(drops) == eng.transport.frames_dropped > 0
        assert eng.metrics.counters["frames_dropped"] == len(drops)

    def test_stall_freezes_rank_and_is_traced(self):
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
