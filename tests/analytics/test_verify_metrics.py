"""Tests for the verification helpers and throughput metrics."""

import dataclasses
import json

from repro import (
    DynamicEngine,
    EngineConfig,
    IncrementalBFS,
    IncrementalCC,
    ListEventStream,
)
from repro.analytics.metrics import ThroughputReport
from repro.analytics import (
    csr_from_engine,
    throughput_report,
    verify_bfs,
    verify_cc,
)
from repro.events.types import ADD
from repro.runtime.plugins import BulkIngestPlugin


def small_engine(events, programs=None, init=None):
    progs = programs or [IncrementalBFS()]
    e = DynamicEngine(progs, EngineConfig(n_ranks=2))
    if init is not None:
        e.init_program(progs[0].name, init)
    e.attach_streams([ListEventStream(events)])
    e.run()
    return e


class TestCsrFromEngine:
    def test_reflects_engine_topology(self):
        e = small_engine([(ADD, 0, 1, 3)], init=0)
        g = csr_from_engine(e)
        assert g.num_edges == 2  # both directions, no extra symmetrize
        assert g.num_vertices == 2
        v0 = g.dense_index(0)
        assert list(g.neighbor_weights(v0)) == [3]


class TestVerifiers:
    def test_verify_bfs_accepts_correct(self):
        e = small_engine([(ADD, 0, 1, 1), (ADD, 1, 2, 1)], init=0)
        assert verify_bfs(e, "bfs", 0) == []

    def test_verify_bfs_detects_wrong_value(self):
        e = small_engine([(ADD, 0, 1, 1)], init=0)
        rank = e.partitioner.owner(1)
        e.values[rank][0][1] = 7  # corrupt
        mm = verify_bfs(e, "bfs", 0)
        assert len(mm) == 1 and "vertex 1" in mm[0]

    def test_verify_bfs_detects_false_reachability(self):
        e = small_engine([(ADD, 0, 1, 1), (ADD, 5, 6, 1)], init=0)
        rank = e.partitioner.owner(5)
        e.values[rank][0][5] = 3  # claims reachable
        assert any("static unreached" in m for m in verify_bfs(e, "bfs", 0))

    def test_verify_bfs_detects_missed_vertex(self):
        e = small_engine([(ADD, 0, 1, 1)], init=0)
        rank = e.partitioner.owner(1)
        del e.values[rank][0][1]
        assert any("dynamic unreached" in m for m in verify_bfs(e, "bfs", 0))

    def test_verify_bfs_with_snapshot_state(self):
        e = small_engine([(ADD, 0, 1, 1)], init=0)
        assert verify_bfs(e, "bfs", 0, state={0: 1, 1: 2}) == []
        assert verify_bfs(e, "bfs", 0, state={0: 1, 1: 9}) != []

    def test_verify_cc_accepts_correct(self):
        e = small_engine([(ADD, 0, 1, 1)], programs=[IncrementalCC()])
        assert verify_cc(e, "cc") == []

    def test_verify_cc_detects_wrong_label(self):
        e = small_engine([(ADD, 0, 1, 1)], programs=[IncrementalCC()])
        rank = e.partitioner.owner(0)
        e.values[rank][0][0] = 12345
        assert verify_cc(e, "cc") != []


class TestThroughputReport:
    def test_report_fields(self):
        e = small_engine([(ADD, i, i + 1, 1) for i in range(20)], init=0)
        rep = throughput_report(e, wall_seconds=0.5)
        assert rep.source_events == 20
        assert rep.n_ranks == 2
        assert rep.events_per_second > 0
        assert rep.visits_per_event > 0
        assert 0 < rep.mean_utilisation <= 1.0
        assert rep.makespan == e.loop.max_time()

    def test_summary_readable(self):
        e = small_engine([(ADD, 0, 1, 1)], init=0)
        text = throughput_report(e, wall_seconds=0.1).summary()
        assert "events=1" in text
        assert "wall time" in text

    def test_zero_event_report(self):
        e = DynamicEngine([IncrementalBFS()], EngineConfig(n_ranks=1))
        e.attach_streams([ListEventStream([])])
        e.run()
        rep = throughput_report(e)
        assert rep.events_per_second == 0.0
        assert rep.visits_per_event == 0.0


def make_report(**overrides):
    base = dict(
        n_ranks=2,
        source_events=10,
        makespan=1.0,
        visits=20,
        edge_inserts=10,
        edge_deletes=0,
        messages_local=5,
        messages_remote=5,
        control_messages=0,
        busy_time_total=1.0,
    )
    base.update(overrides)
    return ThroughputReport(**base)


class TestThroughputReportEdgeCases:
    def test_zero_makespan_rates_are_zero(self):
        rep = make_report(makespan=0.0, source_events=0, visits=0,
                          busy_time_total=0.0)
        assert rep.events_per_second == 0.0
        assert rep.mean_utilisation == 0.0
        assert rep.visits_per_event == 0.0

    def test_zero_ranks_utilisation_is_zero(self):
        assert make_report(n_ranks=0).mean_utilisation == 0.0

    def test_squash_fraction_zero_without_emissions(self):
        rep = make_report(messages_local=0, messages_remote=0)
        assert rep.squash_fraction == 0.0

    def test_bulk_line_printed_when_enabled_even_with_zero_counters(self):
        # "the fast path never engaged" is itself the signal: a run
        # with a bulk ingestor attached must always show the line.
        text = make_report(bulk_enabled=True).summary()
        assert "bulk ingest: chunks=0" in text

    def test_bulk_line_suppressed_when_disabled_and_idle(self):
        assert "bulk ingest" not in make_report().summary()

    def test_bulk_line_printed_when_counters_moved(self):
        text = make_report(bulk_chunks=3, bulk_events=9).summary()
        assert "chunks=3" in text and "events=9" in text

    def test_no_wall_line_without_wall_seconds(self):
        assert "wall time" not in make_report().summary()


class TestThroughputReportToDict:
    def test_every_field_and_derived_metric_present(self):
        # Reflection guard: to_dict is the single source of truth for
        # the bench JSON and `run --json`; a new field must show up.
        rep = make_report(wall_seconds=0.5)
        d = rep.to_dict()
        for f in dataclasses.fields(ThroughputReport):
            assert f.name in d, f.name
            assert d[f.name] == getattr(rep, f.name)
        for derived in ("events_per_second", "mean_utilisation",
                        "visits_per_event", "squash_fraction"):
            assert d[derived] == getattr(rep, derived)

    def test_json_ready(self):
        json.dumps(make_report().to_dict())

    def test_engine_report_marks_bulk_enabled(self):
        src = [(ADD, i, i + 1, 1) for i in range(8)]
        e = DynamicEngine(
            [IncrementalCC()], EngineConfig(n_ranks=1), plugins=[BulkIngestPlugin()]
        )
        e.attach_streams([ListEventStream(src)])
        e.run()
        rep = throughput_report(e)
        assert rep.bulk_enabled is True
        assert "bulk ingest" in rep.summary()
