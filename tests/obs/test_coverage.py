"""Trace-coverage acceptance: spans must account for >= 99% of each
rank's busy time, on the per-event path and the bulk fast path alike.

Span intervals cover every clock advance inside a dispatch — including
send/stream costs that are charged to the clock but not to
``busy_time`` — so coverage can legitimately exceed 1.0; what the floor
catches is an instrumented path that *stops* emitting (e.g. a new
dispatch kind added without a span)."""

import numpy as np

from repro import (
    DynamicEngine,
    EngineConfig,
    IncrementalBFS,
    IncrementalCC,
    rmat_edges,
    split_streams,
)
from repro.runtime.plugins import BulkIngestPlugin, TracerPlugin
from repro.runtime.visitor import COORDINATOR_RANK

COVERAGE_FLOOR = 0.99


def traced_run(programs, init=None, n_ranks=4, collect_at=None, bulk=False):
    rng = np.random.default_rng(11)
    src, dst = rmat_edges(9, edge_factor=8, rng=rng)

    def build():
        plugins = [BulkIngestPlugin()] if bulk else []
        e = DynamicEngine(
            list(programs), EngineConfig(n_ranks=n_ranks),
            plugins=plugins + [TracerPlugin()],
        )
        for prog, vertex in init or []:
            e.init_program(prog, vertex)
        e.attach_streams(
            split_streams(src, dst, n_ranks, rng=np.random.default_rng(13))
        )
        return e

    at_time = None
    if collect_at is not None:
        probe = build()
        probe.run()
        at_time = collect_at * probe.loop.max_time()
    eng = build()
    if at_time is not None:
        eng.request_collection(programs[0].name, at_time=at_time)
    eng.run()
    return eng


def assert_coverage(eng):
    span_time = eng.tracer.span_time_by_rank()
    busy_ranks = 0
    for r in range(eng.config.n_ranks):
        busy = eng.counters[r].busy_time
        if busy == 0.0:
            continue
        busy_ranks += 1
        coverage = span_time.get(r, 0.0) / busy
        assert coverage >= COVERAGE_FLOOR, (
            f"rank {r}: spans cover {coverage:.1%} of busy time"
        )
    assert busy_ranks > 0


class TestPerEventCoverage:
    def test_cc_spans_cover_busy_time(self):
        assert_coverage(traced_run([IncrementalCC()]))

    def test_bfs_with_collection_covers_busy_time(self):
        eng = traced_run([IncrementalBFS()], init=[("bfs", 0)], collect_at=0.5)
        assert_coverage(eng)

    def test_visit_and_source_spans_present(self):
        eng = traced_run([IncrementalCC()])
        by_name = eng.tracer.span_time_by_name()
        assert by_name["source/pull"][0] == sum(
            c.source_events for c in eng.counters
        )
        assert "visit/add" in by_name
        assert "visit/update" in by_name

    def test_collection_epoch_and_probe_instrumentation(self):
        eng = traced_run([IncrementalBFS()], init=[("bfs", 0)], collect_at=0.5)
        assert len(eng.collection_results) == 1
        result = eng.collection_results[0]

        cuts = eng.tracer.instants("collection/cut")
        assert len(cuts) == 1
        waves = eng.tracer.instants("probe/wave")
        assert len(waves) == result.probe_waves
        assert waves[-1][6]["concluded"] is True

        epochs = eng.tracer.spans(["collection"])
        assert len(epochs) == 1
        _, rank, name, _, ts, dur, args = epochs[0]
        assert name == "collection/epoch"
        assert rank == COORDINATOR_RANK
        assert ts == result.requested_at
        assert dur == result.latency
        assert args["vertices"] == result.vertices_collected


class TestBulkCoverage:
    def test_bulk_cc_spans_cover_busy_time(self):
        eng = traced_run([IncrementalCC()], bulk=True)
        assert eng.total_counters().bulk_events > 0
        assert_coverage(eng)

    def test_bulk_chunk_spans_match_counters(self):
        eng = traced_run([IncrementalCC()], bulk=True)
        by_name = eng.tracer.span_time_by_name()
        assert by_name["bulk/chunk"][0] == eng.total_counters().bulk_chunks
        assert "bulk/append" in by_name

    def test_deopt_emits_instant(self):
        # An injected init visitor forces message dispatch mid-bulk, so
        # the mirror must de-optimize back to exact per-event state.
        eng = traced_run([IncrementalBFS()], init=[("bfs", 0)], bulk=True)
        deopts = eng.tracer.instants("bulk/deopt")
        assert len(deopts) == eng.total_counters().fallback_flushes > 0
