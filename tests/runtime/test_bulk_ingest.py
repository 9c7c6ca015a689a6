"""Unit tests of the bulk-ingest machinery: eligibility, de-optimization
triggers, counters, and the DegAwareRHH array append tier."""

import numpy as np
import pytest

from repro import (
    CallbackProgram,
    DynamicEngine,
    EngineConfig,
    IncrementalBFS,
    IncrementalCC,
    ListEventStream,
    throughput_report,
)
from repro.analytics.verify import verify_bfs
from repro.comm.costmodel import CostModel
from repro.events.stream import ArrayEventStream, split_streams
from repro.events.types import ADD, DELETE
from repro.generators import rmat_edges
from repro.runtime.plugins import BulkIngestPlugin
from repro.serving.cache import StableValueCache
from repro.storage.degaware import DegAwareRHH


def workload(seed=0, n_vertices=80, n_events=400):
    rng = np.random.default_rng(seed)
    src = rng.integers(0, n_vertices, n_events, dtype=np.int64)
    dst = rng.integers(0, n_vertices, n_events, dtype=np.int64)
    return src, dst


def cc_engine(bulk=True, n_ranks=2, bulk_chunk=64, **overrides):
    return DynamicEngine(
        [IncrementalCC()],
        EngineConfig(n_ranks=n_ranks, **overrides),
        plugins=[BulkIngestPlugin(bulk_chunk)] if bulk else None,
    )


# ----------------------------------------------------------------------
# counters and reporting
# ----------------------------------------------------------------------
def test_pure_cc_run_is_fully_bulk_with_no_fallback():
    src, dst = workload()
    eng = cc_engine(n_ranks=2, bulk_chunk=64)
    eng.attach_streams(split_streams(src, dst, 2))
    eng.run()
    tot = eng.total_counters()
    assert tot.bulk_events == len(src)
    assert tot.source_events == len(src)
    # Each rank drains its 200-event stream in ceil(200/64) = 4 chunks.
    assert tot.bulk_chunks == 8
    # No message ever dispatched -> the end-of-run flush is not a
    # de-optimization and must not count as one.
    assert tot.fallback_flushes == 0
    assert eng.state("cc")  # flushed values are observable


def test_throughput_report_carries_bulk_counters():
    src, dst = workload(n_events=100)
    eng = cc_engine(n_ranks=1, bulk_chunk=32)
    eng.attach_streams(split_streams(src, dst, 1))
    eng.run()
    rep = throughput_report(eng)
    assert rep.bulk_events == 100
    assert rep.bulk_chunks == 4
    assert rep.fallback_flushes == 0
    assert "bulk ingest:" in rep.summary()


def test_per_event_run_reports_zero_bulk_counters():
    src, dst = workload(n_events=60)
    eng = cc_engine(bulk=False)
    eng.attach_streams(split_streams(src, dst, 2))
    eng.run()
    rep = throughput_report(eng)
    assert rep.bulk_chunks == rep.bulk_events == rep.fallback_flushes == 0
    assert "bulk ingest:" not in rep.summary()


def test_init_message_forces_fallback_then_reengages():
    # BFS needs an INIT visitor; dispatching it while the dense mirror
    # is ahead must flush (fallback) — and afterwards chunking resumes.
    src, dst = workload(n_events=600)
    eng = DynamicEngine(
        [IncrementalBFS()], EngineConfig(n_ranks=2), plugins=[BulkIngestPlugin(32)]
    )
    eng.init_program("bfs", int(src[0]))
    eng.attach_streams(split_streams(src, dst, 2))
    eng.run()
    tot = eng.total_counters()
    assert tot.fallback_flushes >= 1
    assert tot.bulk_events == len(src)


# ----------------------------------------------------------------------
# flush writes what changed, not what is stored
# ----------------------------------------------------------------------
class RecordingDict(dict):
    """A value dict that lists the keys ``flush_values`` writes."""

    def __init__(self):
        super().__init__()
        self.writes = []

    def __setitem__(self, key, value):
        self.writes.append(key)
        super().__setitem__(key, value)

    def update(self, pairs):
        for key, value in pairs:
            self[key] = value


class FlushRecorder(StableValueCache):
    """An attached serving cache that lists the programs flushed."""

    def __init__(self, n_progs):
        super().__init__(n_progs)
        self.flushed = []

    def flush_prog(self, prog, keep_absorbing=True):
        self.flushed.append(prog)
        super().flush_prog(prog, keep_absorbing)


def test_flush_writes_and_fires_only_for_what_changed():
    eng = DynamicEngine(
        [IncrementalBFS(), IncrementalCC()],
        EngineConfig(n_ranks=2),
        plugins=[BulkIngestPlugin(64)],
    )
    for rank_vals in eng.values:
        rank_vals[:] = [RecordingDict() for _ in rank_vals]
    recorder = FlushRecorder(2)
    eng._serve_caches = (recorder,)
    fired = recorder.flushed
    bulk = eng._bulk

    def ingest(edges):
        src, dst = np.array(edges, dtype=np.int64).T
        assert bulk.process_chunk(0, ArrayEventStream(src, dst)) == len(edges)
        assert bulk.engaged

    def flush():
        """Programs flushed and the keys written per program by one flush."""
        del fired[:]
        for rank_vals in eng.values:
            for d in rank_vals:
                del d.writes[:]
        bulk.flush_values(count_fallback=False)
        writes = [
            sorted(k for rank_vals in eng.values for k in rank_vals[p].writes)
            for p in range(2)
        ]
        return list(fired), writes

    two_paths = [(0, 1), (1, 2), (2, 3), (10, 11), (11, 12)]
    everyone = [0, 1, 2, 3, 10, 11, 12]
    # First touch seeds every endpoint in both programs (INF, own label).
    ingest(two_paths)
    assert flush() == ([0, 1], [everyone, everyone])
    # Re-adds engage the ingestor and change nothing: nothing to write.
    ingest(two_paths)
    assert flush() == ([], [[], []])
    # Joining the paths relabels one of them; BFS (no source) is unmoved.
    before = eng.state("cc")
    ingest([(3, 10)])
    seen = []
    eng.add_trigger("cc", lambda v, val: True, lambda v, val, t: seen.append(v), once=False)
    hooks, (bfs_writes, cc_writes) = flush()
    after = eng.state("cc")
    relabelled = sorted(v for v in everyone if after[v] != before[v])
    assert relabelled in ([0, 1, 2, 3], [10, 11, 12])
    assert hooks == [1] and bfs_writes == [] and cc_writes == relabelled
    assert sorted(seen) == relabelled  # on_change: changed entries only
    assert len(set(after.values())) == 1


# ----------------------------------------------------------------------
# eligibility and de-optimization
# ----------------------------------------------------------------------
def test_trigger_disables_bulk_entirely():
    src, dst = workload(n_events=120)
    eng = cc_engine()
    eng.add_trigger("cc", lambda v, val: True, lambda v, val, t: None, once=False)
    eng.attach_streams(split_streams(src, dst, 2))
    eng.run()
    assert eng.total_counters().bulk_events == 0
    # The ingestor is attached (by plugin) but never engaged: the
    # zero-counter line is how the report says so.
    rep = throughput_report(eng)
    assert rep.bulk_enabled
    assert "bulk ingest: chunks=0 events=0 fallback_flushes=0" in rep.summary()

    ref = cc_engine(bulk=False)
    ref.attach_streams(split_streams(src, dst, 2))
    ref.run()
    assert eng.state("cc") == ref.state("cc")


def test_removed_trigger_restores_eligibility():
    eng = cc_engine()
    trig = eng.add_trigger("cc", lambda v, val: True, lambda v, val, t: None)
    assert not eng._bulk_eligible()
    assert eng.triggers.remove(trig)
    assert eng._bulk_eligible()


def test_chunk_gain_reaches_an_endpoint_whose_reverse_add_is_in_flight():
    # A trigger keeps bulk off while ADD(5, 6) is pulled per-event; it is
    # removed once the edge is stored at 5 with the REVERSE_ADD to 6 still
    # in flight.  The resync then admits 6 from the store, and the last
    # chunk's ADD(0, 5) improves 5, which the dense relaxation carries to
    # 6.  That gain must be written back before the REVERSE_ADD lands:
    # the reverse side carries 5's value from before the chunk, and
    # nothing per-event sends the chunk's gain on to 6.
    n_ranks, ingest = 2, 1
    src = np.array([5, *range(100, 110), 0])
    dst = np.array([6, *range(200, 210), 5])
    eng = DynamicEngine(
        [IncrementalBFS()], EngineConfig(n_ranks=n_ranks), plugins=[BulkIngestPlugin(8)]
    )
    eng.init_program("bfs", 0)
    trig = eng.add_trigger("bfs", lambda v, val: False, lambda v, val, t: None)
    empty = np.zeros(0, dtype=np.int64)
    eng.attach_streams(
        [
            ArrayEventStream(src, dst) if r == ingest else ArrayEventStream(empty, empty)
            for r in range(n_ranks)
        ]
    )
    for _ in range(100):
        eng.run(max_actions=1)
        if eng.has_edge(5, 6) and not eng.has_edge(6, 5):
            break
    else:
        pytest.fail("ADD(5, 6) was never stored with its reverse side in flight")
    assert eng.triggers.remove(trig)
    eng.run()
    assert eng.total_counters().bulk_events > 0
    assert verify_bfs(eng, "bfs", 0) == []
    assert eng.value_of("bfs", 6) == 3


def test_delete_events_in_stream_disable_bulk():
    events = [(ADD, 0, 1, 1), (ADD, 1, 2, 1), (DELETE, 0, 1, 0), (ADD, 2, 3, 1)]
    eng = cc_engine(n_ranks=1)
    eng.attach_streams([ListEventStream(events)])
    assert not eng._bulk_eligible()
    eng.run()
    assert eng.total_counters().bulk_events == 0
    assert not eng.has_edge(0, 1)
    assert eng.has_edge(1, 2)


def test_delete_kinds_in_array_stream_disable_bulk():
    kinds = np.array([ADD, DELETE, ADD], dtype=np.int64)
    s = ArrayEventStream(
        np.array([0, 0, 1]), np.array([1, 1, 2]), kinds=kinds
    )
    assert not s.add_only
    assert ArrayEventStream(np.array([0]), np.array([1])).add_only


def test_injected_timed_events_disable_bulk():
    src, dst = workload(n_events=80)
    eng = cc_engine()
    eng.attach_streams(split_streams(src, dst, 2))
    assert eng._bulk_eligible()
    eng.inject_timed_events([(1e-6, ADD, 500, 501, 1)])
    assert not eng._bulk_eligible()
    eng.run()
    assert eng.total_counters().bulk_events == 0
    assert eng.has_edge(500, 501)


def test_program_without_kernel_disables_bulk():
    degree = CallbackProgram(
        name="degree",
        on_add=lambda ctx, vid, val, w: ctx.set_value(ctx.value + 1),
    )
    src, dst = workload(n_events=60)
    eng = DynamicEngine(
        [IncrementalCC(), degree], EngineConfig(n_ranks=2), plugins=[BulkIngestPlugin()]
    )
    assert not eng._bulk.supported
    eng.attach_streams(split_streams(src, dst, 2))
    eng.run()
    assert eng.total_counters().bulk_events == 0


def test_bulk_chunk_must_be_positive():
    with pytest.raises(ValueError, match="chunk must be > 0"):
        BulkIngestPlugin(chunk=0)


def test_bulk_off_has_no_controller():
    assert cc_engine(bulk=False)._bulk is None


# ----------------------------------------------------------------------
# DegAwareRHH array append tier
# ----------------------------------------------------------------------
def test_store_bulk_append_then_lazy_flush_matches_per_event():
    a = DegAwareRHH(4)
    b = DegAwareRHH(4)
    src = np.array([1, 1, 2, 1, 3], dtype=np.int64)
    dst = np.array([2, 3, 4, 2, 1], dtype=np.int64)
    w = np.array([5, 6, 7, 9, 1], dtype=np.int64)
    a.bulk_append_edges(src, dst, w)
    assert a.bulk_pending == 5
    for s, d, wt in zip(src.tolist(), dst.tolist(), w.tolist()):
        b.insert_edge(s, d, wt)
    # Any classic access flushes the buffers through insert_edge replay.
    assert sorted(a.edges()) == sorted(b.edges())
    assert a.bulk_pending == 0
    assert a.num_edges == b.num_edges
    assert a.edge_weight(1, 2) == 9  # duplicate overwrote the weight
    assert sorted(a.neighbors(1)) == sorted(b.neighbors(1))


def test_store_flush_bulk_is_idempotent():
    s = DegAwareRHH(4)
    s.bulk_append_edges(
        np.array([3, 1, 3], dtype=np.int64),
        np.array([4, 2, 5], dtype=np.int64),
        np.array([1, 1, 2], dtype=np.int64),
    )
    assert s.bulk_pending == 3
    assert s.flush_bulk() == 3
    assert s.flush_bulk() == 0  # idempotent
    assert s.num_edges == 3


def test_store_approx_bytes_counts_pending_without_flushing():
    s = DegAwareRHH(4)
    base = s.approx_bytes()
    s.bulk_append_edges(
        np.arange(10, dtype=np.int64),
        np.arange(10, 20, dtype=np.int64),
        np.ones(10, dtype=np.int64),
    )
    assert s.approx_bytes() > base
    assert s.bulk_pending == 10  # approx_bytes did not force the flush


def test_store_materialises_only_its_rows_of_a_shared_chunk():
    s = DegAwareRHH(4)
    src = np.array([1, 2, 1, 3], dtype=np.int64)
    dst = np.array([2, 3, 4, 1], dtype=np.int64)
    w = np.array([5, 6, 7, 8], dtype=np.int64)
    owners = np.array([0, 1, 0, 1], dtype=np.int64)
    s.bulk_append_edges(src, dst, w, owners, 1)
    assert s.bulk_pending == 2
    assert s.approx_bytes() == 24 * 2
    assert sorted(s.edges()) == [(2, 3, 6), (3, 1, 8)]


def chunk_rows(chunks, owner_array):
    """``(src, dst, w, owners)`` of every directed row an undirected bulk
    run appends, in append order: per chunk, forward rows then reverse."""
    for src, dst, w in chunks:
        src, dst = np.minimum(src, dst), np.maximum(src, dst)
        yield src, dst, w, owner_array(src)
        yield dst, src, w, owner_array(dst)


@pytest.mark.parametrize("n_ranks", [2, 4])
@pytest.mark.parametrize("chunk", [7, 64])
def test_shared_chunk_buffers_materialise_what_per_owner_copies_did(
    n_ranks, chunk, monkeypatch
):
    rng = np.random.default_rng(n_ranks * 100 + chunk)
    src = rng.integers(0, 30, 240, dtype=np.int64)
    dst = rng.integers(0, 30, 240, dtype=np.int64)
    w = rng.integers(1, 9, 240, dtype=np.int64)
    # Repeated pairs, re-added at a different weight.
    src, dst = np.concatenate([src, src[:60]]), np.concatenate([dst, dst[:60]])
    w = np.concatenate([w, w[:60] % 8 + 1])
    pulled = []
    pull_chunk = ArrayEventStream.pull_chunk

    def recorded(self, max_events):
        cols = pull_chunk(self, max_events)
        pulled.append(tuple(c.copy() for c in cols))
        return cols

    monkeypatch.setattr(ArrayEventStream, "pull_chunk", recorded)
    eng = cc_engine(n_ranks=n_ranks, bulk_chunk=chunk)
    eng.attach_streams(split_streams(src, dst, n_ranks, weights=w))
    eng.run()
    assert eng.total_counters().bulk_events == len(src)

    refs = [DegAwareRHH() for _ in range(n_ranks)]
    owned = [0] * n_ranks
    for s, d, wt, owners in chunk_rows(pulled, eng.partitioner.owner_array):
        for r in range(n_ranks):
            m = owners == r
            owned[r] += int(m.sum())
            for a, b, c in zip(s[m].tolist(), d[m].tolist(), wt[m].tolist()):
                refs[r].insert_edge(a, b, c)
    for r, store in enumerate(eng.stores):
        assert store.bulk_pending == owned[r]
        assert store.approx_bytes() == 24 * owned[r]
    eng_edges = list(eng.edges())  # materialises every store
    assert len(eng_edges) == sum(ref.num_edges for ref in refs)
    for store, ref in zip(eng.stores, refs):
        assert store.bulk_pending == 0
        assert list(store.vertices()) == list(ref.vertices())
        for v in ref.vertices():
            assert list(store.neighbors(v)) == list(ref.neighbors(v))


def bulk_clocks(n_ranks, chunk, cost=None):
    """Per-rank ``(clock, busy_time, edge_inserts, bulk_chunks)`` after a
    BFS+CC bulk run of one seeded RMAT input (clocks as ``float.hex``)."""
    src, dst = rmat_edges(9, edge_factor=8, rng=np.random.default_rng(11))
    w = (np.minimum(src, dst) * 31 + np.maximum(src, dst)) % 7 + 1
    eng = DynamicEngine(
        [IncrementalBFS(), IncrementalCC()],
        EngineConfig(n_ranks=n_ranks),
        cost_model=cost,
        plugins=[BulkIngestPlugin(chunk)],
    )
    eng.init_program("bfs", int(src[0]))
    eng.run()
    eng.attach_streams(
        split_streams(src, dst, n_ranks, weights=w, rng=np.random.default_rng(12))
    )
    eng.run()
    assert eng.total_counters().bulk_events == len(src)
    return [
        (t.hex(), c.busy_time.hex(), c.edge_inserts, c.bulk_chunks)
        for t, c in zip(eng.loop.clock, eng.counters)
    ]


# Generated before the stores shared their chunk's columns (each owner
# got its own boolean-indexed copy): sharing them moved no charge.
PINNED_BULK_CLOCKS = {
    "unbounded": [
        ("0x1.732ecbc565d03p-10", "0x1.732ecbc565d03p-10", 1303, 4),
        ("0x1.a52c74d310b3ap-10", "0x1.a5119ce075f6fp-10", 1501, 4),
        ("0x1.5241ec339a614p-10", "0x1.5241ec339a614p-10", 1077, 4),
        ("0x1.0331e3a7daa50p-9", "0x1.0331e3a7daa50p-9", 1766, 4),
    ],
    "spilling": [
        ("0x1.9e1018d9e7edcp-7", "0x1.9e1018d9e7edcp-7", 1680, 14),
        ("0x1.39291d3c457f2p-6", "0x1.39276fbd1bd35p-6", 2184, 14),
        ("0x1.0eacd346a9486p-6", "0x1.0eacd346a9486p-6", 1783, 14),
    ],
}


@pytest.mark.parametrize(
    "leg, n_ranks, chunk, cost",
    [
        ("unbounded", 4, 256, None),
        ("spilling", 3, 100, CostModel(rank_memory_bytes=12_000)),
    ],
)
def test_bulk_virtual_time_is_pinned(leg, n_ranks, chunk, cost):
    assert bulk_clocks(n_ranks, chunk, cost) == PINNED_BULK_CLOCKS[leg]


def test_store_bulk_append_validates_lengths():
    s = DegAwareRHH(4)
    with pytest.raises(ValueError):
        s.bulk_append_edges(
            np.array([1, 2], dtype=np.int64),
            np.array([3], dtype=np.int64),
            np.array([1], dtype=np.int64),
        )
