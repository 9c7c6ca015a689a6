"""Exactness of the bulk-ingest fast path (the tentpole guarantee).

With a ``BulkIngestPlugin`` the engine drains saturation streams in
chunks and advances REMO state with array frontier kernels; the
contract is that the final vertex states are **bitwise-equal** to the
per-event path, which in turn equals the static answer on the final
topology.  Checked here for BFS, SSSP and CC across seeds and rank
counts, in undirected and directed mode, and through a mid-stream
global-state collection (which must force a per-event fallback and
*still* match).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import (
    DynamicEngine,
    EngineConfig,
    IncrementalBFS,
    IncrementalCC,
    IncrementalSSSP,
    ListEventStream,
)
from repro.analytics import verify_bfs, verify_cc, verify_sssp
from repro.events.stream import split_streams
from repro.events.types import ADD
from repro.runtime.plugins import BulkIngestPlugin

ALGOS = ("bfs", "sssp", "cc")


def make_programs():
    return [IncrementalBFS(), IncrementalSSSP(), IncrementalCC()]


def random_workload(seed, n_vertices=120, n_events=600):
    """Random ADD events with edge-deterministic weights (a re-observed
    edge always carries the same weight, keeping SSSP monotone)."""
    rng = np.random.default_rng(seed)
    src = rng.integers(0, n_vertices, n_events, dtype=np.int64)
    dst = rng.integers(0, n_vertices, n_events, dtype=np.int64)
    lo, hi = np.minimum(src, dst), np.maximum(src, dst)
    weights = (lo * 13 + hi) % 9 + 1
    return src, dst, weights


def run_engine(
    src,
    dst,
    weights,
    n_ranks,
    bulk,
    undirected=True,
    bulk_chunk=64,
    collections_at=(),
):
    eng = DynamicEngine(
        make_programs(),
        EngineConfig(n_ranks=n_ranks, undirected=undirected),
        plugins=[BulkIngestPlugin(bulk_chunk)] if bulk else None,
    )
    source = int(src[0])
    eng.init_program("bfs", source)
    eng.init_program("sssp", source)
    eng.attach_streams(
        split_streams(src, dst, n_ranks, weights=weights, rng=np.random.default_rng(0))
    )
    for at_time in collections_at:
        eng.request_collection("cc", at_time=at_time)
    eng.run()
    return eng, source


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("n_ranks", [1, 4])
def test_bulk_on_equals_off_equals_static(seed, n_ranks):
    src, dst, weights = random_workload(seed)
    on, source = run_engine(src, dst, weights, n_ranks, bulk=True)
    off, _ = run_engine(src, dst, weights, n_ranks, bulk=False)

    for name in ALGOS:
        a, b = on.state(name), off.state(name)
        assert a == b
        # Bitwise-equal means types too: plain Python ints both ways.
        assert {type(v) for v in a.values()} == {type(v) for v in b.values()}
    assert sorted(on.edges()) == sorted(off.edges())

    # ... and both equal the static answer on the final topology.
    assert verify_bfs(on, "bfs", source) == []
    assert verify_sssp(on, "sssp", source) == []
    assert verify_cc(on, "cc") == []

    # The fast path actually ran (and only on the bulk engine).
    assert on.total_counters().bulk_events == len(src)
    assert off.total_counters().bulk_events == 0


@pytest.mark.parametrize("seed", [5, 6])
def test_bulk_exact_in_directed_mode(seed):
    src, dst, weights = random_workload(seed, n_vertices=60, n_events=300)
    on, source = run_engine(src, dst, weights, 3, bulk=True, undirected=False)
    off, _ = run_engine(src, dst, weights, 3, bulk=False, undirected=False)
    for name in ALGOS:
        assert on.state(name) == off.state(name)
    assert on.total_counters().bulk_events == len(src)


def run_with_init_between_chunks(src, dst, weights, bulk, chunk, undirected):
    """Ingest about a third of the stream, then INIT BFS and SSSP at
    ``src[0]`` and run to quiescence.  Returns the engine and the source
    events ingested before the INIT."""
    eng = DynamicEngine(
        make_programs(),
        EngineConfig(n_ranks=3, undirected=undirected),
        plugins=[BulkIngestPlugin(chunk)] if bulk else None,
    )
    eng.attach_streams(
        split_streams(src, dst, 3, weights=weights, rng=np.random.default_rng(0))
    )
    # A bulk action pulls one chunk; a per-event one, one event or visit.
    eng.run(max_actions=max(2, len(src) // chunk // 3) if bulk else 200)
    before = eng.total_counters().source_events
    source = int(src[0])
    eng.init_program("bfs", source)
    eng.init_program("sssp", source)
    eng.run()
    return eng, before


@pytest.mark.parametrize("undirected", [True, False])
@pytest.mark.parametrize("chunk", [1, 7, 64])
def test_init_between_chunks_matches_per_event_and_static(chunk, undirected):
    """The INIT's per-event wave is in flight while later chunks
    re-engage; each chunk seeds its fixpoint from its own rows plus the
    dict-fold improvements, never from the values the wave carries."""
    src, dst, weights = random_workload(13, n_vertices=90, n_events=450)
    on, before = run_with_init_between_chunks(
        src, dst, weights, True, chunk, undirected
    )
    off, _ = run_with_init_between_chunks(src, dst, weights, False, chunk, undirected)
    tot = on.total_counters()
    assert 0 < before < len(src)  # the INIT landed between chunks
    assert tot.bulk_events == len(src)  # ... every event still went bulk
    assert tot.fallback_flushes >= 1  # ... with the wave interleaved
    for name in ALGOS:
        assert on.state(name) == off.state(name)
    assert sorted(on.edges()) == sorted(off.edges())
    source = int(src[0])
    assert verify_bfs(on, "bfs", source) == []
    assert verify_sssp(on, "sssp", source) == []
    assert verify_cc(on, "cc") == []


@pytest.mark.parametrize("n_ranks", [2, 4])
def test_midstream_collection_forces_fallback_and_still_matches(n_ranks):
    src, dst, weights = random_workload(9, n_vertices=200, n_events=1200)
    # A collection cut lands mid-stream: the engine must de-optimize
    # (flush bulk state, run the §III-D protocol per-event) and then
    # re-engage the fast path once the collection concludes.
    on, source = run_engine(
        src, dst, weights, n_ranks, bulk=True, collections_at=(2e-4,)
    )
    off, _ = run_engine(
        src, dst, weights, n_ranks, bulk=False, collections_at=(2e-4,)
    )

    tot = on.total_counters()
    assert tot.fallback_flushes >= 1  # the de-optimization happened
    assert tot.bulk_events > 0  # ... but the fast path still ran
    assert len(on.collection_results) == 1
    assert len(off.collection_results) == 1

    for name in ALGOS:
        assert on.state(name) == off.state(name)
    assert verify_bfs(on, "bfs", source) == []
    assert verify_sssp(on, "sssp", source) == []
    assert verify_cc(on, "cc") == []

    # The snapshot itself is a coherent CC prefix state: labels only
    # grow, so every collected label is dominated by the final one.
    snap = on.collection_results[0].state
    final = on.state("cc")
    assert all(v <= final[k] for k, v in snap.items())


edge = st.tuples(st.integers(0, 12), st.integers(0, 12))
edge_list = st.lists(edge, min_size=1, max_size=50)


@given(edges=edge_list, n_ranks=st.integers(1, 4), chunk=st.integers(1, 16))
@settings(max_examples=40, deadline=None)
def test_bulk_differential_hypothesis(edges, n_ranks, chunk):
    """Hypothesis sweep: tiny adversarial graphs (self-loops, dupes,
    stars) and tiny chunk sizes must still match per-event exactly."""
    events = [(ADD, s, d, (min(s, d) * 7 + max(s, d)) % 5 + 1) for s, d in edges]
    streams = lambda: [  # noqa: E731 - rebuilt per engine (stateful)
        ListEventStream(events[k::n_ranks], stream_id=k) for k in range(n_ranks)
    ]
    source = edges[0][0]

    def build(bulk):
        eng = DynamicEngine(
            make_programs(),
            EngineConfig(n_ranks=n_ranks),
            plugins=[BulkIngestPlugin(chunk)] if bulk else None,
        )
        eng.init_program("bfs", source)
        eng.init_program("sssp", source)
        eng.attach_streams(streams())
        eng.run()
        return eng

    on, off = build(True), build(False)
    for name in ALGOS:
        assert on.state(name) == off.state(name)
    assert sorted(on.edges()) == sorted(off.edges())
