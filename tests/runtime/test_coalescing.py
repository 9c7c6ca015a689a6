"""Engine-level tests for visitor coalescing and batched dispatch (§II-D).

The REMO safety claim: squashing monotone UPDATE visitors in the
visitor queue must not change any converged answer.  These tests run
every REMO algorithm with coalescing ON and OFF over random graphs
(multiple seeds x rank counts) and require identical final states,
both also equal to the static reference; plus targeted checks that the
combiner actually fires on a high-fan-in workload, that four-counter
termination still concludes with squashed messages in the books, and
that the new observability counters surface in throughput reports.
"""

import numpy as np
import pytest

from repro import (
    DynamicEngine,
    EngineConfig,
    IncrementalBFS,
    IncrementalCC,
    IncrementalSSSP,
    MultiSTConnectivity,
    split_streams,
    throughput_report,
)
from repro.analytics import verify_bfs, verify_cc, verify_sssp, verify_st


def random_graph(seed, n_vertices=24, n_edges=110):
    """Random multigraph with one weight per undirected pair (the SSSP
    monotonicity precondition)."""
    rng = np.random.default_rng(seed)
    src = rng.integers(0, n_vertices, size=n_edges)
    dst = rng.integers(0, n_vertices, size=n_edges)
    keep = src != dst
    src, dst = src[keep], dst[keep]
    pair_weights = {}
    weights = []
    for s, d in zip(src, dst):
        key = (min(s, d), max(s, d))
        if key not in pair_weights:
            pair_weights[key] = int(rng.integers(1, 9))
        weights.append(pair_weights[key])
    return src, dst, np.array(weights, dtype=np.int64)


def high_fanin_stream(n_hubs=6, n_spokes=80):
    """Hub stars merged last by a label-ascending chain — every merge
    re-floods all previously absorbed stars (coalescible traffic)."""
    rng = np.random.default_rng(0)
    src, dst = [], []
    spoke = n_hubs + 1
    for hub in range(1, n_hubs + 1):
        for _ in range(n_spokes):
            src.append(hub)
            dst.append(spoke)
            spoke += 1
    order = rng.permutation(len(src))
    src = list(np.array(src, dtype=np.int64)[order])
    dst = list(np.array(dst, dtype=np.int64)[order])
    for hub in range(1, n_hubs):
        src.append(hub)
        dst.append(hub + 1)
    return np.array(src, dtype=np.int64), np.array(dst, dtype=np.int64)


def run_once(make_programs, init, src, dst, weights, n_ranks, coalesce):
    engine = DynamicEngine(
        make_programs(),
        EngineConfig(n_ranks=n_ranks, coalesce_updates=coalesce),
    )
    init(engine)
    engine.attach_streams(
        split_streams(src, dst, n_ranks, weights=weights, rng=np.random.default_rng(7))
    )
    engine.run()
    assert engine.loop.quiescent()
    return engine


ALGORITHMS = {
    "bfs": (
        lambda: [IncrementalBFS()],
        lambda e: e.init_program("bfs", 0),
        lambda e: verify_bfs(e, "bfs", 0),
    ),
    "sssp": (
        lambda: [IncrementalSSSP()],
        lambda e: e.init_program("sssp", 0),
        lambda e: verify_sssp(e, "sssp", 0),
    ),
    "cc": (
        lambda: [IncrementalCC()],
        lambda e: None,
        lambda e: verify_cc(e, "cc"),
    ),
    "st": (
        lambda: [_make_st()],
        lambda e: _init_st(e),
        lambda e: verify_st(e, "st", [0, 5]),
    ),
}


def _make_st():
    st = MultiSTConnectivity()
    return st


def _init_st(engine):
    st = engine.programs[0]
    for s in (0, 5):
        engine.init_program("st", s, payload=st.register_source(s))


@pytest.mark.parametrize("algo", sorted(ALGORITHMS))
@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("n_ranks", [1, 4])
def test_coalescing_preserves_converged_state(algo, seed, n_ranks):
    make_programs, init, verify = ALGORITHMS[algo]
    src, dst, weights = random_graph(seed)
    runs = {
        coalesce: run_once(make_programs, init, src, dst, weights, n_ranks, coalesce)
        for coalesce in (False, True)
    }
    # ON == OFF == static reference.
    assert runs[True].state(algo) == runs[False].state(algo)
    assert verify(runs[True]) == []
    # The baseline run must not have coalesced anything.
    assert runs[False].total_counters().updates_squashed == 0


def test_high_fanin_workload_actually_squashes():
    src, dst = high_fanin_stream()
    engine = run_once(
        lambda: [IncrementalCC()], lambda e: None, src, dst, None, 4, True
    )
    total = engine.total_counters()
    assert total.updates_squashed > 0
    assert total.batch_sends > 0
    # Four-counter termination concluded with squashed messages in the
    # books: the run drained fully (quiescence is asserted by run_once)
    # and the answer is still right.
    assert verify_cc(engine, "cc") == []


def test_counters_surface_in_throughput_report():
    src, dst = high_fanin_stream(n_hubs=4, n_spokes=40)
    engine = run_once(
        lambda: [IncrementalCC()], lambda e: None, src, dst, None, 4, True
    )
    report = throughput_report(engine)
    assert report.updates_squashed > 0
    assert report.batch_sends > 0
    assert 0.0 < report.squash_fraction < 1.0
    text = report.summary()
    assert "updates_squashed=" in text
    assert "batch_sends=" in text
