"""Differential verification of the process-parallel backend.

The REMO fixpoint argument (§II-D) says the monotone algorithms
converge to the same state under *any* legal interleaving — so the mp
backend, whose interleavings come from the real OS scheduler, must be
bit-equal to the DES backend and to the static oracles on the final
topology.  Hypothesis shakes the schedule further with randomized
flush thresholds (``jitter_seed``) on top of genuine scheduling noise.

Fork is used for the in-process tests (cheap); spawn safety is covered
by running a real script through a fresh interpreter, because spawn
re-imports ``__main__`` and must work from the CLI entry points.
"""

import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro import (
    DynamicEngine,
    EngineConfig,
    IncrementalBFS,
    IncrementalCC,
    IncrementalSSSP,
    ListEventStream,
    MultiSTConnectivity,
    WidestPath,
)
from repro.analytics import verify_bfs, verify_cc, verify_sssp, verify_st, verify_widest
from repro.events.stream import split_streams
from repro.events.types import ADD
from repro.generators import rmat_edges
from repro.generators.weights import pairwise_weights
from repro.parallel import ParallelStateView, WireConfig, run_parallel

edge = st.tuples(st.integers(0, 12), st.integers(0, 12)).filter(lambda e: e[0] != e[1])
edge_list = st.lists(st.tuples(edge, st.integers(1, 9)), min_size=1, max_size=50)

ALL_FIVE = ("bfs", "cc", "sssp", "st", "widest")


def pairwise(edges):
    chosen = {}
    out = []
    for (s, d), w in edges:
        key = (min(s, d), max(s, d))
        w = chosen.setdefault(key, w)
        out.append((ADD, s, d, w))
    return out


def build_workload(source, st_sources):
    """All five REMO programs plus their init triples (picklable)."""
    stprog = MultiSTConnectivity()
    init = [("st", s, stprog.register_source(s)) for s in st_sources]
    init += [("bfs", source, None), ("sssp", source, None), ("widest", source, None)]
    programs = [
        IncrementalBFS(), IncrementalCC(), IncrementalSSSP(), stprog, WidestPath()
    ]
    return programs, init


def split_round_robin(events, n_ranks):
    streams = [[] for _ in range(n_ranks)]
    for i, ev in enumerate(events):
        streams[i % n_ranks].append(ev)
    return [ListEventStream(s) for s in streams]


def run_mp(events, n_ranks, source, st_sources, **wire_kw):
    programs, init = build_workload(source, st_sources)
    wire_kw.setdefault("start_method", "fork")
    return run_parallel(
        programs,
        split_round_robin(events, n_ranks),
        config=EngineConfig(n_ranks=n_ranks),
        wire=WireConfig(**wire_kw),
        init=init,
        collect_edges=True,
        timeout=120.0,
    )


def run_des(events, n_ranks, source, st_sources):
    programs, init = build_workload(source, st_sources)
    engine = DynamicEngine(programs, EngineConfig(n_ranks=n_ranks))
    for prog, vertex, payload in init:
        engine.init_program(prog, vertex, payload=payload)
    engine.attach_streams(split_round_robin(events, n_ranks))
    engine.run()
    return engine

def nonzero(state):
    return {v: val for v, val in state.items() if val != 0}


def assert_bit_equal_to_des(result, engine):
    for name in ALL_FIVE:
        assert nonzero(result.state(name)) == nonzero(engine.state(name)), name
    assert set(result.edges) == set(engine.edges())


def assert_static_oracles_pass(result, source, st_sources):
    view = ParallelStateView(result)
    assert verify_bfs(view, "bfs", source) == []
    assert verify_cc(view, "cc") == []
    assert verify_sssp(view, "sssp", source) == []
    assert verify_st(view, "st", st_sources) == []
    assert verify_widest(view, "widest", source) == []


@given(
    edges=edge_list,
    n_ranks=st.integers(2, 3),
    jitter_seed=st.integers(0, 2**31),
    batch_max=st.integers(1, 8),
)
@settings(max_examples=10, deadline=None)
def test_mp_matches_des_and_static_oracles(edges, n_ranks, jitter_seed, batch_max):
    """All five algorithms, one mp run per example, adversarial batch
    sizes — final state must bit-equal the DES run and the oracles."""
    events = pairwise(edges)
    source = events[0][1]
    st_sources = sorted({e[1] for e in events[:3]})
    result = run_mp(
        events, n_ranks, source, st_sources,
        jitter_seed=jitter_seed, batch_max=batch_max,
    )
    assert_static_oracles_pass(result, source, st_sources)
    engine = run_des(events, n_ranks, source, st_sources)
    assert_bit_equal_to_des(result, engine)


class TestParallelRmat:
    """One moderate RMAT workload at 4 ranks, checked end to end.  S-T
    and widest-path have no bulk kernel, so this is the per-event drain
    with their values on the rings' pickled-slab lane."""

    @pytest.fixture(scope="class")
    def workload(self):
        rng = np.random.default_rng(0)
        src, dst = rmat_edges(7, edge_factor=8, rng=rng)
        weights = pairwise_weights(src, dst, 1, 50)
        source = int(src[0])
        st_sources = sorted({int(v) for v in src[:3]})
        n = 4
        programs, init = build_workload(source, st_sources)
        streams = split_streams(
            src, dst, n, weights=weights, rng=np.random.default_rng(1)
        )
        result = run_parallel(
            programs, streams, config=EngineConfig(n_ranks=n),
            wire=WireConfig(start_method="fork", batch_max=64, jitter_seed=7),
            init=init, collect_edges=True, timeout=120.0,
        )
        return result, src, dst, weights, source, st_sources

    def test_static_oracles(self, workload):
        result, _, _, _, source, st_sources = workload
        assert_static_oracles_pass(result, source, st_sources)

    def test_bit_equal_to_des(self, workload):
        result, src, dst, weights, source, st_sources = workload
        programs, init = build_workload(source, st_sources)
        engine = DynamicEngine(programs, EngineConfig(n_ranks=4))
        for prog, vertex, payload in init:
            engine.init_program(prog, vertex, payload=payload)
        engine.attach_streams(
            split_streams(src, dst, 4, weights=weights, rng=np.random.default_rng(1))
        )
        engine.run()
        assert_bit_equal_to_des(result, engine)

    def test_wire_counters_balanced(self, workload):
        result = workload[0]
        assert result.wire["wire_sent"] == result.wire["wire_received"]
        assert result.wire["frames_sent"] == result.wire["frames_received"]
        # Batching must actually batch: far fewer frames than messages.
        assert result.wire["frames_sent"] < result.wire["wire_sent"]

    def test_termination_needed_at_least_two_rounds(self, workload):
        result = workload[0]
        assert result.token_rounds >= 2

    def test_coalescing_happened_on_both_wire_ends(self, workload):
        result = workload[0]
        assert result.wire["outbuf_squashed"] > 0
        assert result.wire["inbox_squashed"] > 0

    def test_each_rank_stores_only_owned_sources(self, workload):
        """Quiescence-based collection: each harvested edge lives on the
        rank that owns its source vertex."""
        result = workload[0]
        for rank, info in enumerate(result.per_rank):
            for s, _d, _w in info["edges"]:
                assert result.partitioner.owner(s) == rank

    def test_source_events_accounted(self, workload):
        result, src, _, _, _, _ = workload
        assert result.source_events == len(src)
        assert result.counters.visits > 0


class PerEventSSSP(IncrementalSSSP):
    """SSSP without its kernel row: a run that loads it is per-event."""

    bulk_kernel = None


def run_vec_workload(sssp):
    """BFS/CC/SSSP all declare bulk kernels, so the ``sssp`` class alone
    picks the side of the vectorized drain's de-opt boundary the run is
    on: :class:`PerEventSSSP` puts every rank on the per-event lane."""
    rng = np.random.default_rng(3)
    src, dst = rmat_edges(7, edge_factor=8, rng=rng)
    weights = pairwise_weights(src, dst, 1, 50)
    source = int(src[0])
    programs = [IncrementalBFS(), IncrementalCC(), sssp()]
    init = [("bfs", source, None), ("sssp", source, None)]
    streams = split_streams(
        src, dst, 4, weights=weights, rng=np.random.default_rng(1)
    )
    result = run_parallel(
        programs, streams, config=EngineConfig(n_ranks=4),
        wire=WireConfig(start_method="fork", batch_max=64),
        init=init, collect_edges=True, timeout=120.0,
    )
    return result, src, dst, weights, source


class TestVectorizedDrain:
    """All-packable workload: the rings' slabs must go through the
    vectorized drain — zero per-event visits — and still match DES
    bit-for-bit with the oracles green; with a kernel-less SSSP the same
    slabs dispatch per event to the same state."""

    @pytest.fixture(scope="class")
    def vec_workload(self):
        return run_vec_workload(IncrementalSSSP)

    def test_vector_path_engaged(self, vec_workload):
        result = vec_workload[0]
        assert result.wire.get("kernel_batches", 0) > 0
        assert result.wire.get("kernel_records", 0) > 0
        # Bulk ingest replaces the per-event scheduler for the stream:
        # only the two INIT seeds (bfs, sssp) take the per-event path.
        assert result.counters.visits <= 2

    def test_per_event_drain_agrees_across_the_deopt_boundary(self, vec_workload):
        vec = vec_workload[0]
        per_event, src, *_ = run_vec_workload(PerEventSSSP)
        assert per_event.wire.get("kernel_records", 0) == 0
        assert per_event.counters.visits > len(src)
        assert per_event.wire["ring_pushes"] > 0  # still over the rings
        for name in ("bfs", "cc", "sssp"):
            assert nonzero(per_event.state(name)) == nonzero(vec.state(name)), name
        assert set(per_event.edges) == set(vec.edges)
        assert per_event.counters.edge_inserts == vec.counters.edge_inserts

    def test_bit_equal_to_des(self, vec_workload):
        result, src, dst, weights, source = vec_workload
        programs = [IncrementalBFS(), IncrementalCC(), IncrementalSSSP()]
        engine = DynamicEngine(programs, EngineConfig(n_ranks=4))
        engine.init_program("bfs", source)
        engine.init_program("sssp", source)
        engine.attach_streams(
            split_streams(src, dst, 4, weights=weights, rng=np.random.default_rng(1))
        )
        engine.run()
        for name in ("bfs", "cc", "sssp"):
            assert nonzero(result.state(name)) == nonzero(engine.state(name)), name
        assert set(result.edges) == set(engine.edges())

    def test_static_oracles(self, vec_workload):
        result, _, _, _, source = vec_workload
        view = ParallelStateView(result)
        assert verify_bfs(view, "bfs", source) == []
        assert verify_cc(view, "cc") == []
        assert verify_sssp(view, "sssp", source) == []

    def test_wire_counters_balanced(self, vec_workload):
        result = vec_workload[0]
        assert result.wire["wire_sent"] == result.wire["wire_received"]
        assert result.wire["frames_sent"] == result.wire["frames_received"]


def test_single_rank_degenerate_ring():
    events = pairwise([((0, 1), 2), ((1, 2), 3), ((2, 3), 1)])
    result = run_mp(events, 1, 0, [0])
    assert nonzero(result.state("bfs")) == {0: 1, 1: 2, 2: 3, 3: 4}
    engine = run_des(events, 1, 0, [0])
    assert_bit_equal_to_des(result, engine)


def test_only_the_shm_wire_constructs():
    assert WireConfig(kind="shm") == WireConfig()
    with pytest.raises(ValueError, match="pickled-pipe data plane was removed"):
        WireConfig(kind="pipe")


def test_too_many_streams_rejected():
    programs, init = build_workload(0, [0])
    with pytest.raises(ValueError):
        run_parallel(
            programs,
            split_round_robin([(ADD, 0, 1, 1)], 3),
            config=EngineConfig(n_ranks=2),
            init=init,
        )


def test_verification_requires_collected_edges():
    events = pairwise([((0, 1), 2)])
    programs, init = build_workload(0, [0])
    result = run_parallel(
        programs, split_round_robin(events, 1),
        config=EngineConfig(n_ranks=1),
        wire=WireConfig(start_method="fork"),
        init=init, collect_edges=False, timeout=60.0,
    )
    assert result.edges is None
    with pytest.raises(ValueError):
        ParallelStateView(result)


_SPAWN_SCRIPT = """\
import sys

sys.path.insert(0, {src_path!r})

from repro import DynamicEngine, EngineConfig, IncrementalCC, ListEventStream
from repro.events.types import ADD
from repro.parallel import WireConfig, run_parallel


class PerEventCC(IncrementalCC):
    bulk_kernel = None


def main():
    events = [(ADD, i, i + 1, 1) for i in range(12)] + [(ADD, 20, 21, 1)]

    engine = DynamicEngine([IncrementalCC()], EngineConfig(n_ranks=2))
    engine.attach_streams(
        [ListEventStream(events[0::2]), ListEventStream(events[1::2])]
    )
    engine.run()

    for cc in (IncrementalCC, PerEventCC):
        streams = [ListEventStream(events[0::2]), ListEventStream(events[1::2])]
        result = run_parallel(
            [cc()], streams, config=EngineConfig(n_ranks=2),
            wire=WireConfig(start_method="spawn"),
            timeout=120.0,
        )
        assert result.state("cc") == engine.state("cc"), (
            "spawn run diverged from DES", cc.__name__
        )
        # The drain is vectorized exactly when the program has a kernel
        # row; a spawned worker unpickles the twin from this __main__.
        vectorized = cc.bulk_kernel is not None
        vec = result.wire.get("kernel_records", 0)
        assert (vec > 0) == vectorized, (cc.__name__, vec)
    print("SPAWN-OK")


if __name__ == "__main__":
    main()
"""


def test_spawn_start_method_from_a_real_entry_point(tmp_path):
    """Spawn re-imports ``__main__``; the wire surface (worker_main,
    programs, configs) must be picklable and importable from a fresh
    interpreter, exactly as the CLI uses it."""
    src_path = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    script = tmp_path / "spawn_check.py"
    script.write_text(_SPAWN_SCRIPT.format(src_path=src_path))
    proc = subprocess.run(
        [sys.executable, str(script)],
        capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode == 0, proc.stderr
    assert "SPAWN-OK" in proc.stdout
