"""Property tests: every REMO algorithm survives a crash.

For random graphs, a random crash instant and a checkpoint cadence,
each REMO program driven through the FaultTolerantRunner must reach
quiescence and produce exactly the static answer on the final topology
— the paper's convergence guarantee extended to a dying cluster.
"""

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro import (
    DynamicEngine,
    EngineConfig,
    FaultPlan,
    FaultTolerantRunner,
    IncrementalBFS,
    IncrementalCC,
    IncrementalSSSP,
    MultiSTConnectivity,
    RankCrash,
    WidestPath,
)
from repro.analytics import verify_bfs, verify_cc, verify_sssp, verify_st
from repro.events.stream import ListEventStream
from repro.events.types import ADD

N_RANKS = 3

edge = st.tuples(st.integers(0, 15), st.integers(0, 15)).filter(
    lambda e: e[0] != e[1]
)
edge_list = st.lists(edge, min_size=10, max_size=50)
crash_frac = st.floats(0.1, 0.7)
plan_seed = st.integers(0, 2**20)


def build_stream_factory(edges, weights=None):
    streams = [[] for _ in range(N_RANKS)]
    for i, (s, d) in enumerate(edges):
        w = 1 if weights is None else weights[i]
        streams[i % N_RANKS].append((ADD, s, d, w))

    def factory():
        return [
            ListEventStream(list(evts), stream_id=k)
            for k, evts in enumerate(streams)
        ]

    return factory


def run_with_crash(
    make_programs, init_fn, edges, frac, seed, tmp_path, weights=None
):
    """Fault-free makespan first (for instants), then the faulty run."""
    ref = DynamicEngine(make_programs(), EngineConfig(n_ranks=N_RANKS))
    init_fn(ref)
    ref.attach_streams(build_stream_factory(edges, weights)())
    ref.run()
    vt = ref.loop.max_time()

    plan = FaultPlan(seed=seed, crashes=[RankCrash(time=max(vt * frac, 1e-9))])
    res = FaultTolerantRunner(
        lambda: DynamicEngine(make_programs(), EngineConfig(n_ranks=N_RANKS)),
        build_stream_factory(edges, weights),
        plan,
        tmp_path / "ckpt.npz",
        checkpoint_interval=vt * 0.2,
        init_fn=init_fn,
    ).run()
    # Checkpoint drains can compress the virtual schedule enough that a
    # tiny workload finishes before the crash instant; such a crash is
    # legitimately moot, but it is not the scenario under test.
    assume(res.recoveries == 1)
    assert res.engine.loop.quiescent()
    return res.engine, ref


@given(edges=edge_list, frac=crash_frac, seed=plan_seed)
@settings(max_examples=15, deadline=None)
def test_bfs_crash_recovery_equals_static(
    edges, frac, seed, tmp_path_factory
):
    tmp = tmp_path_factory.mktemp("bfs")
    source = edges[0][0]
    eng, _ = run_with_crash(
        lambda: [IncrementalBFS()],
        lambda e: e.init_program("bfs", source),
        edges, frac, seed, tmp,
    )
    assert verify_bfs(eng, "bfs", source) == []


@given(edges=edge_list, frac=crash_frac, seed=plan_seed)
@settings(max_examples=15, deadline=None)
def test_cc_crash_recovery_equals_static(
    edges, frac, seed, tmp_path_factory
):
    tmp = tmp_path_factory.mktemp("cc")
    eng, _ = run_with_crash(
        lambda: [IncrementalCC()], lambda e: None, edges, frac, seed, tmp
    )
    assert verify_cc(eng, "cc") == []


@given(
    edges=edge_list, frac=crash_frac, seed=plan_seed,
    data=st.data(),
)
@settings(max_examples=10, deadline=None)
def test_sssp_crash_recovery_equals_static(
    edges, frac, seed, data, tmp_path_factory
):
    tmp = tmp_path_factory.mktemp("sssp")
    pair_weights, weights = {}, []
    for s, d in edges:
        key = (min(s, d), max(s, d))
        if key not in pair_weights:
            pair_weights[key] = data.draw(st.integers(1, 9))
        weights.append(pair_weights[key])
    source = edges[0][0]
    eng, _ = run_with_crash(
        lambda: [IncrementalSSSP()],
        lambda e: e.init_program("sssp", source),
        edges, frac, seed, tmp, weights=weights,
    )
    assert verify_sssp(eng, "sssp", source) == []


@given(edges=edge_list, frac=crash_frac, seed=plan_seed)
@settings(max_examples=10, deadline=None)
def test_st_crash_recovery_equals_static(
    edges, frac, seed, tmp_path_factory
):
    tmp = tmp_path_factory.mktemp("st")
    sources = sorted({edges[0][0], edges[-1][1]})

    def make_programs():
        return [MultiSTConnectivity()]

    def init_fn(e):
        st_prog = e.programs[0]
        for s in sources:
            e.init_program("st", s, payload=st_prog.register_source(s))

    eng, _ = run_with_crash(
        make_programs, init_fn, edges, frac, seed, tmp
    )
    assert verify_st(eng, "st", sources) == []


@given(edges=edge_list, frac=crash_frac, seed=plan_seed)
@settings(max_examples=10, deadline=None)
def test_widest_path_crash_recovery_matches_fault_free(
    edges, frac, seed, tmp_path_factory
):
    tmp = tmp_path_factory.mktemp("wp")
    # Deterministic per-pair capacities keep WidestPath monotone.
    weights = [((min(s, d) * 7 + max(s, d)) % 9) + 1 for s, d in edges]
    source = edges[0][0]
    eng, ref = run_with_crash(
        lambda: [WidestPath()],
        lambda e: e.init_program("widest", source),
        edges, frac, seed, tmp, weights=weights,
    )
    assert eng.state("widest") == ref.state("widest")
