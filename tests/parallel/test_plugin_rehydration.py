"""Worker-side plugin re-hydration across the mp spawn boundary.

Plugins cannot be pickled; ``run_parallel(plugins=[(name, kwargs)])``
ships factory specs instead, and each worker rebuilds real instances
via ``build_plugin`` before constructing its engine through the
EngineBuilder.  Only ``mp_safe`` plugins are accepted — DES-only ones
(tracer, sampler, faults) are rejected worker-side.  Harvested payloads
come back per rank under ``per_rank[r]["plugins"]``.
"""

import pytest

from repro import EngineConfig, IncrementalBFS, IncrementalCC, ListEventStream
from repro.events.types import ADD
from repro.parallel import WireConfig, run_parallel


def split_round_robin(events, n_ranks):
    streams = [[] for _ in range(n_ranks)]
    for i, ev in enumerate(events):
        streams[i % n_ranks].append(ev)
    return [ListEventStream(s) for s in streams]


def mesh_events(n=40):
    return [
        (ADD, i % 9, (i * 5 + 2) % 9, 1)
        for i in range(n)
        if i % 9 != (i * 5 + 2) % 9
    ]


def run_mp(plugins, n_ranks=2, vectorize=False):
    # Per-event dispatch sends every applied insert and committed write
    # through the compiled hook tuples; the vectorized slab drain
    # legitimately bypasses per-event sites.
    return run_parallel(
        [IncrementalBFS(), IncrementalCC()],
        split_round_robin(mesh_events(), n_ranks),
        config=EngineConfig(n_ranks=n_ranks, undirected=True),
        wire=WireConfig(start_method="fork", vectorize=vectorize),
        init=[("bfs", 0, None)],
        timeout=60.0,
        plugins=plugins,
    )


def test_hook_stats_rides_into_workers_and_harvests_back():
    result = run_mp([("hook_stats", {})])
    payloads = [info["plugins"]["hook_stats"] for info in result.per_rank]
    assert len(payloads) == 2
    # Every rank applied inserts and committed writes through the
    # compiled hook tuples.
    assert all(p["on_insert"] > 0 for p in payloads)
    assert all(p["on_write"] > 0 for p in payloads)
    assert all(p["on_delete"] == 0 for p in payloads)
    # The run itself is unperturbed: BFS converged from the source.
    state = result.state("bfs")
    assert state[0] == 1 and sum(1 for v in state.values() if v) > 1


def test_hook_stats_on_the_shm_wire_still_harvests():
    """Under the vectorized drain the per-event insert site is
    legitimately bypassed, but the payload still ships back."""
    result = run_mp([("hook_stats", {})], vectorize=True)
    payloads = [info["plugins"]["hook_stats"] for info in result.per_rank]
    assert len(payloads) == 2
    assert all(set(p) == set(payloads[0]) for p in payloads)


def test_runs_without_plugin_specs_omit_the_payload_key():
    result = run_mp(None)
    assert all("plugins" not in info for info in result.per_rank)


@pytest.mark.parametrize("spec", [("tracer", {}), ("faults", {"plan": None})])
def test_des_only_plugins_are_rejected_worker_side(spec):
    with pytest.raises(Exception, match="mp_safe|DES-only"):
        run_mp([spec])


def test_unknown_plugin_name_is_rejected_worker_side():
    with pytest.raises(Exception, match="unknown plugin"):
        run_mp([("warp-drive", {})])
