"""What reaches a vectorized mp rank, and what must never.

A vec rank has no per-event topology path: its ingest pulls stream
columns, its drains run kernels, and its only per-event visitors are the
INIT seeds.  The mirror hooks and the de-opt replay that used to cover
"per-event activity on a vec rank" were deleted on that evidence, so it
is pinned here; and the one input that would have needed them — a delete
slab at an engaged applier — must fail loudly instead.
"""

import multiprocessing

import numpy as np
import pytest

from repro import EngineConfig, IncrementalBFS, IncrementalCC, IncrementalSSSP
from repro.events.stream import split_streams
from repro.generators import rmat_edges
from repro.generators.weights import pairwise_weights
from repro.parallel import WireConfig, run_parallel
from repro.parallel.codec import Codec
from repro.parallel.shm import K_DEL, create_ring
from repro.parallel.wire import FRAME_ERROR
from repro.parallel.worker import worker_main
from repro.runtime.visitor import VT_DEL


def test_a_vec_run_dispatches_only_its_inits_per_event():
    src, dst = rmat_edges(8, edge_factor=8, rng=np.random.default_rng(5))
    weights = pairwise_weights(src, dst, 1, 50)
    source = int(src[0])
    init = [("bfs", source, None), ("sssp", source, None)]
    res = run_parallel(
        [IncrementalBFS(), IncrementalCC(), IncrementalSSSP()],
        split_streams(src, dst, 2, weights=weights, rng=np.random.default_rng(6)),
        config=EngineConfig(n_ranks=2),
        wire=WireConfig(start_method="fork", ingest_chunk=256),
        init=init,
        timeout=60.0,
    )
    assert res.source_events == len(src)
    assert res.wire["kernel_records"] > 0
    # Every INIT is dispatched by exactly the rank that owns its vertex;
    # nothing else takes the callback path, and nothing rides K_PICKLE.
    assert res.counters.visits == len(init)
    assert res.wire["pickle_records"] == 0


def test_a_delete_slab_at_an_engaged_applier_raises():
    """Rank 0 of a 2-rank add-only (hence vectorized) run finds a K_DEL
    slab from its peer: the worker must die naming the broken sniff."""
    ctx = multiprocessing.get_context("fork")
    programs = [IncrementalBFS()]
    rings = {pair: create_ring(1 << 16) for pair in ((0, 1), (1, 0))}
    parent_end, child_end = ctx.Pipe(duplex=False)
    peer_end, worker_end = ctx.Pipe(duplex=True)
    proc = None
    try:
        ((kind, n, payload),) = Codec(programs).encode_batch([(VT_DEL, 3, 4, 0)])
        assert kind == K_DEL
        assert rings[(1, 0)].try_push(kind, n, payload, 1)
        proc = ctx.Process(
            target=worker_main,
            args=(
                0, 2, child_end, {1: worker_end}, programs,
                EngineConfig(n_ranks=2), None, [], WireConfig(), False,
                {pair: ring.name for pair, ring in rings.items()},
                True,  # add_only: what run_parallel's sniff would have said
            ),
            daemon=True,
        )
        proc.start()
        assert parent_end.poll(30.0), "worker neither failed nor finished"
        frame = parent_end.recv()
        proc.join(timeout=30.0)
        assert not proc.is_alive()
        assert frame[0] == FRAME_ERROR and frame[1] == 0
        assert "RuntimeError" in frame[2]
        assert "K_DEL" in frame[2] and "add-only sniff" in frame[2]
    finally:
        if proc is not None and proc.is_alive():
            proc.terminate()
            proc.join(timeout=10.0)
        for conn in (parent_end, child_end, peer_end, worker_end):
            conn.close()
        for ring in rings.values():
            ring.destroy()


def test_run_parallel_takes_no_plugins():
    with pytest.raises(TypeError, match="plugins"):
        run_parallel([IncrementalBFS()], [], plugins=[("tracer", {})])
