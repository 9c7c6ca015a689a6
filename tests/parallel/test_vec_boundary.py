"""What reaches a vectorized mp rank, and what must never.

A vec rank has no per-event topology path: its ingest pulls stream
columns, its drains run kernels, and its only per-event visitors are the
INIT seeds, dispatched before its applier exists.  A run is record slabs
between vec ranks or pickled tuple slabs between per-event ranks, never
both: each mode's runs are pinned to their lane here, and a slab of the
other mode (or of no mode) must fail loudly at whichever rank finds it.
"""

import multiprocessing
import os

import numpy as np
import pytest

from repro import (
    DynamicEngine,
    EngineConfig,
    IncrementalBFS,
    IncrementalCC,
    IncrementalSSSP,
)
from repro.events.stream import split_streams
from repro.generators import rmat_edges
from repro.generators.weights import pairwise_weights
from repro.parallel import WireConfig, run_parallel
from repro.parallel.codec import Codec
from repro.parallel.shm import K_ADD, create_ring
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


@pytest.mark.parametrize("vectorize", [True, False], ids=["vec", "per-event"])
def test_a_run_rides_one_lane_and_equals_the_des(vectorize):
    src, dst = rmat_edges(8, edge_factor=8, rng=np.random.default_rng(7))
    source = int(src[0])

    def programs():
        return [IncrementalBFS(), IncrementalCC()]

    def streams():
        return split_streams(src, dst, 2, rng=np.random.default_rng(8))

    res = run_parallel(
        programs(),
        streams(),
        config=EngineConfig(n_ranks=2),
        wire=WireConfig(start_method="fork", ingest_chunk=256, vectorize=vectorize),
        init=[("bfs", source, None)],
        timeout=60.0,
    )
    des = DynamicEngine(programs(), EngineConfig(n_ranks=2))
    des.init_program("bfs", source)
    des.attach_streams(streams())
    des.run()
    for name in ("bfs", "cc"):
        assert res.state(name) == des.state(name)
    wire = res.wire
    assert wire["wire_sent"] == wire["wire_received"] > 0
    if vectorize:
        # Arrays on record slabs: not one tuple was pickled, and every
        # slab passed the receiving rank's record-kinds-only check.
        assert wire["kernel_records"] > 0
        assert wire["pickle_records"] == wire["pickle_slabs"] == 0
    else:
        # Tuples on pickled slabs: every message, one slab per frame.
        assert "kernel_records" not in wire
        assert wire["pickle_records"] == wire["wire_sent"]
        assert wire["pickle_slabs"] == wire["frames_sent"]


def _tuple_slab():
    return Codec([IncrementalBFS()]).encode_batch([(VT_DEL, 3, 4, 0)])


def _record_slab():
    return (K_ADD, 1, np.array([[3], [4], [1]], dtype=np.int64).tobytes())


@pytest.mark.parametrize(
    "vectorize, slab, named",
    [
        (True, _tuple_slab(), ("is vectorized", "K_PICKLE")),
        (False, _record_slab(), ("is per-event", "K_ADD")),
        (False, (99, 1, b"x"), ("is per-event", "a 99 slab")),
    ],
    ids=["tuples-at-a-vec-rank", "records-at-a-per-event-rank", "unknown-kind"],
)
def test_a_wrong_mode_slab_raises(vectorize, slab, named):
    """Rank 0 of a 2-rank add-only run finds a slab of the other mode
    from its peer (a delete at a vec rank arrives as exactly that: a
    tuple slab): the worker must die naming rank, kind and sender."""
    ctx = multiprocessing.get_context("fork")
    programs = [IncrementalBFS()]
    rings = {pair: create_ring(1 << 16) for pair in ((0, 1), (1, 0))}
    parent_end, child_end = ctx.Pipe(duplex=False)
    peer_end, worker_end = ctx.Pipe(duplex=True)
    proc = None
    try:
        assert rings[(1, 0)].try_push(*slab, 1)
        proc = ctx.Process(
            target=worker_main,
            args=(
                0, 2, child_end, {1: worker_end}, programs,
                EngineConfig(n_ranks=2), None, [],
                WireConfig(vectorize=vectorize), False,
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
        assert "rank 0 " + named[0] in frame[2] and named[1] in frame[2]
        assert "from rank 1" in frame[2]
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


@pytest.mark.parametrize(
    "n_streams, init, match",
    [
        (2, [("bsf", 0, None)], r"init: no program 'bsf' among \['bfs', 'cc'\]"),
        (2, [("bfs", 0, None), (2, 0, None)], "init: no program 2 among"),
        (3, [("bfs", 0, None)], "3 streams for 2 ranks"),
    ],
    ids=["unknown-name", "index-out-of-range", "more-streams-than-ranks"],
)
def test_run_parallel_rejects_a_bad_call_before_creating_anything(n_streams, init, match):
    """A caller mistake is one ValueError line from the parent — not a
    forwarded child traceback — with no ring or process left behind."""
    src, dst = rmat_edges(6, edge_factor=4, rng=np.random.default_rng(1))
    segments = set(os.listdir("/dev/shm"))
    with pytest.raises(ValueError, match=match):
        run_parallel(
            [IncrementalBFS(), IncrementalCC()],
            split_streams(src, dst, n_streams, rng=np.random.default_rng(2)),
            config=EngineConfig(n_ranks=2),
            wire=WireConfig(start_method="fork"),
            init=init,
        )
    assert set(os.listdir("/dev/shm")) <= segments
    assert not multiprocessing.active_children()
