"""Slabs larger than half a ring must never reach it.

``ShmRing.try_push`` places a slab contiguously: when it does not fit
before the region end, a PAD slab burns the remainder first.  A slab of
more than ``capacity // 2`` bytes can therefore need more than the whole
ring (``pad + slab > capacity``) and be refused by an *empty* ring for
ever — the producer parks it in its overflow queue, reports itself
non-idle, and the run livelocks with no rank error.  ``ShmLoop.flush``
splits what it emits to ``ShmRing.max_payload`` and ``try_push`` raises
for anything larger.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import EngineConfig, IncrementalBFS, IncrementalCC, MultiSTConnectivity
from repro.analytics import verify_bfs, verify_cc
from repro.events.stream import split_streams
from repro.generators.rmat import rmat_edges
from repro.parallel import ParallelStateView, WireConfig, run_parallel
from repro.parallel.codec import Codec
from repro.parallel.loop import ShmLoop
from repro.parallel.shm import K_ADD, K_PICKLE, K_UPDATE, SLAB_HEADER, create_ring
from repro.partition import ModuloPartitioner
from repro.runtime.visitor import VT_ADD, VT_UPDATE


def drain(ring):
    out = [(k, n, bytes(view)) for k, n, _s, view in ring.pop_slabs()]
    ring.commit()
    return out


class TestRingLimit:
    @settings(max_examples=40, deadline=None)
    @given(cursor_slabs=st.lists(st.integers(0, 200), max_size=12))
    def test_largest_slab_enters_an_empty_ring_at_any_cursor(self, cursor_slabs):
        ring = create_ring(1024)
        try:
            for size in cursor_slabs:  # walk the write cursor round the ring
                assert ring.try_push(K_ADD, 1, b"x" * size, sender=0)
                drain(ring)
            payload = b"y" * ring.max_payload
            assert ring.try_push(K_UPDATE, 1, payload, sender=0)
            assert drain(ring) == [(K_UPDATE, 1, payload)]
        finally:
            ring.destroy()

    def test_larger_slab_raises_instead_of_stalling(self):
        ring = create_ring(1024)
        try:
            assert ring.max_payload == 512 - SLAB_HEADER
            with pytest.raises(ValueError, match="exceeds ring capacity"):
                ring.try_push(K_ADD, 1, b"x" * (ring.max_payload + 1), sender=0)
            assert ring.push_stalls == 0 and ring.used() == 0
        finally:
            ring.destroy()


def test_flush_splits_a_record_batch_larger_than_the_ring():
    ring = create_ring(4096)
    codec = Codec([IncrementalBFS()])
    loop = ShmLoop(
        0, 2, lambda dst, frame: None, {1: ring}, codec,
        ModuloPartitioner(2), batch_max=1 << 20,
    )
    try:
        # Park the cursor mid-ring first: the wedge needs pad + slab.
        assert ring.try_push(K_ADD, 1, b"x" * 1500, sender=0)
        drain(ring)
        targets = np.arange(1, 1201, 2)  # odd ids: all owned by rank 1
        loop.queue_update(
            0, targets, targets + 1, targets.astype(np.uint64), np.ones(600, np.int64)
        )
        loop.flush(1)  # 600 x 38 B: five rings' worth
        got = drain(ring)
        for _ in range(1000):  # consumer turns until nothing is parked
            if not loop.outbuffered:
                break
            loop.pump()
            got.extend(drain(ring))
        assert not loop.outbuffered, "overflow queue never drained: ring wedged"
        assert all(len(payload) <= ring.max_payload for _k, _n, payload in got)
        recs = np.concatenate([codec.update_view(p) for _k, _n, p in got])
        assert recs["target"].tolist() == targets.tolist()
        assert loop.wire_sent == 600
    finally:
        ring.destroy()


def test_flush_splits_an_oversized_tuple_batch_into_in_order_slabs():
    # 600 visitors (S-T bitmaps up to 70 bits among them) pickle to
    # several rings' worth: one flush, halved until every slab fits.
    ring = create_ring(4096)
    codec = Codec([IncrementalBFS(), MultiSTConnectivity()])
    loop = ShmLoop(
        0, 2, lambda dst, frame: None, {1: ring}, codec,
        ModuloPartitioner(2), batch_max=1 << 20,
    )
    try:
        msgs = [(VT_ADD, 2 * i + 1, i, 1, 0) for i in range(300)]
        msgs += [(VT_UPDATE, 1, 2 * i + 1, i, 1 << (i % 70), 1, 0) for i in range(300)]
        assert len(codec.encode_batch(msgs)[2]) > ring.capacity
        for msg in msgs:
            loop.send(0, 1, msg)
        loop.flush(1)
        got = drain(ring)
        for _ in range(1000):  # consumer turns until nothing is parked
            if not loop.outbuffered:
                break
            loop.pump()
            got.extend(drain(ring))
        assert not loop.outbuffered, "overflow queue never drained: ring wedged"
        assert len(got) > 4 and {k for k, _n, _p in got} == {K_PICKLE}
        assert all(len(p) <= ring.max_payload for _k, _n, p in got)
        assert [m for _k, _n, p in got for m in codec.decode_to_tuples(p)] == msgs
        assert loop.wire_sent == loop.pickle_records == 600
        assert loop.pickle_slabs == loop.frames_sent == len(got)
    finally:
        ring.destroy()


@pytest.mark.parametrize("ring_capacity", [1 << 12, 1 << 14, 1 << 16])
def test_mp_run_with_batches_larger_than_the_ring_completes(ring_capacity):
    """The issue's reproduction, scaled down: coalesced UPDATE/RADD
    batches of up to 2048 records (38-44 B each) against rings of
    4-64 KiB.  At the parent commit this either livelocked until the
    timeout (slab between half and all of the ring) or killed a rank
    (slab larger than the ring)."""
    src, dst = rmat_edges(11, edge_factor=8, rng=np.random.default_rng(5))
    streams = split_streams(src, dst, 2, rng=np.random.default_rng(6))
    source = int(src[0])
    res = run_parallel(
        [IncrementalBFS(), IncrementalCC()],
        streams,
        config=EngineConfig(n_ranks=2),
        wire=WireConfig(
            start_method="fork", batch_max=2048, ring_capacity=ring_capacity
        ),
        init=[("bfs", source, None)],
        collect_edges=True,
        timeout=60.0,
    )
    assert res.source_events == len(src)
    assert res.wire["kernel_records"] > 0
    view = ParallelStateView(res)
    assert verify_bfs(view, "bfs", source) == []
    assert verify_cc(view, "cc") == []
