"""The vectorized drain's emission lanes route by the owner column they
are handed, and a drain refuses a record that was routed wrongly.

``ShmLoop.queue_add`` / ``queue_radd`` / ``queue_update`` take the owner
rank of every record's routing id (ADD: its source, REVERSE_ADD: its
destination, UPDATE: its target) from the caller, which reads it off
``DenseState.owner`` or its own ingest routing column.  Whatever the
ids and the rank count, each record must land on the ring toward the
partitioner's owner of that id — and the loop is built without a
partitioner, so a lane that re-hashed ids would fail here.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import DynamicEngine, EngineConfig, IncrementalBFS, IncrementalCC
from repro.parallel.codec import Codec
from repro.parallel.loop import ShmLoop
from repro.parallel.shm import K_ADD, K_RADD, K_UPDATE, create_ring
from repro.parallel.vecapply import VecApplier
from repro.partition import ConsistentHashPartitioner

ROUTING_FIELD = {K_ADD: "src", K_RADD: "dst", K_UPDATE: "target"}


@settings(max_examples=40, deadline=None)
@given(
    n_ranks=st.integers(2, 4),
    salt=st.integers(0, 3),
    ids=st.lists(st.integers(0, 1 << 40), min_size=1, max_size=80),
    data=st.data(),
)
def test_every_record_lands_at_the_owner_of_its_routing_id(n_ranks, salt, ids, data):
    rank = data.draw(st.integers(0, n_ranks - 1))
    partitioner = ConsistentHashPartitioner(n_ranks, salt=salt)
    ids = np.array(ids, dtype=np.int64)
    ids = ids[partitioner.owner_array(ids) != rank]  # lanes carry remote ids only
    owners = partitioner.owner_array(ids)
    codec = Codec([IncrementalBFS(), IncrementalCC()])
    rings = {o: create_ring(1 << 16) for o in range(n_ranks) if o != rank}
    try:
        loop = ShmLoop(
            rank, n_ranks, lambda *_: None, rings, codec, None, batch_max=1 << 20
        )
        ones = np.ones(ids.size, dtype=np.int64)
        vals = np.ones((ids.size, 2), dtype=np.uint64)
        loop.queue_add(ids, ids + 1, ones, owners)
        loop.queue_radd(ids, ids + 1, ones, vals, owners)
        loop.queue_update(1, ids, ids + 1, ones.astype(np.uint64), ones, owners)
        loop.flush_all()
        routed = {kind: [] for kind in ROUTING_FIELD}
        for other, ring in rings.items():
            for kind, _n, _sender, payload in ring.pop_slabs():
                view = {
                    K_ADD: codec.add_view,
                    K_RADD: codec.radd_view,
                    K_UPDATE: codec.update_view,
                }[kind](payload)
                got = view[ROUTING_FIELD[kind]].astype(np.int64)
                assert (partitioner.owner_array(got) == other).all()
                routed[kind] += got.tolist()
            ring.commit()
        for kind in ROUTING_FIELD:
            assert sorted(routed[kind]) == sorted(ids.tolist())
        assert loop.wire_sent == 3 * ids.size
    finally:
        for ring in rings.values():
            ring.destroy()


def test_a_reverse_add_from_a_source_the_rank_owns_is_refused():
    """A REVERSE_ADD is routed to its destination's owner by its
    source's owner, so its source is never the receiver's own."""
    engine = DynamicEngine([IncrementalBFS(), IncrementalCC()], EngineConfig(n_ranks=2))
    codec = Codec(engine.programs)
    applier = VecApplier(engine, 0, codec)
    owner = engine.partitioner.owner_array(np.arange(64))
    mine, peers = np.flatnonzero(owner == 0), np.flatnonzero(owner == 1)
    radd = np.zeros(2, dtype=codec.radd_dtype)
    radd["dst"], radd["src"], radd["weight"] = mine[:2], [peers[0], mine[2]], 1
    with pytest.raises(RuntimeError, match=f"REVERSE_ADD from vertex {mine[2]}"):
        applier.drain([(K_RADD, 2, 1, radd)], loop=None)
