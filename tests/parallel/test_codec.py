"""Property tests for the two wire formats of the shm codec.

The tuple lane must be invisible to the engine: any visitor batch must
round-trip through ``encode_batch`` / ``decode_to_tuples`` to the
*identical* tuple list — same order (the §III-C FIFO guarantee), same
native-int values whatever their sign or width, same payload objects
(generational tuples, S-T bitmaps) — as exactly one ``K_PICKLE`` slab.
The array lane is three record layouts read back as zero-copy views.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import (
    IncrementalBFS,
    IncrementalCC,
    IncrementalSSSP,
    MultiSTConnectivity,
    WidestPath,
)
from repro.parallel.codec import ADD_DTYPE, UPDATE_DTYPE, Codec, radd_dtype
from repro.parallel.shm import K_PICKLE
from repro.runtime.visitor import VT_ADD, VT_DEL, VT_RADD, VT_RDEL, VT_UPDATE

# A kernel-capable program list (the runs that may vectorize) and one
# with S-T / widest-path in it (per-event always): the tuple lane must
# not care which.
PACKABLE = Codec([IncrementalBFS(), IncrementalCC(), IncrementalSSSP()])
MIXED = Codec(
    [
        IncrementalBFS(),
        IncrementalCC(),
        IncrementalSSSP(),
        MultiSTConnectivity(),
        WidestPath(),
    ]
)

i64 = st.integers(-(2**63), 2**63 - 1)
u64 = st.integers(0, 2**64 - 1)
vid = st.integers(0, 2**40)
weight = st.integers(-(2**31), 2**31)
ver = st.integers(0, 2**32 - 1)
# Plain ints of either sign up to 2^64, strings, and the generational
# programs' (generation, value, support) tuples.
value = st.one_of(i64, u64, st.text(max_size=5), st.tuples(u64, i64, vid))


@st.composite
def visitor(draw, codec):
    vt = draw(st.sampled_from([VT_ADD, VT_RADD, VT_UPDATE, VT_DEL, VT_RDEL]))
    if vt == VT_ADD:
        return (VT_ADD, draw(vid), draw(vid), draw(weight), draw(ver))
    if vt == VT_DEL:
        return (VT_DEL, draw(vid), draw(vid), draw(ver))
    if vt in (VT_RADD, VT_RDEL):
        vals = tuple(draw(value) for _ in range(codec.n_programs))
        tail = (draw(weight), draw(ver)) if vt == VT_RADD else (draw(ver),)
        return (vt, draw(vid), draw(vid), vals, *tail)
    prog = draw(st.integers(0, codec.n_programs - 1))
    return (
        VT_UPDATE, prog, draw(vid), draw(vid), draw(value), draw(weight), draw(ver)
    )


def roundtrip(codec, batch):
    kind, n, payload = codec.encode_batch(batch)
    assert (kind, n) == (K_PICKLE, len(batch))
    # The consumer reads the payload as a uint8 view over the ring.
    return codec.decode_to_tuples(np.frombuffer(payload, dtype=np.uint8))


class TestRoundTrip:
    @settings(max_examples=60, deadline=None)
    @given(batch=st.lists(visitor(PACKABLE), max_size=30))
    def test_all_packable_batches_roundtrip_exactly(self, batch):
        assert roundtrip(PACKABLE, batch) == batch

    @settings(max_examples=60, deadline=None)
    @given(batch=st.lists(visitor(MIXED), max_size=30))
    def test_mixed_batches_roundtrip_exactly(self, batch):
        assert roundtrip(MIXED, batch) == batch

    def test_signed_values_fold_back_negative(self):
        msg = (VT_UPDATE, 2, 5, 7, -123456789, 3, 0)
        assert roundtrip(PACKABLE, [msg]) == [msg]

    def test_unsigned_values_above_sign_bit_survive(self):
        # CC labels are 64-bit hashes: the top bit must not turn into a sign.
        msg = (VT_UPDATE, 1, 5, 7, (1 << 63) + 99, 3, 0)
        assert roundtrip(PACKABLE, [msg]) == [msg]


class TestSlabKinds:
    def test_kind_per_visitor_type(self):
        # One lane: whatever the visitor type, the slab is K_PICKLE.
        for msg in [
            (VT_ADD, 0, 1, 1, 0),
            (VT_RADD, 0, 1, (0, 0, 0), 1, 0),
            (VT_UPDATE, 0, 1, 2, 3, 1, 0),
            (VT_DEL, 0, 1, 0),
            (VT_RDEL, 0, 1, (0, 0, 0), 0),
        ]:
            assert PACKABLE.encode_batch([msg])[:2] == (K_PICKLE, 1)

    def test_consecutive_runs_share_one_slab(self):
        # Visitor types alternate; the batch is still one slab, in order.
        batch = [(VT_ADD, i, i + 1, 1, 0) for i in range(4)]
        batch += [(VT_UPDATE, 0, 1, 2, 3, 1, 0), (VT_DEL, 0, 1, 0)]
        batch += [(VT_ADD, 9, 10, 1, 0)]
        kind, n, _payload = PACKABLE.encode_batch(batch)
        assert (kind, n) == (K_PICKLE, 7)
        assert roundtrip(PACKABLE, batch) == batch


class TestRecordViews:
    def test_add_view_is_zero_copy_over_the_payload(self):
        recs = np.array([(3, 4, 5, 1), (6, 7, -8, 2)], dtype=ADD_DTYPE)
        view = PACKABLE.add_view(np.frombuffer(recs.tobytes(), dtype=np.uint8))
        assert view.dtype == ADD_DTYPE and view.base is not None
        assert view["src"].tolist() == [3, 6]
        assert view["dst"].tolist() == [4, 7]
        assert view["weight"].tolist() == [5, -8]
        assert view["ver"].tolist() == [1, 2]

    def test_update_view_field_layout(self):
        recs = np.array([(1, 10, 11, 12, 13, 14)], dtype=UPDATE_DTYPE)
        assert UPDATE_DTYPE.itemsize == 38
        view = PACKABLE.update_view(np.frombuffer(recs.tobytes(), dtype=np.uint8))
        assert view.dtype == UPDATE_DTYPE
        assert view[0].item() == (1, 10, 11, 12, 13, 14)

    def test_radd_view_carries_one_value_lane_per_program(self):
        assert PACKABLE.radd_dtype == radd_dtype(3) != MIXED.radd_dtype
        recs = np.array([(1, 2, 3, 0, (7, 8, 9))], dtype=radd_dtype(3))
        view = PACKABLE.radd_view(np.frombuffer(recs.tobytes(), dtype=np.uint8))
        assert view.dtype == radd_dtype(3)
        assert view["vals"].tolist() == [[7, 8, 9]]


class TestDelLane:
    """§VI-B deletes are ordinary tuples on the tuple lane: DEL names an
    edge, RDEL carries one (generational, tuple-valued) value per
    program."""

    def test_del_batch_roundtrips_exactly(self):
        batch = [(VT_DEL, 3, 9, 1), (VT_DEL, 5, 2, 0), (VT_DEL, 2**40, 7, 9)]
        batch.append((VT_RDEL, 9, 3, ((2, 5, 7), (1, 2**63, None)), 1))
        assert roundtrip(PACKABLE, batch) == batch
        assert roundtrip(MIXED, batch) == batch

    @settings(max_examples=40, deadline=None)
    @given(
        batch=st.lists(
            st.one_of(visitor(MIXED), st.tuples(st.just(VT_DEL), vid, vid, ver)),
            max_size=30,
        )
    )
    def test_mixed_batches_with_deletes_roundtrip(self, batch):
        assert roundtrip(MIXED, batch) == batch
