"""Unit tests for the worker-side message loop (no processes involved).

``ShmLoop`` takes an injected ``transmit`` callable for its pipe control
frames and in-process rings for its data, so these tests capture the
doorbells in a plain list, read the slabs straight off the rings, and
exercise the batching, jittered flush thresholds, both-ends coalescing,
termination counters and the deliberately-refused DES-only surface.
"""

import pytest

from repro import IncrementalBFS
from repro.parallel.codec import Codec
from repro.parallel.loop import ShmLoop
from repro.parallel.shm import create_ring
from repro.partition import ModuloPartitioner
from repro.runtime.visitor import VT_UPDATE


class Harness:
    """One loop with a ring to every peer, observed from the far end."""

    def __init__(self, rank=0, n_ranks=3, **kw):
        self.codec = Codec([IncrementalBFS()])
        self.rings = {d: create_ring(1 << 16) for d in range(n_ranks) if d != rank}
        self.control = []  # (dst, frame) pairs handed to the pipes
        self.loop = ShmLoop(
            rank, n_ranks, lambda dst, f: self.control.append((dst, f)),
            self.rings, self.codec, ModuloPartitioner(n_ranks), **kw,
        )

    def arrived(self, dst):
        """Consume the ring toward ``dst``: one tuple list per slab."""
        ring = self.rings[dst]
        out = [
            self.codec.decode_to_tuples(payload)
            for _kind, _n, _sender, payload in ring.pop_slabs()
        ]
        ring.commit()
        return out


@pytest.fixture
def make_loop():
    made = []

    def _make(**kw):
        h = Harness(**kw)
        made.append(h)
        return h.loop, h

    yield _make
    for h in made:
        for ring in h.rings.values():
            ring.destroy()


def upd(prog, target, vis_id, vis_val, weight=1, ver=0):
    return (VT_UPDATE, prog, target, vis_id, vis_val, weight, ver)


def min_combiner(old, new):
    return old if old[4] <= new[4] else new


class TestConstruction:
    def test_rank_out_of_range(self):
        with pytest.raises(ValueError):
            ShmLoop(3, 3, lambda *_: None, {}, None, None)

    def test_batch_max_validated(self):
        with pytest.raises(ValueError):
            ShmLoop(0, 2, lambda *_: None, {}, None, None, batch_max=0)

    def test_cannot_impersonate_another_rank(self, make_loop):
        loop, _ = make_loop(rank=1)
        with pytest.raises(RuntimeError):
            loop.send(0, 2, ("x",))
        with pytest.raises(RuntimeError):
            loop.send_many(2, [(0, ("x",), None)])


class TestBatching:
    def test_messages_buffer_until_threshold(self, make_loop):
        loop, wire = make_loop(batch_max=3)
        loop.send(0, 1, ("a",))
        loop.send(0, 1, ("b",))
        assert wire.arrived(1) == [] and loop.outbuffered == 2
        loop.send(0, 1, ("c",))
        assert wire.arrived(1) == [[("a",), ("b",), ("c",)]]
        assert loop.outbuffered == 0
        assert loop.wire_sent == 3 and loop.frames_sent == 1
        # The push made the ring go empty -> nonempty: one doorbell.
        assert wire.control == [(1, ("D", 0))]

    def test_buffers_are_per_destination(self, make_loop):
        loop, wire = make_loop(batch_max=2)
        loop.send(0, 1, ("a",))
        loop.send(0, 2, ("b",))
        assert loop.frames_sent == 0  # neither destination reached the threshold
        loop.send(0, 2, ("c",))
        assert wire.arrived(2) == [[("b",), ("c",)]]
        assert wire.arrived(1) == []

    def test_flush_all_drains_every_buffer(self, make_loop):
        loop, wire = make_loop(batch_max=100)
        loop.send(0, 1, ("a",))
        loop.send(0, 2, ("b",))
        loop.flush_all()
        assert wire.arrived(1) == [[("a",)]] and wire.arrived(2) == [[("b",)]]
        assert loop.outbuffered == 0 and loop.idle()

    def test_send_many_counts_one_batch(self, make_loop):
        loop, _ = make_loop(batch_max=10)
        out = loop.send_many(0, [(1, ("a",), None), (2, ("b",), None)])
        assert out == [False, False]
        assert loop.batch_sends == 1

    def test_jittered_thresholds_redrawn_per_flush(self, make_loop):
        class ScriptedRNG:
            def __init__(self, values):
                self.values = list(values)

            def integers(self, lo, hi):
                assert (lo, hi) == (1, 5)  # batch_max + 1
                return self.values.pop(0)

        loop, _ = make_loop(batch_max=4, jitter_rng=ScriptedRNG([2, 4, 1, 3]))
        loop.send(0, 1, ("a",))
        assert loop.frames_sent == 0
        loop.send(0, 1, ("b",))  # hits threshold 2
        assert loop.frames_sent == 1
        for i in range(3):
            loop.send(0, 1, (f"c{i}",))
        assert loop.frames_sent == 1  # next threshold is 4
        loop.send(0, 1, ("d",))
        assert loop.frames_sent == 2
        loop.send(0, 1, ("e",))  # threshold 1: immediate
        assert loop.frames_sent == 3


class TestSenderSideCoalescing:
    def test_same_key_squashes_in_outbuffer(self, make_loop):
        loop, wire = make_loop(batch_max=10)
        a, b = upd(0, 5, 2, 9), upd(0, 5, 2, 4)
        assert loop.send(0, 1, a, coalesce_key=("k",), combiner=min_combiner) is False
        assert loop.send(0, 1, b, coalesce_key=("k",), combiner=min_combiner) is True
        assert loop.messages_squashed == 1
        loop.flush(1)
        assert wire.arrived(1) == [[b]]
        assert loop.wire_sent == 1  # the squashed message never hit the wire

    def test_flush_closes_the_coalescing_window(self, make_loop):
        loop, _ = make_loop(batch_max=10)
        loop.send(0, 1, upd(0, 5, 2, 9), coalesce_key=("k",), combiner=min_combiner)
        loop.flush(1)
        squashed = loop.send(
            0, 1, upd(0, 5, 2, 4), coalesce_key=("k",), combiner=min_combiner
        )
        assert squashed is False  # previous occupant already on the wire

    def test_self_sends_coalesce_in_the_inbox(self, make_loop):
        loop, wire = make_loop(rank=1)
        a, b = upd(0, 5, 2, 9), upd(0, 5, 2, 4)
        assert loop.send(1, 1, a, coalesce_key=("k",), combiner=min_combiner) is False
        assert loop.send(1, 1, b, coalesce_key=("k",), combiner=min_combiner) is True
        assert wire.control == [] and loop.wire_sent == 0  # never touches the wire
        assert loop.inbox_len == 1
        assert loop.pop_message() == b
        assert loop.pop_message() is None


class TestReceiveSide:
    def test_wire_received_counts_every_message(self, make_loop):
        loop, _ = make_loop()
        loop.deliver_batch(1, [("a",), ("b",)])
        assert loop.wire_received == 2 and loop.frames_received == 1
        assert loop.inbox_len == 2

    def test_drain_squashes_into_queued_updates(self, make_loop):
        loop, _ = make_loop()
        loop.set_update_combiners([min_combiner])
        loop.deliver_batch(1, [upd(0, 5, 2, 9)])
        loop.deliver_batch(2, [upd(0, 5, 2, 4)])
        assert loop.inbox_squashed == 1 and loop.inbox_len == 1
        assert loop.wire_received == 2  # squashed messages still count
        assert loop.pop_message() == upd(0, 5, 2, 4)

    def test_different_versions_do_not_squash(self, make_loop):
        loop, _ = make_loop()
        loop.set_update_combiners([min_combiner])
        loop.deliver_batch(1, [upd(0, 5, 2, 9, ver=0), upd(0, 5, 2, 4, ver=1)])
        assert loop.inbox_squashed == 0 and loop.inbox_len == 2

    def test_pop_closes_the_drain_window(self, make_loop):
        loop, _ = make_loop()
        loop.set_update_combiners([min_combiner])
        loop.deliver_batch(1, [upd(0, 5, 2, 9)])
        assert loop.pop_message() == upd(0, 5, 2, 9)
        loop.deliver_batch(1, [upd(0, 5, 2, 4)])
        assert loop.inbox_squashed == 0 and loop.inbox_len == 1

    def test_programs_without_combiner_never_squash(self, make_loop):
        loop, _ = make_loop()
        loop.set_update_combiners([None])
        loop.deliver_batch(1, [upd(0, 5, 2, 9)])
        loop.deliver_batch(1, [upd(0, 5, 2, 4)])
        assert loop.inbox_squashed == 0 and loop.inbox_len == 2

    def test_enqueue_local_seeds_the_inbox(self, make_loop):
        loop, _ = make_loop()
        loop.enqueue_local(("init",))
        assert loop.inbox_len == 1 and not loop.idle()
        assert loop.pop_message() == ("init",)
        assert loop.idle()


class TestEngineSurface:
    def test_clock_is_full_width_and_consume_advances_it(self, make_loop):
        loop, _ = make_loop(rank=1, n_ranks=3)
        assert loop.clock == [0.0, 0.0, 0.0]
        loop.consume(1, 2.5)
        assert loop.now(1) == 2.5 and loop.max_time() == 2.5

    def test_wire_stats_shape(self, make_loop):
        loop, _ = make_loop()
        assert set(loop.wire_stats()) == {
            "wire_sent", "wire_received", "frames_sent", "frames_received",
            "outbuf_squashed", "inbox_squashed", "batch_sends",
            "ring_stalls", "ring_pushes", "ring_hwm_bytes", "ring_pad_slabs",
            "ring_pad_bytes", "overflow_pushes", "overflow_hwm_records",
            "pickle_slabs", "pickle_records", "doorbells",
        }

    def test_virtual_time_surface_refused(self, make_loop):
        loop, _ = make_loop()
        with pytest.raises(RuntimeError):
            loop.send_at(0, 1, ("x",), 1.0)
        with pytest.raises(RuntimeError):
            loop.schedule_alarm(0, 1.0, lambda: None)
        with pytest.raises(RuntimeError):
            loop.attach_transport(object())
