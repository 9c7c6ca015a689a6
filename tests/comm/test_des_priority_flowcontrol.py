"""Kernel tests: control-lane priority and sender backpressure."""

from repro.comm.costmodel import CostModel
from repro.comm.des import DiscreteEventLoop, RankHandler

CM = CostModel(ranks_per_node=2)


class Recorder(RankHandler):
    def __init__(self, cpu=1e-6):
        self.cpu = cpu
        self.deliveries = []

    def on_message(self, loop, rank, msg):
        self.deliveries.append(msg)
        loop.consume(rank, self.cpu)


class TestPriorityLane:
    def test_control_overtakes_data_backlog(self):
        # Flood rank 1 with data, then send one control message: it must
        # be handled before the (earlier-arriving) data tail.
        h = Recorder(cpu=5e-6)  # slow receiver -> data backlog builds
        loop = DiscreteEventLoop(2, CM, h)
        loop.set_source_active(0, False)
        loop.set_source_active(1, False)
        for i in range(20):
            loop.send_at(0.0, 0, 1, ("data", i))
        loop.send_at(0.0, 0, 1, ("ctrl",), priority=True)
        loop.start()
        loop.run()
        # The control message arrives at ~latency but behind 20 queued
        # data messages; priority lets it run after at most one of them.
        idx = h.deliveries.index(("ctrl",))
        assert idx <= 1
        assert len(h.deliveries) == 21

    def test_priority_channel_is_fifo(self):
        h = Recorder()
        loop = DiscreteEventLoop(2, CM, h)
        loop.set_source_active(0, False)
        loop.set_source_active(1, False)
        for i in range(5):
            loop.send_at(0.0, 0, 1, ("ctrl", i), priority=True)
        loop.start()
        loop.run()
        assert h.deliveries == [("ctrl", i) for i in range(5)]

    def test_quiescence_includes_priority_inbox(self):
        h = Recorder()
        loop = DiscreteEventLoop(1, CM, h)
        loop.set_source_active(0, False)
        loop.send_at(0.0, 0, 0, "c", priority=True)
        assert not loop.quiescent()
        loop.start()
        loop.run()
        assert loop.quiescent()


class TestBackpressure:
    def make_loop(self, capacity, n_ranks=2):
        cm = CostModel(ranks_per_node=2, channel_capacity=capacity)
        h = Recorder()
        return DiscreteEventLoop(n_ranks, cm, h), h

    def test_sender_stalls_past_capacity(self):
        loop, _ = self.make_loop(capacity=5)
        loop.set_source_active(0, False)
        loop.set_source_active(1, False)
        # Preload 10 messages into rank 1's inbox (past capacity 5).
        for i in range(10):
            loop.send_at(0.0, 0, 1, i)
        loop.clock[0] = 0.0
        loop._acting_rank = 0
        loop.send(0, 1, "over")
        loop._acting_rank = None
        # Sender advanced toward the receiver's drain horizon.
        assert loop.clock[0] > CM.send_cpu
        assert loop.stall_time > 0

    def test_no_stall_below_capacity(self):
        loop, _ = self.make_loop(capacity=100)
        loop.set_source_active(0, False)
        loop.set_source_active(1, False)
        loop._acting_rank = 0
        loop.send(0, 1, "x")
        loop._acting_rank = None
        assert loop.stall_time == 0.0

    def test_self_sends_exempt(self):
        loop, _ = self.make_loop(capacity=1)
        loop.set_source_active(0, False)
        for i in range(5):
            loop.send_at(0.0, 0, 0, i)
        loop._acting_rank = 0
        loop.send(0, 0, "self")
        loop._acting_rank = None
        assert loop.stall_time == 0.0

    def test_priority_sends_exempt(self):
        loop, _ = self.make_loop(capacity=1)
        loop.set_source_active(0, False)
        loop.set_source_active(1, False)
        for i in range(5):
            loop.send_at(0.0, 0, 1, i)
        loop._acting_rank = 0
        loop.send(0, 1, "ctrl", priority=True)
        loop._acting_rank = None
        assert loop.stall_time == 0.0

    def test_stall_is_idempotent_per_backlog(self):
        # Two consecutive sends against the same backlog: the second
        # must not pay the full stall again (clock already at horizon).
        loop, _ = self.make_loop(capacity=2)
        loop.set_source_active(0, False)
        loop.set_source_active(1, False)
        for i in range(12):
            loop.send_at(0.0, 0, 1, i)
        loop._acting_rank = 0
        loop.send(0, 1, "a")
        first_clock = loop.clock[0]
        loop.send(0, 1, "b")
        second_clock = loop.clock[0]
        loop._acting_rank = None
        first_stall = first_clock  # started at 0
        extra = second_clock - first_clock
        assert extra < first_stall / 2

    def test_default_cost_model_disables_backpressure(self):
        cm = CostModel()
        assert cm.channel_capacity >= 1 << 30
