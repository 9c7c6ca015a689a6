"""Tests for the discrete-event kernel: FIFO, causality, clocks, sources."""

import pytest

from repro import DynamicEngine, EngineConfig, IncrementalBFS, split_streams
from repro.comm.costmodel import CostModel
from repro.comm.des import DiscreteEventLoop, RankHandler

CM = CostModel(ranks_per_node=2)  # ranks 0,1 on node 0; 2,3 on node 1


class Recorder(RankHandler):
    """Records every delivery as (rank, time, msg)."""

    def __init__(self, cpu=1e-6):
        self.cpu = cpu
        self.deliveries = []

    def on_message(self, loop, rank, msg):
        self.deliveries.append((rank, loop.now(rank), msg))
        loop.consume(rank, self.cpu)


class TestDelivery:
    def test_single_message_latency_and_cpu(self):
        h = Recorder()
        loop = DiscreteEventLoop(2, CM, h)
        loop.set_source_active(0, False)
        loop.set_source_active(1, False)
        loop.send_at(0.0, 0, 1, "hello")
        loop.start()
        loop.run()
        [(rank, t, msg)] = h.deliveries
        assert rank == 1 and msg == "hello"
        assert t == pytest.approx(CM.local_latency)
        assert loop.clock[1] == pytest.approx(CM.local_latency + h.cpu)

    def test_remote_latency_applies_across_nodes(self):
        h = Recorder()
        loop = DiscreteEventLoop(4, CM, h)
        for r in range(4):
            loop.set_source_active(r, False)
        loop.send_at(0.0, 0, 3, "x")
        loop.start()
        loop.run()
        [(_, t, _)] = h.deliveries
        assert t == pytest.approx(CM.remote_latency)

    def test_fifo_per_channel(self):
        class Burst(RankHandler):
            def __init__(self):
                self.got = []
                self.sent = False

            def on_message(self, loop, rank, msg):
                if msg == "go":
                    for i in range(10):
                        loop.send(rank, 1, i)
                else:
                    self.got.append(msg)
                loop.consume(rank, 1e-7)

        h = Burst()
        loop = DiscreteEventLoop(2, CM, h)
        loop.set_source_active(0, False)
        loop.set_source_active(1, False)
        loop.send_at(0.0, 1, 0, "go")
        loop.start()
        loop.run()
        assert h.got == list(range(10))

    def test_causal_order_across_ranks(self):
        # 0 sends to 1; on receipt 1 sends to 2; deliveries must be in
        # increasing virtual time.
        class Chain(RankHandler):
            def __init__(self):
                self.times = []

            def on_message(self, loop, rank, msg):
                self.times.append((rank, loop.now(rank)))
                loop.consume(rank, 1e-6)
                if rank < 3:
                    loop.send(rank, rank + 1, msg)

        h = Chain()
        loop = DiscreteEventLoop(4, CM, h)
        for r in range(4):
            loop.set_source_active(r, False)
        loop.send_at(0.0, 0, 1, "token")
        loop.start()
        loop.run()
        ranks = [r for r, _ in h.times]
        times = [t for _, t in h.times]
        assert ranks == [1, 2, 3]
        assert times == sorted(times)

    def test_ping_pong_round_trip_time(self):
        class PingPong(RankHandler):
            def __init__(self):
                self.rounds = 0

            def on_message(self, loop, rank, msg):
                loop.consume(rank, 0.0)
                if msg < 6:
                    self.rounds += 1
                    loop.send(rank, 1 - rank, msg + 1)

        h = PingPong()
        loop = DiscreteEventLoop(2, CM, h)
        loop.set_source_active(0, False)
        loop.set_source_active(1, False)
        loop.send_at(0.0, 0, 1, 0)
        loop.start()
        makespan = loop.run()
        # 7 hops total (initial + 6 replies), each local latency + send cpu
        assert makespan >= 7 * CM.local_latency
        assert h.rounds == 6


class TestSources:
    def test_saturation_pull_until_exhausted(self):
        class Source(RankHandler):
            def __init__(self):
                self.pulled = {0: 0, 1: 0}

            def on_message(self, loop, rank, msg):
                loop.consume(rank, 1e-7)

            def pull_source(self, loop, rank):
                if self.pulled[rank] >= 5:
                    return False
                self.pulled[rank] += 1
                loop.consume(rank, 1e-6)
                return True

        h = Source()
        loop = DiscreteEventLoop(2, CM, h)
        loop.start()
        loop.run()
        assert h.pulled == {0: 5, 1: 5}
        # each rank did 5 pulls of 1us back to back
        assert loop.clock[0] == pytest.approx(5e-6)

    def test_messages_processed_before_pull_when_arrived(self):
        # Rank 1 has both a stream and an arrived message; the message
        # (already in the inbox at its clock) is handled first.
        order = []

        class Mixed(RankHandler):
            def on_message(self, loop, rank, msg):
                order.append(("msg", msg))
                loop.consume(rank, 1e-7)

            def pull_source(self, loop, rank):
                if rank != 1 or order.count(("pull", 1)) >= 1:
                    return False
                order.append(("pull", 1))
                loop.consume(rank, 1e-7)
                return True

        h = Mixed()
        loop = DiscreteEventLoop(2, CM, h)
        loop.set_source_active(0, False)
        loop.send_at(0.0, 0, 1, "early")
        # Delay rank 1's first action past the arrival.
        loop.clock[1] = 1.0
        loop.start()
        loop.run()
        assert order[0] == ("msg", "early")

    def test_pull_happens_when_inbox_empty_despite_future_arrivals(self):
        # A rank does not clairvoyantly wait for messages that have not
        # arrived yet: it keeps pulling its stream.
        seq = []

        class Busy(RankHandler):
            def __init__(self):
                self.left = 3

            def on_message(self, loop, rank, msg):
                seq.append("msg")
                loop.consume(rank, 1e-7)

            def pull_source(self, loop, rank):
                if self.left == 0:
                    return False
                self.left -= 1
                seq.append("pull")
                loop.consume(rank, 1e-8)  # pulls are fast
                return True

        h = Busy()
        loop = DiscreteEventLoop(1, CM, h)
        # message to self arriving at local_latency (~0.4us); pulls take
        # 10ns each, so all 3 pulls precede the delivery.
        loop.send_at(0.0, 0, 0, "later")
        loop.start()
        loop.run()
        assert seq == ["pull", "pull", "pull", "msg"]


class TestKernelBookkeeping:
    def test_quiescent_oracle(self):
        h = Recorder()
        loop = DiscreteEventLoop(2, CM, h)
        loop.set_source_active(0, False)
        loop.set_source_active(1, False)
        assert loop.quiescent()
        loop.send_at(0.0, 0, 1, "x")
        assert not loop.quiescent()
        loop.start()
        loop.run()
        assert loop.quiescent()
        assert loop.messages_delivered == 1

    def test_max_actions_bound(self):
        class Infinite(RankHandler):
            def on_message(self, loop, rank, msg):
                loop.consume(rank, 1e-6)
                loop.send(rank, rank, msg)  # self-perpetuating

        loop = DiscreteEventLoop(1, CM, Infinite())
        loop.set_source_active(0, False)
        loop.send_at(0.0, 0, 0, "loop")
        loop.start()
        loop.run(max_actions=50)
        assert loop.actions_executed == 50

    @staticmethod
    def _self_perpetuating():
        class Infinite(RankHandler):
            def on_message(self, loop, rank, msg):
                loop.consume(rank, 1e-6)
                loop.send(rank, rank, msg)

        loop = DiscreteEventLoop(1, CM, Infinite())
        loop.set_source_active(0, False)
        loop.send_at(0.0, 0, 0, "loop")
        loop.start()
        return loop

    def test_zero_max_actions_runs_nothing(self):
        loop = self._self_perpetuating()
        assert loop.run(max_actions=0) == loop.max_time() == 0.0
        assert loop.actions_executed == 0 and loop.messages_delivered == 0
        assert loop.in_flight == 1
        loop.run(max_actions=3)
        assert loop.actions_executed == 3

    def test_negative_max_actions_is_rejected(self):
        loop = self._self_perpetuating()
        with pytest.raises(ValueError, match="max_actions"):
            loop.run(max_actions=-5)
        assert loop.actions_executed == 0 and loop.in_flight == 1

    def test_engine_run_inherits_the_action_bound(self):
        engine = DynamicEngine([IncrementalBFS()], EngineConfig(n_ranks=2))
        engine.attach_streams(split_streams([0, 1, 2], [1, 2, 3], 2))
        engine.run(max_actions=0)
        assert engine.loop.actions_executed == 0
        with pytest.raises(ValueError, match="max_actions"):
            engine.run(max_actions=-5)
        engine.run(max_actions=1)
        assert engine.loop.actions_executed == 1

    def test_max_virtual_time_bound(self):
        class Ticker(RankHandler):
            def on_message(self, loop, rank, msg):
                loop.consume(rank, 1.0)
                loop.send(rank, rank, msg)

        loop = DiscreteEventLoop(1, CM, Ticker())
        loop.set_source_active(0, False)
        loop.send_at(0.0, 0, 0, "t")
        loop.start()
        t = loop.run(max_virtual_time=5.0)
        assert t <= 6.5  # a few ticks, then stop

    def test_alarm_fires_in_order(self):
        fired = []
        h = Recorder()
        loop = DiscreteEventLoop(1, CM, h)
        loop.set_source_active(0, False)
        loop.schedule_alarm(2.0, lambda: fired.append(2.0))
        loop.schedule_alarm(1.0, lambda: fired.append(1.0))
        loop.start()
        loop.run()
        assert fired == [1.0, 2.0]

    def test_alarm_can_inject_work(self):
        h = Recorder()
        loop = DiscreteEventLoop(2, CM, h)
        loop.set_source_active(0, False)
        loop.set_source_active(1, False)
        loop.schedule_alarm(3.0, lambda: loop.send_at(3.0, 0, 1, "wake"))
        loop.start()
        loop.run()
        [(rank, t, msg)] = h.deliveries
        assert msg == "wake"
        assert t >= 3.0

    def test_invalid_rank_count(self):
        with pytest.raises(ValueError):
            DiscreteEventLoop(0, CM, Recorder())
