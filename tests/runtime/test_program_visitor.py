"""Tests for the program API surface (VertexContext, CallbackProgram)."""

import pytest

from repro import (
    DynamicEngine,
    EngineConfig,
    ListEventStream,
    VertexProgram,
)
from repro.events.types import ADD
from repro.runtime.program import CallbackProgram


class TestCallbackProgram:
    def test_degree_in_two_callbacks(self):
        """The §II-A promise: a degree query is just two callbacks."""
        prog = CallbackProgram(
            name="mydeg",
            on_add=lambda ctx, vid, val, w: ctx.set_value(ctx.degree),
            on_reverse_add=lambda ctx, vid, val, w: ctx.set_value(ctx.degree),
        )
        e = DynamicEngine([prog], EngineConfig(n_ranks=2))
        e.attach_streams(
            [ListEventStream([(ADD, 0, 1, 1), (ADD, 0, 2, 1), (ADD, 0, 3, 1)])]
        )
        e.run()
        assert e.value_of("mydeg", 0) == 3
        assert e.value_of("mydeg", 2) == 1

    def test_unset_callbacks_are_noops(self):
        prog = CallbackProgram(name="empty")
        e = DynamicEngine([prog], EngineConfig(n_ranks=1))
        e.attach_streams([ListEventStream([(ADD, 0, 1, 1)])])
        e.run()
        assert e.value_of("empty", 0) == 0

    def test_update_callback_wired(self):
        hops = []
        prog = CallbackProgram(
            name="probe",
            on_reverse_add=lambda ctx, vid, val, w: ctx.update_single_nbr(vid, "ping", w),
            on_update=lambda ctx, vid, val, w: hops.append((ctx.vertex, val)),
        )
        e = DynamicEngine([prog], EngineConfig(n_ranks=2))
        e.attach_streams([ListEventStream([(ADD, 0, 1, 1)])])
        e.run()
        assert hops == [(0, "ping")]


class TestVertexContext:
    def make_engine(self, prog):
        e = DynamicEngine([prog], EngineConfig(n_ranks=2))
        e.attach_streams(
            [ListEventStream([(ADD, 0, 1, 7), (ADD, 0, 2, 9)])]
        )
        return e

    def test_context_exposes_topology(self):
        seen = {}

        class Probe(VertexProgram):
            name = "probe"

            def on_add(self, ctx, vid, val, w):
                seen[ctx.vertex] = (ctx.degree, dict(ctx.neighbors()))

        e = self.make_engine(Probe())
        e.run()
        degree, nbrs = seen[0]
        assert degree == 2
        assert nbrs == {1: 7, 2: 9}

    def test_has_edge(self):
        checks = []

        class Probe(VertexProgram):
            name = "probe"

            def on_reverse_add(self, ctx, vid, val, w):
                checks.append((ctx.vertex, ctx.has_edge(vid), ctx.has_edge(12345)))

        e = self.make_engine(Probe())
        e.run()
        assert (1, True, False) in checks

    def test_visit_time_monotone(self):
        times = []

        class Probe(VertexProgram):
            name = "probe"

            def on_add(self, ctx, vid, val, w):
                times.append(ctx.time)

        e = self.make_engine(Probe())
        e.run()
        assert times == sorted(times)
        assert all(t >= 0 for t in times)


class TestBaseProgramDefaults:
    def test_merge_unimplemented(self):
        with pytest.raises(NotImplementedError):
            VertexProgram().merge(1, 2)

    def test_format_value_default(self):
        assert VertexProgram().format_value(7) == "7"

    def test_callbacks_default_noop(self):
        p = VertexProgram()
        # Calling the defaults must not raise even with a None context.
        p.on_init(None, None)
        p.on_add(None, 0, 0, 0)
        p.on_reverse_add(None, 0, 0, 0)
        p.on_update(None, 0, 0, 0)
        p.on_delete(None, 0, 0)
        p.on_reverse_delete(None, 0, 0, 0)
