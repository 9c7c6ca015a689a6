"""Engine plugins, the serving-cache slot, and the EngineBuilder.

The contract (repro.runtime.plugins): a plugin is a name plus
``setup(engine)``; the engine keeps its plugins as a plain tuple,
rejects duplicate names and runs each ``setup`` once, in order.  An
engine no serving layer attached a cache to leaves ``_serve_caches``
empty (the disabled-cost guard).  Plugins and attached caches are
observers consuming no virtual time: they change neither the programs'
state nor the DES schedule, whichever way the engine is assembled.
"""

from collections import Counter

import pytest

from repro import (
    DynamicEngine,
    EngineConfig,
    IncrementalBFS,
    IncrementalCC,
    ListEventStream,
    ServingLayer,
)
from repro.events.types import ADD, DELETE
from repro.runtime.lifecycle import EngineBuilder
from repro.runtime.plugins import (
    BulkIngestPlugin,
    EnginePlugin,
    MetricsPlugin,
    TracerPlugin,
)
from repro.serving.cache import StableValueCache


def bare_engine(plugins=None):
    return DynamicEngine(
        [IncrementalBFS()], EngineConfig(n_ranks=2), plugins=plugins
    )


def path_events(n):
    return ListEventStream([(ADD, i, i + 1, 1) for i in range(n)])


def run_path(e, n=6):
    e.init_program("bfs", 0)
    e.attach_streams([path_events(n)])
    e.run()


class Named(EnginePlugin):
    """A plugin that logs each ``setup`` call by name."""

    def __init__(self, name, log=None):
        self.name = name
        self.log = log if log is not None else []

    def setup(self, engine):
        self.log.append(self.name)


class TestRegistration:
    def test_duplicate_name_rejected(self):
        log = []
        builder = (
            EngineBuilder()
            .with_programs([IncrementalBFS()])
            .with_plugins([Named("a", log)])
            .with_plugins([Named("a", log)])
        )
        with pytest.raises(ValueError, match="duplicate plugin name 'a'"):
            builder.build()
        assert log == []  # an input check: no setup ran

    def test_duplicate_name_rejected_via_engine(self):
        with pytest.raises(ValueError, match="duplicate plugin name"):
            bare_engine(plugins=[Named("a"), Named("b"), Named("a")])

    def test_plugins_are_a_tuple_set_up_once_in_order(self):
        log = []
        a, b = Named("a", log), Named("b", log)
        e = bare_engine(plugins=[a, b])
        assert e.plugins == (a, b)
        assert log == ["a", "b"]
        run_path(e)
        assert log == ["a", "b"]


class TestEmptyRegistryGuard:
    def test_every_hook_site_is_the_empty_tuple(self):
        """Both coherence sites read one slot; a bare engine's is ()."""
        e = bare_engine()
        assert e.plugins == ()
        assert e._serve_caches == ()

    def test_no_sugar_objects_without_flags(self):
        e = bare_engine()
        assert e.tracer is None
        assert e.metrics is None
        assert e.sampler is None
        assert e._bulk is None


class TestDynamicHooks:
    def test_install_uninstall_round_trip(self):
        """A serving layer's cache hears both sites while attached and
        leaves the slot as it found it when closed."""
        e = DynamicEngine(
            [IncrementalBFS()],
            EngineConfig(n_ranks=2),
            plugins=[BulkIngestPlugin(4)],
        )
        run_path(e, n=8)
        serving = ServingLayer(e)
        assert serving.point("bfs", 8).source == "live"  # admits, attaches
        assert e._serve_caches == (serving.cache,)
        # Bulk replay flushes the whole program: the settled entry goes.
        second = [(ADD, 20 + i, 21 + i, 1) for i in range(8)]
        e.attach_streams([ListEventStream(second)])
        e.run()
        assert e.total_counters().bulk_chunks > 0
        assert len(serving.cache) == 0 and serving.cache.invalidations == 1
        serving.point("bfs", 8)
        serving.close()
        assert e._serve_caches == ()
        assert len(serving.cache) == 0


class TestEngineBuilder:
    def test_fluent_methods_return_self(self):
        b = EngineBuilder()
        assert b.with_programs([IncrementalBFS()]) is b
        assert b.with_config(EngineConfig(n_ranks=2)) is b
        assert b.with_plugins([]) is b

    def test_build_defaults_to_fresh_config(self):
        e = EngineBuilder().with_programs([IncrementalBFS()]).build()
        assert e.config.n_ranks == EngineConfig().n_ranks

    def test_built_engine_runs(self):
        e = (
            EngineBuilder()
            .with_programs([IncrementalBFS()])
            .with_config(EngineConfig(n_ranks=2))
            .build()
        )
        run_path(e, n=5)
        assert e.value_of("bfs", 5) == 6


def churn_events():
    """A small add+delete mix over a 9-vertex mesh (deterministic)."""
    events = [(ADD, i % 9, (i * 5 + 2) % 9, 1 + i % 3) for i in range(36)]
    events += [(DELETE, 2, 7, 0), (DELETE, 4, 1, 0)]
    events += [(ADD, 2, 7, 2), (ADD, 0, 8, 1)]
    return [e for e in events if e[1] != e[2]]


def churn_builder(plugins):
    return (
        EngineBuilder()
        .with_programs([IncrementalBFS(), IncrementalCC()])
        .with_config(EngineConfig(n_ranks=3))
        .with_plugins(plugins)
    )


def drive(engine):
    engine.init_program("bfs", 0)
    engine.attach_streams([ListEventStream(churn_events())])
    engine.run()
    return engine


def fingerprint(engine):
    return {
        "bfs": engine.state("bfs"),
        "cc": engine.state("cc"),
        "makespan": engine.loop.max_time(),
        "counters": [
            (c.source_events, c.visits, c.edge_inserts, c.edge_deletes)
            for c in engine.counters
        ],
    }


class CountingCache(StableValueCache):
    """An attached cache that counts what each coherence site asks."""

    def __init__(self, n_progs, counts):
        super().__init__(n_progs)
        self.counts = counts

    def invalidate(self, prog, vertex):
        self.counts["write"] += 1
        super().invalidate(prog, vertex)

    def flush_prog(self, prog, keep_absorbing=True):
        self.counts["bulk_flush"] += 1
        super().flush_prog(prog, keep_absorbing)


def test_observer_plugin_leaves_results_bit_identical():
    """A cache on both sites must not perturb state or the DES schedule."""
    counts = Counter()

    def observed(engine):
        engine._serve_caches = (CountingCache(len(engine.programs), counts),)
        return engine

    # Per-event churn: every value write passes the write site.
    bare = drive(churn_builder([]).build())
    hooked = drive(observed(churn_builder([]).build()))
    assert fingerprint(hooked) == fingerprint(bare)
    assert counts["write"] > 0 and counts["bulk_flush"] == 0

    # Bulk replay bypasses _write_value; each flush of its dense mirror
    # passes the bulk-flush site once per program.
    def bulk_run(wrap):
        e = wrap(churn_builder([BulkIngestPlugin(8)]).build())
        e.init_program("bfs", 0)
        e.attach_streams([path_events(40)])
        e.run()
        return e

    assert fingerprint(bulk_run(observed)) == fingerprint(bulk_run(lambda e: e))
    assert counts["bulk_flush"] > 0 and counts["bulk_flush"] % 2 == 0


def test_builder_and_constructor_are_bit_identical():
    plugins = lambda: [BulkIngestPlugin(), TracerPlugin(), MetricsPlugin(1e-3)]
    built = drive(churn_builder(plugins()).build())
    direct = drive(
        DynamicEngine(
            [IncrementalBFS(), IncrementalCC()],
            EngineConfig(n_ranks=3),
            plugins=plugins(),
        )
    )
    assert fingerprint(built) == fingerprint(direct)
    assert built.tracer.events == direct.tracer.events
    assert built.metrics.samples == direct.metrics.samples
    for e in (built, direct):
        assert [p.name for p in e.plugins] == ["bulk-ingest", "tracer", "metrics"]
        assert e.sampler is not None and e._bulk is not None
