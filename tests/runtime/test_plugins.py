"""PluginRegistry semantics, the two hook sites, and the EngineBuilder.

The contract (repro.runtime.plugins): a plugin is a name plus
``setup(engine)``; duplicate names are rejected; hooks exist at exactly
two sites, fire in installation order, and an engine nobody subscribed
to leaves both per-site tuples empty (the disabled-cost guard).  Hooks
are observers consuming no virtual time: plugins and hooks change
neither the programs' state nor the DES schedule, whichever way the
engine is assembled.
"""

from collections import Counter

import pytest

from repro import (
    DynamicEngine,
    EngineConfig,
    IncrementalBFS,
    IncrementalCC,
    ListEventStream,
)
from repro.events.types import ADD, DELETE
from repro.runtime.lifecycle import EngineBuilder
from repro.runtime.plugins import (
    HOOK_ATTRS,
    HOOK_SITES,
    BulkIngestPlugin,
    EnginePlugin,
    MetricsPlugin,
    PluginRegistry,
    TracerPlugin,
)


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
    """A plugin that subscribes the way plugins do: from ``setup``."""

    def __init__(self, name, hooks=None):
        self.name = name
        self._hooks = hooks or {}

    def setup(self, engine):
        for site, fn in self._hooks.items():
            engine.install_hook(site, fn)


class TestRegistration:
    def test_duplicate_name_rejected(self):
        reg = PluginRegistry([Named("a")])
        with pytest.raises(ValueError, match="duplicate plugin name"):
            reg.register(Named("a"))

    def test_duplicate_name_rejected_via_engine(self):
        e = bare_engine(plugins=[Named("a")])
        with pytest.raises(ValueError, match="duplicate plugin name"):
            e.plugins.register_late(Named("a"), e)

    def test_register_after_compile_requires_register_late(self):
        e = bare_engine()
        with pytest.raises(RuntimeError, match="already compiled"):
            e.plugins.register(Named("late"))
        fn = lambda *args: None
        e.plugins.register_late(Named("late", hooks={"on_write": fn}), e)
        assert "late" in e.plugins.names()
        assert e._hk_write == (fn,)  # its setup ran against the live engine

    def test_register_late_rejects_foreign_engine(self):
        e1, e2 = bare_engine(), bare_engine()
        with pytest.raises(RuntimeError, match="not compiled for this engine"):
            e1.plugins.register_late(Named("x"), e2)

    def test_get_and_names(self):
        p = Named("a")
        e = bare_engine(plugins=[p])
        assert e.plugins.get("a") is p
        assert e.plugins.get("nope") is None
        assert e.plugins.names() == ["a"]


class TestEmptyRegistryGuard:
    def test_every_hook_site_is_the_empty_tuple(self):
        e = bare_engine()
        assert e.plugins.names() == []
        assert HOOK_SITES == ("on_write", "on_bulk_flush")
        for site in HOOK_SITES:
            assert getattr(e, HOOK_ATTRS[site]) == (), site

    def test_no_sugar_objects_without_flags(self):
        e = bare_engine()
        assert e.tracer is None
        assert e.metrics is None
        assert e.sampler is None
        assert e._bulk is None


class TestCompiledOrder:
    def test_firing_order_is_registration_then_install_order(self):
        fired = []
        a = Named("a", hooks={"on_write": lambda *args: fired.append("a")})
        b = Named("b", hooks={"on_write": lambda *args: fired.append("b")})
        e = bare_engine(plugins=[a, b])
        dyn = lambda *args: fired.append("dyn")
        e.install_hook("on_write", dyn)
        run_path(e, n=3)
        assert fired[:3] == ["a", "b", "dyn"]
        # One a/b/dyn round per committed value write, same order each.
        assert fired == ["a", "b", "dyn"] * (len(fired) // 3)


class TestDynamicHooks:
    def test_install_uninstall_round_trip(self):
        e = bare_engine()
        fn = lambda *args: None
        for site in HOOK_SITES:
            e.install_hook(site, fn)
            assert getattr(e, HOOK_ATTRS[site]) == (fn,)
            assert e.uninstall_hook(site, fn) is True
            assert getattr(e, HOOK_ATTRS[site]) == ()
            assert e.uninstall_hook(site, fn) is False

    def test_unknown_site_rejected(self):
        e = bare_engine()
        with pytest.raises(ValueError, match="unknown hook site"):
            e.install_hook("on_warp", lambda: None)
        with pytest.raises(ValueError, match="unknown hook site"):
            e.uninstall_hook("on_warp", lambda: None)

    def test_removed_sites_are_rejected_naming_the_survivors(self):
        """The six sites that had no subscriber are gone, not dormant."""
        e = bare_engine()
        for site in ("on_dispatch", "on_insert", "on_delete", "on_quiesce"):
            with pytest.raises(ValueError, match="on_write, on_bulk_flush"):
                e.install_hook(site, lambda *args: None)


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
        .with_config(EngineConfig(n_ranks=3, undirected=True))
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


def test_observer_plugin_leaves_results_bit_identical():
    """A hook on every site must not perturb state or the DES schedule."""
    counts = Counter()

    def observed(engine):
        for site in HOOK_SITES:
            engine.install_hook(site, lambda *_args, site=site: counts.update([site]))
        return engine

    # Per-event churn: every value write passes the on_write site.
    bare = drive(churn_builder([]).build())
    hooked = drive(observed(churn_builder([]).build()))
    assert fingerprint(hooked) == fingerprint(bare)
    assert counts["on_write"] > 0 and counts["on_bulk_flush"] == 0

    # Bulk replay bypasses _write_value; each flush of its dense mirror
    # passes the on_bulk_flush site once per program.
    def bulk_run(wrap):
        e = wrap(churn_builder([BulkIngestPlugin(8)]).build())
        e.init_program("bfs", 0)
        e.attach_streams([path_events(40)])
        e.run()
        return e

    assert fingerprint(bulk_run(observed)) == fingerprint(bulk_run(lambda e: e))
    assert counts["on_bulk_flush"] > 0 and counts["on_bulk_flush"] % 2 == 0


def test_builder_and_constructor_are_bit_identical():
    plugins = lambda: [BulkIngestPlugin(), TracerPlugin(), MetricsPlugin(1e-3)]
    built = drive(churn_builder(plugins()).build())
    direct = drive(
        DynamicEngine(
            [IncrementalBFS(), IncrementalCC()],
            EngineConfig(n_ranks=3, undirected=True),
            plugins=plugins(),
        )
    )
    assert fingerprint(built) == fingerprint(direct)
    assert built.tracer.events == direct.tracer.events
    assert built.metrics.samples == direct.metrics.samples
    for e in (built, direct):
        assert e.plugins.names() == ["bulk-ingest", "tracer", "metrics"]
        assert e.sampler is not None and e._bulk is not None
