"""PluginRegistry semantics: registration, compilation, dynamic hooks.

The contract (repro.runtime.plugins): duplicate names are rejected,
unknown hook sites are rejected at compile, compiled firing order is
plugin registration order followed by dynamic installation order, an
empty registry leaves every per-site tuple empty (the disabled-cost
guard), and teardown is idempotent and runs in reverse order.  Hooks
are observers consuming no virtual time: plugins change neither the
programs' state nor the DES schedule, whichever way the engine is
assembled.
"""

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
    HookStatsPlugin,
    MetricsPlugin,
    PluginRegistry,
    TracerPlugin,
    build_plugin,
)


def bare_engine(plugins=None):
    return DynamicEngine(
        [IncrementalBFS()], EngineConfig(n_ranks=2), plugins=plugins
    )


def run_path(e, n=6):
    e.init_program("bfs", 0)
    e.attach_streams([ListEventStream([(ADD, i, i + 1, 1) for i in range(n)])])
    e.run()


class Named(EnginePlugin):
    def __init__(self, name, hooks=None, log=None):
        self.name = name
        self._hooks = hooks or {}
        self.log = log if log is not None else []

    def hooks(self):
        return self._hooks

    def teardown(self, engine):
        self.log.append(f"teardown:{self.name}")


class TestRegistration:
    def test_duplicate_name_rejected(self):
        reg = PluginRegistry([Named("a")])
        with pytest.raises(ValueError, match="duplicate plugin name"):
            reg.register(Named("a"))

    def test_duplicate_name_rejected_via_engine(self):
        e = bare_engine(plugins=[Named("a")])
        with pytest.raises(ValueError, match="duplicate plugin name"):
            e.plugins.register_late(Named("a"), e)

    def test_unknown_hook_site_rejected_at_compile(self):
        bad = Named("bad", hooks={"on_warp": lambda: None})
        with pytest.raises(ValueError, match="unknown hook site"):
            bare_engine(plugins=[bad])

    def test_register_after_compile_requires_register_late(self):
        e = bare_engine()
        with pytest.raises(RuntimeError, match="already compiled"):
            e.plugins.register(Named("late"))
        e.plugins.register_late(Named("late"), e)
        assert "late" in e.plugins.names()

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

    def test_installed_reports_static_then_dynamic(self):
        hook = lambda *args: None
        a = Named("a", hooks={"on_write": hook})
        e = bare_engine(plugins=[a])
        dyn = lambda *args: None
        e.install_hook("on_write", dyn)
        assert e.plugins.installed("on_write") == (hook, dyn)
        assert e._hk_write == (hook, dyn)


class TestDynamicHooks:
    def test_install_uninstall_round_trip(self):
        e = bare_engine()
        fn = lambda *args: None
        e.install_hook("on_insert", fn)
        assert e._hk_insert == (fn,)
        assert e.uninstall_hook("on_insert", fn) is True
        assert e._hk_insert == ()
        assert e.uninstall_hook("on_insert", fn) is False

    def test_unknown_site_rejected(self):
        e = bare_engine()
        with pytest.raises(ValueError, match="unknown hook site"):
            e.install_hook("on_warp", lambda: None)
        with pytest.raises(ValueError, match="unknown hook site"):
            e.uninstall_hook("on_warp", lambda: None)


class TestTeardown:
    def test_reverse_order_and_idempotent(self):
        log = []
        a, b = Named("a", log=log), Named("b", log=log)
        e = bare_engine(plugins=[a, b])
        e.install_hook("on_write", lambda *args: None)
        e.teardown()
        assert log == ["teardown:b", "teardown:a"]
        e.teardown()
        assert log == ["teardown:b", "teardown:a"]  # ran once
        for site in HOOK_SITES:
            assert getattr(e, HOOK_ATTRS[site]) == (), site

    def test_register_after_teardown_rejected(self):
        e = bare_engine()
        e.teardown()
        with pytest.raises(RuntimeError, match="torn down"):
            e.plugins.register_late(Named("x"), e)


class TestHookStats:
    def test_counts_every_fired_site(self):
        stats = HookStatsPlugin()
        e = bare_engine(plugins=[stats])
        run_path(e, n=6)
        assert stats.counts["on_dispatch"] > 0
        assert stats.counts["on_write"] > 0
        # Each ADD applies its canonical and reverse directed twin.
        assert stats.counts["on_insert"] == 12
        assert stats.counts["on_delete"] == 0
        assert stats.counts["on_quiesce"] == 1
        assert e.plugins.harvest() == {"hook_stats": stats.counts}

    def test_harvest_skips_none_payloads(self):
        e = bare_engine(plugins=[Named("quiet")])
        assert e.plugins.harvest() == {}


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
    bare = drive(churn_builder([]).build())
    stats = HookStatsPlugin()
    hooked = drive(churn_builder([stats]).build())
    assert fingerprint(hooked) == fingerprint(bare)
    assert stats.counts["on_dispatch"] > 0
    assert stats.counts["on_delete"] > 0  # the churn stream fired it


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


class TestBuildPlugin:
    def test_round_trip(self):
        p = build_plugin("metrics", {"sample_interval": 0.5})
        assert isinstance(p, MetricsPlugin)
        assert p.sample_interval == 0.5
        assert isinstance(build_plugin("tracer"), TracerPlugin)

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError, match="unknown plugin"):
            build_plugin("warp-drive")
