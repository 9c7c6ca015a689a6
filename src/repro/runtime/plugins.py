"""Engine plugins and the two state-coherence hook sites.

A plugin is a ``name`` plus ``setup(engine)``: it attaches one
cross-cutting concern — tracing, metrics sampling, freshness probes,
fault injection, bulk ingest — to a freshly built engine.  Plugins are
the only way to attach these concerns: an engine built without a plugin
list has none of them.  :class:`PluginRegistry` keeps the ordered list
(setup runs in registration order, duplicate names are rejected).

**Hooks are the state-coherence mechanism, not a telemetry one.**  One
subsystem keeps a second copy of vertex values and must hear about
every change to the first: the serving layer's stable-value cache
(:mod:`repro.serving.server`, both sites).  (The mp backend's dense
mirror needs no hook: a vec rank runs no per-event code once its
applier exists.)  Servers come and go at run time, so they subscribe
through ``engine.install_hook`` / ``uninstall_hook`` — a plugin that
wants a hook calls ``install_hook`` from its ``setup``.  Each site in
:data:`HOOK_SITES` is a flat tuple on the engine (``engine._hk_write``,
``engine._hk_bulk_flush``): empty is the disabled state, so the hot
path pays one attribute load plus one truth test — ``if
self._hk_write:`` — and iterates only when a subscriber exists.

Telemetry is *not* routed through hooks: the tracer and the metrics
registry are plain engine slots read by inline ``is not None`` guards
(15 sites, each with its own span name and arguments — one hook site
per guard would serve one subscriber each).  ``bench_obs_overhead.py``
gates their disabled cost.

Hooks are *observers*: they run synchronously at their site but consume
no virtual time and must not mutate engine state that the DES schedule
depends on.  That is the bit-equality contract — an engine with any
set of plugins and hooks produces byte-identical results to a bare one.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, Iterable, Protocol

from repro.kernels import BULK_CHUNK
from repro.util.validate import check_positive

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.runtime.engine import DynamicEngine

#: Every hook site.  Each has one ``engine._hk_<suffix>`` tuple.
HOOK_SITES: tuple[str, ...] = ("on_write", "on_bulk_flush")

#: Hook site -> the engine attribute holding its compiled tuple.
HOOK_ATTRS: dict[str, str] = {
    site: "_hk_" + site.removeprefix("on_") for site in HOOK_SITES
}


class WriteHook(Protocol):
    """Fired on every per-event vertex value write (including merge-mode
    folds during a collection): ``(prog, vertex, value)``."""

    def __call__(self, prog: int, vertex: int, value: Any) -> None: ...


class BulkFlushHook(Protocol):
    """Fired once per program that had entries to write when the
    bulk-ingest dense state flushes into the value dicts: ``(prog,)``."""

    def __call__(self, prog: int) -> None: ...


class EnginePlugin:
    """Base class for engine plugins: override ``setup(engine)`` to
    attach state to the freshly built engine (runs in registration
    order, once)."""

    #: Registry key; must be unique within one engine.
    name: str = "plugin"

    def setup(self, engine: "DynamicEngine") -> None:
        pass

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"{type(self).__name__}(name={self.name!r})"


class PluginRegistry:
    """Holds an engine's plugins and its installed hooks.

    Hooks are installed/uninstalled at run time by the subsystems that
    need them; each change rewrites that site's flat tuple on the engine
    attribute named by :data:`HOOK_ATTRS` — firing order is
    installation order.
    """

    def __init__(self, plugins: Iterable[EnginePlugin] = ()) -> None:
        self.plugins: list[EnginePlugin] = []
        self._hooks: dict[str, list[Callable[..., None]]] = {
            site: [] for site in HOOK_SITES
        }
        self._engine: "DynamicEngine | None" = None
        for plugin in plugins:
            self.register(plugin)

    # -- registration ---------------------------------------------------
    def register(self, plugin: EnginePlugin) -> None:
        """Add a plugin before compilation (duplicate names rejected)."""
        if self._engine is not None:
            raise RuntimeError(
                "registry already compiled; use register_late(plugin, engine)"
            )
        self._check_new(plugin)
        self.plugins.append(plugin)

    def register_late(self, plugin: EnginePlugin, engine: "DynamicEngine") -> None:
        """Add a plugin to a live engine: runs its ``setup`` immediately."""
        if self._engine is not engine:
            raise RuntimeError("registry is not compiled for this engine")
        self._check_new(plugin)
        self.plugins.append(plugin)
        plugin.setup(engine)

    def _check_new(self, plugin: EnginePlugin) -> None:
        if any(p.name == plugin.name for p in self.plugins):
            raise ValueError(f"duplicate plugin name {plugin.name!r}")

    def names(self) -> list[str]:
        return [p.name for p in self.plugins]

    def get(self, name: str) -> EnginePlugin | None:
        for p in self.plugins:
            if p.name == name:
                return p
        return None

    def compile(self, engine: "DynamicEngine") -> None:
        """Bind to ``engine`` and run every plugin's ``setup``."""
        if self._engine is not None:
            raise RuntimeError("registry already compiled")
        self._engine = engine
        for plugin in self.plugins:
            plugin.setup(engine)

    # -- hooks ----------------------------------------------------------
    def install(self, site: str, fn: Callable[..., None]) -> None:
        """Append a hook at ``site`` and rewrite that site's tuple."""
        self._site(site).append(fn)
        self._recompile_site(site)

    def uninstall(self, site: str, fn: Callable[..., None]) -> bool:
        """Remove a previously installed hook; returns whether it was
        present."""
        hooks = self._site(site)
        if fn not in hooks:
            return False
        hooks.remove(fn)
        self._recompile_site(site)
        return True

    def _site(self, site: str) -> list[Callable[..., None]]:
        if site not in self._hooks:
            raise ValueError(
                f"unknown hook site {site!r}; known sites: {', '.join(HOOK_SITES)}"
            )
        return self._hooks[site]

    def _recompile_site(self, site: str) -> None:
        setattr(self._engine, HOOK_ATTRS[site], tuple(self._hooks[site]))


# ----------------------------------------------------------------------
# built-in plugins
# ----------------------------------------------------------------------
class TracerPlugin(EnginePlugin):
    """Attach a :class:`repro.obs.Tracer` recording span/instant events
    from every dispatch.

    The tracer stays a plain engine attribute — emission sites keep
    their historical single ``is not None`` guard — so this plugin only
    owns construction.
    """

    name = "tracer"

    def setup(self, engine: "DynamicEngine") -> None:
        from repro.obs.tracer import Tracer

        engine.tracer = Tracer()


class MetricsPlugin(EnginePlugin):
    """Attach a :class:`MetricsRegistry`, plus a virtual-time sampler
    firing every ``sample_interval`` virtual seconds when one is given."""

    name = "metrics"

    def __init__(self, sample_interval: float | None = None) -> None:
        self.sample_interval = sample_interval

    def setup(self, engine: "DynamicEngine") -> None:
        from repro.obs.registry import MetricsRegistry, VirtualTimeSampler

        engine.metrics = MetricsRegistry()
        if self.sample_interval is not None:
            engine.sampler = VirtualTimeSampler(
                engine, engine.metrics, self.sample_interval
            )
            engine.sampler.schedule()


class FreshnessPlugin(EnginePlugin):
    """Watch one program's convergence lag (requires the sampler, so
    register after a :class:`MetricsPlugin` with an interval)."""

    def __init__(self, prog: str, reference_fn: Callable[..., Any]) -> None:
        self.prog = prog
        self.reference_fn = reference_fn
        self.name = f"freshness:{prog}"

    def setup(self, engine: "DynamicEngine") -> None:
        engine.add_freshness_probe(self.prog, self.reference_fn)


class BulkIngestPlugin(EnginePlugin):
    """Attach the chunked array-kernel ingest controller.

    The wall-clock fast path: during pure saturation replay (no
    collection, no triggers, add-only streams, kernel-capable programs)
    streams drain in chunks of ``chunk`` events propagated by array
    frontier kernels.  Bitwise-exact: the engine transparently
    de-optimizes back to per-event processing the moment any of those
    conditions breaks.  See :mod:`repro.runtime.bulk`.
    """

    name = "bulk-ingest"

    def __init__(self, chunk: int = BULK_CHUNK) -> None:
        check_positive("chunk", chunk)
        self.chunk = chunk

    def setup(self, engine: "DynamicEngine") -> None:
        from repro.runtime.bulk import BulkIngestor

        engine._bulk = BulkIngestor(engine, self.chunk)


class FaultInjectionPlugin(EnginePlugin):
    """Run the engine under a :class:`repro.faults.FaultPlan`.

    Setup schedules the plan's rank stalls as alarms and wires stall
    instants into the tracer and metrics when those plugins are
    registered before this one.  Crash events are *not* handled here —
    a crash discards the whole engine, so it is orchestrated by
    :class:`repro.faults.FaultTolerantRunner`.  Must be registered
    before the engine runs.  Bulk ingest is disabled for the run: a
    chunk advances its rank over thousands of events in one action, so
    a stall, crash or checkpoint instant would fall only between chunks
    instead of between the events the plan is timed against.
    """

    name = "faults"

    def __init__(self, plan: Any) -> None:
        self.plan = plan

    def setup(self, engine: "DynamicEngine") -> None:
        engine._install_fault_plan(self.plan)
