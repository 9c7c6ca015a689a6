"""Plugin registry and typed hook sites for the dynamic engine.

Cross-cutting concerns — tracing, metrics sampling, freshness probes,
fault injection, bulk ingest, serving-cache invalidation, the mp
backend's dense-mirror folding — used to be hand-wired into the engine
as one-off attributes guarded by inline ``if x is not None`` checks.
This module replaces that with a small, uniform mechanism:

* a fixed catalogue of **hook sites** (:data:`HOOK_SITES`), each a
  named point in the engine hot path with a typed callback signature
  (the ``*Hook`` protocols below);
* an :class:`EnginePlugin` base class whose instances attach state in
  ``setup`` and contribute callbacks via ``hooks()``;
* a :class:`PluginRegistry` that **compiles** all registered callbacks
  into per-site flat tuples stored on the engine (``engine._hk_write``
  and friends).

The compiled representation is what keeps the disabled cost at the
historical ``is not None`` grade: an empty site is the empty tuple, so
the hot path pays exactly one attribute load plus one truth test —
``if self._hk_write:`` — and only iterates when at least one hook is
actually registered.  ``bench_obs_overhead.py`` gates this.

Hooks are *observers*: they run synchronously at their site but consume
no virtual time and must not mutate engine state that the DES schedule
depends on.  That is the bit-equality contract — an engine with any
set of plugins produces byte-identical results to a bare one.

Plugins are the only way to attach these concerns: an engine built
without a plugin list has none of them.

For the mp backend, plugins cannot be pickled across the spawn
boundary; workers instead re-hydrate them from ``(name, kwargs)``
specs via :func:`build_plugin` (see :data:`PLUGIN_FACTORIES`).  Only
plugins declaring ``mp_safe = True`` may ride into workers — the
DES-only ones (tracer, sampler, faults, bulk ingest) are rejected there.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, Iterable, Mapping, Protocol

from repro.util.validate import check_positive

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.runtime.engine import DynamicEngine

#: Every hook site, in catalogue order.  ``PluginRegistry.compile``
#: materialises one ``engine._hk_<suffix>`` tuple per entry.
HOOK_SITES: tuple[str, ...] = (
    "on_dispatch",
    "on_write",
    "on_insert",
    "on_delete",
    "on_bulk_flush",
    "on_collection_cut",
    "on_checkpoint",
    "on_quiesce",
)

#: Hook site -> the engine attribute holding its compiled tuple.
HOOK_ATTRS: dict[str, str] = {
    site: "_hk_" + site.removeprefix("on_") for site in HOOK_SITES
}


class DispatchHook(Protocol):
    """Fired after every visitor/control dispatch: ``(rank, vt, t0, t1)``
    with ``t0``/``t1`` the rank's virtual clock around the dispatch."""

    def __call__(self, rank: int, vt: int, t0: float, t1: float) -> None: ...


class WriteHook(Protocol):
    """Fired on every per-event vertex value write (including merge-mode
    folds during a collection): ``(prog, vertex, value)``."""

    def __call__(self, prog: int, vertex: int, value: Any) -> None: ...


class InsertHook(Protocol):
    """Fired on every applied edge insert: ``(src, dst, weight)``."""

    def __call__(self, src: int, dst: int, weight: Any) -> None: ...


class DeleteHook(Protocol):
    """Fired on every applied edge delete (both canonical and reverse
    sides): ``(src, dst)``."""

    def __call__(self, src: int, dst: int) -> None: ...


class BulkFlushHook(Protocol):
    """Fired once per program when the bulk-ingest dense mirror flushes
    back into the value dicts: ``(prog,)``."""

    def __call__(self, prog: int) -> None: ...


class CollectionCutHook(Protocol):
    """Fired when a versioned collection cuts:
    ``(collection_id, cut_version, prog)``."""

    def __call__(self, collection_id: int, cut_version: int, prog: int) -> None: ...


class CheckpointHook(Protocol):
    """Fired after a checkpoint save/load: ``(event, path)`` with
    ``event`` one of ``"save"`` / ``"load"``."""

    def __call__(self, event: str, path: str) -> None: ...


class QuiesceHook(Protocol):
    """Fired when :meth:`DynamicEngine.run` returns with the cluster
    quiescent: ``(engine,)``."""

    def __call__(self, engine: "DynamicEngine") -> None: ...


class EnginePlugin:
    """Base class for engine plugins.

    Subclasses override any subset of the lifecycle methods:

    ``setup(engine)``
        Attach state to the freshly built engine (runs in registration
        order during the ``setup`` lifecycle phase).
    ``hooks()``
        Mapping of hook-site name -> callback, merged into the compiled
        per-site tuples.  Unknown site names are rejected at compile.
    ``on_phase(phase, engine)``
        Observe genuine lifecycle transitions (``ingest`` / ``drain`` /
        ``collect`` / ``harvest`` / ``teardown``).
    ``harvest()``
        A picklable result payload, or ``None``.  The mp workers ship
        these back to the parent in the result dict.
    ``teardown(engine)``
        Release resources; runs in reverse registration order, at most
        once.
    """

    #: Registry key; must be unique within one engine.
    name: str = "plugin"
    #: Whether the plugin may ride into mp worker ranks.  DES-only
    #: plugins (tracer, sampler, faults) keep the default False.
    mp_safe: bool = False

    def setup(self, engine: "DynamicEngine") -> None:
        pass

    def hooks(self) -> Mapping[str, Callable[..., None]]:
        return {}

    def on_phase(self, phase: str, engine: "DynamicEngine") -> None:
        pass

    def harvest(self) -> Any:
        return None

    def teardown(self, engine: "DynamicEngine") -> None:
        pass

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"{type(self).__name__}(name={self.name!r})"


class PluginRegistry:
    """Holds an engine's plugins and compiles their hooks.

    Static hooks come from plugins (via ``hooks()``); dynamic hooks are
    installed/uninstalled at runtime by subsystems that come and go
    (the serving layer's cache invalidation, the mp backend's
    vectorized applier).  Compilation writes, per site, the flat tuple
    ``static + dynamic`` onto the engine attribute named by
    :data:`HOOK_ATTRS` — firing order is therefore plugin registration
    order, then dynamic installation order.
    """

    def __init__(self, plugins: Iterable[EnginePlugin] = ()) -> None:
        self.plugins: list[EnginePlugin] = []
        self._static: dict[str, list[Callable[..., None]]] = {
            site: [] for site in HOOK_SITES
        }
        self._dynamic: dict[str, list[Callable[..., None]]] = {
            site: [] for site in HOOK_SITES
        }
        self._engine: "DynamicEngine | None" = None
        self._torn_down = False
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
        """Add a plugin to a live engine: runs its ``setup`` immediately
        and recompiles the hook tuples."""
        if self._engine is not engine:
            raise RuntimeError("registry is not compiled for this engine")
        self._check_new(plugin)
        self.plugins.append(plugin)
        plugin.setup(engine)
        self._merge_hooks(plugin)
        self._recompile()

    def _check_new(self, plugin: EnginePlugin) -> None:
        if self._torn_down:
            raise RuntimeError("registry is torn down")
        if any(p.name == plugin.name for p in self.plugins):
            raise ValueError(f"duplicate plugin name {plugin.name!r}")

    def names(self) -> list[str]:
        return [p.name for p in self.plugins]

    def get(self, name: str) -> EnginePlugin | None:
        for p in self.plugins:
            if p.name == name:
                return p
        return None

    # -- lifecycle ------------------------------------------------------
    def compile(self, engine: "DynamicEngine") -> None:
        """Bind to ``engine``: run every plugin's ``setup`` and write
        the per-site hook tuples onto the engine."""
        if self._engine is not None:
            raise RuntimeError("registry already compiled")
        self._engine = engine
        for plugin in self.plugins:
            plugin.setup(engine)
            self._merge_hooks(plugin)
        self._recompile()

    def _merge_hooks(self, plugin: EnginePlugin) -> None:
        for site, fn in plugin.hooks().items():
            if site not in self._static:
                raise ValueError(
                    f"plugin {plugin.name!r} registered unknown hook site "
                    f"{site!r}; known sites: {', '.join(HOOK_SITES)}"
                )
            self._static[site].append(fn)

    def notify_phase(self, phase: str, engine: "DynamicEngine") -> None:
        for plugin in self.plugins:
            plugin.on_phase(phase, engine)

    def harvest(self) -> dict[str, Any]:
        """Collect every plugin's non-None ``harvest()`` payload by
        name (the mp workers' result shipping)."""
        out: dict[str, Any] = {}
        for plugin in self.plugins:
            payload = plugin.harvest()
            if payload is not None:
                out[plugin.name] = payload
        return out

    def teardown(self, engine: "DynamicEngine") -> None:
        """Tear plugins down in reverse registration order and zero
        every hook tuple.  Idempotent."""
        if self._torn_down:
            return
        self._torn_down = True
        for plugin in reversed(self.plugins):
            plugin.teardown(engine)
        for site in HOOK_SITES:
            self._static[site].clear()
            self._dynamic[site].clear()
        self._recompile()

    # -- dynamic hooks --------------------------------------------------
    def install(self, site: str, fn: Callable[..., None]) -> None:
        """Append a dynamic hook at ``site`` and recompile that site."""
        if site not in self._dynamic:
            raise ValueError(f"unknown hook site {site!r}")
        self._dynamic[site].append(fn)
        self._recompile_site(site)

    def uninstall(self, site: str, fn: Callable[..., None]) -> bool:
        """Remove a previously installed dynamic hook; returns whether
        it was present."""
        if site not in self._dynamic:
            raise ValueError(f"unknown hook site {site!r}")
        try:
            self._dynamic[site].remove(fn)
        except ValueError:
            return False
        self._recompile_site(site)
        return True

    def installed(self, site: str) -> tuple[Callable[..., None], ...]:
        """The compiled tuple for ``site`` (static then dynamic)."""
        if site not in self._static:
            raise ValueError(f"unknown hook site {site!r}")
        return tuple(self._static[site] + self._dynamic[site])

    def _recompile_site(self, site: str) -> None:
        if self._engine is not None:
            setattr(
                self._engine,
                HOOK_ATTRS[site],
                tuple(self._static[site] + self._dynamic[site]),
            )

    def _recompile(self) -> None:
        for site in HOOK_SITES:
            self._recompile_site(site)


# ----------------------------------------------------------------------
# built-in plugins
# ----------------------------------------------------------------------
class TracerPlugin(EnginePlugin):
    """Attach a :class:`repro.obs.Tracer` recording span/instant events
    from every dispatch.

    The tracer stays a plain engine attribute — emission sites keep
    their historical single ``is not None`` guard — so this plugin only
    owns construction.  Teardown leaves the capture readable.
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

    def __init__(self, chunk: int = 8192) -> None:
        check_positive("chunk", chunk)
        self.chunk = chunk

    def setup(self, engine: "DynamicEngine") -> None:
        from repro.runtime.bulk import BulkIngestor

        engine._bulk = BulkIngestor(engine, self.chunk)


class FaultInjectionPlugin(EnginePlugin):
    """Run the engine under a :class:`repro.faults.FaultPlan`.

    Setup attaches the lossy reliable-delivery transport, schedules the
    plan's rank stalls, and wires drop/stall instants into the tracer
    and metrics when those plugins are registered before this one.
    Crash events are *not* handled here — a crash discards the whole
    engine, so it is orchestrated by
    :class:`repro.faults.FaultTolerantRunner`.  Must be registered
    before the engine runs.  Bulk ingest is disabled for the run: the
    chunked array path bypasses the message layer and would never put
    frames on the lossy wire.
    """

    name = "faults"

    def __init__(self, plan: Any) -> None:
        self.plan = plan

    def setup(self, engine: "DynamicEngine") -> None:
        engine._install_fault_plan(self.plan)


class HookStatsPlugin(EnginePlugin):
    """Count hook firings per site — the simplest full-width consumer.

    ``mp_safe``: the counters are plain ints and ``harvest()`` returns
    a picklable dict, so workers can ship per-rank firing counts back
    to the parent; the rehydration test uses exactly this.
    """

    name = "hook_stats"
    mp_safe = True

    def __init__(self) -> None:
        self.counts: dict[str, int] = {site: 0 for site in HOOK_SITES}

    def hooks(self) -> Mapping[str, Callable[..., None]]:
        out: dict[str, Callable[..., None]] = {}
        for site in HOOK_SITES:

            def bump(
                *_args: Any,
                _counts: dict[str, int] = self.counts,
                _site: str = site,
            ) -> None:
                _counts[_site] += 1

            out[site] = bump
        return out

    def harvest(self) -> dict[str, int]:
        return dict(self.counts)


#: Picklable re-hydration specs for mp workers: name -> factory.
#: ``run_parallel(plugins=[("hook_stats", {})])`` ships these across
#: the spawn boundary; each worker rebuilds real instances.
PLUGIN_FACTORIES: dict[str, Callable[..., EnginePlugin]] = {
    "tracer": TracerPlugin,
    "metrics": MetricsPlugin,
    "freshness": FreshnessPlugin,
    "bulk-ingest": BulkIngestPlugin,
    "faults": FaultInjectionPlugin,
    "hook_stats": HookStatsPlugin,
}


def build_plugin(name: str, kwargs: Mapping[str, Any] | None = None) -> EnginePlugin:
    """Re-hydrate a plugin from its ``(name, kwargs)`` spec."""
    factory = PLUGIN_FACTORIES.get(name)
    if factory is None:
        raise ValueError(
            f"unknown plugin {name!r}; known: {', '.join(sorted(PLUGIN_FACTORIES))}"
        )
    return factory(**dict(kwargs or {}))
