"""Engine plugins: one way to attach a concern to an engine.

A plugin is a ``name`` plus ``setup(engine)``: it attaches one
cross-cutting concern — tracing, metrics sampling, freshness probes,
fault injection, bulk ingest — to a freshly built engine.  Plugins are
the only way to attach these concerns: an engine built without a plugin
list has none of them.  :class:`~repro.runtime.engine.DynamicEngine`
keeps the list as a plain tuple: it rejects duplicate names and runs
each ``setup`` once, in order.  A concern added to a live engine (each
fault-recovery incarnation's plan) calls ``setup(engine)`` directly.

Every attached concern is a plain engine slot read by an inline guard:
the tracer and the metrics registry by ``is not None`` (9 guard lines
in ``engine.py``, 5 in ``bulk.py``, each with its own span name and
arguments), the serving layer's stable-value caches by a truth test of
the ``engine._serve_caches`` tuple (``_write_value`` and
``bulk.flush_values``).  Empty or ``None`` is the disabled state, so an
idle site costs one attribute load plus one test;
``bench_obs_overhead.py`` and ``bench_serving_latency.py`` gate it.

Plugins and caches are *observers*: they consume no virtual time and
must not mutate engine state that the DES schedule depends on.  That is
the bit-equality contract — an engine with any set of plugins and
attached caches produces byte-identical results to a bare one.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable

from repro.kernels import BULK_CHUNK
from repro.util.validate import check_positive

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.runtime.engine import DynamicEngine


class EnginePlugin:
    """Base class for engine plugins: override ``setup(engine)`` to
    attach state to the freshly built engine (runs in list order,
    once)."""

    #: Must be unique within one engine.
    name: str = "plugin"

    def setup(self, engine: "DynamicEngine") -> None:
        pass

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"{type(self).__name__}(name={self.name!r})"


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
    list it after a :class:`MetricsPlugin` with an interval)."""

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
    instants into the tracer and metrics when those plugins were set
    up before this one.  Crash events are *not* handled here —
    a crash discards the whole engine, so it is orchestrated by
    :class:`repro.faults.FaultTolerantRunner`.  Must be set up before
    the engine runs.  Bulk ingest is disabled for the run: a
    chunk advances its rank over thousands of events in one action, so
    a stall, crash or checkpoint instant would fall only between chunks
    instead of between the events the plan is timed against.
    """

    name = "faults"

    def __init__(self, plan: Any) -> None:
        self.plan = plan

    def setup(self, engine: "DynamicEngine") -> None:
        engine._install_fault_plan(self.plan)
