"""Time-series metrics: counters, sampled rows, and the sampler.

The :class:`MetricsRegistry` is the numeric companion of the tracer:
where spans show *where* virtual time went, the registry's periodic
samples show *how the system's state evolved* — inbox depth per rank,
busy fraction, topology size, per-program visit counts — as rows you
can plot, or diff between two runs of the same workload.  Its named
counters count what no other object owns (the fault runner's stalls,
recoveries and checkpoints); a number the engine or a result already
holds is read from there, not copied here.

Sampling is driven by **virtual time**, not wall time: the
:class:`VirtualTimeSampler` schedules itself on the DES alarm queue
every ``interval`` virtual seconds, so two runs of the same workload
sample at identical instants and their series subtract cleanly.  The
sampler stops rescheduling once the cluster is quiescent (its final
firing takes the end-of-run sample), which keeps the event loop
terminating.

Export to JSONL lives in :mod:`repro.obs.export`; each sample is one
``{"kind": "sample", "t": ...}`` row, and convergence-lag rows from
:mod:`repro.obs.freshness` interleave with kind ``"freshness"``.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any

from repro.comm.costmodel import DELETE_CAUSE_COUNTERS

if TYPE_CHECKING:
    from repro.obs.freshness import FreshnessProbe


class MetricsRegistry:
    """Named counters plus the sampled time-series rows."""

    __slots__ = ("counters", "samples")

    def __init__(self) -> None:
        self.counters: dict[str, float] = {}
        self.samples: list[dict[str, Any]] = []

    def inc(self, name: str, by: float = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + by

    def record(self, row: dict[str, Any]) -> None:
        """Append one time-series row (must carry ``t`` and ``kind``)."""
        self.samples.append(row)

    def rows(self, kind: str | None = None) -> list[dict[str, Any]]:
        if kind is None:
            return list(self.samples)
        return [r for r in self.samples if r.get("kind") == kind]


class VirtualTimeSampler:
    """Periodic engine sampler hooked on the DES alarm queue.

    Reads only cheap state — queue depths, clocks, counters, the
    approximate store sizes — so sampling never perturbs the virtual
    schedule (samples consume no simulated CPU) and barely perturbs wall
    time.  The optional :class:`~repro.obs.freshness.FreshnessProbe` is
    the one deliberate exception and is opt-in separately.
    """

    def __init__(self, engine: Any, registry: MetricsRegistry, interval: float):
        if interval <= 0:
            raise ValueError(f"sample interval must be > 0, got {interval}")
        self.engine = engine
        self.registry = registry
        self.interval = float(interval)
        # FreshnessProbe, attached via the engine's freshness plugin.
        self.freshness: FreshnessProbe | None = None
        self._next_t = 0.0

    def schedule(self) -> None:
        """Arm the next sample alarm (the engine calls this once)."""
        self.engine.loop.schedule_alarm(self._next_t, self._tick)

    def _tick(self) -> None:
        t = self._next_t
        self.sample(t)
        if not self.engine.loop.quiescent():
            self._next_t = t + self.interval
            self.schedule()

    # ------------------------------------------------------------------
    def sample(self, t: float) -> dict[str, Any]:
        """Take one sample at virtual time ``t`` and record it."""
        eng = self.engine
        loop = eng.loop
        n = eng.config.n_ranks
        counters = eng.counters
        busy = [counters[r].busy_time for r in range(n)]
        row: dict[str, Any] = {
            "kind": "sample",
            "t": t,
            "events": sum(c.source_events for c in counters),
            "events_remaining": sum(
                s.remaining() for s in eng._streams if s is not None
            ),
            "in_flight": loop.in_flight,
            "edges": sum(s.approx_num_edges for s in eng.stores),
            "vertices": sum(s.approx_num_vertices for s in eng.stores),
            "queue_depth": [loop.inbox_depth(r) for r in range(n)],
            "prio_depth": [loop.prio_depth(r) for r in range(n)],
            "coalesce_pending": [loop.coalesce_depth(r) for r in range(n)],
            "clock": [loop.clock[r] for r in range(n)],
            "busy": busy,
            "busy_frac": [b / t if t > 0 else 0.0 for b in busy],
            "visits": {
                p.name: eng._prog_visits[i] for i, p in enumerate(eng.programs)
            },
            "deletes": {
                name: sum(getattr(c, name) for c in counters)
                for name in DELETE_CAUSE_COUNTERS
            },
            "updates_squashed": sum(c.updates_squashed for c in counters),
            "stall_time": loop.stall_time,
        }
        self.registry.record(row)
        tracer = eng.tracer
        if tracer is not None:
            # Mirror the per-rank series as Chrome counter tracks so the
            # Perfetto timeline shows queue buildup under the spans.
            for r in range(n):
                tracer.counter(
                    r,
                    "queues",
                    t,
                    {
                        "data": row["queue_depth"][r],
                        "prio": row["prio_depth"][r],
                        "coalescible": row["coalesce_pending"][r],
                    },
                )
                tracer.counter(r, "busy_frac", t, {"busy": row["busy_frac"][r]})
        if self.freshness is not None:
            self.freshness.sample(t, self.registry)
        return row
