"""Time-series metrics: counters, gauges, histograms, and the sampler.

The :class:`MetricsRegistry` is the numeric companion of the tracer:
where spans show *where* virtual time went, the registry's periodic
samples show *how the system's state evolved* — inbox depth per rank,
busy fraction, topology size, per-program visit counts — as rows you
can plot, or diff between two runs of the same workload.

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

from bisect import bisect_right
from typing import TYPE_CHECKING, Any

from repro.comm.costmodel import DELETE_CAUSE_COUNTERS

if TYPE_CHECKING:
    from repro.obs.freshness import FreshnessProbe

#: Default histogram bucket upper bounds in microseconds (geometric,
#: covering sub-µs visitor dispatches up to ms-scale collection epochs).
DEFAULT_BOUNDS_US = (
    0.1, 0.2, 0.5, 1.0, 2.0, 5.0, 10.0, 20.0, 50.0,
    100.0, 200.0, 500.0, 1000.0, 10000.0,
)


class Histogram:
    """Fixed-bucket histogram (Prometheus-style cumulative-free)."""

    __slots__ = ("bounds", "counts", "count", "total", "min", "max")

    def __init__(self, bounds: tuple[float, ...] = DEFAULT_BOUNDS_US):
        self.bounds = tuple(bounds)
        self.counts = [0] * (len(self.bounds) + 1)  # last = overflow
        self.count = 0
        self.total = 0.0
        self.min = float("inf")
        self.max = float("-inf")

    def observe(self, value: float) -> None:
        self.counts[bisect_right(self.bounds, value)] += 1
        self.count += 1
        self.total += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def merge_from(self, other: "Histogram") -> None:
        """Fold another histogram with identical bounds into this one.

        Bucket-wise addition is associative and commutative, so merging
        per-rank histograms in any grouping yields the same totals (the
        cross-rank merge relies on this; see the associativity tests).
        """
        if other.bounds != self.bounds:
            raise ValueError(
                f"cannot merge histograms with different bounds: "
                f"{self.bounds} vs {other.bounds}"
            )
        for i, c in enumerate(other.counts):
            self.counts[i] += c
        self.count += other.count
        self.total += other.total
        if other.min < self.min:
            self.min = other.min
        if other.max > self.max:
            self.max = other.max

    @classmethod
    def from_dict(cls, doc: dict[str, Any]) -> "Histogram":
        """Rebuild a histogram from its :meth:`to_dict` payload (the
        picklable/JSON shape harvested from worker processes)."""
        h = cls(tuple(doc["bounds"]))
        h.counts = [int(c) for c in doc["counts"]]
        h.count = int(doc["count"])
        h.total = float(doc["total"])
        if doc.get("min") is not None:
            h.min = float(doc["min"])
        if doc.get("max") is not None:
            h.max = float(doc["max"])
        return h

    def quantile(self, q: float) -> float:
        """Estimate the ``q``-quantile from the bucket counts (upper
        bound of the containing bucket; the overflow bucket reports the
        observed max)."""
        if not 0 <= q <= 1:
            raise ValueError(f"quantile must be in [0, 1], got {q}")
        if not self.count:
            return 0.0
        target = q * self.count
        seen = 0
        for i, c in enumerate(self.counts):
            seen += c
            if seen >= target and c:
                if i < len(self.bounds):
                    return self.bounds[i]
                return self.max
        return self.max

    def to_dict(self) -> dict[str, Any]:
        return {
            "bounds": list(self.bounds),
            "counts": list(self.counts),
            "count": self.count,
            "total": self.total,
            "mean": self.mean,
            "min": self.min if self.count else None,
            "max": self.max if self.count else None,
        }


class MetricsRegistry:
    """Named counters/gauges/histograms plus the sampled time series."""

    __slots__ = ("counters", "gauges", "histograms", "samples")

    def __init__(self) -> None:
        self.counters: dict[str, float] = {}
        self.gauges: dict[str, float] = {}
        self.histograms: dict[str, Histogram] = {}
        self.samples: list[dict[str, Any]] = []

    # -- scalar instruments ---------------------------------------------
    def inc(self, name: str, by: float = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + by

    def set_gauge(self, name: str, value: float) -> None:
        self.gauges[name] = value

    def histogram(
        self, name: str, bounds: tuple[float, ...] = DEFAULT_BOUNDS_US
    ) -> Histogram:
        h = self.histograms.get(name)
        if h is None:
            h = self.histograms[name] = Histogram(bounds)
        return h

    # -- time series ----------------------------------------------------
    def record(self, row: dict[str, Any]) -> None:
        """Append one time-series row (must carry ``t`` and ``kind``)."""
        self.samples.append(row)

    def rows(self, kind: str | None = None) -> list[dict[str, Any]]:
        if kind is None:
            return list(self.samples)
        return [r for r in self.samples if r.get("kind") == kind]

    def series(self, key: str, kind: str = "sample") -> list[tuple[float, Any]]:
        """Extract ``(t, value)`` pairs for one sampled key."""
        return [
            (r["t"], r[key]) for r in self.samples
            if r.get("kind") == kind and key in r
        ]

    # -- cross-registry merge --------------------------------------------
    def merge_from(self, other: "MetricsRegistry") -> None:
        """Fold another registry into this one.

        Counters add, histograms bucket-add, samples concatenate (the
        caller re-sorts by ``t`` if interleaving matters), and gauges
        take the other registry's value on collision (harvest paths
        avoid collisions by rank-prefixing gauge names).  Counter and
        histogram merging are associative and commutative, so per-rank
        registries can be folded in any grouping.
        """
        for name, value in other.counters.items():
            self.counters[name] = self.counters.get(name, 0) + value
        self.gauges.update(other.gauges)
        for name, hist in other.histograms.items():
            mine = self.histograms.get(name)
            if mine is None:
                clone = Histogram(hist.bounds)
                clone.merge_from(hist)
                self.histograms[name] = clone
            else:
                mine.merge_from(hist)
        self.samples.extend(other.samples)

    @classmethod
    def merged(cls, parts: "list[MetricsRegistry]") -> "MetricsRegistry":
        """Fold registries into a fresh one (inputs untouched), with the
        combined samples re-sorted by timestamp."""
        out = cls()
        for part in parts:
            out.merge_from(part)
        out.samples.sort(key=lambda r: r.get("t", 0.0))
        return out


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
