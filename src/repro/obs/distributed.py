"""Distributed observability for the process-parallel (mp) backend.

The DES tracer/metrics stack (PR 3) records *virtual* time inside one
process.  The mp backend has no virtual clock and many processes, so
its telemetry needs three extra mechanisms, all of which live here:

* **Per-rank wall-clock capture** — each worker owns a
  :class:`RankObs`: a :class:`~repro.obs.tracer.Tracer` plus a
  :class:`~repro.obs.registry.MetricsRegistry` recording timestamps
  relative to the worker's own ``time.perf_counter()`` epoch.  The
  hot-loop discipline matches the engine's: every emission sits behind
  one ``if obs is not None`` guard, and a worker running without
  ``--trace/--metrics`` never constructs a RankObs at all.

* **Clock alignment** — ``perf_counter()`` epochs are arbitrary per
  process, so raw per-rank timestamps cannot be overlaid.  Each capture
  carries a :class:`ClockAnchor`, a ``(wall, perf)`` pair sampled at
  construction; the parent samples its own anchor before spawning.  At
  merge time every rank's events are shifted by
  ``max(rank.wall - parent.wall, 0.0)`` — the wall-clock lag between
  the parent epoch and the worker epoch.  The shift is one constant per
  rank, so per-track monotonicity (what ``validate_chrome_trace``
  checks) is preserved, and the clamp keeps timestamps non-negative
  even if NTP steps a clock between anchor samples.  Cross-rank skew is
  bounded by wall-clock skew between processes on one host — fine for
  timeline overlay, not for ordering individual µs-scale events.

* **Harvest + merge** — workers return their capture as a picklable
  payload dict alongside the result harvest (:func:`harvest_payload`);
  the runner folds all ranks with :func:`merge_rank_obs` into a single
  :class:`MergedObs`: one multi-process Chrome trace (``pid`` = rank)
  and one cross-rank registry in which counters sum, histograms
  bucket-add, samples interleave by aligned time, and per-rank scalars
  (wall/busy seconds) survive as rank-prefixed gauges plus
  ``kind="rank"`` report rows.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any

from repro.obs.registry import Histogram, MetricsRegistry
from repro.obs.tracer import Tracer

#: Span categories used by the mp worker instrumentation.  ``wait`` is
#: excluded from busy accounting — a rank blocked in ``poll`` burns no
#: CPU.
MP_BUSY_CATEGORIES = ("drain", "compute", "ingest", "emit", "ctrl")

#: Busy intervals a :class:`RankObs` keeps for merging (spans nest a
#: level or two deep, so a closing span reaches only the last few).
_BUSY_INTERVALS = 256


@dataclass(frozen=True)
class ObsConfig:
    """What the mp backend should capture (picklable, sent to workers).

    ``trace`` records phase spans; ``metrics`` records counters and
    ring-occupancy samples.  Either flag implies a registry (the
    cross-rank counters report is always wanted when obs is on);
    ``ring_sample_every`` throttles occupancy sampling to every N-th
    doorbell.
    """

    trace: bool = False
    metrics: bool = False
    ring_sample_every: int = 1

    def __post_init__(self) -> None:
        if self.ring_sample_every < 1:
            raise ValueError(
                f"ring_sample_every must be >= 1, got {self.ring_sample_every}"
            )

    @property
    def enabled(self) -> bool:
        return self.trace or self.metrics


@dataclass(frozen=True)
class ClockAnchor:
    """A simultaneous ``(time.time(), time.perf_counter())`` sample.

    ``perf`` is the midpoint of two ``perf_counter`` reads bracketing
    the wall read, bounding the pairing error by half the gap between
    them (sub-µs in practice).
    """

    wall: float
    perf: float

    @classmethod
    def capture(cls) -> "ClockAnchor":
        p0 = time.perf_counter()
        wall = time.time()
        p1 = time.perf_counter()
        return cls(wall=wall, perf=(p0 + p1) / 2.0)

    def offset_from(self, parent: "ClockAnchor") -> float:
        """Seconds this anchor was captured after ``parent``'s, clamped
        to zero (a worker cannot start before its parent; a negative
        value means clock skew, and clamping keeps merged timestamps
        valid for the trace validator)."""
        return max(self.wall - parent.wall, 0.0)


class RankObs:
    """One worker process's wall-clock telemetry capture.

    Timestamps are seconds since this object's construction (the
    worker's epoch); :meth:`span` closes an interval opened at a caller
    -held ``t0`` from :meth:`now`.  Busy seconds accumulate for every
    span in :data:`MP_BUSY_CATEGORIES` even when tracing is off, so a
    metrics-only run still yields per-rank load skew.
    """

    __slots__ = (
        "rank",
        "config",
        "anchor",
        "tracer",
        "registry",
        "busy_seconds",
        "_busy",
        "_busy_floor",
    )

    def __init__(self, rank: int, config: ObsConfig):
        self.rank = rank
        self.config = config
        self.anchor = ClockAnchor.capture()
        self.tracer: Tracer | None = Tracer() if config.trace else None
        self.registry: MetricsRegistry = MetricsRegistry()
        self.busy_seconds = 0.0
        # The busy union as disjoint (start, end) intervals, ascending;
        # the instants before ``_busy_floor`` were dropped from the list.
        self._busy: list[tuple[float, float]] = []
        self._busy_floor = 0.0

    def now(self) -> float:
        return time.perf_counter() - self.anchor.perf

    # -- emission -------------------------------------------------------
    def span(
        self,
        name: str,
        t0: float,
        cat: str = "compute",
        args: dict[str, Any] | None = None,
        busy: bool = True,
    ) -> None:
        """Close a span opened at ``t0`` (ends now).  ``busy_seconds``
        is the measure of the union of busy spans: a span accrues what
        no span counted before it covers, so an outer span keeps its
        time around a nested busy child (an ``emit`` flushed inside a
        ``drain``) and overlapping spans never count an instant twice —
        the total never exceeds wall time.  ``busy=False`` leaves a span
        out of the accounting altogether."""
        t1 = self.now()
        if busy and cat in MP_BUSY_CATEGORIES:
            self._count_busy(t0, t1)
        if self.tracer is not None:
            self.tracer.span(self.rank, name, t0, t1, cat, args)

    def _count_busy(self, t0: float, t1: float) -> None:
        """Add ``[t0, t1]`` to the busy union.  Spans close in time
        order, so every counted interval ends by ``t1`` and the ones
        this span reaches are a suffix of the list, merged into it.
        Only the last :data:`_BUSY_INTERVALS` intervals are kept: a span
        reaching back past them accrues from ``_busy_floor`` on."""
        busy = self._busy
        start, added = t0, t1 - max(t0, self._busy_floor)
        while busy and busy[-1][1] >= t0:
            s, e = busy.pop()
            added -= e - max(s, t0)
            start = min(start, s)
        if added > 0:
            self.busy_seconds += added
        busy.append((start, t1))
        if len(busy) > _BUSY_INTERVALS:
            half = len(busy) // 2
            self._busy_floor = busy[half - 1][1]
            del busy[:half]

    def instant(
        self, name: str, cat: str = "ctrl", args: dict[str, Any] | None = None
    ) -> None:
        if self.tracer is not None:
            self.tracer.instant(self.rank, name, self.now(), cat, args)

    def inc(self, name: str, by: float = 1) -> None:
        self.registry.inc(name, by)

    def sample_rings(
        self,
        rings_in: dict[int, Any],
        loop: Any,
    ) -> None:
        """Record one ring-occupancy sample (called at doorbell
        boundaries, where arrival just changed the picture).  Emits a
        registry row and, when tracing, Chrome counter tracks so
        Perfetto charts backpressure under the spans."""
        t = self.now()
        used = {src: r.used() for src, r in rings_in.items()}
        row: dict[str, Any] = {
            "kind": "ring_sample",
            "t": t,
            "rank": self.rank,
            "ring_in_used": used,
            "inbox": loop.inbox_len,
            "outbuffered": loop.outbuffered,
        }
        self.registry.record(row)
        if self.tracer is not None:
            self.tracer.counter(
                self.rank,
                "ring_in_bytes",
                t,
                {f"from_{src}": float(u) for src, u in used.items()},
            )
            self.tracer.counter(
                self.rank,
                "queues",
                t,
                {"inbox": float(loop.inbox_len), "outbuf": float(loop.outbuffered)},
            )


def harvest_payload(obs: RankObs, wire_stats: dict[str, int]) -> dict[str, Any]:
    """Flatten one rank's capture into the picklable harvest shape.

    ``wire_stats`` (the loop's cumulative wire counters, already
    including consumer-side ring health) is folded into the registry's
    counters so the merged report sums them across ranks.
    """
    for name, value in wire_stats.items():
        if "hwm" not in name:
            obs.registry.inc(name, value)
    return {
        "rank": obs.rank,
        "anchor_wall": obs.anchor.wall,
        "wall_seconds": obs.now(),
        "busy_seconds": obs.busy_seconds,
        "events": list(obs.tracer.events) if obs.tracer is not None else None,
        "counters": dict(obs.registry.counters),
        "gauges": dict(obs.registry.gauges),
        "histograms": {
            name: h.to_dict() for name, h in obs.registry.histograms.items()
        },
        "samples": list(obs.registry.samples),
        "hwm": {k: v for k, v in wire_stats.items() if "hwm" in k},
    }


@dataclass
class MergedObs:
    """All ranks' captures, aligned to the parent epoch and folded."""

    tracer: Tracer | None
    registry: MetricsRegistry
    offsets: dict[int, float] = field(default_factory=dict)
    per_rank: list[dict[str, Any]] = field(default_factory=list)

    def skew(self) -> float:
        """Max/mean ratio of per-rank busy seconds (1.0 = perfectly
        balanced; the rank-skew walkthrough in EXPERIMENTS reads this)."""
        busy = [r["busy_seconds"] for r in self.per_rank]
        if not busy or not sum(busy):
            return 1.0
        return max(busy) / (sum(busy) / len(busy))

    def summary(self) -> dict[str, Any]:
        """The cross-rank counters report (the ``--json`` obs doc)."""
        return {
            "ranks": sorted(self.offsets),
            "clock_offsets_s": {str(r): o for r, o in sorted(self.offsets.items())},
            "trace_events": len(self.tracer) if self.tracer is not None else 0,
            "busy_skew": self.skew(),
            "per_rank": [
                {
                    "rank": r["rank"],
                    "wall_seconds": r["wall_seconds"],
                    "busy_seconds": r["busy_seconds"],
                }
                for r in self.per_rank
            ],
            "counters": dict(sorted(self.registry.counters.items())),
        }


def merge_rank_obs(
    payloads: list[dict[str, Any]], parent_anchor: ClockAnchor
) -> MergedObs:
    """Fold per-rank harvest payloads into one aligned capture.

    Every rank's events and samples shift by its anchor's offset from
    the parent epoch (constant per rank, so per-track monotonicity is
    preserved); counters sum; histograms bucket-add; per-rank scalars
    become rank-prefixed gauges plus one ``kind="rank"`` report row
    each.
    """
    payloads = sorted(payloads, key=lambda p: p["rank"])
    any_trace = any(p.get("events") is not None for p in payloads)
    tracer = Tracer() if any_trace else None
    registry = MetricsRegistry()
    offsets: dict[int, float] = {}
    per_rank: list[dict[str, Any]] = []
    for p in payloads:
        rank = p["rank"]
        anchor = ClockAnchor(wall=p["anchor_wall"], perf=0.0)
        offset = anchor.offset_from(parent_anchor)
        offsets[rank] = offset
        if tracer is not None and p.get("events"):
            for ph, _rank, name, cat, ts, dur, args in p["events"]:
                tracer.events.append((ph, rank, name, cat, ts + offset, dur, args))
        for name, value in p.get("counters", {}).items():
            registry.inc(name, value)
        for name, value in p.get("gauges", {}).items():
            registry.set_gauge(f"rank{rank}/{name}", value)
        for name, doc in p.get("histograms", {}).items():
            registry.histogram(name, tuple(doc["bounds"])).merge_from(
                Histogram.from_dict(doc)
            )
        for row in p.get("samples", []):
            shifted = dict(row)
            if "t" in shifted:
                shifted["t"] = shifted["t"] + offset
            registry.record(shifted)
        for name, value in p.get("hwm", {}).items():
            prev = registry.gauges.get(name, 0)
            registry.set_gauge(name, max(prev, value))
        registry.set_gauge(f"rank{rank}/wall_seconds", p["wall_seconds"])
        registry.set_gauge(f"rank{rank}/busy_seconds", p["busy_seconds"])
        wall = p["wall_seconds"]
        rank_row: dict[str, Any] = {
            "kind": "rank",
            "t": offset + wall,
            "rank": rank,
            "wall_seconds": wall,
            "busy_seconds": p["busy_seconds"],
            "busy_frac": p["busy_seconds"] / wall if wall > 0 else 0.0,
            "clock_offset_s": offset,
        }
        for key in ("wire_sent", "wire_received", "kernel_records", "ring_stalls"):
            if key in p.get("counters", {}):
                rank_row[key] = p["counters"][key]
        registry.record(rank_row)
        per_rank.append(
            {
                "rank": rank,
                "wall_seconds": wall,
                "busy_seconds": p["busy_seconds"],
                "offset": offset,
            }
        )
    registry.samples.sort(key=lambda r: r.get("t", 0.0))
    return MergedObs(
        tracer=tracer, registry=registry, offsets=offsets, per_rank=per_rank
    )
