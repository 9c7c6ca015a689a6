"""Throughput and cost reporting for simulated runs.

Turns a finished engine's counters and virtual clocks into the metrics
the paper's evaluation reports: topology events per (virtual) second,
message volumes, per-rank utilisation, and the construction-vs-algorithm
cost split.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

from repro.comm.costmodel import DELETE_CAUSE_COUNTERS, RankCounters
from repro.util.timers import format_rate, format_seconds


@dataclass(frozen=True)
class ThroughputReport:
    """Summary of one dynamic run."""

    n_ranks: int
    source_events: int
    makespan: float  # virtual seconds
    visits: int
    edge_inserts: int
    edge_deletes: int
    messages_local: int
    messages_remote: int
    control_messages: int
    busy_time_total: float
    updates_squashed: int = 0  # UPDATEs coalesced in visitor queues (§II-D)
    batch_sends: int = 0  # send_many fan-out batches emitted
    bulk_chunks: int = 0  # bulk-ingest chunks drained (fast path)
    bulk_events: int = 0  # events ingested via the bulk path
    fallback_flushes: int = 0  # bulk de-optimizations to per-event
    bulk_enabled: bool = False  # a bulk ingestor was attached to the engine
    # Per-cause delete attribution (RankCounters; algorithms/generations.py).
    deletes_safe: int = 0  # delete callbacks that cut nobody's support
    deletes_unsafe: int = 0  # delete callbacks that cut a support edge
    vertices_invalidated: int = 0  # freezes across all repair waves
    repair_visits: int = 0  # visits handling I/A/T/F protocol messages
    wall_seconds: float | None = None
    #: Wire/ring-health counters from the mp backend (ring_stalls,
    #: ring_pad_bytes, overflow_hwm_records, torn retries, ...); None
    #: for DES runs, which have no physical wire.
    wire: dict | None = None

    @property
    def events_per_second(self) -> float:
        """Topology events per virtual second — the headline metric."""
        return self.source_events / self.makespan if self.makespan > 0 else 0.0

    @property
    def mean_utilisation(self) -> float:
        """Average fraction of the makespan each rank spent busy."""
        if self.makespan <= 0 or self.n_ranks == 0:
            return 0.0
        return self.busy_time_total / (self.makespan * self.n_ranks)

    @property
    def visits_per_event(self) -> float:
        """Algorithm work amplification: callbacks per topology event."""
        return self.visits / self.source_events if self.source_events else 0.0

    @property
    def squash_fraction(self) -> float:
        """Fraction of emitted data-lane messages that were coalesced
        away in a visitor queue instead of being dispatched (§II-D)."""
        emitted = self.messages_local + self.messages_remote + self.updates_squashed
        return self.updates_squashed / emitted if emitted else 0.0

    def summary(self) -> str:
        lines = [
            f"ranks={self.n_ranks} events={self.source_events:,} "
            f"makespan={format_seconds(self.makespan)} "
            f"rate={format_rate(self.source_events, self.makespan)}",
            f"  visits={self.visits:,} ({self.visits_per_event:.2f}/event) "
            f"inserts={self.edge_inserts:,} deletes={self.edge_deletes:,}",
            f"  msgs local={self.messages_local:,} remote={self.messages_remote:,} "
            f"ctrl={self.control_messages:,} util={self.mean_utilisation:.1%}",
            f"  coalescing: updates_squashed={self.updates_squashed:,} "
            f"({self.squash_fraction:.1%} of emissions) "
            f"batch_sends={self.batch_sends:,}",
        ]
        # The bulk line always prints for a run with a bulk ingestor, even
        # with all counters at 0: "the fast path never engaged" is
        # exactly what the user needs to see then.
        if (
            self.bulk_enabled
            or self.bulk_chunks
            or self.bulk_events
            or self.fallback_flushes
        ):
            lines.append(
                f"  bulk ingest: chunks={self.bulk_chunks:,} "
                f"events={self.bulk_events:,} "
                f"fallback_flushes={self.fallback_flushes:,}"
            )
        if self.edge_deletes or self.deletes_safe or self.deletes_unsafe:
            lines.append(
                f"  deletes: safe={self.deletes_safe:,} "
                f"unsafe={self.deletes_unsafe:,} "
                f"vertices_invalidated={self.vertices_invalidated:,} "
                f"repair_visits={self.repair_visits:,}"
            )
        if self.wall_seconds is not None:
            lines.append(
                f"  simulator wall time: {format_seconds(self.wall_seconds)}"
            )
        if self.wire is not None:
            lines.append(
                f"  rings: stalls={self.wire.get('ring_stalls', 0):,} "
                f"pad_bytes={self.wire.get('ring_pad_bytes', 0):,} "
                f"overflow_hwm={self.wire.get('overflow_hwm_records', 0):,} "
                f"torn_retries={self.wire.get('ring_torn_retries', 0):,}"
            )
        return "\n".join(lines)

    def to_dict(self) -> dict:
        """Every field plus the derived metrics, JSON-ready.  The
        benchmark harness and ``repro run --json`` both emit exactly
        this, so the machine-readable artifact can never drift from the
        report's fields."""
        d = asdict(self)
        d["events_per_second"] = self.events_per_second
        d["mean_utilisation"] = self.mean_utilisation
        d["visits_per_event"] = self.visits_per_event
        d["squash_fraction"] = self.squash_fraction
        return d


def _delete_causes(total: RankCounters) -> dict[str, int]:
    return {name: getattr(total, name) for name in DELETE_CAUSE_COUNTERS}


def throughput_report(engine, wall_seconds: float | None = None) -> ThroughputReport:
    """Build a :class:`ThroughputReport` from a (finished) engine."""
    total = engine.total_counters()
    return ThroughputReport(
        n_ranks=engine.config.n_ranks,
        source_events=total.source_events,
        makespan=engine.loop.max_time(),
        visits=total.visits,
        edge_inserts=total.edge_inserts,
        edge_deletes=total.edge_deletes,
        messages_local=total.messages_sent_local,
        messages_remote=total.messages_sent_remote,
        control_messages=total.control_messages,
        busy_time_total=total.busy_time,
        updates_squashed=total.updates_squashed,
        batch_sends=total.batch_sends,
        bulk_chunks=total.bulk_chunks,
        bulk_events=total.bulk_events,
        fallback_flushes=total.fallback_flushes,
        bulk_enabled=engine._bulk is not None,
        wall_seconds=wall_seconds,
        **_delete_causes(total),
    )


def parallel_throughput_report(result) -> ThroughputReport:
    """Build a :class:`ThroughputReport` from a
    :class:`~repro.parallel.runner.ParallelResult`.

    The mp backend has no virtual clock, so ``makespan`` is the wall
    time (``events_per_second`` then matches
    ``result.events_per_second``), and the wire/ring-health counters
    land in :attr:`ThroughputReport.wire` — the post-mortem view of shm
    backpressure the DES never has.
    """
    total = result.counters
    return ThroughputReport(
        n_ranks=result.n_ranks,
        source_events=total.source_events,
        makespan=result.wall_seconds,
        visits=total.visits,
        edge_inserts=total.edge_inserts,
        edge_deletes=total.edge_deletes,
        messages_local=total.messages_sent_local,
        messages_remote=result.wire.get("wire_sent", 0),
        control_messages=total.control_messages,
        busy_time_total=total.busy_time,
        updates_squashed=total.updates_squashed
        + result.wire.get("outbuf_squashed", 0)
        + result.wire.get("inbox_squashed", 0),
        batch_sends=result.wire.get("batch_sends", 0),
        wall_seconds=result.wall_seconds,
        wire=dict(result.wire),
        **_delete_causes(total),
    )
