"""Parent-side orchestration of the process-parallel backend.

:func:`run_parallel` is the mp analogue of building a
:class:`DynamicEngine` and calling ``run()``: it creates one shm ring per
ordered rank pair (the data plane) and a duplex-pipe mesh (one
:func:`multiprocessing.Pipe` per unordered rank pair, control frames
only), spawns one worker process per rank
(:func:`repro.parallel.worker.worker_main`), and blocks until every
rank ships its post-quiescence state harvest back on its parent pipe.
It also decides, once and for every rank, whether the run may drain
vectorized: only when every stream is add-only (deletes always run
per-event, on all ranks).
The returned :class:`ParallelResult` merges the per-rank values,
counters and wire statistics; :class:`ParallelStateView` gives it the
``state`` / ``edges`` pair the :mod:`repro.analytics.verify` checkers
read, so the exact same checkers validate both backends.
"""

from __future__ import annotations

import multiprocessing
import time
from dataclasses import dataclass, field
from multiprocessing.connection import wait as conn_wait
from typing import Any, Iterable

import numpy as np

from repro.comm.costmodel import RankCounters
from repro.events.stream import ADD, ArrayEventStream, EventStream
from repro.obs.distributed import ClockAnchor, merge_rank_obs
from repro.parallel.shm import ShmRing, create_ring
from repro.parallel.wire import FRAME_ERROR, FRAME_RESULT, WireConfig
from repro.parallel.worker import worker_main
from repro.partition.partitioners import ConsistentHashPartitioner
from repro.runtime.engine import EngineConfig


@dataclass
class ParallelResult:
    """The merged outcome of one process-parallel run."""

    n_ranks: int
    prog_names: list[str]
    states: dict[str, dict[int, Any]]
    counters: RankCounters
    wire: dict[str, int]
    per_rank: list[dict[str, Any]]
    token_rounds: int
    wall_seconds: float
    partition_salt: int
    edges: list[tuple[int, int, int]] | None = None
    #: Merged telemetry capture (repro.obs.distributed.MergedObs) when
    #: the run was launched with an ObsConfig; None otherwise.
    obs: Any = None
    partitioner: ConsistentHashPartitioner = field(init=False)

    def __post_init__(self) -> None:
        self.partitioner = ConsistentHashPartitioner(
            self.n_ranks, salt=self.partition_salt
        )

    def state(self, prog: int | str) -> dict[int, Any]:
        """A program's merged final state (name or index)."""
        name = self.prog_names[prog] if isinstance(prog, int) else prog
        return self.states[name]

    @property
    def source_events(self) -> int:
        return self.counters.source_events

    @property
    def events_per_second(self) -> float:
        """Wall-clock topology events/s (the scaling metric)."""
        if self.wall_seconds <= 0:
            return 0.0
        return self.source_events / self.wall_seconds

    @property
    def ring_health(self) -> dict[str, int]:
        """The shm data plane's backpressure/framing counters:
        ring/overflow/pad/pickle/doorbell keys from the aggregated wire
        stats."""
        prefixes = ("ring_", "overflow_", "pickle_", "doorbell")
        return {k: v for k, v in self.wire.items() if k.startswith(prefixes)}

    def to_dict(self) -> dict[str, Any]:
        doc: dict[str, Any] = {
            "backend": "mp",
            "ranks": self.n_ranks,
            "source_events": self.source_events,
            "wall_seconds": self.wall_seconds,
            "wall_events_per_second": self.events_per_second,
            "token_rounds": self.token_rounds,
            "wire": dict(self.wire),
            "ring_health": self.ring_health,
            "visits": self.counters.visits,
            "edge_inserts": self.counters.edge_inserts,
            "updates_squashed": self.counters.updates_squashed,
            "busy_time": self.counters.busy_time,
        }
        if self.obs is not None:
            doc["obs"] = self.obs.summary()
        return doc


class ParallelStateView:
    """Adapts a :class:`ParallelResult` to what the static-oracle
    checkers read (``state`` / ``edges``).  Requires the run to have
    harvested topology (``run_parallel(..., collect_edges=True)``)."""

    def __init__(self, result: ParallelResult):
        if result.edges is None:
            raise ValueError(
                "verification needs harvested topology: run with "
                "collect_edges=True"
            )
        self._result = result

    def state(self, prog: int | str) -> dict[int, Any]:
        return self._result.state(prog)

    def edges(self) -> Iterable[tuple[int, int, int]]:
        return iter(self._result.edges or [])


def _stream_columns(stream: EventStream) -> tuple:
    """Materialise a stream as picklable int64 columns
    ``(src, dst, weights, kinds)`` for shipping to a worker."""
    if isinstance(stream, ArrayEventStream):
        return stream.columns()
    events = list(stream)
    src = np.array([e[1] for e in events], dtype=np.int64)
    dst = np.array([e[2] for e in events], dtype=np.int64)
    weights = np.array([e[3] for e in events], dtype=np.int64)
    kinds = np.array([e[0] for e in events], dtype=np.int64)
    return (src, dst, weights, kinds)


def run_parallel(
    programs: list,
    streams: list[EventStream],
    config: EngineConfig | None = None,
    wire: WireConfig | None = None,
    init: list[tuple[Any, int, Any]] | None = None,
    collect_edges: bool = False,
    timeout: float = 600.0,
    obs: Any = None,
) -> ParallelResult:
    """Execute one saturation run with each rank as a real OS process.

    ``programs``/``streams``/``config``/``init`` mirror the DES setup
    (``init`` is the ``(prog, vertex, payload)`` triples normally passed
    to ``engine.init_program``); programs must be picklable.
    ``collect_edges`` additionally harvests every rank's stored edges so
    the result can be verified against the static oracle.  ``obs`` (an
    :class:`repro.obs.distributed.ObsConfig`) turns on per-rank
    wall-clock telemetry, harvested and merged into ``result.obs``.
    Engine plugins are a DES concern and do not ride into workers.
    """
    config = config or EngineConfig()
    wire = wire or WireConfig()
    if obs is not None and not obs.enabled:
        obs = None
    # The parent epoch every rank's capture is aligned against must be
    # sampled before any worker can sample its own.
    parent_anchor = ClockAnchor.capture() if obs is not None else None
    n = config.n_ranks
    # Caller mistakes surface here, as one line, before any ring or
    # process exists — not as a child traceback from whichever rank owns
    # the vertex.
    if len(streams) > n:
        raise ValueError(f"{len(streams)} streams for {n} ranks")
    names = [p.name for p in programs]
    for prog, _vertex, _payload in init or ():
        if prog not in names and not (isinstance(prog, int) and 0 <= prog < len(names)):
            raise ValueError(f"init: no program {prog!r} among {names}")
    columns: list[tuple | None] = [None] * n
    for r, stream in enumerate(streams):
        columns[r] = _stream_columns(stream)
    # Add-only iff every stream column *provably* carries only ADDs
    # (kinds None means pure ADD by ArrayEventStream construction) —
    # gates the vectorized drain, for all ranks at once: deletes never
    # run vectorized, and a worker that finds a slab of the other mode
    # on its ring raises.  The check is against ADD, not against DELETE: an
    # unknown kind value must conservatively disqualify the stream,
    # never slip through the fast path.
    add_only = all(
        cols is None or cols[3] is None or bool((cols[3] == ADD).all())
        for cols in columns
    )

    ctx = multiprocessing.get_context(wire.start_method)
    # Control mesh: one duplex pipe per unordered rank pair; each end is
    # a private FIFO channel in each direction.  The data plane is one
    # SPSC ring per *ordered* pair, created here and unlinked in the
    # finally (a 1-rank run has no pairs, so neither pipes nor rings).
    peer_conns: list[dict[int, Any]] = [{} for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            a, b = ctx.Pipe(duplex=True)
            peer_conns[i][j] = a
            peer_conns[j][i] = b
    rings: dict[tuple[int, int], ShmRing] = {
        (i, j): create_ring(wire.ring_capacity)
        for i in range(n)
        for j in range(n)
        if i != j
    }
    ring_names = {pair: r.name for pair, r in rings.items()}
    parent_conns = []
    procs = []
    t0 = time.perf_counter()
    try:
        for rank in range(n):
            parent_end, child_end = ctx.Pipe(duplex=False)
            proc = ctx.Process(
                target=worker_main,
                name=f"repro-mp-rank{rank}",
                args=(
                    rank,
                    n,
                    child_end,
                    peer_conns[rank],
                    programs,
                    config,
                    columns[rank],
                    list(init or []),
                    wire,
                    collect_edges,
                    ring_names,
                    add_only,
                    obs,
                ),
                daemon=True,
            )
            proc.start()
            parent_conns.append(parent_end)
            procs.append(proc)
            child_end.close()
        # The children hold duplicated handles now; release the parent's.
        for rank in range(n):
            for conn in peer_conns[rank].values():
                conn.close()
            peer_conns[rank] = {}

        results: dict[int, dict[str, Any]] = {}
        deadline = t0 + timeout
        pending = {parent_conns[r]: r for r in range(n)}
        while pending:
            remaining = deadline - time.perf_counter()
            if remaining <= 0:
                raise TimeoutError(
                    f"mp run exceeded {timeout}s with ranks "
                    f"{sorted(pending.values())} outstanding"
                )
            ready = conn_wait(list(pending), timeout=min(remaining, 1.0))
            for conn in ready:
                rank = pending.pop(conn)
                try:
                    frame = conn.recv()
                except EOFError:
                    raise RuntimeError(
                        f"rank {rank} died without reporting "
                        f"(exitcode={procs[rank].exitcode})"
                    ) from None
                if frame[0] == FRAME_ERROR:
                    raise RuntimeError(f"rank {frame[1]} failed:\n{frame[2]}")
                assert frame[0] == FRAME_RESULT
                results[rank] = frame[1]
        wall = time.perf_counter() - t0
        for proc in procs:
            proc.join(timeout=30.0)
    finally:
        for conn in parent_conns:
            conn.close()
        for rank_conns in peer_conns:
            for conn in rank_conns.values():
                conn.close()
        for proc in procs:
            if proc.is_alive():
                proc.terminate()
                proc.join(timeout=10.0)
        for r in rings.values():
            r.destroy()

    per_rank = [results[r] for r in range(n)]
    states: dict[str, dict[int, Any]] = {name: {} for name in names}
    counters = RankCounters()
    # Aggregate the stats the loops reported: sums, except high-water
    # marks which take the max.
    wire_totals: dict[str, int] = {}
    edges: list[tuple[int, int, int]] | None = [] if collect_edges else None
    for info in per_rank:
        for name, values in info["values"].items():
            states[name].update(values)
        counters = counters.merge(info["counters"])
        for key, value in info["wire"].items():
            if "hwm" in key:
                wire_totals[key] = max(wire_totals.get(key, 0), value)
            else:
                wire_totals[key] = wire_totals.get(key, 0) + value
        if edges is not None:
            edges.extend(info["edges"])
    if wire_totals["wire_sent"] != wire_totals["wire_received"]:
        raise AssertionError(
            "wire counters unbalanced after a concluded run: "
            f"{wire_totals['wire_sent']} sent vs "
            f"{wire_totals['wire_received']} received"
        )
    merged_obs: Any = None
    if parent_anchor is not None:
        # Pop the payloads out of per_rank so the (potentially large)
        # event lists are not duplicated in the result document.
        payloads = [info.pop("obs") for info in per_rank if "obs" in info]
        merged_obs = merge_rank_obs(payloads, parent_anchor)
    return ParallelResult(
        n_ranks=n,
        prog_names=names,
        states=states,
        counters=counters,
        wire=wire_totals,
        per_rank=per_rank,
        token_rounds=per_rank[0].get("token_rounds", 0),
        wall_seconds=wall,
        partition_salt=config.partition_salt,
        edges=edges,
        obs=merged_obs,
    )
