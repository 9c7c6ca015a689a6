"""The six workloads: set-up, timed run, verification.

Each workload is three functions over a plain context dict:

* ``setup(seed, sizes)`` — generate one input from the seed and build
  everything the program needs before the clock starts (streams,
  engine via ``EngineBuilder`` + plugins, serving layer, preload).
  Timed by the caller as ``setup_s``.
* ``run(ctx, trace)`` — the timed region; returns a :class:`Pass`.
* ``verify(ctx, result)`` — untimed; returns how many of the pass's
  operations failed against the static oracle.

All loads are closed loop from one process: saturation ingest pulls the
next event when the rank is ready, ``serve_mixed`` and ``update_step``
have exactly one client.  The program receives only generated arrays.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np

import spec
from trace import DRIVER_LAYER, LayerTrace

from repro import (
    ADD,
    INF,
    EngineConfig,
    GenerationalBFS,
    GenerationalCC,
    GenerationalSSSP,
    GenerationalST,
    GenerationalWidest,
    IncrementalBFS,
    IncrementalCC,
    ListEventStream,
    ServingLayer,
    split_streams,
)
from repro.analytics.verify import (
    verify_bfs,
    verify_cc,
    verify_sssp,
    verify_st,
    verify_widest,
)
from repro.generators import rmat_edges
from repro.generators.churn import churn_events, split_churn_streams
from repro.obs.distributed import ObsConfig
from repro.parallel import WireConfig, run_parallel
from repro.runtime.lifecycle import EngineBuilder
from repro.runtime.plugins import BulkIngestPlugin
from repro.serving.workload import make_prefix_oracle
from repro.staticalgs.algorithms import static_bfs, static_cc
from repro.storage.csr import CSRGraph


@dataclass
class Pass:
    """What one timed pass over one input measured."""

    events: int  # source events ingested in the timed region
    ops: int  # operations attempted (the failed_frac denominator)
    #: ns on the clock per timed element, by kind: "ingest" (one element
    #: per engine.run / run_parallel call), "query", "update".  The
    #: order repeats across rounds of one input, so the fastest
    #: observation of each element can be taken.
    elements_ns: dict[str, np.ndarray]
    failed_ops: int = 0  # failures seen during the run itself
    #: exact counters at the layer boundaries (summed over a run's inputs)
    counts: dict[str, float] = field(default_factory=dict)
    outputs: Any = None  # what verify() needs; equal across rounds of one input


# ----------------------------------------------------------------------
# shared pieces
# ----------------------------------------------------------------------
def rmat_input(scale: int, seed: int, weighted: bool = True):
    """The common input: RMAT edges with pair-hashed weights, so a
    re-observed edge keeps its weight (the SSSP/REMO re-add contract)."""
    src, dst = rmat_edges(
        scale, edge_factor=spec.EDGE_FACTOR, rng=np.random.default_rng(seed)
    )
    if not weighted:
        return src, dst, None
    lo, hi = np.minimum(src, dst), np.maximum(src, dst)
    return src, dst, (lo * 31 + hi) % 7 + 1


def build_engine(programs: list, inits: list[tuple], plugins: tuple = ()):
    """An engine whose programs are initialised on the still-empty
    graph, before any stream is attached.

    Letting the init visitors race the first stream pulls makes the
    work bimodal in the seed: if the BFS source's rank ingests first,
    ``on_init`` floods ~10^4 per-event visits over the edges already
    there (de-optimizing the bulk path for a chunk); if not, none."""
    engine = (
        EngineBuilder()
        .with_programs(programs)
        .with_config(EngineConfig(n_ranks=spec.N_RANKS))
        .with_plugins(plugins)
        .build()
    )
    for init in inits:
        engine.init_program(*init)
    engine.run()
    return engine


def drain(engine, slice_actions: int | None) -> np.ndarray:
    """Run the engine to quiescence; returns the ns of each
    ``engine.run`` call.  ``slice_actions`` cuts the run into calls of
    that many DES actions (a few ms each): the same work, but in
    elements short enough for their fastest observation across rounds
    to land between the host's slow phases.  ``None`` is one call —
    the bulk path flushes its dense mirror at the end of every call,
    so slicing it would change what is measured."""
    clock = time.perf_counter_ns
    calls_ns = []
    while True:
        t0 = clock()
        engine.run(max_actions=slice_actions)
        calls_ns.append(clock() - t0)
        if slice_actions is None or engine.loop.quiescent():
            return np.array(calls_ns)


_RANK_COUNTERS = (
    "visits",
    "source_events",
    "edge_inserts",
    "edge_deletes",
    "bulk_chunks",
    "fallback_flushes",
)


def engine_counts(engine, since: dict[str, int] | None = None) -> dict[str, int]:
    """The program's own counters (exact per seed), as the increase
    since an earlier reading — the one taken when the clock started."""
    total = engine.total_counters()
    out = {name: getattr(total, name) for name in _RANK_COUNTERS}
    out["messages_delivered"] = engine.loop.messages_delivered
    out["messages_squashed"] = engine.loop.messages_squashed
    if since is not None:
        out = {name: value - since[name] for name, value in out.items()}
    return out


def pooled_counts(passes: list[Pass]) -> dict[str, float]:
    """One run's counts: the passes' (one per input) summed — except
    high-water marks, which take the maximum, and the mp rank skew,
    a ratio, which is averaged — plus the ratios derived from them."""
    out: dict[str, float] = {}
    for p in passes:
        for key, value in p.counts.items():
            if key.endswith("hwm_bytes"):
                out[key] = max(out.get(key, 0), value)
            else:
                out[key] = out.get(key, 0) + value
    if "parallel.worker.rank_skew" in out:
        out["parallel.worker.rank_skew"] /= len(passes)
    out.update(_derived_counts(out, sum(p.events for p in passes)))
    return out


def _derived_counts(counts: dict[str, float], events: int) -> dict[str, float]:
    """The per-layer counts and ratios of :data:`spec.LAYER_COUNTS`
    from summed raw counters."""
    delivered = counts.get("messages_delivered", 0)
    squashed = counts.get("messages_squashed", 0)
    lookups = counts.get("cache_hits", 0) + counts.get("cache_misses", 0)
    return {
        "algorithms.visits_per_event": counts.get("visits", 0) / events,
        "comm.des.msgs_per_event": delivered / events,
        "comm.des.squash_frac": squashed / (delivered + squashed or 1),
        "runtime.bulk.chunks": counts.get("bulk_chunks", 0),
        "runtime.bulk.fallback_flushes": counts.get("fallback_flushes", 0),
        "serving.cache.hit_rate": counts.get("cache_hits", 0) / (lookups or 1),
        "serving.cache.admissions": counts.get("cache_admissions", 0),
        "serving.cache.invalidations": counts.get("cache_invalidations", 0),
    }


class _OneRank:
    @staticmethod
    def owner(_vertex: int) -> int:
        return 0


class _Degrees:
    def __init__(self, edges):
        self._degree: dict[int, int] = {}
        for src, _dst, _w in edges:
            self._degree[src] = self._degree.get(src, 0) + 1

    def degree(self, vertex: int) -> int:
        return self._degree.get(vertex, 0)


class StateView:
    """A harvested churn state in the engine shape the
    ``repro.analytics.verify`` checkers consume (``state`` / ``edges``
    / ``partitioner`` / ``stores``)."""

    def __init__(self, edges: list[tuple[int, int, int]], states: dict[str, dict]):
        self._edges = edges
        self._states = states
        self.partitioner = _OneRank()
        self.stores = [_Degrees(edges)]

    def state(self, prog: str) -> dict:
        return self._states[prog]

    def edges(self):
        return iter(self._edges)


# ----------------------------------------------------------------------
# ingest_event / ingest_bulk
# ----------------------------------------------------------------------
def _setup_ingest(seed: int, scale: int, plugins: tuple, slice_actions: int | None) -> dict:
    src, dst, w = rmat_input(scale, seed)
    source = int(src[0])
    engine = build_engine([IncrementalBFS(), IncrementalCC()], [("bfs", source)], plugins)
    engine.attach_streams(
        split_streams(
            src, dst, spec.N_RANKS, weights=w, rng=np.random.default_rng(seed + 1)
        )
    )
    return {
        "input": (src, dst, w),
        "source": source,
        "engine": engine,
        "slice_actions": slice_actions,
    }


def setup_ingest_event(seed: int, sizes: spec.Sizes) -> dict:
    return _setup_ingest(seed, sizes.event_scale, (), sizes.slice_actions)


def setup_ingest_bulk(seed: int, sizes: spec.Sizes) -> dict:
    return _setup_ingest(seed, sizes.bulk_scale, (BulkIngestPlugin(),), None)


def run_ingest(ctx: dict, trace: LayerTrace | None) -> Pass:
    engine = ctx["engine"]
    events = len(ctx["input"][0])
    before = engine_counts(engine)
    calls_ns = drain(engine, ctx["slice_actions"])
    return Pass(
        events=events,
        ops=events,
        elements_ns={"ingest": calls_ns},
        failed_ops=0 if engine.loop.quiescent() else events,
        counts=engine_counts(engine, since=before),
        outputs={"bfs": engine.state("bfs"), "cc": engine.state("cc")},
    )


def _bfs_mismatch(state: dict[int, int], graph: CSRGraph, source: int) -> bool:
    """Does a harvested BFS state differ from static BFS?  (0 and INF
    both mean unreached, as in ``repro.analytics.verify``.)"""
    expect, _ = static_bfs(graph, source)
    if any(state.get(v, 0) != level for v, level in expect.items()):
        return True
    return any(v not in expect for v, x in state.items() if x != 0 and x < INF)


def verify_bfs_cc(ctx: dict, result: Pass) -> int:
    """Static BFS and CC on the *input* edges (not read back from the
    engine, so a dropped edge shows as a value mismatch), through the
    vectorized CSR build: the engine-shaped checkers would rebuild the
    graph edge by edge in Python, twice."""
    src, dst, w = ctx["input"]
    graph = CSRGraph.from_edges(src, dst, w, symmetrize=True)
    wrong = _bfs_mismatch(result.outputs["bfs"], graph, ctx["source"])
    if "cc" in result.outputs:
        labels, _ = static_cc(graph)
        cc = result.outputs["cc"]
        wrong |= cc.keys() != labels.keys() or any(cc[v] != x for v, x in labels.items())
    return result.ops if wrong else 0


# ----------------------------------------------------------------------
# ingest_mp
# ----------------------------------------------------------------------
#: ring_capacity is explicit on purpose: with the default 1 MiB ring a
#: rank dies on "slab of N bytes exceeds ring capacity" at >= 65K events
#: and the parent waits out its whole timeout (see README).
MP_WIRE = WireConfig(
    kind="shm", start_method="fork", batch_max=512, ring_capacity=1 << 26
)


def setup_ingest_mp(seed: int, sizes: spec.Sizes) -> dict:
    src, dst, w = rmat_input(sizes.bulk_scale, seed)
    streams = split_streams(
        src, dst, spec.MP_RANKS, weights=w, rng=np.random.default_rng(seed + 1)
    )
    return {"input": (src, dst, w), "source": int(src[0]), "streams": streams}


def run_ingest_mp(ctx: dict, trace: LayerTrace | None) -> Pass:
    events = len(ctx["input"][0])
    t0 = time.perf_counter_ns()
    res = run_parallel(
        [IncrementalBFS(), IncrementalCC()],
        ctx["streams"],
        config=EngineConfig(n_ranks=spec.MP_RANKS),
        wire=MP_WIRE,
        init=[("bfs", ctx["source"], None)],
        timeout=spec.CHILD_TIMEOUT_S / 4,
        obs=ObsConfig(trace=True, metrics=True) if trace is not None else None,
    )
    wall_ns = time.perf_counter_ns() - t0
    counts: dict[str, float] = {
        "visits": res.counters.visits,
        "source_events": res.counters.source_events,
    }
    if trace is not None:
        counts.update(mp_layer_metrics(res, wall_ns / 1e9))
    return Pass(
        events=events,
        ops=events,
        elements_ns={"ingest": np.array([wall_ns])},
        failed_ops=0 if res.source_events == events else events,
        counts=counts,
        outputs={"bfs": res.state("bfs"), "cc": res.state("cc")},
    )


def mp_layer_metrics(res, call_wall: float) -> dict[str, float]:
    """Per-layer numbers for the mp backend, through public parameters
    only: per-rank phase spans from ``ObsConfig(trace=True)`` (max over
    ranks, because the slowest rank sets the wall) and the wire/ring
    harvest on the result."""
    phase = {p: [0.0] * res.n_ranks for p in spec.MP_PHASES}
    for _ph, rank, name, _cat, _ts, dur, _args in res.obs.tracer.events:
        if name in phase:
            phase[name][rank] += dur
    out = {f"parallel.worker.{p}_s": max(per_rank) for p, per_rank in phase.items()}
    busy = max(r["busy_seconds"] for r in res.obs.per_rank)
    wire = res.wire
    out.update(
        {
            "parallel.worker.rank_skew": res.obs.skew(),
            "parallel.runner.self_s": call_wall - busy,
            "parallel.codec.wire_records": wire["wire_sent"],
            "parallel.codec.pickle_records": wire["pickle_records"],
            "parallel.shm.ring_pushes": wire["ring_pushes"],
            "parallel.shm.ring_stalls": wire["ring_stalls"],
            "parallel.shm.overflow_pushes": wire["overflow_pushes"],
            "parallel.shm.ring_hwm_bytes": wire["ring_hwm_bytes"],
            "parallel.shm.pad_bytes": wire["ring_pad_bytes"],
            "parallel.vecapply.kernel_records": wire.get("kernel_records", 0),
            "parallel.vecapply.kernel_rounds": wire.get("kernel_rounds", 0),
            "parallel.vecapply.kernel_relaxations": wire.get("kernel_relaxations", 0),
            "parallel.termination.token_rounds": res.token_rounds,
        }
    )
    return out


# ----------------------------------------------------------------------
# churn
# ----------------------------------------------------------------------
def setup_churn(seed: int, sizes: spec.Sizes) -> dict:
    cols = churn_events(
        sizes.churn_vertices,
        sizes.churn_adds,
        delete_ratio=spec.CHURN_DELETE_RATIO,
        rng=np.random.default_rng(seed),
    )
    st = GenerationalST()
    st.register_source(0)
    st.register_source(1)
    engine = build_engine(
        [GenerationalBFS(), GenerationalSSSP(), GenerationalCC(), st, GenerationalWidest()],
        [("gen-bfs", 0), ("gen-sssp", 0), ("gen-st", 0, 0), ("gen-st", 1, 1), ("gen-widest", 0)],
    )
    engine.attach_streams(split_churn_streams(*cols, spec.N_RANKS))
    return {"events": len(cols[0]), "engine": engine, "slice_actions": sizes.slice_actions}


def run_churn(ctx: dict, trace: LayerTrace | None) -> Pass:
    engine, events = ctx["engine"], ctx["events"]
    before = engine_counts(engine)
    calls_ns = drain(engine, ctx["slice_actions"])
    return Pass(
        events=events,
        ops=events,
        elements_ns={"ingest": calls_ns},
        failed_ops=0 if engine.loop.quiescent() else events,
        counts=engine_counts(engine, since=before),
        # Deletes make the final topology a function of event order, so
        # here the oracle runs on the engine's own surviving edges.
        outputs={
            "edges": list(engine.edges()),
            "states": {p.name: engine.state(p.name) for p in engine.programs},
        },
    )


def verify_churn(ctx: dict, result: Pass) -> int:
    view = StateView(result.outputs["edges"], result.outputs["states"])
    # Raw generational tags depend on interleaving; the projections
    # (distance / label / mask / capacity) are the comparison domain.
    second = lambda v: v[1]  # noqa: E731
    mismatches = (
        verify_bfs(view, "gen-bfs", 0, value_of=second)
        + verify_sssp(view, "gen-sssp", 0, value_of=second)
        + verify_cc(view, "gen-cc", value_of=second)
        + verify_st(view, "gen-st", [0, 1], value_of=GenerationalST.mask_of)
        + verify_widest(view, "gen-widest", 0, value_of=second)
    )
    # A final state that disagrees with the oracle fails every
    # operation of the pass: no event can be trusted individually.
    return result.ops if mismatches else 0


# ----------------------------------------------------------------------
# serve_mixed
# ----------------------------------------------------------------------
def setup_serve_mixed(seed: int, sizes: spec.Sizes) -> dict:
    src, dst, _ = rmat_input(sizes.event_scale, seed, weighted=False)
    source = int(src[0])
    reference, _ = static_bfs(CSRGraph.from_edges(src, dst, symmetrize=True), source)
    engine = build_engine([IncrementalBFS()], [("bfs", source)])
    engine.attach_streams(
        split_streams(src, dst, spec.N_RANKS, rng=np.random.default_rng(seed + 1))
    )
    serving = ServingLayer(engine)
    serving.set_reference("bfs", reference)
    rng = np.random.default_rng(seed + 2)
    pool = np.unique(np.concatenate([src, dst]))
    zipf = np.arange(1, len(pool) + 1, dtype=np.float64) ** -spec.ZIPF_ALPHA
    n_queries = sizes.queries_per_event * len(src) + sizes.final_queries
    targets = rng.choice(rng.permutation(pool), size=n_queries, p=zipf / zipf.sum())
    return {
        "input": (src, dst, None),
        "source": source,
        "reference": reference,
        "engine": engine,
        "serving": serving,
        "targets": targets.tolist(),
        "sizes": sizes,
    }


def _query_batch(serving, targets: list[int], lat_ns: np.ndarray, at: int, keep):
    """Serve ``targets`` one at a time, each timed; returns the number
    of stale answers.  ``keep`` collects the answers when the caller
    wants to check them against an oracle."""
    stale = 0
    clock = time.perf_counter_ns
    point = serving.point
    for i, vertex in enumerate(targets, at):
        t0 = clock()
        res = point("bfs", vertex)
        lat_ns[i] = clock() - t0
        stale += res.stale
        if keep is not None:
            keep.append(res)
    return stale


def _wrong_answers(answers: list, oracle: dict[int, int]) -> int:
    """Non-stale answers that differ from the static answer (absent
    from the oracle = statically unreached)."""
    bad = 0
    for res in answers:
        if res.stale:
            continue
        want = oracle.get(res.vertex)
        reached = res.value != 0 and res.value < INF
        if reached if want is None else res.value != want:
            bad += 1
    return bad


def run_serve_mixed(ctx: dict, trace: LayerTrace | None) -> Pass:
    engine, serving, sizes = ctx["engine"], ctx["serving"], ctx["sizes"]
    targets: list[int] = ctx["targets"]
    events = len(ctx["input"][0])
    n_mixed = sizes.queries_per_event * events
    lat_ns = np.zeros(n_mixed, dtype=np.int64)
    batch = _query_batch
    if trace is not None:
        batch = trace.wrap(DRIVER_LAYER, "query_batch", _query_batch)
    prefix_oracle = make_prefix_oracle(engine, "bfs", ctx["source"])
    before = engine_counts(engine)
    slices_ns: list[int] = []
    served = stale = wrong = batches = seen = 0
    while not engine.loop.quiescent():
        t0 = time.perf_counter_ns()
        engine.run(max_actions=sizes.slice_actions)
        slices_ns.append(time.perf_counter_ns() - t0)
        now = engine.ingest_watermark()
        n = sizes.queries_per_event * (now - seen)
        seen = now
        if not n:
            continue
        batches += 1
        # Not under trace: the oracle reads the stores through the
        # wrapped accessors and would be booked as layer time.
        check = trace is None and batches % sizes.oracle_every == 0
        keep = [] if check else None
        stale += batch(serving, targets[served : served + n], lat_ns, served, keep)
        served += n
        if keep is not None:
            wrong += _wrong_answers(keep, prefix_oracle())
    # Converged tail: drained engine, so every answer must be exact.
    final: list = []
    tail_ns = np.zeros(sizes.final_queries, dtype=np.int64)
    final_stale = _query_batch(serving, targets[served:], tail_ns, 0, final)
    wrong += final_stale + _wrong_answers(final, ctx["reference"])
    cache = serving.cache.stats()
    counts = engine_counts(engine, since=before)
    counts.update(
        stale_answers=stale,
        answers=served,
        cache_hits=cache["hits"],
        cache_misses=cache["misses"],
        cache_admissions=cache["admissions"],
        cache_invalidations=cache["invalidations"],
    )
    return Pass(
        events=events,
        ops=events + served + sizes.final_queries,
        elements_ns={"ingest": np.array(slices_ns), "query": lat_ns},
        failed_ops=wrong + (0 if served == n_mixed else events),
        counts=counts,
        outputs={"bfs": engine.state("bfs")},
    )




# ----------------------------------------------------------------------
# update_step
# ----------------------------------------------------------------------
def setup_update_step(seed: int, sizes: spec.Sizes) -> dict:
    src, dst, w = rmat_input(sizes.event_scale, seed)
    source = int(src[0])
    order = np.random.default_rng(seed + 1).permutation(len(src))
    head, tail = order[: -sizes.update_tail], order[-sizes.update_tail :]
    engine = build_engine([IncrementalBFS(), IncrementalCC()], [("bfs", source)])
    engine.attach_streams(
        split_streams(src[head], dst[head], spec.N_RANKS, weights=w[head])
    )
    engine.run()  # preload at saturation: part of set-up, not of the run
    updates = list(
        zip([ADD] * len(tail), src[tail].tolist(), dst[tail].tolist(), w[tail].tolist())
    )
    return {"input": (src, dst, w), "source": source, "engine": engine, "updates": updates}


def _apply_updates(engine, updates: list[tuple], lat_ns: np.ndarray) -> None:
    """One client, closed loop: attach one event, run to quiescence,
    time the pair, repeat."""
    clock = time.perf_counter_ns
    n_ranks = spec.N_RANKS
    for i, ev in enumerate(updates):
        t0 = clock()
        engine.attach_stream(i % n_ranks, ListEventStream([ev]))
        engine.run()
        lat_ns[i] = clock() - t0


def run_update_step(ctx: dict, trace: LayerTrace | None) -> Pass:
    engine, updates = ctx["engine"], ctx["updates"]
    lat_ns = np.zeros(len(updates), dtype=np.int64)
    apply = _apply_updates
    if trace is not None:
        apply = trace.wrap(DRIVER_LAYER, "update_loop", _apply_updates)
    before = engine_counts(engine)
    apply(engine, updates, lat_ns)
    return Pass(
        events=len(updates),
        ops=len(updates),
        elements_ns={"update": lat_ns},
        failed_ops=0 if engine.loop.quiescent() else len(updates),
        counts=engine_counts(engine, since=before),
        outputs={"bfs": engine.state("bfs"), "cc": engine.state("cc")},
    )


# ----------------------------------------------------------------------
# the table
# ----------------------------------------------------------------------
#: The set-up context entries ``verify`` reads.  The caller keeps these
#: and drops the rest (the engine) before the next pass.
VERIFY_KEYS = ("input", "source")


@dataclass(frozen=True)
class Workload:
    setup: Callable[[int, spec.Sizes], dict]
    run: Callable[[dict, LayerTrace | None], Pass]
    verify: Callable[[dict, Pass], int]
    #: Program classes whose callbacks form the ``algorithms`` layer.
    programs: tuple[type, ...]
    #: The element kind whose total is the denominator of events_per_s.
    clock: str = "ingest"


_BFS_CC = (IncrementalBFS, IncrementalCC)
_GENERATIONAL = (
    GenerationalBFS,
    GenerationalSSSP,
    GenerationalCC,
    GenerationalST,
    GenerationalWidest,
)
WORKLOADS: dict[str, Workload] = {
    "ingest_event": Workload(setup_ingest_event, run_ingest, verify_bfs_cc, _BFS_CC),
    "ingest_bulk": Workload(setup_ingest_bulk, run_ingest, verify_bfs_cc, _BFS_CC),
    "ingest_mp": Workload(setup_ingest_mp, run_ingest_mp, verify_bfs_cc, _BFS_CC),
    "churn": Workload(setup_churn, run_churn, verify_churn, _GENERATIONAL),
    "serve_mixed": Workload(
        setup_serve_mixed, run_serve_mixed, verify_bfs_cc, (IncrementalBFS,)
    ),
    "update_step": Workload(
        setup_update_step, run_update_step, verify_bfs_cc, _BFS_CC, clock="update"
    ),
}
