"""On-line serving latency: sub-millisecond point reads during ingest.

The serving layer's three headline claims, measured:

1. **Cache >= 50x faster than quiescence collection** — a stable-value
   cache hit answers a point query in O(1) dict work; the honest
   alternative for an exact answer is the in-protocol versioned
   collection (cut -> drain -> harvest).  Both are timed on the same
   converged engine in the same process, so the ratio is
   host-independent.  The collection runs through the per-event engine,
   so the ratio *falls* when a change makes that path faster.
2. **>= 90% hit rate on a converged prefix** — once the engine drains,
   every miss admits, so a skewed (Zipf) query mix settles onto the
   cache.  Deterministic given the seeds.
3. **< 3% ingest overhead when enabled-but-idle** — the engine-side
   cost of an attached-but-unqueried serving layer is one truth test
   of the compiled ``on_write`` hook tuple per value write.
   Like ``bench_obs_overhead``, the guard is measured directly
   (noise-free) and multiplied by a pessimistic guards-per-event
   budget; a full attached-vs-plain A/B wall ratio is reported as
   context.

The converged point reads also keep a p99 ceiling: the point-read fast
path must stay O(1) dict work, and a bypassed cache costs orders of
magnitude, not the ~2x a slower host may.

Plus the serving profile: p50 / p99 / hit-rate / staleness under mixed
update+query load at several query:update ratios.
"""

import time

import numpy as np

from conftest import report_table
from harness import BENCH_SCALE, cost_model, fmt_table

from repro import DynamicEngine, EngineConfig, IncrementalBFS, split_streams
from repro.generators import rmat_edges
from repro.serving import MixedWorkloadDriver, ServingLayer, WorkloadSpec

SCALE = 10 + BENCH_SCALE
EDGE_FACTOR = 8
N_RANKS = 4
RATIOS = (0.01, 0.1, 0.5)  # queries per ingested event
N_CONVERGED = 5_000  # converged-phase query count
ZIPF_ALPHA = 1.4  # converged-phase target skew (rank^-alpha)
N_HIT_TIMING = 20_000  # cache-hit latency sample count
MIN_CACHE_SPEEDUP = 50.0
MIN_HIT_RATE = 0.90
# 2.5x the 10.3 us p99 measured at scale 0 on a 2-core x86-64 Linux
# host under Python 3.11.
MAX_P99_POINT_US = 25.8
# Pessimistic serve-guard budget per topology event: one guard per
# value write; an ADD + REVERSE_ADD pair rarely commits more than two
# improved values, budget four.
GUARDS_PER_EVENT = 4
MAX_IDLE_OVERHEAD = 0.03


def _workload(seed: int = 11):
    rng = np.random.default_rng(seed)
    src, dst = rmat_edges(SCALE, edge_factor=EDGE_FACTOR, rng=rng)
    return src, dst, int(src[0])


def _fresh_engine(src, dst, source, attach_serving: bool):
    engine = DynamicEngine(
        [IncrementalBFS()],
        EngineConfig(n_ranks=N_RANKS),
        cost_model=cost_model(),
    )
    engine.init_program("bfs", source)
    engine.attach_streams(
        split_streams(src, dst, N_RANKS, rng=np.random.default_rng(1))
    )
    serving = ServingLayer(engine) if attach_serving else None
    return engine, serving


def _mixed_profile(src, dst, source, pool):
    """Serve query batches during ingest at each query:update ratio."""
    out = []
    for ratio in RATIOS:
        engine, serving = _fresh_engine(src, dst, source, attach_serving=True)
        spec = WorkloadSpec(ratio=ratio, slice_actions=4096, seed=23)
        driver = MixedWorkloadDriver(serving, spec, pool, "bfs")
        res = driver.run()
        out.append(
            {
                "ratio": ratio,
                "queries": res.queries,
                "wall_p50_us": res.p50_us,
                "wall_p99_us": res.p99_us,
                # Mid-ingest hit rate depends on where slices pause, so
                # it is reported, not asserted.
                "hit_rate_mixed": res.hit_rate,
                "stale_frac": res.stale_served / res.queries if res.queries else 0.0,
            }
        )
    return out, engine, serving


def _converged_phase(serving, pool, rng):
    """Zipf-skewed point queries against the drained engine."""
    weights = np.arange(1, len(pool) + 1, dtype=np.float64) ** -ZIPF_ALPHA
    weights /= weights.sum()
    targets = rng.choice(rng.permutation(pool), size=N_CONVERGED, p=weights)
    cache = serving.cache
    hits0, misses0 = cache.hits, cache.misses
    lat_ns = np.empty(N_CONVERGED, dtype=np.int64)
    for i in range(N_CONVERGED):
        t0 = time.perf_counter_ns()
        res = serving.point("bfs", int(targets[i]))
        lat_ns[i] = time.perf_counter_ns() - t0
        assert not res.stale  # drained engine: every answer is exact
    hit_rate = (cache.hits - hits0) / (
        (cache.hits - hits0) + (cache.misses - misses0)
    )
    return {
        "queries": N_CONVERGED,
        "hit_rate": hit_rate,
        "wall_p50_point_us": float(np.percentile(lat_ns, 50)) / 1e3,
        "wall_p99_point_us": float(np.percentile(lat_ns, 99)) / 1e3,
    }


def _cache_vs_collection(serving, hot_vertex):
    """Same engine, same process: one stable-cache hit vs one full
    versioned collection epoch."""
    serving.point("bfs", hot_vertex)  # ensure admitted
    best_hit = float("inf")
    for _ in range(3):
        t0 = time.perf_counter()
        for _ in range(N_HIT_TIMING):
            serving.point("bfs", hot_vertex)
        best_hit = min(best_hit, (time.perf_counter() - t0) / N_HIT_TIMING)
    best_coll = float("inf")
    for _ in range(3):
        t0 = time.perf_counter()
        result = serving.snapshot("bfs")
        best_coll = min(best_coll, time.perf_counter() - t0)
    assert result.vertices_collected > 0
    return {
        "wall_hit_seconds": best_hit,
        "wall_collection_seconds": best_coll,
        "wall_speedup_cache_vs_collection": best_coll / best_hit,
    }


def _serve_guard_loop(engine, n: int) -> float:
    """Seconds for ``8 * n`` serve-invalidation guards (the exact
    expression ``_write_value`` evaluates when serving is idle: one
    attribute load + truth test of the compiled ``on_write`` hook
    tuple, empty when no serving layer is hooked)."""
    t0 = time.perf_counter()
    for _ in range(n):
        if engine._hk_write:
            raise AssertionError
        if engine._hk_write:
            raise AssertionError
        if engine._hk_write:
            raise AssertionError
        if engine._hk_write:
            raise AssertionError
        if engine._hk_write:
            raise AssertionError
        if engine._hk_write:
            raise AssertionError
        if engine._hk_write:
            raise AssertionError
        if engine._hk_write:
            raise AssertionError
    return time.perf_counter() - t0


def _empty_loop(n: int) -> float:
    t0 = time.perf_counter()
    for _ in range(n):
        pass
    return time.perf_counter() - t0


def _idle_overhead(src, dst, source):
    """Guard micro-cost vs per-event cost, plus an A/B wall ratio."""
    t0 = time.perf_counter()
    plain_engine, _ = _fresh_engine(src, dst, source, attach_serving=False)
    plain_engine.run()
    plain_wall = time.perf_counter() - t0

    t0 = time.perf_counter()
    idle_engine, _idle_serving = _fresh_engine(src, dst, source, attach_serving=True)
    idle_engine.run()
    attached_wall = time.perf_counter() - t0

    assert plain_engine._hk_write == ()
    n = 100_000
    guard_s = min(
        max(_serve_guard_loop(plain_engine, n) - _empty_loop(n), 0.0) / (8 * n)
        for _ in range(5)
    )
    events = plain_engine.ingest_watermark()
    per_event_s = plain_wall / events
    overhead = GUARDS_PER_EVENT * guard_s / per_event_s
    return {
        "guard_seconds": guard_s,
        "idle_overhead_fraction": overhead,
        "wall_attached_over_plain": attached_wall / plain_wall,
    }


def test_serving_latency(benchmark):
    src, dst, source = _workload()
    pool = np.unique(np.concatenate([src, dst]))

    def _experiment():
        mixed, engine, serving = _mixed_profile(src, dst, source, pool)
        assert engine.loop.quiescent() and engine.drained()
        converged = _converged_phase(serving, pool, np.random.default_rng(5))
        speed = _cache_vs_collection(serving, source)
        idle = _idle_overhead(src, dst, source)
        return mixed, converged, speed, idle

    mixed, converged, speed, idle = benchmark.pedantic(
        _experiment, iterations=1, rounds=1
    )

    rows = [
        [
            f"mixed ratio={m['ratio']:g}",
            f"{m['queries']:,} q",
            f"{m['wall_p50_us']:.1f}us / {m['wall_p99_us']:.1f}us",
            f"{m['hit_rate_mixed']:.1%} hit, {m['stale_frac']:.1%} stale",
        ]
        for m in mixed
    ]
    rows += [
        [
            "converged (zipf)",
            f"{converged['queries']:,} q",
            f"{converged['wall_p50_point_us']:.1f}us / "
            f"{converged['wall_p99_point_us']:.1f}us",
            f"{converged['hit_rate']:.1%} hit (floor {MIN_HIT_RATE:.0%}), "
            f"p99 ceiling {MAX_P99_POINT_US}us",
        ],
        [
            "cache vs collection",
            "",
            f"{speed['wall_hit_seconds'] * 1e6:.1f}us vs "
            f"{speed['wall_collection_seconds'] * 1e3:.2f}ms",
            f"{speed['wall_speedup_cache_vs_collection']:,.0f}x "
            f"(floor {MIN_CACHE_SPEEDUP:.0f}x)",
        ],
        [
            "idle serve guard",
            f"{idle['guard_seconds'] * 1e9:.2f} ns",
            f"{idle['idle_overhead_fraction']:.3%} of ingest",
            f"ceiling {MAX_IDLE_OVERHEAD:.0%}; attached/plain wall "
            f"{idle['wall_attached_over_plain']:.2f}x",
        ],
    ]
    table = fmt_table(
        ["phase", "volume", "latency p50/p99", "outcome"],
        rows,
        title=(
            f"On-line serving: BFS on RMAT scale {SCALE}, {N_RANKS} ranks, "
            "stable-value cache point reads during ingest"
        ),
    )
    report_table("serving_latency", table)

    assert converged["hit_rate"] >= MIN_HIT_RATE, (
        f"converged-prefix hit rate {converged['hit_rate']:.1%} below "
        f"{MIN_HIT_RATE:.0%}"
    )
    assert converged["wall_p99_point_us"] <= MAX_P99_POINT_US, (
        f"converged point-read p99 {converged['wall_p99_point_us']:.1f}us "
        f"above the {MAX_P99_POINT_US}us ceiling"
    )
    assert speed["wall_speedup_cache_vs_collection"] >= MIN_CACHE_SPEEDUP, (
        f"cache hit only {speed['wall_speedup_cache_vs_collection']:.1f}x "
        f"faster than a versioned collection (floor {MIN_CACHE_SPEEDUP}x)"
    )
    assert idle["idle_overhead_fraction"] < MAX_IDLE_OVERHEAD, (
        f"idle serving guard costs {idle['idle_overhead_fraction']:.2%} "
        f"of ingest (ceiling {MAX_IDLE_OVERHEAD:.0%})"
    )
