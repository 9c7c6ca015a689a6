"""Telemetry overhead: disabled tracing must cost < 3% of a run.

The engine's hot paths (visitor dispatch, stream pull, bulk chunks) are
instrumented with inline guards — one attribute load plus an identity
check (``if self.tracer is not None``) per emission site; the two hook
sites (``if self._hk_write:``) are the same operation.  This bench
pins the acceptance criterion down two ways:

1. **Guard micro-cost vs per-event cost** — the primary, noise-free
   measurement.  The cost of one guard is measured directly (an
   8x-unrolled guard loop over a real disabled engine, minus the same
   loop empty), multiplied by a deliberately pessimistic guards-per-
   event budget, and compared against the measured wall cost of one
   event through the per-event engine.  This isolates exactly what the
   instrumentation added and must stay under ``MAX_OVERHEAD``.  The
   denominator is the per-event engine's wall cost, so the fraction
   *rises* when a change makes that path faster with the guards
   untouched.
2. **Enabled-vs-disabled ratio** — informational context in the
   table: what turning the tracer ON costs (expected to be
   significant — every dispatch then appends an event tuple — which is
   why telemetry is opt-in).

The mp backend gets the same treatment: its hot loop carries
``if obs is not None`` guards (drain / dispatch / ingest / emit sites in
``worker.py``/``loop.py``/``vecapply.py``), which is the identical
Python operation (attribute load + identity check), so the measured
guard cost applies to both rows; only the per-event wall cost and the
guard budget differ.  A 2-rank shm run with obs disabled provides the
mp per-event denominator.

Both runs' virtual rate and visits per event are pinned exactly by the
``obs_cc`` leg of ``tests/runtime/test_cost_ledger.py``.
"""

import time

import numpy as np

from conftest import report_table
from harness import BENCH_SCALE, fmt_table, run_dynamic

from repro import IncrementalCC
from repro.events.stream import split_streams
from repro.parallel import WireConfig, run_parallel
from repro.runtime.engine import EngineConfig
from repro.runtime.plugins import TracerPlugin

N_EVENTS = 1 << (14 + BENCH_SCALE)
N_VERTICES = N_EVENTS // 4
N_NODES = 1
# Pessimistic guard budget per topology event on the per-event path,
# counted at the sites in ``runtime/engine.py``: the source pull
# evaluates 3 (the bulk slot, the tracer at entry and at exit); every
# dispatch 5 (tracer + metrics at entry and again at exit, the bulk
# slot), plus 1 for the ``on_write`` hook tuple when its callback
# writes.  An event is an ADD and a REVERSE_ADD dispatch plus its UPDATE
# fan-out — 3.7 dispatches on this workload, budgeted as 4 that all
# write: 3 + 4 * (5 + 1).  The insert/delete paths carry no guard.
GUARDS_PER_EVENT = 27
# The mp hot loop's guards fire per *batch* (one drain span per doorbell,
# one emit span per flushed frame, one ingest span per pulled chunk), so
# per-event this is wildly pessimistic — but the mp per-event wall cost
# is also orders of magnitude above one guard.
MP_GUARDS_PER_EVENT = 8
MP_RANKS = 2
MAX_OVERHEAD = 0.03


def saturation_stream(seed: int = 7) -> tuple[np.ndarray, np.ndarray]:
    rng = np.random.default_rng(seed)
    src = rng.integers(0, N_VERTICES, N_EVENTS, dtype=np.int64)
    dst = rng.integers(0, N_VERTICES, N_EVENTS, dtype=np.int64)
    dst = np.where(dst == src, (dst + 1) % N_VERTICES, dst)
    return src, dst


def _guard_loop(engine, n: int) -> float:
    """Seconds for ``8 * n`` tracer guards against a real engine."""
    t0 = time.perf_counter()
    for _ in range(n):
        tracer = engine.tracer
        if tracer is not None:
            raise AssertionError
        if tracer is not None:
            raise AssertionError
        tracer = engine.tracer
        if tracer is not None:
            raise AssertionError
        if tracer is not None:
            raise AssertionError
        tracer = engine.tracer
        if tracer is not None:
            raise AssertionError
        if tracer is not None:
            raise AssertionError
        tracer = engine.tracer
        if tracer is not None:
            raise AssertionError
        if tracer is not None:
            raise AssertionError
    return time.perf_counter() - t0


def _empty_loop(n: int) -> float:
    t0 = time.perf_counter()
    for _ in range(n):
        pass
    return time.perf_counter() - t0


def measure_guard_seconds(engine, n: int = 100_000, rounds: int = 5) -> float:
    """Best-of-``rounds`` cost of ONE disabled guard, in seconds."""
    per_guard = []
    for _ in range(rounds):
        with_guards = _guard_loop(engine, n)
        empty = _empty_loop(n)
        per_guard.append(max(with_guards - empty, 0.0) / (8 * n))
    return min(per_guard)


def _mp_disabled_run(src: np.ndarray, dst: np.ndarray):
    """One obs-disabled 2-rank shm run; returns (result, wall_seconds)."""
    rng = np.random.default_rng(11)
    t0 = time.perf_counter()
    result = run_parallel(
        [IncrementalCC()],
        split_streams(src, dst, MP_RANKS, rng=rng),
        config=EngineConfig(n_ranks=MP_RANKS),
        wire=WireConfig(start_method="fork"),
    )
    return result, time.perf_counter() - t0


def _experiment():
    src, dst = saturation_stream()
    runs = {}
    for traced in (False, True):
        runs[traced] = run_dynamic(
            src, dst, [IncrementalCC()], N_NODES,
            plugins=[TracerPlugin()] if traced else None,
        )
    guard_s = measure_guard_seconds(runs[False].engine)
    mp_result, mp_wall = _mp_disabled_run(src, dst)
    return runs, guard_s, mp_result, mp_wall


def test_obs_overhead(benchmark):
    (runs, guard_s, mp_result, mp_wall) = benchmark.pedantic(
        _experiment, iterations=1, rounds=1
    )
    off, on = runs[False], runs[True]

    # Sanity: both paths did the same simulated work; only the traced
    # run recorded events.
    assert on.report.source_events == off.report.source_events == N_EVENTS
    assert off.engine.tracer is None
    assert len(on.engine.tracer) > N_EVENTS  # >= one span per event

    per_event_s = off.wall_seconds / off.report.source_events
    guard_overhead = GUARDS_PER_EVENT * guard_s / per_event_s
    enabled_ratio = on.wall_seconds / off.wall_seconds

    # mp row: an obs-disabled worker never constructs a RankObs, so the
    # residual cost is the same guard applied at the mp loop's emission
    # sites, against the mp backend's (much larger) per-event wall cost.
    assert mp_result.obs is None
    assert mp_result.source_events == N_EVENTS
    mp_per_event_s = mp_wall / mp_result.source_events
    mp_guard_overhead = MP_GUARDS_PER_EVENT * guard_s / mp_per_event_s

    rows = [
        ["per-event wall cost", f"{per_event_s * 1e9:.0f} ns"],
        ["one disabled guard", f"{guard_s * 1e9:.2f} ns"],
        ["guards budgeted/event", str(GUARDS_PER_EVENT)],
        ["disabled overhead", f"{guard_overhead:.3%}"],
        ["ceiling", f"{MAX_OVERHEAD:.0%}"],
        ["enabled/disabled wall", f"{enabled_ratio:.2f}x"],
        ["trace events recorded", f"{len(on.engine.tracer):,}"],
        [f"mp per-event wall ({MP_RANKS} ranks)", f"{mp_per_event_s * 1e9:.0f} ns"],
        ["mp guards budgeted/event", str(MP_GUARDS_PER_EVENT)],
        ["mp disabled overhead", f"{mp_guard_overhead:.4%}"],
    ]
    table = fmt_table(
        ["measure", "value"],
        rows,
        title=(
            f"Telemetry overhead: {N_EVENTS:,} events, CC, "
            f"{N_NODES} node(s); guard = `if self.tracer is not None`"
        ),
    )
    report_table("obs_overhead", table)

    # The acceptance criterion: instrumentation left on the hot path
    # must cost < 3% of a run with telemetry disabled — on both
    # backends.
    assert guard_overhead < MAX_OVERHEAD, (
        f"disabled-telemetry guard overhead {guard_overhead:.2%} exceeds "
        f"{MAX_OVERHEAD:.0%} ({guard_s * 1e9:.2f} ns/guard x "
        f"{GUARDS_PER_EVENT}/event vs {per_event_s * 1e9:.0f} ns/event)"
    )
    assert mp_guard_overhead < MAX_OVERHEAD, (
        f"mp disabled-telemetry guard overhead {mp_guard_overhead:.3%} "
        f"exceeds {MAX_OVERHEAD:.0%} ({guard_s * 1e9:.2f} ns/guard x "
        f"{MP_GUARDS_PER_EVENT}/event vs {mp_per_event_s * 1e9:.0f} "
        "ns/event on the mp backend)"
    )
