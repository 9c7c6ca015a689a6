"""True multi-core scaling of the process-parallel (mp) backend.

Every other bench reports the *simulated* cluster's virtual time; this
one measures what ``--backend mp`` actually buys on the host: wall-clock
events/s for a CC saturation replay with each rank as a real OS process
(fork start method, so interpreter boot does not pollute the
measurement), at 1, 2 and 4 ranks over the zero-copy shared-memory
wire.

The ≥1.8x 4-vs-1-rank floor is asserted *unconditionally*.  It does not
need real cores: on the shm wire a multi-rank run drains visitor slabs
through the vectorized bulk kernels (``repro.kernels.frontier``) while
the 1-rank run replays the stream through the per-event scheduler, so
the speedup is work-efficiency — numpy record batches replacing ~10^5
interpreted visits — and survives even a single-core host.  The table
title records the host's core count for context.

Read the ratio with its two rates beside it (the table title carries
them): the **denominator is the per-event engine**, so a change that
makes the per-event path faster lowers the 4v1 ratio with the mp side
untouched.

Regardless of core count, the three runs must agree bit-for-bit on the
converged CC state (the REMO fixpoint is interleaving-independent), and
every run's wire counters must balance.
"""

import os

import numpy as np

from conftest import report_table
from harness import BENCH_SCALE, fmt_rate, fmt_table, fmt_time

from repro import EngineConfig, IncrementalCC
from repro.events.stream import split_streams
from repro.parallel import WireConfig, run_parallel
from repro.partition.partitioners import ConsistentHashPartitioner
from repro.partition.stats import measure_balance

LOG2_EVENTS = 16 + BENCH_SCALE
N_EVENTS = 1 << LOG2_EVENTS
N_VERTICES = N_EVENTS // 4
RANK_COUNTS = (1, 2, 4)
TARGET_SPEEDUP = 1.8  # 4-rank vs 1-rank wall floor, always enforced
BATCH_MAX = 2048  # big frames: amortise framing on the saturation wire


def saturation_stream(seed: int = 42) -> tuple[np.ndarray, np.ndarray]:
    rng = np.random.default_rng(seed)
    src = rng.integers(0, N_VERTICES, N_EVENTS, dtype=np.int64)
    dst = rng.integers(0, N_VERTICES, N_EVENTS, dtype=np.int64)
    return src, dst


def _rank_work(result) -> int:
    """Total per-record work: interpreted visits + vectorized records."""
    return int(result.counters.visits) + int(result.wire.get("kernel_records", 0))


def _experiment():
    src, dst = saturation_stream()
    runs = {}
    for n_ranks in RANK_COUNTS:
        runs[n_ranks] = run_parallel(
            [IncrementalCC()],
            split_streams(src, dst, n_ranks, rng=np.random.default_rng(1)),
            config=EngineConfig(n_ranks=n_ranks),
            wire=WireConfig(start_method="fork", batch_max=BATCH_MAX),
            timeout=600.0,
        )
    return runs


def test_parallel_scaling(benchmark):
    runs = benchmark.pedantic(_experiment, iterations=1, rounds=1)
    cores = os.cpu_count() or 1
    src, dst = saturation_stream()

    base_state = runs[RANK_COUNTS[0]].state("cc")
    base_rate = runs[RANK_COUNTS[0]].events_per_second
    base_work = _rank_work(runs[RANK_COUNTS[0]])
    rows = []
    for n_ranks in RANK_COUNTS:
        result = runs[n_ranks]
        # The fixpoint contract: rank count must not change the answer.
        assert result.state("cc") == base_state, f"{n_ranks}-rank state diverged"
        assert result.wire["wire_sent"] == result.wire["wire_received"]
        assert result.source_events == N_EVENTS
        if n_ranks > 1:
            # Ring-health counters must survive the harvest: the shm
            # data plane's backpressure is part of the run's result.
            for key in ("ring_stalls", "ring_pad_bytes", "ring_torn_retries",
                        "overflow_hwm_records"):
                assert key in result.ring_health, f"{key} missing at {n_ranks}r"
        speedup = result.events_per_second / base_rate
        # Work a rank count performs relative to 1 rank: >1 means the
        # partitioned run re-derived values it would have computed once
        # serially (remote notify-backs, re-relaxations).
        redundant_visit_ratio = _rank_work(result) / base_work
        balance = measure_balance(ConsistentHashPartitioner(n_ranks), src, dst)
        rows.append([
            str(n_ranks),
            fmt_time(result.wall_seconds),
            fmt_rate(result.events_per_second),
            f"{speedup:.2f}x",
            f"{redundant_visit_ratio:.2f}",
            f"{balance.edge_imbalance:.3f}",
            f"{result.token_rounds}",
            f"{result.wire['wire_sent']:,}",
        ])

    speedup_4v1 = runs[4].events_per_second / base_rate
    assert speedup_4v1 >= TARGET_SPEEDUP, (
        f"mp 4-rank CC wall speedup {speedup_4v1:.2f}x below the "
        f"{TARGET_SPEEDUP}x floor (shm wire; {cores}-core host)"
    )

    table = fmt_table(
        ["ranks", "wall", "wall rate", "speedup", "work ratio",
         "edge imbal", "token rounds", "wire msgs"],
        rows,
        title=(
            f"Process-parallel CC scaling (shm wire): {N_EVENTS:,} events / "
            f"{N_VERTICES:,} vertices, {cores} host cores; 4v1 = "
            f"{speedup_4v1:.2f}x = {fmt_rate(runs[4].events_per_second)} "
            f"(4-rank kernels) / {fmt_rate(base_rate)} (1-rank per-event "
            f"engine), {TARGET_SPEEDUP}x floor enforced"
        ),
    )
    report_table("parallel_scaling", table)
