"""Ablation — visitor-queue coalescing of monotone UPDATEs (§II-D).

The paper notes that monotone data visitors queued for the same vertex
"can be combined or squashed" in the visitor queue.  This bench
quantifies that: replay a high-fan-in CC workload — hub stars merged
one by one through a label-ascending chain, so every merge re-floods
all previously absorbed stars with redundant label updates — with the
combiner layer (plus the batched ``send_many`` dispatch fast path)
switched on and off, across rank counts.

Reported per (ranks, coalescing) cell: virtual event throughput,
updates squashed in the visitor queues, fan-out batches, and total
visits.  Asserts the coalesced run is never slower, clears >= 1.3x
speedup at the widest configuration, and that squashing does not
change the converged component labels (the REMO §II-D safety claim).
The four runs' virtual rates and visits per event are pinned exactly by
the ``squash_*`` legs of ``tests/runtime/test_cost_ledger.py``.
"""

import numpy as np

from conftest import report_table
from harness import (
    BENCH_SCALE,
    RANKS_PER_NODE,
    fmt_rate,
    fmt_table,
    run_dynamic,
)

from repro import IncrementalCC
from repro.analytics.verify import verify_cc

N_HUBS = 12
N_SPOKES = 400 * (1 << BENCH_SCALE)
N_NODES_SWEEP = (1, 4)
TARGET_SPEEDUP = 1.3  # acceptance floor at the widest configuration


def high_fanin_stream(
    n_hubs: int = N_HUBS, n_spokes: int = N_SPOKES, seed: int = 0
) -> tuple[np.ndarray, np.ndarray]:
    """Hub stars merged by a label-ascending chain.

    ``n_hubs`` hubs each own ``n_spokes`` private spokes (star edges,
    shuffled); chain edges ``hub_i -- hub_{i+1}`` arrive *last*, so the
    k-th merge re-floods the k already-merged stars with a higher
    component label — exactly the redundant monotone UPDATE traffic a
    visitor-queue combiner can squash.
    """
    rng = np.random.default_rng(seed)
    src, dst = [], []
    spoke = n_hubs + 1
    for hub in range(1, n_hubs + 1):
        for _ in range(n_spokes):
            src.append(hub)
            dst.append(spoke)
            spoke += 1
    order = rng.permutation(len(src))
    src = list(np.array(src, dtype=np.int64)[order])
    dst = list(np.array(dst, dtype=np.int64)[order])
    for hub in range(1, n_hubs):  # the merge chain, after all stars
        src.append(hub)
        dst.append(hub + 1)
    return np.array(src, dtype=np.int64), np.array(dst, dtype=np.int64)


def _experiment():
    src, dst = high_fanin_stream()
    results = {}
    for n_nodes in N_NODES_SWEEP:
        for coalesce in (False, True):
            run = run_dynamic(
                src,
                dst,
                [IncrementalCC()],
                n_nodes,
                config_overrides={"coalesce_updates": coalesce},
            )
            results[(n_nodes, coalesce)] = run
    return results


def test_ablation_squash(benchmark):
    results = benchmark.pedantic(_experiment, iterations=1, rounds=1)

    rows = []
    speedups = {}
    for n_nodes in N_NODES_SWEEP:
        off = results[(n_nodes, False)]
        on = results[(n_nodes, True)]
        n_ranks = n_nodes * RANKS_PER_NODE

        # §II-D safety: squashing must not change the converged labels.
        assert on.engine.state("cc") == off.engine.state("cc")
        assert not verify_cc(on.engine, "cc")
        # The combiner actually fired, and the baseline never squashes.
        assert on.report.updates_squashed > 0
        assert on.report.batch_sends > 0
        assert off.report.updates_squashed == 0
        assert off.report.batch_sends == 0

        speedup = on.rate / off.rate
        speedups[n_nodes] = speedup
        for coalesce, run in ((False, off), (True, on)):
            rows.append(
                [
                    n_ranks,
                    "on" if coalesce else "off",
                    fmt_rate(run.rate),
                    f"{run.report.updates_squashed:,}",
                    f"{run.report.squash_fraction:.1%}",
                    f"{run.report.batch_sends:,}",
                    f"{run.report.visits:,}",
                    f"{speedup:.2f}x" if coalesce else "-",
                ]
            )

    table = fmt_table(
        ["ranks", "coalescing", "rate", "squashed", "squash %", "batches", "visits", "speedup"],
        rows,
        title=(
            f"Ablation (§II-D): visitor-queue coalescing on high-fan-in CC, "
            f"{N_HUBS} hub stars x {N_SPOKES} spokes merged by an "
            f"ascending chain"
        ),
    )
    report_table("ablation_squash", table)

    # Coalescing must never hurt, and the widest sweep point must clear
    # the acceptance floor.
    assert all(s >= 1.0 for s in speedups.values()), speedups
    assert max(speedups.values()) >= TARGET_SPEEDUP, speedups
