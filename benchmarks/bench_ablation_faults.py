"""Ablation — reliable-delivery overhead and the price of a lossy wire.

The fault subsystem (repro.faults) wraps every cross-rank message in a
sequenced frame with delayed cumulative acks and timeout-driven
retransmission.  On a *healthy* wire that protocol must be close to
free, or nobody would leave it on: the acceptance floor is **< 5%
virtual-time slowdown at 0% loss** versus the plain kernel, with
exactly zero retransmissions (a healthy channel must never time out).

Methodology: the comparison is *matched* — the transport disables
cross-rank update squashing (an in-place merge would skip the lossy
wire), so the baseline runs with ``coalesce_updates=False`` too.  The
delta then isolates the protocol cost itself: framing CPU, ack CPU, and
the loss of nothing else.

A second sweep prices actual loss (drop = 5%, 20%): reported for
context — retransmit traffic, virtual-time stretch, converged-state
equality with the baseline — with no overhead target (a 20%-lossy wire
is *supposed* to hurt).  The four runs' virtual rates and visits per
event are pinned exactly by the ``faults_*`` legs of
``tests/runtime/test_cost_ledger.py``.
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

from repro import FaultPlan, IncrementalBFS, IncrementalCC
from repro.analytics.verify import verify_cc
from repro.generators import rmat_edges
from repro.runtime.plugins import FaultInjectionPlugin

SCALE = 10 + BENCH_SCALE
EDGE_FACTOR = 8
N_NODES = 2  # cross-node traffic keeps the wire busy
OVERHEAD_CEILING = 0.05  # acceptance: <5% virtual-time slowdown at 0% loss
DROP_SWEEP = (0.05, 0.20)

# The matched baseline: the transport forgoes cross-rank squashing by
# design, so the fair comparison does too.
MATCHED = {"coalesce_updates": False, "batch_updates": False}


def _programs():
    return [IncrementalBFS(), IncrementalCC()]


def _experiment():
    rng = np.random.default_rng(0xFA17)
    src, dst = rmat_edges(SCALE, edge_factor=EDGE_FACTOR, rng=rng)
    init = [("bfs", int(src[0]), None)]

    baseline = run_dynamic(
        src, dst, _programs(), N_NODES, init=init, config_overrides=MATCHED
    )
    reliable = run_dynamic(
        src, dst, _programs(), N_NODES, init=init, config_overrides=MATCHED,
        plugins=[FaultInjectionPlugin(FaultPlan(seed=1))],
    )
    lossy = {
        drop: run_dynamic(
            src, dst, _programs(), N_NODES, init=init,
            config_overrides=MATCHED,
            plugins=[FaultInjectionPlugin(FaultPlan(drop=drop, seed=2))],
        )
        for drop in DROP_SWEEP
    }
    return baseline, reliable, lossy


def test_ablation_faults(benchmark):
    baseline, reliable, lossy = benchmark.pedantic(
        _experiment, iterations=1, rounds=1
    )

    overhead = reliable.makespan / baseline.makespan - 1.0
    wire0 = reliable.engine.transport.counters()

    rows = [
        [
            "off", "0%", fmt_rate(baseline.rate),
            f"{baseline.makespan * 1e6:,.0f}us", "-", "-", "-", "-",
        ],
        [
            "on", "0%", fmt_rate(reliable.rate),
            f"{reliable.makespan * 1e6:,.0f}us", f"{overhead:+.1%}",
            f"{wire0['retransmits']:,}", f"{wire0['frames_dropped']:,}",
            f"{wire0['acks_sent']:,}",
        ],
    ]
    for drop, run in lossy.items():
        stretch = run.makespan / baseline.makespan - 1.0
        wire = run.engine.transport.counters()
        rows.append(
            [
                "on", f"{drop:.0%}", fmt_rate(run.rate),
                f"{run.makespan * 1e6:,.0f}us", f"{stretch:+.1%}",
                f"{wire['retransmits']:,}", f"{wire['frames_dropped']:,}",
                f"{wire['acks_sent']:,}",
            ]
        )
        # Loss must cost time, never answers.
        assert run.engine.state("cc") == baseline.engine.state("cc")
        assert run.engine.state("bfs") == baseline.engine.state("bfs")
        assert wire["app_sent"] == wire["app_delivered"]

    table = fmt_table(
        ["transport", "drop", "rate", "makespan", "overhead",
         "retransmits", "dropped", "acks"],
        rows,
        title=(
            f"Ablation (repro.faults): reliable-delivery overhead, RMAT "
            f"scale {SCALE} x{EDGE_FACTOR}, BFS+CC on "
            f"{N_NODES * RANKS_PER_NODE} ranks (matched: coalescing off)"
        ),
    )
    report_table("ablation_faults", table)

    # Protocol safety and the acceptance floor.
    assert reliable.engine.state("cc") == baseline.engine.state("cc")
    assert not verify_cc(reliable.engine, "cc")
    assert wire0["retransmits"] == 0, "healthy channel retransmitted"
    assert wire0["frames_dropped"] == 0
    assert overhead < OVERHEAD_CEILING, (
        f"reliable delivery costs {overhead:.1%} at 0% loss "
        f"(ceiling {OVERHEAD_CEILING:.0%})"
    )
