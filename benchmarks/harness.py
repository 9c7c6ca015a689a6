"""Shared experiment harness for the paper-figure benchmarks.

Conventions (see EXPERIMENTS.md for the full methodology):

* A "node" is the paper's unit (one Catalyst node = 24 cores).  The
  simulator's wall-clock cost grows with total event count, not rank
  count, but to keep sweeps snappy the benches use
  ``RANKS_PER_NODE = 4`` scaled-down nodes by default — relative
  scaling behaviour is unchanged (override with env
  ``REPRO_RANKS_PER_NODE=24`` for full-width nodes).
* Workload sizes derive from ``REPRO_BENCH_SCALE`` (added to each
  bench's base log2 scale; default 0 keeps the suite to a few minutes).
* All reported times/rates are **virtual** (cost-model) unless labelled
  "wall".  Static-baseline times are modelled from *measured* operation
  counts of real executions (see CostModel's static constants).
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass

import numpy as np

from repro import DynamicEngine, EngineConfig, throughput_report
from repro.analytics.metrics import ThroughputReport
from repro.comm.costmodel import CostModel
from repro.events.stream import split_streams
from repro.staticalgs.algorithms import OpCounts
from repro.storage.csr import CSRGraph
from repro.util.rng import SeedSequenceFactory

BENCH_SCALE = int(os.environ.get("REPRO_BENCH_SCALE", "0"))
RANKS_PER_NODE = int(os.environ.get("REPRO_RANKS_PER_NODE", "4"))
SEEDS = SeedSequenceFactory(0xB37C)  # stable bench root seed


def cost_model() -> CostModel:
    return CostModel(ranks_per_node=RANKS_PER_NODE)


@dataclass
class DynamicRun:
    """One dynamic execution's results."""

    engine: DynamicEngine
    report: ThroughputReport
    wall_seconds: float

    @property
    def makespan(self) -> float:
        return self.report.makespan

    @property
    def rate(self) -> float:
        return self.report.events_per_second


def run_dynamic(
    src: np.ndarray,
    dst: np.ndarray,
    programs: list,
    n_nodes: int,
    weights: np.ndarray | None = None,
    init: list[tuple[str, int, object]] | None = None,
    shuffle_seed: int | None = 0,
    collections: list[float] | None = None,
    undirected: bool = True,
    config_overrides: dict | None = None,
    plugins: list | None = None,
) -> DynamicRun:
    """Ingest an edge list through the engine at saturation (§V-A).

    ``init`` is a list of (program, vertex, payload) triples injected at
    t=0; ``collections`` schedules versioned global-state collections at
    the given virtual times; ``config_overrides`` sets extra
    :class:`EngineConfig` fields (ablation toggles).  ``plugins``
    (:mod:`repro.runtime.plugins`) attach telemetry — the run's tracer
    and registry stay reachable via ``DynamicRun.engine`` — or a fault
    plan; none by default, so benches pay only the guard checks.
    """
    n_ranks = n_nodes * RANKS_PER_NODE
    engine = DynamicEngine(
        programs,
        EngineConfig(
            n_ranks=n_ranks, undirected=undirected, **(config_overrides or {})
        ),
        cost_model=cost_model(),
        plugins=plugins,
    )
    for prog, vertex, payload in init or []:
        engine.init_program(prog, vertex, payload=payload)
    rng = None if shuffle_seed is None else np.random.default_rng(shuffle_seed)
    engine.attach_streams(split_streams(src, dst, n_ranks, weights=weights, rng=rng))
    for at_time in collections or []:
        engine.request_collection(programs[0].name, at_time=at_time)
    t0 = time.perf_counter()
    engine.run()
    wall = time.perf_counter() - t0
    return DynamicRun(engine, throughput_report(engine, wall_seconds=wall), wall)


# ----------------------------------------------------------------------
# modelled static-side times (from measured op counts)
# ----------------------------------------------------------------------
def static_construction_time(graph: CSRGraph, n_nodes: int) -> float:
    """Virtual seconds to bulk-build the CSR (sort + compress),
    parallelised across the node's ranks."""
    cm = cost_model()
    n_ranks = n_nodes * RANKS_PER_NODE
    return graph.build_stats.num_stored_edges * cm.static_build_edge_cpu / n_ranks


def static_algorithm_time(ops: OpCounts, n_nodes: int, on_dynamic: bool = False) -> float:
    """Virtual seconds for a distributed static traversal with the
    measured op counts (see CostModel.static_traversal_time)."""
    return cost_model().static_traversal_time(
        ops.vertex_visits, ops.edge_scans, n_nodes * RANKS_PER_NODE, on_dynamic
    )


# ----------------------------------------------------------------------
# formatting
# ----------------------------------------------------------------------
def fmt_table(headers: list[str], rows: list[list[str]], title: str = "") -> str:
    widths = [
        max(len(str(h)), *(len(str(r[i])) for r in rows)) if rows else len(str(h))
        for i, h in enumerate(headers)
    ]
    lines = []
    if title:
        lines.append(title)
    lines.append("  ".join(str(h).ljust(w) for h, w in zip(headers, widths)))
    lines.append("  ".join("-" * w for w in widths))
    for r in rows:
        lines.append("  ".join(str(c).ljust(w) for c, w in zip(r, widths)))
    return "\n".join(lines)


def fmt_rate(rate: float) -> str:
    for scale, suffix in ((1e9, "G"), (1e6, "M"), (1e3, "K")):
        if rate >= scale:
            return f"{rate / scale:.2f} {suffix}ev/s"
    return f"{rate:.0f} ev/s"


def fmt_time(seconds: float) -> str:
    if seconds < 1e-3:
        return f"{seconds * 1e6:.1f}us"
    if seconds < 1.0:
        return f"{seconds * 1e3:.2f}ms"
    return f"{seconds:.3f}s"
