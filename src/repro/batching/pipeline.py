"""A micro-batch snapshot pipeline (the §VI-A strawman, built for real).

Timeline model (virtual seconds, same cost model as the simulator):

* Events arrive at a fixed offered rate (``arrival_rate`` events/s),
  which stands in for the real-time source the paper motivates with
  (tweets, payments).
* A batch *closes* every ``batch_interval`` seconds.
* A closed batch waits for the compute stage to be free, then static
  BFS recomputes the answer from scratch (CSR rebuild + traversal,
  costs from measured op counts — exactly the paper's drawback (i):
  "high overheads due to storing multiple copies / processing batch
  delta changes").
* Queries between snapshot completions see the previous answer, which
  is the paper's drawback (ii): "it loses information by removing the
  ability to query graph state in-between snapshots".

``run()`` replays an edge list through this pipeline and reports
per-event staleness (completion time of the covering batch minus the
event's arrival) plus total compute, directly comparable to the
continuous engine's trigger latencies and makespan.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.comm.costmodel import CostModel
from repro.staticalgs.algorithms import static_bfs
from repro.storage.csr import CSRGraph
from repro.util.validate import check_positive


@dataclass
class BatchReport:
    """Outcome of one pipeline run."""

    n_events: int
    n_batches: int
    total_time: float  # arrival of first event -> last batch completed
    compute_time: float  # total virtual CPU spent on rebuild+recompute
    staleness_mean: float
    staleness_max: float
    batch_completion_times: list[float] = field(default_factory=list)

    def summary(self) -> str:
        return (
            f"batches={self.n_batches} events={self.n_events:,} "
            f"total={self.total_time * 1e3:.2f}ms compute={self.compute_time * 1e3:.2f}ms "
            f"staleness mean={self.staleness_mean * 1e3:.3f}ms "
            f"max={self.staleness_max * 1e3:.3f}ms"
        )


class SnapshotPipeline:
    """Replays an edge stream through a batch-snapshot-recompute loop;
    each batch recomputes BFS from the source given to :meth:`run` (the
    §VI-A comparison is BFS).

    Parameters
    ----------
    batch_interval:
        Seconds of arrivals per batch (the snapshot cadence).
    arrival_rate:
        Offered load in events/second.
    n_ranks:
        Parallelism available to the rebuild/recompute stage (same
        rank semantics as the simulated cluster).
    """

    def __init__(
        self,
        batch_interval: float,
        arrival_rate: float,
        n_ranks: int,
        cost_model: CostModel | None = None,
    ):
        check_positive("batch_interval", batch_interval)
        check_positive("arrival_rate", arrival_rate)
        check_positive("n_ranks", n_ranks)
        self.batch_interval = float(batch_interval)
        self.arrival_rate = float(arrival_rate)
        self.n_ranks = int(n_ranks)
        self.cost = cost_model or CostModel()

    # ------------------------------------------------------------------
    def _batch_bounds(self, n_events: int) -> list[tuple[int, int]]:
        """Split event indices into batches by interval."""
        per_interval = max(int(self.arrival_rate * self.batch_interval), 1)
        bounds = []
        lo = 0
        while lo < n_events:
            hi = min(lo + per_interval, n_events)
            bounds.append((lo, hi))
            lo = hi
        return bounds

    def run(self, src: np.ndarray, dst: np.ndarray, source: int) -> BatchReport:
        """Replay the stream; returns the staleness/cost report.

        The per-batch compute cost is grounded in real executions: the
        CSR is actually rebuilt per batch and static BFS actually run,
        with virtual cost = measured ops x cost-model constants.
        """
        src = np.asarray(src, dtype=np.int64)
        dst = np.asarray(dst, dtype=np.int64)
        n = len(src)
        if n == 0:
            return BatchReport(0, 0, 0.0, 0.0, 0.0, 0.0)
        arrival = np.arange(n, dtype=np.float64) / self.arrival_rate
        bounds = self._batch_bounds(n)

        compute_free_at = 0.0
        compute_total = 0.0
        completions = []
        staleness_sum = 0.0
        staleness_max = 0.0
        for lo, hi in bounds:
            close_time = arrival[hi - 1]
            # Rebuild the snapshot: the paper's drawback (i) — every
            # batch pays a full CSR rebuild over ALL edges so far.
            graph = CSRGraph.from_edges(src[:hi], dst[:hi], symmetrize=True)
            t_build = (
                graph.build_stats.num_stored_edges
                * self.cost.static_build_edge_cpu
                / self.n_ranks
            )
            _, ops = static_bfs(graph, source)
            t_alg = self.cost.static_traversal_time(
                ops.vertex_visits, ops.edge_scans, self.n_ranks
            )
            start = max(close_time, compute_free_at)
            done = start + t_build + t_alg
            compute_free_at = done
            compute_total += t_build + t_alg
            completions.append(done)
            batch_staleness = done - arrival[lo:hi]
            staleness_sum += float(batch_staleness.sum())
            staleness_max = max(staleness_max, float(batch_staleness.max()))

        return BatchReport(
            n_events=n,
            n_batches=len(bounds),
            total_time=completions[-1] - float(arrival[0]),
            compute_time=compute_total,
            staleness_mean=staleness_sum / n,
            staleness_max=staleness_max,
            batch_completion_times=completions,
        )
