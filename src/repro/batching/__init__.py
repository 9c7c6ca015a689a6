"""The snapshot/batching baseline the paper argues against (§VI-A).

"Most of today's systems focus on analyzing individually built historic
snapshots" (§I) — this subpackage implements that pipeline honestly so
the continuous engine can be compared against it quantitatively:
events buffer into batches; each batch rebuilds the graph's CSR and
static BFS recomputes the answer from scratch; queries see the last
*completed* batch's answer.

The key metric is **staleness**: how old an event is by the time any
query can observe its effect.  For a batch pipeline that is bounded
below by the batching interval plus the recompute time; for the
continuous engine it is the trigger/propagation delay.
"""

from repro.batching.pipeline import BatchReport, SnapshotPipeline

__all__ = ["BatchReport", "SnapshotPipeline"]
