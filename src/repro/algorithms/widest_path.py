"""Incremental Widest Path — a fifth REMO algorithm beyond the paper.

The paper closes §V noting its event rates leave "significant room to
add complexity to algorithms"; this program demonstrates that the REMO
recipe (§II-B) extends beyond the four presented algorithms to any
monotone semiring.  Widest path (a.k.a. bottleneck or max-min path):
the value of a vertex is the best achievable *minimum edge weight*
along any path from the source — the bandwidth of the widest route.

REMO fit:

* **Recursive update**: a vertex learning capacity ``c`` over an edge
  of weight ``w`` offers its neighbours ``min(c, w)``.
* **Monotone convergence**: under edge additions (and weight
  *increases*), a vertex's capacity only ever grows, bounded above by
  the maximum edge weight — a convex solution space mirroring S-T
  connectivity's, with ``max`` as the merge.

Value conventions: 0 = untouched (engine default); the source holds
``CAP_INF`` (unbounded self-capacity); any other vertex holds its
current best bottleneck capacity (0 also serves as "no path yet",
which is safe because real capacities are >= 1).
"""

from __future__ import annotations

from typing import Any

from repro.runtime.program import VertexContext, VertexProgram

CAP_INF = 1 << 62  # the source's own capacity (no bottleneck to itself)


class WidestPath(VertexProgram):
    """Maintains live bottleneck capacities from an ``init()`` source.

    After quiescence, ``value_of(v)`` is the maximum over all
    source->v paths of the minimum edge weight on the path (CAP_INF at
    the source itself, 0 if unreachable).
    """

    name = "widest"
    snapshot_mode = "merge"
    # §II-D: queued capacities from the same sender squash to the wider
    # one (capacities only grow; 0 = "no path yet" loses to any).
    combine = merge = staticmethod(max)

    def on_init(self, ctx: VertexContext, payload: Any) -> None:
        ctx.set_value(CAP_INF)
        ctx.update_nbrs(CAP_INF)

    # on_add: nothing to do — 0 already means "no capacity yet".

    def on_reverse_add(
        self, ctx: VertexContext, vis_id: int, vis_val: Any, weight: int
    ) -> None:
        self.on_update(ctx, vis_id, vis_val, weight)

    def on_update(self, ctx: VertexContext, vis_id: int, vis_val: Any, weight: int) -> None:
        value = ctx.value
        offered = min(vis_val, weight)  # capacity through this edge
        if offered > value:
            # Wider route found: adopt and recursively propagate.
            ctx.set_value(offered)
            ctx.update_nbrs(offered)
        elif ctx.undirected and min(value, weight) > vis_val:
            # We can widen the sender's route: notify back.
            ctx.update_single_nbr(vis_id, value, weight)

    def format_value(self, value: Any) -> str:
        if value == 0:
            return "unreached"
        if value >= CAP_INF:
            return "source"
        return f"capacity {value}"


def static_widest_path(graph, source: int) -> dict[int, int]:
    """Static oracle: max-min Dijkstra on a CSR graph.

    Returns {original vertex id: capacity}, with the source at CAP_INF;
    unreachable vertices are absent.
    """
    import heapq

    import numpy as np

    if not graph.has_vertex(source):
        return {source: CAP_INF}
    n = graph.num_vertices
    cap = np.zeros(n, dtype=np.int64)
    s = graph.dense_index(source)
    cap[s] = CAP_INF
    heap = [(-CAP_INF, s)]
    offsets, targets, weights = graph.offsets, graph.targets, graph.weights
    while heap:
        neg, v = heapq.heappop(heap)
        c = -neg
        if c < cap[v]:
            continue
        for idx in range(offsets[v], offsets[v + 1]):
            t = targets[idx]
            nc = min(c, int(weights[idx]))
            if nc > cap[t]:
                cap[t] = nc
                heapq.heappush(heap, (-nc, int(t)))
    return {
        int(graph.vertex_ids[v]): int(cap[v]) for v in np.nonzero(cap)[0]
    }
