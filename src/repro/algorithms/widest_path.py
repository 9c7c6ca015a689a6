"""Widest path — a fifth REMO family beyond the paper, and its oracle.

The paper closes §V noting its event rates leave "significant room to
add complexity to algorithms"; the widest row of
:mod:`repro.algorithms.base` shows the REMO recipe (§II-B) reaching any
monotone semiring.  Widest (bottleneck, max-min) path: a vertex holds
the best achievable *minimum edge weight* along any path from the
source.  A vertex learning capacity ``c`` over an edge of weight ``w``
offers ``min(c, w)``; under additions (and weight *increases*) a
capacity only grows, bounded by the largest weight.  0 is both
"untouched" and "no path yet" (real capacities are >= 1); the source
holds ``CAP_INF``.
"""

from __future__ import annotations

from repro.algorithms.base import CAP_INF


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
