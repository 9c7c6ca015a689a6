"""Incremental Breadth First Search — Algorithm 4 of the paper.

Monotonically evolving state: the vertex's BFS level (minimum hops from
the source, counting the source as level 1, per the paper's
``init: this.value = 1``).  Levels only ever decrease; an edge addition
falls into the three cases of §II-B and the recursive update event
repairs the tree only where a shorter path appeared.

The update callback is a line-for-line transcription of Alg. 4,
including the "notify back the visitor" branch: when the visited vertex
turns out to be *closer* to the source than the sender implied, it
replies with its own level so the sender can improve — this is what
makes a single undirected edge event repair both directions.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from repro.algorithms.base import INF, min_monotone_merge
from repro.kernels.frontier import FrontierKernel
from repro.runtime.program import VertexContext, VertexProgram


def next_level(levels: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Alg. 4's candidate over arrays: one hop past the tail's level."""
    return levels + 1


class IncrementalBFS(VertexProgram):
    """Maintains live BFS levels from a source chosen via ``init()``.

    Usage::

        bfs = IncrementalBFS()
        engine = DynamicEngine([bfs], EngineConfig(n_ranks=4))
        engine.init_program("bfs", source_vertex)
        engine.attach_streams(streams)
        engine.run()
        engine.value_of("bfs", v)   # 0 = never seen, INF = unreached
    """

    name = "bfs"
    snapshot_mode = "merge"
    # §II-D: two queued levels from the same sender squash to the better
    # (smaller) one; 0 stays the "unset" identity.
    combine = merge = staticmethod(min_monotone_merge)
    # Bulk-ingest fast path: levels relax as min(level, nbr + 1).
    bulk_kernel = FrontierKernel(np.int64, np.minimum, INF, next_level)

    def on_init(self, ctx: VertexContext, payload: Any) -> None:
        # Begin traversal from this vertex.
        ctx.set_value(1)
        ctx.update_nbrs(1)

    def on_add(self, ctx: VertexContext, vis_id: int, vis_val: Any, weight: int) -> None:
        # If we are a new vertex, ensure level is inf.
        if ctx.value == 0:
            ctx.set_value(INF)

    def on_reverse_add(
        self, ctx: VertexContext, vis_id: int, vis_val: Any, weight: int
    ) -> None:
        if ctx.value == 0:
            ctx.set_value(INF)
        # The rest of the logic is the same as the update step.
        self.on_update(ctx, vis_id, vis_val, weight)

    def on_update(self, ctx: VertexContext, vis_id: int, vis_val: Any, weight: int) -> None:
        value = ctx.value
        if value == 0:
            # Defensive init (an update can only arrive over an existing
            # edge, so this is unreachable in practice; keep parity with
            # the pseudocode's invariant anyway).
            value = INF
            ctx.set_value(INF)
        if vis_val == 0:
            vis_val = INF  # sender was brand new; treat as unreached
        if value < vis_val - 1:
            # We are closer: notify back the visitor so it can improve.
            # (Undirected only — over a directed edge the sender cannot
            # traverse back through us.)
            if ctx.undirected:
                ctx.update_single_nbr(vis_id, value, weight)
        elif value > vis_val + 1:
            # They are closer: adopt and recursively propagate.
            new_level = vis_val + 1
            ctx.set_value(new_level)
            ctx.update_nbrs(new_level)

    def format_value(self, value: Any) -> str:
        if value == 0:
            return "unseen"
        if value >= INF:
            return "inf"
        return str(value)
