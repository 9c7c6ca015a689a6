"""Incremental Single Source Shortest Path — Algorithm 5 of the paper.

"SSSP is similar to BFS, and unsurprisingly, uses almost identical
code": the level comparison becomes a weighted-cost comparison, and the
propagated candidate is ``vis_val + weight`` instead of ``vis_val + 1``.
The execution path, however, is far more data-dependent: edge weights
reshape the traversal pattern entirely (§IV.2), which is why the paper
benchmarks SSSP separately.

Monotonicity holds when edge-weight *updates* only decrease weights
(§II-B); the engine models a weight update as a re-add with the new
weight, so streams built with
:func:`repro.generators.weights.decreasing_reweights` stay convex.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from repro.algorithms.base import INF, min_monotone_merge
from repro.kernels.frontier import FrontierKernel
from repro.runtime.program import VertexContext, VertexProgram


class IncrementalSSSP(VertexProgram):
    """Maintains live shortest-path costs from an ``init()`` source.

    The source has cost 1 (the paper's ``init: this.value = 1``); a
    vertex's value is ``1 + (min total edge weight from the source)``.
    0 = never seen, INF = unreached.
    """

    name = "sssp"
    snapshot_mode = "merge"
    # §II-D: queued path costs from the same sender squash to the
    # cheaper one; 0 stays the "unset" identity.
    combine = merge = staticmethod(min_monotone_merge)
    # Bulk-ingest fast path: costs relax as min(cost, nbr + weight).
    bulk_kernel = FrontierKernel(np.int64, np.minimum, INF, np.add)

    def on_init(self, ctx: VertexContext, payload: Any) -> None:
        ctx.set_value(1)
        ctx.update_nbrs(1)

    def on_add(self, ctx: VertexContext, vis_id: int, vis_val: Any, weight: int) -> None:
        # If we are a new vertex, ensure cost is inf.
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
            value = INF
            ctx.set_value(INF)
        if vis_val == 0:
            vis_val = INF
        if value < vis_val - weight:
            # We have a lower cost: notify back the visitor (undirected
            # only — the reverse traversal does not exist otherwise).
            if ctx.undirected:
                ctx.update_single_nbr(vis_id, value, weight)
        elif value > vis_val + weight:
            # They have a lower cost: adopt, send our new cost to all.
            new_cost = vis_val + weight
            ctx.set_value(new_cost)
            ctx.update_nbrs(new_cost)

    def format_value(self, value: Any) -> str:
        if value == 0:
            return "unseen"
        if value >= INF:
            return "inf"
        return str(value)
