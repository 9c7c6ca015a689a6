"""BFS with a deterministic parent tree — the §II-D determinism clause.

Plain incremental BFS converges to deterministic *levels*, but the BFS
*tree* (who is whose parent) depends on message order when several
neighbours offer the same level.  §II-D: "if the parents are of equal
state, and the algorithm designer wishes for a deterministic BFS tree,
they need only define a second clause to discriminate between the two
potential parents (similar to static algorithms, such as choosing the
parent with the lowest vertex ID).  With this clause, the global state
at a specific time will become completely deterministic."

This program implements exactly that: the vertex value is the pair
``(level, parent)`` ordered lexicographically (level first, then parent
ID), which remains convex-monotone — the pair only ever decreases — so
all REMO machinery (asynchrony tolerance, versioned snapshots via
``merge``) applies unchanged.  The source's parent is ``SELF_PARENT``.
"""

from __future__ import annotations

from typing import Any

from repro.algorithms.base import INF
from repro.runtime.program import VertexContext, VertexProgram

SELF_PARENT = -2
UNKNOWN_PARENT = -1
_UNSET = (INF, UNKNOWN_PARENT)


class DeterministicBFS(VertexProgram):
    """Maintains ``(level, parent)`` with lowest-ID parent tie-breaking.

    The final state is a single deterministic BFS tree for any event
    interleaving: level = hop distance + 1 (source = 1), parent = the
    minimum-ID neighbour at level - 1.
    """

    name = "det-bfs"
    snapshot_mode = "merge"

    def on_init(self, ctx: VertexContext, payload: Any) -> None:
        # Update payloads always carry the sender's own (level, parent)
        # value; receivers derive the candidate from the carrying edge.
        ctx.set_value((1, SELF_PARENT))
        ctx.update_nbrs((1, SELF_PARENT))

    def on_add(self, ctx: VertexContext, vis_id: int, vis_val: Any, weight: int) -> None:
        if ctx.value == 0:
            ctx.set_value(_UNSET)

    def on_reverse_add(
        self, ctx: VertexContext, vis_id: int, vis_val: Any, weight: int
    ) -> None:
        if ctx.value == 0:
            ctx.set_value(_UNSET)
        self.on_update(ctx, vis_id, vis_val, weight)

    def on_update(self, ctx: VertexContext, vis_id: int, vis_val: Any, weight: int) -> None:
        value = ctx.value
        if value == 0:
            value = _UNSET
            ctx.set_value(value)
        level, parent = value
        if vis_val == 0:
            nbr_level, nbr_parent = INF, UNKNOWN_PARENT
        else:
            nbr_level, nbr_parent = vis_val
        # Candidate offered by this neighbour: one hop below it, with
        # the neighbour as parent; tie-break on the smaller parent ID.
        candidate = (nbr_level + 1, vis_id) if nbr_level < INF else _UNSET
        if candidate < (level, parent):
            ctx.set_value(candidate)
            ctx.update_nbrs(candidate)
        elif level < INF and (level + 1, ctx.vertex) < (nbr_level, nbr_parent):
            # We can improve the sender — on level, or on the parent
            # tie-break at equal level: notify back.
            ctx.update_single_nbr(vis_id, (level, parent), weight)

    def merge(self, a: Any, b: Any) -> Any:
        if a == 0:
            return b
        if b == 0:
            return a
        return min(a, b)

    def format_value(self, value: Any) -> str:
        if value == 0:
            return "unseen"
        level, parent = value
        if level >= INF:
            return "inf"
        p = "source" if parent == SELF_PARENT else str(parent)
        return f"level {level} via {p}"
