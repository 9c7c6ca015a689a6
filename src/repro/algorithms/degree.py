"""Degree tracking — the paper's introductory example (§II-A).

"As a trivial example, consider a simple query that aims to track the
degree of each vertex in a graph... a programmer will only have to write
these two simple callbacks": increment on edge insertion, decrement on
removal.  Paired with a trigger this gives the §II-A use case of "a
user-defined callback if the degree exceeds a certain threshold".

The value is a commutative delta (not a monotone merge), so the program
declares ``snapshot_mode = "replay"`` — versioned collection replays
prev-version deltas against both state versions.

Limitation: the callbacks read the live adjacency store (so duplicate
edge events do not inflate the count), and topology itself is not
versioned — a versioned snapshot of this program reflects degrees as of
harvest-time topology, not cut-time.  Use quiescence collection when an
exact discretized degree snapshot matters.
"""

from __future__ import annotations

from typing import Any

from repro.runtime.program import VertexContext, VertexProgram


class DegreeTracker(VertexProgram):
    """Maintains each vertex's live degree as its algorithm value.

    Both endpoints count the edge: each endpoint's value is its full
    undirected degree.
    """

    name = "degree"
    snapshot_mode = "replay"

    # The callbacks read the adjacency store's degree after the engine
    # applied the topology change, rather than blindly incrementing a
    # counter: re-adds of an existing edge (attribute updates) then
    # leave the tracked degree unchanged, as they should.

    def on_add(self, ctx: VertexContext, vis_id: int, vis_val: Any, weight: int) -> None:
        ctx.set_value(ctx.degree)

    def on_reverse_add(
        self, ctx: VertexContext, vis_id: int, vis_val: Any, weight: int
    ) -> None:
        ctx.set_value(ctx.degree)

    def on_delete(self, ctx: VertexContext, vis_id: int, weight: int) -> None:
        ctx.set_value(ctx.degree)

    def on_reverse_delete(
        self, ctx: VertexContext, vis_id: int, vis_val: Any, weight: int
    ) -> None:
        ctx.set_value(ctx.degree)
