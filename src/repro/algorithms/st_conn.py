"""Incremental Multi S-T Connectivity — Algorithm 7 of the paper.

From each source vertex S_i "a flow outwards is established, and any
vertex T can identify if they are connected to the source".  The
monotonically evolving state is the *set* of sources a vertex can
currently reach, represented as a bitmap ("the same argument can be
extended to multi S-T connectivity by using a bitmap", §II-B) — here an
arbitrary-precision Python int, one bit per registered source.

The update step is Alg. 7's four-way set comparison: equal → nothing;
superset → notify back; subset → adopt & broadcast; mixed → union &
broadcast (which eventually exchanges the sets between the two sides).

Sources are registered with :meth:`register_source`, which assigns the
bit; the engine's ``init_program`` then delivers the bit to the source
vertex as the ``init()`` payload — initiation can happen at any time,
before, during, or after construction.
"""

from __future__ import annotations

from typing import Any

from repro.algorithms.base import union_merge
from repro.runtime.program import VertexContext, VertexProgram


class MultiSTConnectivity(VertexProgram):
    """Maintains, per vertex, the bitset of sources it can reach.

    Usage::

        st = MultiSTConnectivity()
        engine = DynamicEngine([st], ...)
        for s in sources:
            engine.init_program("st", s, payload=st.register_source(s))
        ...
        st.is_connected(engine.value_of("st", t), s)
    """

    name = "st"
    snapshot_mode = "merge"
    # §II-D: queued reachability bitmaps from the same sender squash to
    # their union (the set only ever grows).
    combine = merge = staticmethod(union_merge)

    def __init__(self) -> None:
        # Configuration (read-only during execution): source -> bit index.
        self.source_bits: dict[int, int] = {}

    # -- source registry (configuration, not per-vertex state) ----------
    def register_source(self, vertex: int) -> int:
        """Assign (or return) the bit index for a source vertex; the
        returned value is the ``init()`` payload."""
        if vertex not in self.source_bits:
            self.source_bits[vertex] = len(self.source_bits)
        return self.source_bits[vertex]

    def bit_of(self, source_vertex: int) -> int:
        return self.source_bits[source_vertex]

    def is_connected(self, value: int, source_vertex: int) -> bool:
        """Does a vertex value indicate connectivity to ``source_vertex``?"""
        return bool(value >> self.source_bits[source_vertex] & 1)

    def sources_in(self, value: int) -> list[int]:
        """Decode a vertex value into the list of reachable sources."""
        return [s for s, b in self.source_bits.items() if value >> b & 1]

    # -- callbacks (Alg. 7) ---------------------------------------------
    def on_init(self, ctx: VertexContext, payload: Any) -> None:
        # Begin a source from this vertex: value := value ∪ {self}.
        bit = 1 << int(payload)
        new_value = ctx.value | bit
        ctx.set_value(new_value)
        ctx.update_nbrs(new_value)

    def on_add(self, ctx: VertexContext, vis_id: int, vis_val: Any, weight: int) -> None:
        # Do nothing but wait.
        pass

    def on_reverse_add(
        self, ctx: VertexContext, vis_id: int, vis_val: Any, weight: int
    ) -> None:
        # The logic is the same as the update step.
        self.on_update(ctx, vis_id, vis_val, weight)

    def on_update(self, ctx: VertexContext, vis_id: int, vis_val: Any, weight: int) -> None:
        value = ctx.value
        union = value | vis_val
        if value == vis_val:
            pass  # do nothing
        elif union == value:
            # Our set is a pure SUPERset of theirs: notify back.
            ctx.update_single_nbr(vis_id, value, weight)
        else:
            # Pure subset or a mix: apply their set, send to all
            # neighbours (Alg. 7 treats both branches identically).
            ctx.set_value(union)
            ctx.update_nbrs(union)

    def format_value(self, value: Any) -> str:
        return f"sources:{{{','.join(map(str, self.sources_in(value)))}}}"
