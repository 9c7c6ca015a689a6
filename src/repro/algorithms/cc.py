"""Incremental Connected Components — Algorithm 6 of the paper.

A label-propagation scheme with no initiating vertex: "each vertex
primarily assumes it will dominate the component it is attached to",
seeding itself with ``hash(vertex_id)`` on arrival and exchanging labels
with neighbours; the larger label wins and recursively floods the
united component (the two edge-addition cases of §II-B).

Monotonically evolving state: the component label, which only ever
*increases* toward the component's maximum vertex hash.  (§II-B's prose
describes the minimum-label variant; Algorithm 6's comparisons are the
max-dominates mirror image — we follow the algorithm.  Hashing the IDs,
rather than comparing raw IDs, removes insertion-order bias and is what
lets the label double as an unbiased component representative.)

One deliberate divergence from the Alg.-6 listing: its ``reverse_add``
adopts the visitor's label outright when this vertex is new, justified
by an assumption about hash/arrival ordering that plain ID hashing does
not provide.  We instead seed the new vertex with its own hash and fall
through to the update logic, which converges to the same deterministic
answer (max hash in the component) without that assumption.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from repro.algorithms.base import max_monotone_merge
from repro.kernels.frontier import FrontierKernel
from repro.runtime.program import VertexContext, VertexProgram
from repro.util.hashing import stable_vertex_hash, stable_vertex_hash_array

# Labels must never be 0 (the engine's "unset" default); fold the zero
# hash (astronomically unlikely, but cheap to guard) up to 1.
_LABEL_SALT = 0xCC


def component_label(vertex_id: int) -> int:
    """The label a vertex seeds itself with (its salted hash, never 0)."""
    return stable_vertex_hash(vertex_id, _LABEL_SALT) or 1


def component_labels(ids: np.ndarray) -> np.ndarray:
    """:func:`component_label` of every entry of ``ids``, as uint64."""
    labels = stable_vertex_hash_array(np.asarray(ids, dtype=np.int64), _LABEL_SALT)
    return np.where(labels == 0, np.uint64(1), labels)


def carried_label(labels: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Alg. 6's candidate over arrays: a label crosses an edge as is."""
    return labels


class IncrementalCC(VertexProgram):
    """Maintains live component labels; no ``init()`` required.

    Two vertices are in the same component iff their values are equal
    (once quiescent).  Use :func:`component_label` to predict a specific
    component's final label in tests.
    """

    name = "cc"
    snapshot_mode = "merge"
    # §II-D: queued labels from the same sender squash to the dominator
    # (labels only grow; 0 loses to any real label).
    combine = merge = staticmethod(max_monotone_merge)
    # Bulk-ingest fast path: labels relax as max(label, nbr label).
    bulk_kernel = FrontierKernel(
        np.uint64, np.maximum, 0, carried_label, component_labels
    )

    def on_add(self, ctx: VertexContext, vis_id: int, vis_val: Any, weight: int) -> None:
        # If we are a new vertex, label us.
        if ctx.value == 0:
            ctx.set_value(component_label(ctx.vertex))

    def on_reverse_add(
        self, ctx: VertexContext, vis_id: int, vis_val: Any, weight: int
    ) -> None:
        # If we are unlabeled (new), seed our own label first (see the
        # module docstring for why we diverge from Alg. 6 here)...
        if ctx.value == 0:
            ctx.set_value(component_label(ctx.vertex))
        # ...then the logic is the same as the update step.
        self.on_update(ctx, vis_id, vis_val, weight)

    def on_update(self, ctx: VertexContext, vis_id: int, vis_val: Any, weight: int) -> None:
        value = ctx.value
        if value == 0:
            value = component_label(ctx.vertex)
            ctx.set_value(value)
        if vis_val == 0:
            # Sender was brand new when it emitted; its label is its hash.
            vis_val = component_label(vis_id)
        if value > vis_val:
            # Our component is the dominator: notify back the visitor.
            ctx.update_single_nbr(vis_id, value, weight)
        elif value < vis_val:
            # Their component dominates: adopt, send our new label to all.
            ctx.set_value(vis_val)
            ctx.update_nbrs(vis_val)

    def format_value(self, value: Any) -> str:
        return "unseen" if value == 0 else f"comp:{value:016x}"
