"""The REMO family rows: each family's algebra, stated once.

Paper §II-B makes every REMO algorithm a monotone merge, and the Alg.
4-7 listings differ only in the candidate and the comparison ("SSSP is
similar to BFS, and unsurprisingly, uses almost identical code", §IV).
A :class:`Family` row is that difference:

======  ================  =================  ===========  ===========  =====
family  ``better(a, b)``  ``extend(v, w)``   first touch  ``init()``   join
======  ================  =================  ===========  ===========  =====
BFS     ``a < b``         ``v + 1``          ``INF``      1
SSSP    ``a < b``         ``v + w``          ``INF``      1
CC      ``a > b``         (unchanged)        own hash
widest  ``a > b``         ``min(v, w)``      (0)          ``CAP_INF``
S-T     a has a bit b     (unchanged)        (0)          its bit      union
        lacks
======  ================  =================  ===========  ===========  =====

BFS is SSSP over one-hop edges: its ``extend`` is SSSP's ``+`` with
``hop=1`` standing in for the stored weight.

Everything else derives from the row: the add-only program
(:func:`remo`, all of Algs. 4-7 in one ``on_update``), its ``combine`` /
``merge``, its ``bulk_kernel`` (BFS, SSSP and CC), and the support-tree
algebra of its delete-capable twin (:mod:`repro.algorithms.generations`).

Value conventions follow the paper's pseudocode: ``0`` is the engine
default for a vertex no callback has written — a family with a first
touch replaces it on arrival ("if we are a new vertex"), widest and S-T
read it as "nothing yet"; ``INF`` is "MAX_INTEGER", ``2**62`` so that
``INF + weight`` stays an exact int that still compares greater than any
reachable level or cost.
"""

from __future__ import annotations

import operator
from typing import Any, Callable

import numpy as np

from repro.algorithms.cc import component_label, component_labels
from repro.kernels.frontier import FrontierKernel
from repro.runtime.program import VertexContext, VertexProgram

INF = 1 << 62
CAP_INF = 1 << 62  # the widest source's own capacity (no bottleneck to itself)


def _unchanged(value: Any, weight: int) -> Any:
    """A value that crosses an edge unchanged (over ints or arrays)."""
    return value


class Family:
    """One REMO family's algebra (the module docstring's table).

    * ``better(a, b)`` — would a holder of ``b`` gain from ``a``?
    * ``extend(value, weight)`` — what ``value`` is worth across an
      edge; None when it crosses unchanged.  Works on ints and arrays.
    * ``hop`` — the weight every edge counts as, whatever it stores
      (BFS: SSSP over one-hop edges); None reads the edge's weight.
    * ``first`` — the first-touch value: a constant or a function of the
      vertex id; None where 0 already means "unset".
    * ``grant(payload)`` — the value an ``init()`` visitor grants; None
      for a family that takes no ``init()``.
    * ``join(value, candidate)`` — the value adopted from a better
      candidate; None when it is the candidate itself.
    * ``kernel`` — ``(dtype, reduce[, seed])`` where the family has an
      array kernel: the :class:`FrontierKernel` adds the identity (the
      constant first touch, else 0) and ``extend``.
    * ``show(value)`` — a set value, pretty-printed.
    """

    def __init__(
        self,
        name: str,
        better: Callable[[Any, Any], bool],
        extend: Callable[[Any, int], Any] | None = None,
        first: Any = None,
        grant: Callable[[Any], Any] | None = None,
        join: Callable[[Any, Any], Any] | None = None,
        kernel: tuple | None = None,
        show: Callable[[Any], str] | None = None,
        hop: int | None = None,
    ) -> None:
        self.name, self.better, self.extend, self.hop = name, better, extend, hop
        self.grant, self.join, self.show = grant, join, show
        constant = first is not None and not callable(first)
        self.first = (lambda vertex: first) if constant else first
        self.kernel = None
        if kernel is not None:
            dtype, reduce, *seed = kernel
            identity = first if constant else 0
            extend = self.crossing()
            self.kernel = FrontierKernel(dtype, reduce, identity, extend, *seed)

    def crossing(self) -> Callable[[Any, int], Any]:
        """``extend`` as a function of ``(value, weight)``, ``hop`` applied."""
        extend, hop = self.extend or _unchanged, self.hop
        return extend if hop is None else lambda value, weight: extend(value, hop)

    def merge(self) -> Callable[[Any, Any], Any]:
        """The monotone combine of two values, 0 being "unset"."""
        if self.join is not None:
            return self.join  # 0 is the union's own identity
        better = self.better

        def merge(a: Any, b: Any) -> Any:
            if a == 0:
                return b
            if b == 0:
                return a
            return b if better(b, a) else a

        return merge


def _distance(value: int) -> str:
    return "inf" if value >= INF else str(value)


def _capacity(value: int) -> str:
    return "source" if value >= CAP_INF else str(value) if value else "unreached"


def _gains(a: int, b: int) -> bool:
    """S-T's order: bitmap ``a`` holds a source ``b`` lacks."""
    return a & ~b != 0


BFS = Family(
    "bfs", operator.lt, operator.add, INF, lambda payload: 1,
    kernel=(np.int64, np.minimum), show=_distance, hop=1,
)  # fmt: skip
SSSP = Family(
    "sssp", operator.lt, operator.add, INF, lambda payload: 1,
    kernel=(np.int64, np.minimum), show=_distance,
)  # fmt: skip
CC = Family(
    "cc", operator.gt, first=component_label,
    kernel=(np.uint64, np.maximum, component_labels),
    show=lambda label: f"comp:{label:016x}",
)  # fmt: skip
WIDEST = Family(
    "widest", operator.gt, min, grant=lambda payload: CAP_INF, show=_capacity
)
ST = Family("st", _gains, grant=lambda payload: 1 << int(payload), join=operator.or_)


def remo(row: Family) -> type[VertexProgram]:
    """The add-only program of ``row``: Algs. 4-7 as one set of callbacks.

    An update adopts and broadcasts iff ``better(extend(theirs, w),
    value)``; otherwise it notifies the sender back iff
    ``better(extend(value, w), theirs)``.  Alg. 7's "mix" case is the
    adopt branch with a ``join``.

    One deviation from the listings: the broadcast skips the sender
    (the support tree's rule 1) unless the adopted value is better than
    the one it sent — only a ``join`` can make it so (S-T's union can
    hold a bit the sender lacks).  On an add-only stream the sender's
    value only improves, so it still holds at least ``theirs``, and
    with weights >= 0 no ``extend`` improves a value: the echo Algs.
    4-7 send it can change nothing.  Each view of a collection is
    monotone too, so the same holds in S_prev and S_new.
    An equal value is Alg. 7's first case, "do nothing", for every row:
    with weights >= 0 no ``extend`` improves a value.  It is tested
    first — over half of the updates of a BFS+CC ingest carry one — and
    the algebra is bound as closure locals, an unchanged crossing making
    no call at all.
    """
    better, extend, hop, first, grant, join = (
        row.better, row.extend, row.hop, row.first, row.grant, row.join
    )  # fmt: skip

    # Tests are truth tests: a set value, a function and ``hop`` are
    # truthy and 0 and None are not, so a row's absent piece costs two
    # bytecodes, not four — the callbacks run once per visit.
    def on_init(self, ctx: VertexContext, payload: Any) -> None:
        value = grant(payload)
        if join:
            value = join(ctx.value, value)
        ctx.set_value(value)
        ctx.update_nbrs(value)

    def on_add(
        self, ctx: VertexContext, vis_id: int, vis_val: Any, weight: int
    ) -> None:
        if not ctx.value:  # a new vertex
            ctx.set_value(first(ctx.vertex))

    # Also the reverse side of an add: "the rest of the logic is the same
    # as the update step" (Algs. 4-7), after the same first touch.
    def on_update(
        self, ctx: VertexContext, vis_id: int, vis_val: Any, weight: int
    ) -> None:
        value = ctx.value
        if not value and first:  # a new vertex
            value = first(ctx.vertex)
            ctx.set_value(value)
        if not vis_val and first:  # the sender was new when it emitted
            vis_val = first(vis_id)
        if vis_val == value:
            return
        w = hop or weight
        offered = extend(vis_val, w) if extend else vis_val
        if better(offered, value):
            skip = vis_id
            if join:
                offered = join(value, offered)
                if better(offered, vis_val):  # the union holds a bit it lacks
                    skip = None
            ctx.set_value(offered)
            ctx.update_nbrs(offered, skip)
        elif better(extend(value, w) if extend else value, vis_val):
            ctx.update_single_nbr(vis_id, value, weight)

    def format_value(self, value: Any) -> str:
        return "unseen" if value == 0 and first is not None else self.show(value)

    merge = staticmethod(row.merge())
    attrs = {
        "name": row.name,
        "snapshot_mode": "merge",
        # §II-D: queued values from one sender squash to their merge.
        "combine": merge,
        "merge": merge,
        "bulk_kernel": row.kernel,
        "on_reverse_add": on_update,
        "on_update": on_update,
        "format_value": format_value,
    }
    if grant is not None:
        attrs["on_init"] = on_init
    if first is not None:
        attrs["on_add"] = on_add
    if row.show is not None:
        attrs["show"] = staticmethod(row.show)
    return type(f"Remo[{row.name}]", (VertexProgram,), attrs)


class SourceRegistry:
    """S-T's source registry, shared by both S-T programs: a source's bit
    is assigned by :meth:`register_source`, whose return value is the
    ``init()`` payload (configuration, read-only while running)."""

    def __init__(self) -> None:
        self.source_bits: dict[int, int] = {}

    def register_source(self, vertex: int) -> int:
        """Assign (or return) the bit index for a source vertex."""
        if vertex not in self.source_bits:
            self.source_bits[vertex] = len(self.source_bits)
        return self.source_bits[vertex]

    def bit_of(self, source_vertex: int) -> int:
        return self.source_bits[source_vertex]

    @staticmethod
    def mask_of(value: Any) -> int:
        """Project a stored value to its plain reachability bitmap."""
        return value

    def is_connected(self, value: Any, source_vertex: int) -> bool:
        """Does a stored value indicate connectivity to ``source_vertex``?"""
        return bool(self.mask_of(value) >> self.source_bits[source_vertex] & 1)

    def sources_in(self, mask: int) -> list[int]:
        """Decode a bitmap into the list of reachable sources."""
        return [s for s, b in self.source_bits.items() if mask >> b & 1]

    def show(self, mask: int) -> str:
        return f"sources:{{{','.join(map(str, self.sources_in(mask)))}}}"


class IncrementalBFS(remo(BFS)):
    """Live BFS levels from an ``init()`` source (Alg. 4): the source is
    level 1; 0 = never seen, INF = unreached."""


class IncrementalSSSP(remo(SSSP)):
    """Live shortest-path costs from an ``init()`` source (Alg. 5): the
    source costs 1 and a vertex ``1 + (min total weight from it)``.
    Weights must be >= 0 — an undirected negative edge is a negative
    cycle — and a re-add may only lower one (§II-B)."""


class IncrementalCC(remo(CC)):
    """Live component labels (Alg. 6); no ``init()``.  A vertex seeds
    itself with :func:`component_label` — also where the reverse side
    of an add meets a new vertex, where Alg. 6 adopts the visitor's
    label on an ordering assumption plain hashing does not give — and
    the larger label wins, so a component ends on its maximum hash."""


class WidestPath(remo(WIDEST)):
    """Live bottleneck capacities from an ``init()`` source: the widest
    of all source->v paths' minimum edge weights (``CAP_INF`` at the
    source, 0 while unreachable), capacities only grow."""


class MultiSTConnectivity(SourceRegistry, remo(ST)):
    """Per vertex, the bitmap of the sources it reaches (Alg. 7); a
    source joins with ``init_program("st", s, st.register_source(s))``."""
