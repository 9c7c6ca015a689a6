"""Decremental support via per-vertex state generations — the §VI-B extension.

The paper outlines (but does not implement) a strategy for edge
*deletes* without stopping the world: when an action would break
monotonicity (a delete raising a BFS distance), "the affected state"
moves into a **new generation**, below every state of the old one, so
the combined ``(generation, value)`` stays monotone and the REMO
machinery keeps working.  Here "affected" is read narrowly, the way
SSSP-Del and RisGraph (PAPERS.md) read it: every vertex records the
neighbour its value was adopted from (its **support**), a delete of an
edge that is nobody's support is a no-op (*safe*, O(1)), and a delete
of a support edge invalidates exactly the subtree hanging off it and
re-relaxes that subtree from its boundary.  One protocol,
:class:`_SupportTree`, carries all five delete-capable programs; each
states only its algebra:

==========  ====================  =====================  ==================
program     ``intrinsic``         offer (``extend``)     ``better``
==========  ====================  =====================  ==================
BFS / SSSP  ``INF`` (source: 1)   ``dist + 1 / weight``  smaller
widest      0 (source: CAP_INF)   ``min(cap, weight)``   larger
CC          own hash              the label              larger
S-T         own source bits       the bitmap             has a missing bit
==========  ====================  =====================  ==================

**State.**  Live: ``(generation, value, support)``.  ``support`` is the
neighbour the value came from, or :data:`SELF` when the vertex holds it
*by right* (the query source, a CC vertex carrying its own hash, any
intrinsic value); S-T keeps one support per adopted bit.  Frozen (mid
repair): ``(generation, intrinsic, None, target, pending, kids)`` —
whom to ack (``(vertex, its generation)``, None for a wave's root),
neighbours whose ack is outstanding, neighbours that froze under us.
Index 1 is the projection on either shape.  ``generation`` counts the
invalidations the vertex went through (:data:`EPOCH0` at birth).

**Messages** are ordinary UPDATE visitors: ``("U", value)`` offer,
``("I", gen)`` invalidate, ``("A", gen, child)`` ack, ``("T", value)``
thaw-and-offer (value None: thaw only), ``("F",)`` fence.

**Rules.**

1. *Offer* (``U``, the value in ``T``, a REVERSE_ADD value): a live
   vertex adopts a strictly better candidate (``support := sender``,
   broadcast ``U``) or notifies back when it holds the better side; a
   frozen vertex ignores offers.  Offers cross edges, so they are
   dropped unless the edge exists at the receiver.
2. *Delete / reverse-delete of the edge to n*: live and supported by n
   -> invalidate as root; anything else -> nothing.
3. *Invalidate* (as root, or under target t): ``generation += 1``,
   value := intrinsic, freeze with ``pending`` = current neighbours
   except t and send each ``I(generation)``; nothing pending -> complete.
4. *On* ``I(g)`` *from s*: live and supported by s -> invalidate under
   ``(s, g)``; otherwise answer ``A(g, False)`` at once.
5. *On* ``A(g, child)`` *from s*: drop s from ``pending``, remember it
   in ``kids`` if ``child``; nothing pending -> complete.
6. *Complete*: root -> thaw; otherwise send the target ``A(its g, True)``.
7. *Thaw*: become live holding the intrinsic value by right, send
   ``T(value)`` to every current neighbour and ``T(None)`` to every kid
   that no longer is one.
8. *On* ``T(value)`` *from s*: frozen under s -> thaw; then rule 1.  A
   better neighbour's reply to ``T`` *is* the re-relaxation from the
   boundary.
9. *Fence*: the reverse-delete side also sends ``F`` to the other
   endpoint; on ``F`` from s, live and supported by s -> invalidate as
   root.

This is a Dijkstra–Scholten diffusing computation per support delete.
**Invariants:** the support pointers of live vertices form a forest
rooted at by-right holders (a vertex adopts only strictly better
candidates and values only improve while live, so a pointer cycle would
need a vertex adopted strictly before itself); a wave freezes the
closure of its root under "is supported by" (every dependent is reached
along support pointers and acks only after its own subtree has); no
vertex is frozen at quiescence.  **Why the root may trust what it hears
after thawing:** per-channel FIFO (§III-C) puts any stale ``U`` a
member sent before its ``I`` and its ``A``, so when the last ack
arrives no stale value is stored or in flight; a live vertex that
adopts a stale offer meanwhile has just made the sender its support and
receives that sender's ``I`` next on the same channel.  **Termination:**
a wave freezes a vertex at most once, waves are bounded by support
deletes plus fences, and inside one generation values only improve.

**Hazards** — all need an edge deleted and re-added while messages are
in flight (tiny dense graphs find them, large sparse ones do not):

a. *Ack ids are per freeze.*  ``A`` echoes the generation of the ``I``
   it answers; echoing the root's wave id let a late ack of an earlier
   freeze complete a later one (vertices left frozen, or thawed early).
b. *The fence.*  A DELETE applies at the canonical ``lo`` endpoint
   first (the engine routes every event of an edge through ``lo``'s
   owner).  Until the reverse-delete lands ``hi`` still sends over the
   old incarnation; if ``lo`` re-added the edge meanwhile it accepts
   those offers under the new one, and if ``hi`` is invalidated while
   the edge is absent on its side its ``I`` never reaches ``lo`` — a
   two-vertex support cycle holding a value no source backs.  ``F``
   follows those offers on the same channel and is a no-op unless the
   receiver still claims support from the sender.
c. *Control messages address vertices, not edges.*  Were ``I``/``A``
   dropped with their edge, a delete would have to patch ``pending`` and
   a re-add would let the old ``I`` through after the root stopped
   waiting for it.  ``I``, ``A``, ``F`` and the thaw half of ``T`` are
   processed whether or not the edge exists: every ``I`` gets exactly
   one ``A`` and no delete ever touches a wave.
d. *Kids without an edge* must still be released — rule 7's ``T(None)``
   (no offer: nothing may cross a missing edge).

Undirected engines only.  ``combine`` stays None (squashing would
reorder ``U`` against ``I``/``A`` and break the FIFO argument), and the
programs declare ``supports_versioned_collection = False`` — deletes
and version splitting compose poorly, the paper does not attempt it
either — so ``DynamicEngine.request_collection`` raises
:class:`~repro.runtime.engine.UnsupportedCollectionError`; use
quiescence collection.
"""

from __future__ import annotations

from typing import Any

from repro.algorithms.base import INF
from repro.algorithms.cc import component_label
from repro.algorithms.widest_path import CAP_INF
from repro.runtime.program import VertexContext, VertexProgram

SELF = -2  # support sentinel: the value is held by right
EPOCH0 = 0  # the generation every vertex is born into


class _SupportTree(VertexProgram):
    """The support-tree delete protocol (module docstring, rules 1–9).

    Subclasses state the algebra: :meth:`intrinsic`, :meth:`extend`,
    :meth:`better` and — when support is not one neighbour —
    :meth:`absorb` / :meth:`supported_by`; :meth:`by_right` if the
    program takes ``init()``.
    """

    snapshot_mode = "replay"
    supports_versioned_collection = False

    # -- the algebra -------------------------------------------------------
    def intrinsic(self, vertex: int) -> tuple[Any, Any]:
        """``(value, support)`` the vertex holds with no neighbour's help."""
        raise NotImplementedError

    def extend(self, value: Any, weight: int) -> Any:
        """What ``value`` is worth on the far side of an edge."""
        return value

    def better(self, a: Any, b: Any) -> bool:
        """Would a holder of ``b`` gain from being offered ``a``?"""
        raise NotImplementedError

    def absorb(self, value: Any, support: Any, candidate: Any, nbr: int):
        """``(value, support)`` after taking ``candidate`` from ``nbr``,
        or None when it brings nothing."""
        return (candidate, nbr) if self.better(candidate, value) else None

    def supported_by(self, support: Any, nbr: int) -> bool:
        return support == nbr

    def by_right(self, payload: Any) -> Any:
        """The candidate an ``init()`` visitor grants its vertex."""
        raise NotImplementedError(f"{self.name} takes no init()")

    def show(self, value: Any) -> str:
        return str(value)

    # -- callbacks ---------------------------------------------------------
    def _ensure(self, ctx: VertexContext) -> tuple:
        state = ctx.value
        if state == 0:
            state = (EPOCH0, *self.intrinsic(ctx.vertex))
            ctx.set_value(state)
        return state

    def on_init(self, ctx: VertexContext, payload: Any) -> None:
        state = self._ensure(ctx)
        if len(state) == 3:
            self._adopt(ctx, state, self.by_right(payload), SELF)
        else:  # frozen: the grant survives the thaw at index 1
            _, support = self.intrinsic(ctx.vertex)
            granted = self.absorb(state[1], support, self.by_right(payload), SELF)
            if granted is not None:
                ctx.set_value((state[0], granted[0], *state[2:]))

    def on_add(
        self, ctx: VertexContext, vis_id: int, vis_val: Any, weight: int
    ) -> None:
        self._ensure(ctx)

    def on_reverse_add(
        self, ctx: VertexContext, vis_id: int, vis_val: Any, weight: int
    ) -> None:
        theirs = self.intrinsic(vis_id)[0] if vis_val == 0 else vis_val[1]
        self._offer(ctx, self._ensure(ctx), vis_id, theirs, weight)

    def on_delete(self, ctx: VertexContext, vis_id: int, weight: int) -> None:
        self._edge_removed(ctx, vis_id)

    def on_reverse_delete(
        self, ctx: VertexContext, vis_id: int, vis_val: Any, weight: int
    ) -> None:
        if self._edge_removed(ctx, vis_id):
            ctx.update_single_nbr(vis_id, ("F",), weight)  # rule 9

    def on_update(
        self, ctx: VertexContext, vis_id: int, vis_val: Any, weight: int
    ) -> None:
        state = self._ensure(ctx)
        kind = vis_val[0]
        if kind == "U":
            # An offer over an edge deleted in the meantime would
            # smuggle a value through a path that no longer exists.
            if ctx.has_edge(vis_id):
                self._offer(ctx, state, vis_id, vis_val[1], weight)
            return
        # Control half: addressed to the vertex, edge or no edge (hazard c).
        ctx.count("repair_visits")
        live = len(state) == 3
        if kind == "I":
            if live and self.supported_by(state[2], vis_id):
                self._invalidate(ctx, state, (vis_id, vis_val[1]))
            else:
                ctx.update_single_nbr(vis_id, ("A", vis_val[1], False), weight)
        elif kind == "A":
            gen, value, _, target, pending, kids = state
            # Every I gets exactly one A and the sender waits for it.
            assert vis_val[1] == gen and vis_id in pending, (ctx.vertex, state)
            if vis_val[2]:
                kids = kids | {vis_id}
            self._settle(ctx, (gen, value, None, target, pending - {vis_id}, kids))
        elif kind == "T":
            offered = vis_val[1] is not None and ctx.has_edge(vis_id)
            if not live and state[3] is not None and state[3][0] == vis_id:
                # Thaw and take the target's value in one step: one
                # broadcast instead of T(intrinsic) chased by U(adopted).
                gen, value, _, _target, _pending, kids = state
                support = self.intrinsic(ctx.vertex)[1]
                adopted = offered and self.absorb(
                    value, support, self.extend(vis_val[1], weight), vis_id
                )
                self._thaw(ctx, (gen, *(adopted or (value, support))), kids)
            elif offered:
                self._offer(ctx, state, vis_id, vis_val[1], weight)
        elif kind == "F":
            if live and self.supported_by(state[2], vis_id):
                self._invalidate(ctx, state, None)
        else:  # pragma: no cover - corrupted payload
            raise ValueError(f"unknown generational payload {vis_val!r}")

    # -- the protocol ------------------------------------------------------
    def _offer(
        self, ctx: VertexContext, state: tuple, nbr: int, theirs: Any, weight: int
    ) -> None:
        if len(state) != 3:
            return  # frozen: the thaw's T asks again
        if self._adopt(ctx, state, self.extend(theirs, weight), nbr):
            return
        mine = state[1]
        if self.better(self.extend(mine, weight), theirs):
            # We hold the better side: notify back the visitor.
            ctx.update_single_nbr(nbr, ("U", mine), weight)

    def _adopt(
        self, ctx: VertexContext, state: tuple, candidate: Any, nbr: int
    ) -> bool:
        gen, value, support = state
        adopted = self.absorb(value, support, candidate, nbr)
        if adopted is None:
            return False
        ctx.set_value((gen, *adopted))
        ctx.update_nbrs(("U", adopted[0]))
        return True

    def _edge_removed(self, ctx: VertexContext, nbr: int) -> bool:
        """Rule 2; False at a vertex no event ever touched."""
        state = ctx.value
        if state == 0:
            return False
        if len(state) == 3 and self.supported_by(state[2], nbr):
            ctx.count("deletes_unsafe")
            self._invalidate(ctx, state, None)
        else:
            ctx.count("deletes_safe")
        return True

    def _invalidate(
        self, ctx: VertexContext, state: tuple, target: tuple[int, int] | None
    ) -> None:
        """Rule 3; ``target`` is ``(vertex, its generation)``, None at a root."""
        ctx.count("vertices_invalidated")
        gen = state[0] + 1
        skip = None if target is None else target[0]
        pending = [nbr for nbr, _ in ctx.neighbors() if nbr != skip]
        for nbr in pending:
            ctx.update_single_nbr(nbr, ("I", gen), 0)
        value, _ = self.intrinsic(ctx.vertex)
        frozen = (gen, value, None, target, frozenset(pending), frozenset())
        self._settle(ctx, frozen)

    def _settle(self, ctx: VertexContext, frozen: tuple) -> None:
        """Store a frozen state; complete it once nothing is pending."""
        gen, value, _, target, pending, kids = frozen
        if not pending and target is None:
            self._thaw(ctx, (gen, value, self.intrinsic(ctx.vertex)[1]), kids)
            return
        ctx.set_value(frozen)
        if not pending:
            ctx.update_single_nbr(target[0], ("A", target[1], True), 0)

    def _thaw(self, ctx: VertexContext, live: tuple, kids: frozenset) -> None:
        """Rule 7."""
        ctx.set_value(live)
        ctx.update_nbrs(("T", live[1]))
        for kid in kids:
            if not ctx.has_edge(kid):
                ctx.update_single_nbr(kid, ("T", None), 0)

    def format_value(self, value: Any) -> str:
        if value == 0:
            return "unseen"
        frozen = "" if len(value) == 3 else " (frozen)"
        return f"g{value[0]}:{self.show(value[1])}{frozen}"


class _GenerationalDistance(_SupportTree):
    """Distances: intrinsic ``INF``, the source holds 1 by right, an
    offer is the sender's distance plus :meth:`hop_cost`, smaller is
    better, support is the parent."""

    def hop_cost(self, weight: int) -> int:
        raise NotImplementedError

    def intrinsic(self, vertex: int) -> tuple[int, int]:
        return INF, SELF

    def extend(self, value: int, weight: int) -> int:
        return value + self.hop_cost(weight) if value < INF else INF

    def better(self, a: int, b: int) -> bool:
        return a < b

    def by_right(self, payload: Any) -> int:
        return 1

    def show(self, value: int) -> str:
        return "inf" if value >= INF else str(value)


class GenerationalBFS(_GenerationalDistance):
    """BFS levels with edge-delete support: intrinsic ``INF`` (source
    1), an offer is the sender's level + 1, the smaller level wins,
    support is the BFS parent.  State ``(generation, level, parent)``."""

    name = "gen-bfs"

    def hop_cost(self, weight: int) -> int:
        return 1


class GenerationalSSSP(_GenerationalDistance):
    """Shortest-path costs with edge-delete support: intrinsic ``INF``
    (source 1), an offer is the sender's cost + the edge weight, the
    smaller cost wins, support is the last hop.  State
    ``(generation, cost, parent)``."""

    name = "gen-sssp"

    def hop_cost(self, weight: int) -> int:
        return weight


class GenerationalWidest(_SupportTree):
    """Widest (bottleneck) path with edge-delete support: intrinsic 0
    (unreached; the source holds ``CAP_INF`` by right), an offer is
    ``min(sender's capacity, edge weight)``, the larger capacity wins,
    support is the last hop.  State ``(generation, capacity, parent)``."""

    name = "gen-widest"

    def intrinsic(self, vertex: int) -> tuple[int, int]:
        return 0, SELF

    def extend(self, value: int, weight: int) -> int:
        return min(value, weight)

    def better(self, a: int, b: int) -> bool:
        return a > b

    def by_right(self, payload: Any) -> int:
        return CAP_INF

    def show(self, value: int) -> str:
        return "source" if value >= CAP_INF else str(value) if value else "unreached"


class GenerationalCC(_SupportTree):
    """Connected components with edge-delete support: intrinsic value is
    the vertex's own hash, an offer is the sender's label unchanged, the
    larger label wins, support is the neighbour the label came from — so
    the supports form a spanning forest rooted at each component's
    maximum-hash vertex, a non-forest delete is a no-op, and a forest
    delete relabels only the subtree it cut off.  State
    ``(generation, label, support)``; takes no ``init()``."""

    name = "gen-cc"

    def intrinsic(self, vertex: int) -> tuple[int, int]:
        return component_label(vertex), SELF

    def better(self, a: int, b: int) -> bool:
        return a > b

    def show(self, value: int) -> str:
        return f"comp:{value:016x}"


class GenerationalST(_SupportTree):
    """Multi S-T connectivity with edge-delete support: intrinsic value
    is the bits of the sources registered at the vertex itself, an offer
    is the sender's bitmap unchanged, a bitmap is better when it holds a
    bit the other lacks, and support is kept *per bit* (``{bit:
    neighbour}``, ``SELF`` for an own bit) — losing the supporter of any
    bit invalidates the vertex back to its intrinsic bits.  State
    ``(generation, mask, supports)``.

    Source registration mirrors
    :class:`~repro.algorithms.st_conn.MultiSTConnectivity`:
    ``register_source`` assigns the bit, the returned index is the
    ``init()`` payload.
    """

    name = "gen-st"

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

    def is_connected(self, value: Any, source_vertex: int) -> bool:
        """Does a stored value indicate connectivity to ``source_vertex``?"""
        return bool(self.mask_of(value) >> self.source_bits[source_vertex] & 1)

    @staticmethod
    def mask_of(value: Any) -> int:
        """Project a stored value to its plain reachability bitmap."""
        return 0 if value == 0 else value[1]

    # -- the algebra -------------------------------------------------------
    def intrinsic(self, vertex: int) -> tuple[int, dict[int, int]]:
        bit = self.source_bits.get(vertex)
        return (0, {}) if bit is None else (1 << bit, {bit: SELF})

    def better(self, a: int, b: int) -> bool:
        return a & ~b != 0

    def absorb(self, value: int, support: dict[int, int], candidate: int, nbr: int):
        new = candidate & ~value
        if not new:
            return None
        gained = {b: nbr for b in range(new.bit_length()) if new >> b & 1}
        return value | new, {**support, **gained}

    def supported_by(self, support: dict[int, int], nbr: int) -> bool:
        return nbr in support.values()

    def by_right(self, payload: Any) -> int:
        return 1 << int(payload)

    def show(self, value: int) -> str:
        sources = [s for s, b in self.source_bits.items() if value >> b & 1]
        return f"sources:{{{','.join(map(str, sources))}}}"
