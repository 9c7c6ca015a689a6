"""The vertex-program API — the paper's programming model (§III-A).

A :class:`VertexProgram` is the user-facing abstraction of Alg. 3: a set
of callbacks triggered at a vertex by the three key event types (add,
reverse-add, update), plus ``init`` for algorithms with a starting
vertex and optional delete callbacks for the decremental extension
(§VI-B).  Callbacks receive a :class:`VertexContext` bound to the
visited vertex, through which they read/write the vertex's algorithm
value and emit further update events (``update_nbrs`` /
``update_single_nbr`` — exactly the two emission primitives of Alg. 3).

Values are opaque to the engine except for two program-declared hooks
used by versioned global-state collection (§III-D):

* ``merge(a, b)`` — the monotone combine of the algorithm's value space
  (min for BFS/SSSP, max for CC, set-union for S-T).  Programs with a
  convex monotone state support ``snapshot_mode = "merge"``.
* programs whose callbacks are commutative deltas rather than monotone
  merges (e.g. degree counting) declare ``snapshot_mode = "replay"``:
  prev-version events replay against both state versions.

The engine guarantees (via per-channel FIFO, §III-C) that events
touching the same vertex are processed one at a time in arrival order,
so callbacks never need locks — the shared-nothing property the whole
design is built on.
"""

from __future__ import annotations

from typing import Any, Callable, Iterable


class VertexContext:
    """The view of one vertex handed to a program callback.

    One context object per (rank, program) is reused across calls — the
    engine rebinds it before each callback, so callbacks must not retain
    references past their own invocation.
    """

    __slots__ = (
        "_engine",
        "_rank",
        "_prog",
        "_values",
        "_store",
        "vertex",
        "_view_prev",
        "time",
    )

    def __init__(self, engine, rank: int, prog: int):
        self._engine = engine
        self._rank = rank
        self._prog = prog
        # This (rank, program)'s value dict and the rank's store, held
        # for the engine's life: both are only ever mutated in place
        # (checkpoint restore and the dense-mirror write-backs included).
        self._values = engine.values[rank][prog]
        self._store = engine.stores[rank]
        self.vertex = -1
        self._view_prev = False  # True while replaying against S_prev
        self.time = 0.0  # virtual time of the current visit

    # -- state ----------------------------------------------------------
    @property
    def value(self) -> Any:
        """The vertex's current algorithm value (0 if never written —
        the paper's 'new vertex' sentinel)."""
        if self._view_prev:
            return self._engine._read_prev_value(self._rank, self._prog, self.vertex)
        return self._values.get(self.vertex, 0)

    def set_value(self, value: Any) -> None:
        """Write the vertex's algorithm value (fires matching triggers,
        and performs the S_prev/S_new split bookkeeping when a global
        state collection is active)."""
        self._engine._write_value(
            self._rank, self._prog, self.vertex, value, self._view_prev
        )

    # -- topology -------------------------------------------------------
    @property
    def degree(self) -> int:
        """Current out-degree of this vertex in the rank-local store."""
        return self._store.degree(self.vertex)

    @property
    def undirected(self) -> bool:
        """Whether the engine runs in undirected mode (programs gate
        their notify-back branches on this: with directed edges the
        sender cannot use the visited vertex's value)."""
        return self._engine.config.undirected

    @property
    def edge_was_new(self) -> bool:
        """During ``on_add``/``on_reverse_add``: did the triggering event
        insert a *new* edge (True) or re-observe an existing one — an
        attribute update (False)?  Programs that must not double-count
        duplicate edge events (e.g. triangle counting) key off this."""
        return self._engine._edge_was_new[self._rank]

    def has_edge(self, nbr: int) -> bool:
        """Does this vertex currently have an edge to ``nbr``?

        Delete-capable programs use this to discard in-flight events
        that arrive over an edge removed in the meantime — messages
        address vertices, not edges, so the topology check is the
        receiver's job (§VI-B).
        """
        return self._store.has_edge(self.vertex, nbr)

    def neighbors(self) -> Iterable[tuple[int, int]]:
        """Iterate ``(neighbour, weight)`` over this vertex's edges."""
        return self._store.neighbors(self.vertex)

    @property
    def nbr_cache(self) -> dict[int, Any]:
        """Per-edge cache of the last value heard from each neighbour
        (Alg. 3's ``nbrs`` value map).  Only maintained when the program
        sets ``needs_nbr_cache = True``."""
        return self._engine._nbr_cache_for(self._rank, self._prog, self.vertex)

    def count(self, counter: str) -> None:
        """Bump one of this rank's ``RankCounters`` attribution fields
        (the delete-capable programs say *why* a visit happened)."""
        counters = self._engine.counters[self._rank]
        setattr(counters, counter, getattr(counters, counter) + 1)

    # -- event emission (Alg. 3's two primitives) ------------------------
    def update_nbrs(self, value: Any) -> None:
        """Send an UPDATE event carrying ``value`` to every neighbour."""
        self._engine._emit_update_all(self._rank, self._prog, self.vertex, value)

    def update_single_nbr(self, nbr: int, value: Any, weight: int | None = None) -> None:
        """Send an UPDATE event carrying ``value`` to one neighbour.

        ``weight`` is the edge weight to stamp on the event; when None
        the engine looks it up in the adjacency store (charged to the
        rank's clock).
        """
        self._engine._emit_update_one(
            self._rank, self._prog, self.vertex, nbr, value, weight
        )


class VertexProgram:
    """Base class for incremental algorithms (override the callbacks).

    Class attributes:

    * ``name`` — identifier used in metrics and engine lookups.
    * ``needs_nbr_cache`` — maintain Alg. 3's per-edge neighbour-value
      map (costs memory; only the decremental algorithms need it).
    * ``snapshot_mode`` — ``"merge"`` (REMO monotone state; requires
      :meth:`merge`) or ``"replay"`` (commutative-delta state).
    * ``combine`` — optional visitor-queue coalescing hook (§II-D).
      When set to a callable ``combine(old_val, new_val) -> merged``,
      two pending UPDATE payloads from the same sender to the same
      vertex may be squashed into one in the receiver's visitor queue;
      the hook must be the program's monotone merge over *update
      payloads* (min for BFS/SSSP, max for CC, bitwise-or for S-T),
      treating 0 as the "unset" identity where the program does.
      ``None`` (the default) disables coalescing for the program —
      mandatory for programs whose update payloads are commands or
      deltas rather than monotone values (degree counting, the
      generational delete programs).
    * ``bulk_kernel`` — optional array-native algebra: one
      :class:`repro.kernels.frontier.FrontierKernel` row from which both
      vectorized paths derive how they reach this program's REMO
      fixpoint over a whole batch of inserts.  Only sound for monotone
      programs whose fixpoint is interleaving-independent (§II-B);
      ``None`` (the default) keeps the program — and so the whole
      engine — per-event whenever it is loaded.
    * ``supports_versioned_collection`` — whether versioned (continuous)
      global-state collection (§III-D) is sound for this program.  The
      generational delete programs set it False: their invalidations
      are not expressible as the prev/new version split, so the
      engine refuses the collection
      (:class:`~repro.runtime.engine.UnsupportedCollectionError`)
      instead of harvesting a silently wrong cut.
    """

    name = "vertex-program"
    needs_nbr_cache = False
    snapshot_mode = "merge"
    combine: Callable[[Any, Any], Any] | None = None
    bulk_kernel: Any | None = None
    supports_versioned_collection = True

    # -- lifecycle callbacks ---------------------------------------------
    def on_init(self, ctx: VertexContext, payload: Any) -> None:
        """An ``init()`` visitor reached this vertex (query instantiation,
        'initiated at any time', §IV).  Default: no-op."""

    def on_add(self, ctx: VertexContext, vis_id: int, vis_val: Any, weight: int) -> None:
        """Edge ``(ctx.vertex -> vis_id)`` was just inserted here (the
        directed-edge source side).  ``vis_val`` is 0 (the ingesting rank
        knows no algorithm state).  Default: no-op."""

    def on_reverse_add(
        self, ctx: VertexContext, vis_id: int, vis_val: Any, weight: int
    ) -> None:
        """The reverse side of an undirected insert: edge
        ``(ctx.vertex -> vis_id)`` inserted, with ``vis_val`` carrying
        ``vis_id``'s value at the time it processed the ADD."""

    def on_update(self, ctx: VertexContext, vis_id: int, vis_val: Any, weight: int) -> None:
        """A propagated algorithmic event from neighbour ``vis_id``."""

    def on_delete(self, ctx: VertexContext, vis_id: int, weight: int) -> None:
        """Edge ``(ctx.vertex -> vis_id)`` was just removed here (source
        side).  Only called when the engine runs with deletes enabled."""

    def on_reverse_delete(
        self, ctx: VertexContext, vis_id: int, vis_val: Any, weight: int
    ) -> None:
        """Reverse side of an undirected delete."""

    # -- value-space hooks -------------------------------------------------
    def merge(self, a: Any, b: Any) -> Any:
        """Monotone combine of two values of this program's state space.

        Required when ``snapshot_mode == "merge"`` and a global state
        collection runs concurrently with this program.
        """
        raise NotImplementedError(
            f"{type(self).__name__} must implement merge() for snapshot_mode='merge'"
        )

    def format_value(self, value: Any) -> str:
        """Pretty-print a value (reports/debugging)."""
        return repr(value)


class CallbackProgram(VertexProgram):
    """Ad-hoc program assembled from plain functions (the §II-A style:
    'a programmer will only have to write these two simple callbacks').

    >>> degree = CallbackProgram(
    ...     name="degree",
    ...     on_add=lambda ctx, vid, val, w: ctx.set_value(ctx.value + 1),
    ... )
    """

    snapshot_mode = "replay"

    def __init__(
        self,
        name: str,
        on_init: Callable | None = None,
        on_add: Callable | None = None,
        on_reverse_add: Callable | None = None,
        on_update: Callable | None = None,
        on_delete: Callable | None = None,
        on_reverse_delete: Callable | None = None,
        needs_nbr_cache: bool = False,
    ):
        self.name = name
        self.needs_nbr_cache = needs_nbr_cache
        if on_init is not None:
            self.on_init = on_init  # type: ignore[method-assign]
        if on_add is not None:
            self.on_add = on_add  # type: ignore[method-assign]
        if on_reverse_add is not None:
            self.on_reverse_add = on_reverse_add  # type: ignore[method-assign]
        if on_update is not None:
            self.on_update = on_update  # type: ignore[method-assign]
        if on_delete is not None:
            self.on_delete = on_delete  # type: ignore[method-assign]
        if on_reverse_delete is not None:
            self.on_reverse_delete = on_reverse_delete  # type: ignore[method-assign]
