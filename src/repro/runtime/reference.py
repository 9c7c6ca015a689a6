"""A sequential reference engine — the executable spec of §III-A.

This is the abstract machine the paper's footnote 1 describes prior
work assuming: "topology events are each sequentially and atomically
ingested".  One Python deque, one vertex table, no ranks, no clocks, no
cost model.  It runs the *same* :class:`~repro.runtime.program.VertexProgram`
callbacks as the distributed engine, which makes it ideal for
differential testing: REMO convergence (§II-D) promises that the
asynchronous, distributed execution reaches exactly the state this
trivially-correct sequential machine reaches — and the property suite
checks that promise program-by-program.

It is also the honest baseline the paper's event-centric design is
measured against conceptually: everything the distributed engine adds
(ownership routing, FIFO channels, termination detection, snapshot
versions) exists to scale *this* semantics out.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Iterable

from repro.events.types import ADD
from repro.runtime.program import VertexProgram
from repro.runtime.visitor import VT_ADD, VT_DEL, VT_INIT, VT_RADD, VT_RDEL, VT_UPDATE
from repro.storage.degaware import DegAwareRHH


class _RefContext:
    """Minimal VertexContext look-alike bound to the reference engine."""

    __slots__ = ("_engine", "_prog", "vertex", "time", "_view_prev")

    def __init__(self, engine: "ReferenceEngine", prog: int):
        self._engine = engine
        self._prog = prog
        self.vertex = -1
        self.time = 0.0
        self._view_prev = False

    @property
    def value(self) -> Any:
        return self._engine.values[self._prog].get(self.vertex, 0)

    def set_value(self, value: Any) -> None:
        self._engine.values[self._prog][self.vertex] = value

    @property
    def degree(self) -> int:
        return self._engine.store.degree(self.vertex)

    def has_edge(self, nbr: int) -> bool:
        return self._engine.store.has_edge(self.vertex, nbr)

    def neighbors(self) -> Iterable[tuple[int, int]]:
        return self._engine.store.neighbors(self.vertex)

    def count(self, counter: str) -> None:
        """No ranks here, so no per-rank attribution counters."""

    def update_nbrs(self, value: Any, skip: int | None = None) -> None:
        for nbr, weight in list(self._engine.store.neighbors(self.vertex)):
            if nbr == skip:
                continue
            self._engine.queue.append(
                (VT_UPDATE, self._prog, nbr, self.vertex, value, weight)
            )

    def update_single_nbr(self, nbr: int, value: Any, weight: int | None = None) -> None:
        if weight is None:
            weight = self._engine.store.edge_weight(self.vertex, nbr) or 1
        self._engine.queue.append(
            (VT_UPDATE, self._prog, nbr, self.vertex, value, weight)
        )


class ReferenceEngine:
    """Sequential, atomic-per-event execution of vertex programs.

    Each topology event is ingested and its entire algorithmic cascade
    drained before the next event is looked at — the strictest possible
    serialisation.  API mirrors the distributed engine where it makes
    sense: ``ingest``, ``init_program``, ``state``, ``value_of``.
    """

    def __init__(self, programs: list[VertexProgram]):
        names = [p.name for p in programs]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate program names: {names}")
        self.programs = list(programs)
        self.store = DegAwareRHH()
        self.values: list[dict[int, Any]] = [dict() for _ in programs]
        self._ctx = [_RefContext(self, p) for p in range(len(programs))]
        self.queue: deque = deque()
        self.events_ingested = 0

    # ------------------------------------------------------------------
    def prog_index(self, name_or_index: int | str) -> int:
        if isinstance(name_or_index, int):
            return name_or_index
        for i, p in enumerate(self.programs):
            if p.name == name_or_index:
                return i
        raise ValueError(f"no program named {name_or_index!r}")

    def init_program(self, prog: int | str, vertex: int, payload: Any = None) -> None:
        """Run an init() visitor and drain its cascade immediately."""
        p = self.prog_index(prog)
        self.queue.append((VT_INIT, p, vertex, payload))
        self._drain()

    def ingest(self, events: Iterable[tuple[int, int, int, int]]) -> None:
        """Sequentially and atomically ingest topology events."""
        for kind, src, dst, weight in events:
            if dst < src:
                src, dst = dst, src
            if kind == ADD:
                self.queue.append((VT_ADD, src, dst, weight))
            else:
                self.queue.append((VT_DEL, src, dst))
            self.events_ingested += 1
            self._drain()

    def value_of(self, prog: int | str, vertex: int) -> Any:
        return self.values[self.prog_index(prog)].get(vertex, 0)

    def state(self, prog: int | str) -> dict[int, Any]:
        return dict(self.values[self.prog_index(prog)])

    def edges(self) -> Iterable[tuple[int, int, int]]:
        return self.store.edges()

    @property
    def num_edges(self) -> int:
        return self.store.num_edges

    # ------------------------------------------------------------------
    def _run(self, prog: int, vertex: int, cb: str, *args) -> None:
        ctx = self._ctx[prog]
        ctx.vertex = vertex
        getattr(self.programs[prog], cb)(ctx, *args)

    def _drain(self) -> None:
        queue = self.queue
        while queue:
            msg = queue.popleft()
            vt = msg[0]
            if vt == VT_UPDATE:
                _, p, target, vis_id, vis_val, weight = msg
                self._run(p, target, "on_update", vis_id, vis_val, weight)
            elif vt == VT_ADD:
                _, src, dst, weight = msg
                self.store.insert_edge(src, dst, weight)
                for p in range(len(self.programs)):
                    self._run(p, src, "on_add", dst, 0, weight)
                vals = tuple(
                    self.values[p].get(src, 0) for p in range(len(self.programs))
                )
                queue.append((VT_RADD, dst, src, vals, weight))
            elif vt == VT_RADD:
                _, dst, src, vals, weight = msg
                self.store.insert_edge(dst, src, weight)
                for p in range(len(self.programs)):
                    self._run(p, dst, "on_reverse_add", src, vals[p], weight)
            elif vt == VT_DEL:
                _, src, dst = msg
                weight = self.store.edge_weight(src, dst) or 0
                self.store.delete_edge(src, dst)
                for p in range(len(self.programs)):
                    self._run(p, src, "on_delete", dst, weight)
                vals = tuple(
                    self.values[p].get(src, 0) for p in range(len(self.programs))
                )
                queue.append((VT_RDEL, dst, src, vals))
            elif vt == VT_RDEL:
                _, dst, src, vals = msg
                weight = self.store.edge_weight(dst, src) or 0
                self.store.delete_edge(dst, src)
                for p in range(len(self.programs)):
                    self._run(p, dst, "on_reverse_delete", src, vals[p], weight)
            elif vt == VT_INIT:
                _, p, target, payload = msg
                self._run(p, target, "on_init", payload)
            else:  # pragma: no cover
                raise ValueError(f"unknown reference message {msg!r}")
