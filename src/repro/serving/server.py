"""On-line query serving against live REMO state (the "millions of
users" tier).

The paper's §III-E observes that REMO state is constant-time observable
at the owning rank; this module turns that observation into a serving
surface: point lookups (distance, component membership, reachability,
widest-path capacity) and snapshot reads answered *during* ingest,
without stopping the stream, in three tiers —

1. **stable-value cache hit** — O(1), never touches the engine.
   Admission is monotone-bound gated (see
   :mod:`repro.serving.cache`): a value enters the cache only when it
   is provably converged, either absorbing (equals the static bound on
   the full stream — can never change again) or settled (the engine is
   drained — converged on the ingested prefix, dropped again by the
   engine's per-write invalidation the moment anything improves it).
2. **bounded-staleness live read** — a constant-time read of live rank
   state with an explicit ``(value, as_of_vtime, stale)`` envelope;
   ``stale=True`` says pending frontier work may still improve this
   answer.
3. **trigger** — the "When"-query tier, registered on the engine
   itself (:meth:`~repro.runtime.engine.DynamicEngine.add_trigger`, kept
   by :class:`repro.runtime.queries.TriggerManager`): a predicate plus
   callback fired at the exact virtual instant the condition first
   holds.  A frozen harvest has no engine and no trigger tier.

Whole-state reads stay available as the in-protocol versioned
collection (:meth:`ServingLayer.snapshot` — the paper's cut → drain →
harvest epoch), which is also the baseline the stable-cache point read
is benchmarked against (``benchmarks/bench_serving_latency.py``).

Backends: :class:`EngineBackend` serves a live
:class:`~repro.runtime.engine.DynamicEngine` (the DES backend);
:class:`FrozenBackend` serves a quiesced state harvest (e.g. the mp
backend's :class:`~repro.parallel.ParallelResult`), where every value
is trivially stable.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any, Mapping

from repro.analytics.verify import FAMILIES
from repro.serving.cache import StableValueCache

# The typed wrappers' "no answer" tests are the families' own (BFS and
# SSSP share the distance convention).
_no_distance = FAMILIES["bfs"].unreached
_no_capacity = FAMILIES["widest"].unreached

# How many 8,192-action engine slices a snapshot read may drive before
# it gives up on the collection concluding.
SNAPSHOT_MAX_ROUNDS = 1_000_000


@dataclass(frozen=True)
class QueryResult:
    """One served answer with its staleness envelope.

    ``stale=False`` is a guarantee: the value equals the static answer
    on the discretized prefix ingested so far (checked by the ``serve``
    rule of ``tests/properties/test_engine_contract.py``).  ``stale=True`` is a
    bounded-staleness read: the monotone live value, which pending
    frontier work may still improve.
    """

    prog: str
    vertex: int
    value: Any
    as_of_vtime: float
    stale: bool
    source: str  # "cache" | "live"

    def to_dict(self) -> dict[str, Any]:
        return {
            "prog": self.prog,
            "vertex": self.vertex,
            "value": self.value,
            "as_of_vtime": self.as_of_vtime,
            "stale": self.stale,
            "source": self.source,
        }


class EngineBackend:
    """Serving adapter over a live :class:`DynamicEngine` (DES)."""

    supports_snapshots = True

    def __init__(self, engine):
        self.engine = engine
        self.prog_names = [p.name for p in engine.programs]

    def prog_index(self, prog: int | str) -> int:
        return self.engine.prog_index(prog)

    def read(self, prog: int, vertex: int) -> Any:
        eng = self.engine
        eng.sync_values()
        return eng.value_of(prog, vertex)

    def vtime(self) -> float:
        return self.engine.vtime()

    def drained(self) -> bool:
        return self.engine.drained()

    def add_only(self) -> bool:
        """Are the attached streams provably insert-only?  Deletes
        (§VI-B) break the monotone-bound argument behind absorbing
        cache entries, so the serving layer must ask per admission —
        a delete-carrying stream can be attached at any time."""
        return self.engine._streams_add_only

    def watermark(self) -> int:
        return self.engine.ingest_watermark()


class FrozenBackend:
    """Serving adapter over a quiesced state harvest.

    Used for the mp backend: :func:`repro.parallel.run_parallel` ships
    every rank's post-quiescence values back to the parent, and this
    backend serves them.  The harvest is by construction converged, so
    every read is stable and every vertex is cache-admissible.
    """

    supports_snapshots = False

    def __init__(
        self,
        prog_names: list[str],
        states: list[Mapping[int, Any]],
        vtime: float = 0.0,
    ):
        if len(prog_names) != len(states):
            raise ValueError(
                f"{len(prog_names)} program names for {len(states)} states"
            )
        self.prog_names = list(prog_names)
        self._states = [dict(s) for s in states]
        self._vtime = float(vtime)

    @classmethod
    def from_parallel_result(cls, result, programs) -> "FrozenBackend":
        """Wrap an mp-backend :class:`ParallelResult` state harvest."""
        names = [p.name for p in programs]
        return cls(names, [result.state(i) for i in range(len(names))])

    def prog_index(self, prog: int | str) -> int:
        if isinstance(prog, int):
            if not 0 <= prog < len(self.prog_names):
                raise ValueError(f"program index {prog} out of range")
            return prog
        try:
            return self.prog_names.index(prog)
        except ValueError:
            raise ValueError(f"no program named {prog!r}") from None

    def read(self, prog: int, vertex: int) -> Any:
        return self._states[prog].get(vertex, 0)

    def vtime(self) -> float:
        return self._vtime

    def drained(self) -> bool:
        return True

    def add_only(self) -> bool:
        return True  # frozen harvests are final regardless of history

    def watermark(self) -> int:
        return 0


class ServingLayer:
    """Long-lived query front-end over live (or harvested) REMO state.

    Parameters
    ----------
    engine:
        A :class:`DynamicEngine`, or an explicit backend
        (:class:`EngineBackend` / :class:`FrozenBackend`).
    references:
        Optional ``{prog: {vertex: final_value}}`` monotone bounds (the
        static answer on the full intended stream).  With a reference,
        a vertex whose live value already equals its bound is cached
        *absorbing* — served stale-free even mid-ingest, the
        stable-vertex-values short-circuit.
    """

    def __init__(
        self,
        engine,
        references: Mapping[int | str, Mapping[int, Any]] | None = None,
    ):
        if isinstance(engine, (EngineBackend, FrozenBackend)):
            self.backend = engine
        else:
            self.backend = EngineBackend(engine)
        self.cache = StableValueCache(len(self.backend.prog_names))
        # The live engine whose writes the cache must hear about; None
        # for a frozen harvest, which never mutates.
        self._engine = getattr(self.backend, "engine", None)
        self._refs: dict[int, Mapping[int, Any]] = {}
        self._attached = False
        for prog, vals in (references or {}).items():
            self.set_reference(prog, vals)

    # ------------------------------------------------------------------
    # configuration
    # ------------------------------------------------------------------
    def set_reference(self, prog: int | str, final_values: Mapping[int, Any]) -> None:
        """Register a monotone bound for ``prog`` (see class docs)."""
        self._refs[self.backend.prog_index(prog)] = final_values

    def close(self) -> None:
        """Detach the cache from the engine and drop it."""
        if self._attached:
            eng = self._engine
            eng._serve_caches = tuple(
                c for c in eng._serve_caches if c is not self.cache
            )
            self._attached = False
        self.cache.clear()

    # ------------------------------------------------------------------
    # the point-read tiers
    # ------------------------------------------------------------------
    def point(self, prog: int | str, vertex: int) -> QueryResult:
        """Serve one raw point lookup of a program's vertex value."""
        backend = self.backend
        p = prog if type(prog) is int else backend.prog_index(prog)
        entry = self.cache.lookup(p, vertex)
        if entry is not None and entry[2] and not backend.add_only():
            # The entry was admitted absorbing while every stream was
            # insert-only, but a delete-carrying stream has since been
            # attached: under deletes a value can move away from the
            # full-stream bound again, so the absorbing claim is void.
            self.cache.demote(p, vertex)
            entry = None
        if entry is not None:
            value, _admitted_at, absorbing = entry
            stale = not absorbing and not backend.drained()
            return QueryResult(
                backend.prog_names[p], vertex, value, backend.vtime(), stale, "cache"
            )
        value = backend.read(p, vertex)
        settled = backend.drained()
        ref = self._refs.get(p)
        # Absorbing admission requires the monotone-bound argument,
        # which only holds on insert-only sources (§VI-B deletes make
        # "equals the bound" a revisitable state, not a fixed point) —
        # on churn streams only settled admission remains.
        absorbing = (
            ref is not None and backend.add_only() and value == ref.get(vertex, 0)
        )
        if absorbing or settled:
            if not self._attached and self._engine is not None:
                self._engine._serve_caches += (self.cache,)
                self._attached = True
            self.cache.admit(p, vertex, value, backend.vtime(), absorbing)
        stale = not (absorbing or settled)
        return QueryResult(
            backend.prog_names[p], vertex, value, backend.vtime(), stale, "live"
        )

    # -- typed wrappers over point() -------------------------------------
    def distance(self, prog: int | str, vertex: int) -> QueryResult:
        """BFS level / SSSP cost; ``value=None`` when unreached."""
        res = self.point(prog, vertex)
        return replace(res, value=None if _no_distance(res.value) else res.value)

    def reachable(self, prog: int | str, vertex: int) -> QueryResult:
        """Is the vertex reached from the program's source?  (For
        distance-convention programs: BFS / SSSP.)"""
        res = self.point(prog, vertex)
        return replace(res, value=not _no_distance(res.value))

    def connected_to(self, prog: int | str, vertex: int, bit: int) -> QueryResult:
        """Multi S-T tier: is source ``bit`` in the vertex's bitset?
        (``bit`` from :meth:`MultiSTConnectivity.bit_of`.)"""
        res = self.point(prog, vertex)
        return replace(res, value=bool(res.value >> bit & 1))

    def capacity(self, prog: int | str, vertex: int) -> QueryResult:
        """Widest-path capacity; ``value=None`` when no path yet
        (the source itself reads CAP_INF)."""
        res = self.point(prog, vertex)
        return replace(res, value=None if _no_capacity(res.value) else res.value)

    def same_component(self, prog: int | str, u: int, v: int) -> QueryResult:
        """Component membership: are ``u`` and ``v`` in one component?

        Two point reads; equal non-zero labels mean one component.  The
        result is stamped stale unless both sides were stable (equal
        transient labels could still diverge)."""
        a = self.point(prog, u)
        b = self.point(prog, v)
        return QueryResult(
            a.prog,
            v,
            bool(a.value != 0 and a.value == b.value),
            max(a.as_of_vtime, b.as_of_vtime),
            a.stale or b.stale,
            "cache" if (a.source == "cache" and b.source == "cache") else "live",
        )

    # ------------------------------------------------------------------
    # the slow tier: snapshots
    # ------------------------------------------------------------------
    def snapshot(self, prog: int | str):
        """Whole-state read via the in-protocol versioned collection
        (§III-D cut → drain → harvest); returns the
        :class:`CollectionResult`.  This is the quiescence path a cached
        point read replaces — and the bench baseline for the >=50x
        claim.  Ingest continues during the epoch (the collection is
        continuous / non-pausing)."""
        if not self.backend.supports_snapshots:
            raise RuntimeError("snapshot reads need a live engine backend")
        eng = self.backend.engine
        p = eng.prog_index(prog)
        n0 = len(eng.collection_results)
        eng.request_collection(p, at_time=eng.vtime())
        for _ in range(SNAPSHOT_MAX_ROUNDS):
            eng.run(max_actions=8192)
            if len(eng.collection_results) > n0:
                return eng.collection_results[-1]
        raise RuntimeError(
            f"collection did not conclude in {SNAPSHOT_MAX_ROUNDS} rounds"
        )

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    def stats(self) -> dict[str, Any]:
        out = self.cache.stats()
        out["references"] = sorted(
            self.backend.prog_names[p] for p in self._refs
        )
        out["watermark"] = self.backend.watermark()
        return out
