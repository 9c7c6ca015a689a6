"""The stable-value cache: O(1) point reads for provably converged state.

The serving layer's core perf mechanism, after Afarin et al.'s stable
vertex values (PAPERS.md): for a REMO program a vertex's value moves
*monotonically* toward its static answer and never overshoots it, so
there are two moments at which a value is provably done changing —

* **absorbing** — the value equals a known monotone bound (the static
  answer on the *full* intended stream).  Monotone convergence makes
  equality absorbing: the value can never move again, ever, so the
  entry survives even bulk value flushes.  This argument needs an
  insert-only source — under §VI-B deletes values are not monotone and
  equality with the bound is revisitable, so the serving layer refuses
  absorbing admission (and demotes stale absorbing entries) the moment
  a delete-carrying stream is attached;
* **settled** — the engine is drained, i.e. the value is the
  converged answer on the *ingested-so-far* prefix.  It may still
  change when future stream events arrive, which is why every per-event
  value write calls :meth:`StableValueCache.invalidate` on each cache
  attached to the engine (``engine._serve_caches``) and drops the entry.

Either way, a cached entry always equals the live engine value — the
per-write invalidation guarantees coherence — so a cache hit is an
exact substitute for a live read that costs one dict probe instead of
touching engine state at all.

Keyed by ``(prog, vertex)`` as two levels of dict; the hot invalidation
path (`invalidate`) is a get + pop, cheap enough to ride every value
write once any entries exist (the ServingLayer attaches its cache on
first admission, so an idle serving layer costs nothing).
"""

from __future__ import annotations

from typing import Any

#: Cache entry tuple layout: (value, admitted_vtime, absorbing).
Entry = tuple[Any, float, bool]


class StableValueCache:
    """Per-program stable-value store with hit/miss/invalidation stats."""

    __slots__ = ("_entries", "hits", "misses", "admissions", "invalidations")

    def __init__(self, n_progs: int) -> None:
        self._entries: list[dict[int, Entry]] = [dict() for _ in range(n_progs)]
        self.hits = 0
        self.misses = 0
        self.admissions = 0
        self.invalidations = 0

    # -- read path -------------------------------------------------------
    def lookup(self, prog: int, vertex: int) -> Entry | None:
        """The entry for ``(prog, vertex)``, counting the hit/miss."""
        entry = self._entries[prog].get(vertex)
        if entry is None:
            self.misses += 1
        else:
            self.hits += 1
        return entry

    # -- admission -------------------------------------------------------
    def admit(
        self, prog: int, vertex: int, value: Any, vtime: float, absorbing: bool
    ) -> None:
        self._entries[prog][vertex] = (value, vtime, absorbing)
        self.admissions += 1

    # -- invalidation ----------------------------------------------------
    def invalidate(self, prog: int, vertex: int) -> None:
        """The engine wrote ``(prog, vertex)``; drop the entry
        (absorbing included — a write to an absorbed vertex can only
        restate the same value, so dropping is merely a re-miss)."""
        if self._entries[prog].pop(vertex, None) is not None:
            self.invalidations += 1

    def demote(self, prog: int, vertex: int) -> None:
        """Reclassify the hit just counted for ``(prog, vertex)`` as a
        miss and drop the entry: the caller found the entry's absorbing
        claim no longer valid (a delete-carrying stream was attached
        after admission) and falls through to a live read."""
        self.hits -= 1
        self.misses += 1
        if self._entries[prog].pop(vertex, None) is not None:
            self.invalidations += 1

    def flush_prog(self, prog: int, keep_absorbing: bool = True) -> None:
        """Bulk flush: values for ``prog`` were rewritten outside
        the per-write path; drop everything except absorbing entries
        (their monotone bound holds regardless of how values flow).

        ``keep_absorbing=False`` drops absorbing entries too — required
        once the source streams carry deletes (§VI-B): under deletes a
        value can move *away* from the full-stream bound again, so
        "equals the bound" is no longer an absorbing state and a bulk
        rewrite may strand the entry incoherent."""
        entries = self._entries[prog]
        doomed = [
            v for v, e in entries.items() if not (keep_absorbing and e[2])
        ]
        for v in doomed:
            del entries[v]
        self.invalidations += len(doomed)

    def clear(self) -> None:
        for d in self._entries:
            d.clear()

    # -- introspection ---------------------------------------------------
    def __len__(self) -> int:
        return sum(len(d) for d in self._entries)

    def size(self, prog: int) -> int:
        return len(self._entries[prog])

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def stats(self) -> dict[str, Any]:
        return {
            "entries": len(self),
            "hits": self.hits,
            "misses": self.misses,
            "hit_rate": self.hit_rate,
            "admissions": self.admissions,
            "invalidations": self.invalidations,
        }
