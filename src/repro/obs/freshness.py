"""Convergence-lag instrumentation — the paper's "on-line" claim, measured.

An incremental engine's whole value proposition is that its answer
stays *fresh* while the stream runs.  This module makes that claim a
recorded metric instead of an end-of-run assertion: at each sampler
firing, a :class:`FreshnessProbe` compares every watched program's
**live state** against the **static reference computed on the
ingested-so-far prefix** (the engine's current topology — exactly the
discretized prefix a quiescent run would have produced, with every
applied delete already retired from it) and records:

* ``stale`` — the number of vertices whose live value differs from the
  static reference right now (not-yet-converged vertices);
* ``frac`` — ``stale`` over the current vertex universe;
* ``lag`` — virtual seconds since the program's answer last matched the
  reference (0 while converged): how long the answer has trailed the
  stream head, measured at sampler resolution;
* ``lag_events`` — topology events ingested since that last-fresh
  instant: the same lag expressed in stream positions.

RisGraph and the streaming-graph literature report exactly this
update-to-result delay as a first-class metric; here it rides the
virtual-time sampler so two runs sample at identical instants.

The probe is the one *expensive* telemetry component — each sample runs
a static traversal over the current prefix — so it is opt-in on top of
the sampler and meant for small-to-medium diagnostic runs, not
saturation benchmarks.  Probing reads exact state: when the bulk-ingest
mirror is ahead of the value dicts it is flushed first (an observer
effect on wall time only; virtual time and results are untouched).
"""

from __future__ import annotations

from typing import Any, Callable

from repro.analytics.verify import family, verify_family
from repro.runtime.visitor import COORDINATOR_RANK


def make_reference(
    kind: str,
    source: int | None = None,
    sources: list[int] | None = None,
    value_of: Callable[[Any], int] | None = None,
) -> Callable[[Any, str], list[str]]:
    """Build a reference checker ``engine -> mismatch list`` for one of
    the algorithm families of :data:`repro.analytics.verify.FAMILIES`
    (``bfs``/``sssp``/``cc``/``st``/``widest``), closing over the
    verifier arguments; an unknown ``kind`` is a ``ValueError`` here,
    not at the first sample.  ``prog`` is bound later by
    :meth:`FreshnessProbe.watch`.

    The oracle is recomputed each sample on the engine's *current*
    stored topology, which reflects every applied event — deletes
    included — so the ``stale``/lag series stays truthful on §VI-B
    churn streams, not just add-only ones.  Watching a generational
    program requires ``value_of`` (its stored values are tagged tuples;
    pass the projection, e.g. ``lambda v: v[1]`` for distance).
    """
    seed = family(kind).pick(source, sources)
    return lambda eng, prog: verify_family(kind, eng, prog, seed, value_of)


class _Watch:
    __slots__ = (
        "prog",
        "fn",
        "last_fresh_t",
        "last_fresh_events",
    )

    def __init__(self, prog: str, fn: Callable[[Any, str], list[str]]):
        self.prog = prog
        self.fn = fn
        self.last_fresh_t = 0.0
        self.last_fresh_events = 0


class FreshnessProbe:
    """Samples convergence lag for a set of watched programs."""

    def __init__(self, engine: Any):
        self.engine = engine
        self._watches: list[_Watch] = []

    def watch(self, prog: str, reference_fn: Callable[[Any, str], list[str]]) -> None:
        """Watch program ``prog``; ``reference_fn(engine, prog)`` must
        return the current live-vs-static mismatch list (the
        :mod:`repro.analytics.verify` contract)."""
        self._watches.append(_Watch(prog, reference_fn))

    @property
    def watched(self) -> list[str]:
        return [w.prog for w in self._watches]

    def sample(self, t: float, registry: Any) -> None:
        """Record one ``kind="freshness"`` row per watched program."""
        if not self._watches:
            return
        eng = self.engine
        eng.sync_values()
        events = sum(c.source_events for c in eng.counters)
        vertices = sum(s.approx_num_vertices for s in eng.stores)
        for w in self._watches:
            stale = len(w.fn(eng, w.prog))
            if stale == 0:
                w.last_fresh_t = t
                w.last_fresh_events = events
            registry.record(
                {
                    "kind": "freshness",
                    "t": t,
                    "prog": w.prog,
                    "stale": stale,
                    "frac": stale / vertices if vertices else 0.0,
                    "lag": t - w.last_fresh_t,
                    "lag_events": events - w.last_fresh_events,
                    "events": events,
                }
            )
            tracer = eng.tracer
            if tracer is not None:
                tracer.counter(
                    COORDINATOR_RANK,
                    f"freshness/{w.prog}",
                    t,
                    {"stale": stale},
                )
