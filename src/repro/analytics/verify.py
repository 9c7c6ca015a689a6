"""Dynamic-vs-static equivalence checking.

The central REMO claim (§II-D): asynchronous, concurrent event
propagation "does not impact the correctness of the above algorithms" —
after quiescence the dynamically maintained state equals the static
algorithm's answer on the final topology, for *any* legal interleaving.
These checkers make that claim executable; the property-based tests
drive them across random graphs, stream splits, and rank counts.

Conventions: the dynamic engine only materialises values for vertices
it has touched; a vertex absent from the dynamic state, or carrying
0/INF, counts as "unreached", and must then be unreached statically too.
"""

from __future__ import annotations

from typing import Any, Callable

import numpy as np

from repro.algorithms.base import INF
from repro.staticalgs.algorithms import (
    static_bfs,
    static_cc,
    static_sssp,
    static_st_connectivity,
)
from repro.storage.csr import CSRGraph


def csr_from_engine(engine) -> CSRGraph:
    """Materialise the engine's current topology as a CSR graph.

    The engine stores each undirected input edge at both endpoints, so
    no symmetrization is applied here.
    """
    srcs, dsts, weights = [], [], []
    for s, d, w in engine.edges():
        srcs.append(s)
        dsts.append(d)
        weights.append(w)
    return CSRGraph.from_edges(
        np.array(srcs, dtype=np.int64),
        np.array(dsts, dtype=np.int64),
        np.array(weights, dtype=np.int64),
    )


def _compare(
    dynamic: dict[int, Any],
    static: dict[int, Any],
    unreached: Callable[[Any], bool],
) -> list[str]:
    """Generic comparison; returns a list of mismatch descriptions."""
    mismatches = []
    for vid, expect in static.items():
        got = dynamic.get(vid, 0)
        if unreached(got):
            mismatches.append(f"vertex {vid}: static={expect!r} but dynamic unreached")
        elif got != expect:
            mismatches.append(f"vertex {vid}: static={expect!r} dynamic={got!r}")
    for vid, got in dynamic.items():
        if not unreached(got) and vid not in static:
            mismatches.append(f"vertex {vid}: dynamic={got!r} but static unreached")
    return mismatches


def verify_bfs(
    engine,
    prog: int | str,
    source: int,
    value_of: Callable[[Any], int] | None = None,
    state: dict[int, Any] | None = None,
) -> list[str]:
    """Check a quiesced BFS program against static BFS on the final
    topology; returns mismatch descriptions (empty = verified).

    ``value_of`` extracts a level from a stored value (used by the
    generational programs whose values are ``(gen, dist, parent)``);
    ``state`` substitutes a collected snapshot for the live state.
    """
    graph = csr_from_engine(engine)
    expect, _ = static_bfs(graph, source)
    raw = engine.state(prog) if state is None else state
    dynamic = _extract(raw, value_of)
    return _compare(dynamic, expect, lambda v: v == 0 or v >= INF)


def verify_sssp(
    engine,
    prog: int | str,
    source: int,
    value_of: Callable[[Any], int] | None = None,
    state: dict[int, Any] | None = None,
) -> list[str]:
    """Check a quiesced SSSP program against Dijkstra on the final
    topology (same contract as :func:`verify_bfs`)."""
    graph = csr_from_engine(engine)
    expect, _ = static_sssp(graph, source)
    raw = engine.state(prog) if state is None else state
    dynamic = _extract(raw, value_of)
    return _compare(dynamic, expect, lambda v: v == 0 or v >= INF)


def verify_cc(
    engine,
    prog: int | str,
    value_of: Callable[[Any], int] | None = None,
    state: dict[int, Any] | None = None,
) -> list[str]:
    """Check a quiesced CC program: every vertex's label must be the max
    component hash of its component in the final topology."""
    graph = csr_from_engine(engine)
    expect, _ = static_cc(graph)
    raw = engine.state(prog) if state is None else state
    dynamic = _extract(raw, value_of)
    mismatches = []
    for vid, want in expect.items():
        got = dynamic.get(vid, 0)
        if got != want:
            mismatches.append(f"vertex {vid}: static={want} dynamic={got}")
    from repro.algorithms.cc import component_label

    for vid, got in dynamic.items():
        if got == 0 or vid in expect:
            continue
        # Labeled vertex absent from the CSR: legal only if deletes left
        # it isolated, in which case it is its own singleton component.
        rank = engine.partitioner.owner(vid)
        if engine.stores[rank].degree(vid) != 0:
            mismatches.append(f"vertex {vid}: labeled but not in final graph")
        elif got != component_label(vid):
            mismatches.append(
                f"isolated vertex {vid}: label {got} != own hash "
                f"{component_label(vid)}"
            )
    return mismatches


def verify_st(
    engine,
    prog: int | str,
    sources: list[int],
    value_of: Callable[[Any], int] | None = None,
    state: dict[int, Any] | None = None,
) -> list[str]:
    """Check a quiesced Multi S-T program against per-source BFS masks.

    ``sources`` must be in *bit order* (the order they were registered
    with :meth:`MultiSTConnectivity.register_source`).  ``value_of``
    extracts a plain bitmap from a stored value (the generational
    program stores ``(gen, mask)``).
    """
    graph = csr_from_engine(engine)
    expect, _ = static_st_connectivity(graph, sources)
    raw = engine.state(prog) if state is None else state
    raw = _extract(raw, value_of)
    # Source vertices trivially reach themselves; the dynamic side only
    # materialises that once the init() was processed, which quiescence
    # guarantees.  Masks of 0 mean "reaches no source".
    mismatches = []
    vertices = set(expect) | set(raw)
    for vid in vertices:
        got = raw.get(vid, 0)
        want = expect.get(vid, 0)
        if got != want:
            mismatches.append(f"vertex {vid}: static mask={want:b} dynamic={got:b}")
    return mismatches


def verify_widest(
    engine,
    prog: int | str,
    source: int,
    value_of: Callable[[Any], int] | None = None,
    state: dict[int, Any] | None = None,
) -> list[str]:
    """Check a quiesced Widest Path program against the static max-min
    Dijkstra oracle on the final topology.  0 = unreached (capacities
    are >= 1, the source holds CAP_INF).  ``value_of`` extracts a plain
    capacity from a stored value (the generational program stores
    ``(generation, cap, parent)``)."""
    from repro.algorithms.widest_path import static_widest_path

    graph = csr_from_engine(engine)
    expect = static_widest_path(graph, source)
    raw = engine.state(prog) if state is None else state
    raw = _extract(raw, value_of)
    return _compare(raw, expect, lambda v: v == 0)


def _extract(
    raw: dict[int, Any], value_of: Callable[[Any], int] | None
) -> dict[int, int]:
    if value_of is None:
        return raw
    return {vid: (0 if v == 0 else value_of(v)) for vid, v in raw.items()}
