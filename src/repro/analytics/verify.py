"""Dynamic-vs-static equivalence checking.

The central REMO claim (§II-D): asynchronous, concurrent event
propagation "does not impact the correctness of the above algorithms" —
after quiescence the dynamically maintained state equals the static
algorithm's answer on the final topology, for *any* legal interleaving.
:data:`FAMILIES` is the one statement of what that answer is per
algorithm family — which static oracle, how it is seeded, what
"unreached" means — and everything that needs it (the ``verify_*``
checkers below, :func:`repro.obs.make_reference`, the serving layer's
prefix oracle and typed point queries, the CLI) is a view of that table.

Conventions: the dynamic engine only materialises values for vertices
it has touched; a vertex absent from the dynamic state, or carrying an
unreached value, must be absent from the static answer too.
"""

from __future__ import annotations

from typing import Any, Callable, NamedTuple

import numpy as np

from repro.algorithms.base import INF
from repro.algorithms.cc import component_label
from repro.algorithms.widest_path import static_widest_path
from repro.staticalgs.algorithms import (
    static_bfs,
    static_cc,
    static_sssp,
    static_st_connectivity,
)
from repro.storage.csr import CSRGraph

_ValueOf = Callable[[Any], Any] | None
_State = dict[int, Any] | None


def _no_distance(value: Any) -> bool:
    return value == 0 or value >= INF


def _zero(value: Any) -> bool:
    return value == 0


class Family(NamedTuple):
    """One algorithm family's right answer."""

    #: ``(graph, seed) -> {vertex: value}``; unreached vertices absent.
    oracle: Callable[[CSRGraph, Any], dict[int, Any]]
    #: ``"source"`` (one vertex), ``"sources"`` (vertices in bit order, as
    #: registered with ``MultiSTConnectivity.register_source``) or None.
    seed: str | None
    #: Does this plain value mean "unreached"?
    unreached: Callable[[Any], bool]
    #: The value a vertex absent from the static answer may still hold.
    alone: Callable[[int], Any] | None = None

    def pick(self, source: int | None, sources: list[int] | None) -> Any:
        """The seed out of a ``source=`` / ``sources=`` keyword pair."""
        return sources if self.seed == "sources" else source


FAMILIES: dict[str, Family] = {
    "bfs": Family(lambda g, s: static_bfs(g, s)[0], "source", _no_distance),
    "sssp": Family(lambda g, s: static_sssp(g, s)[0], "source", _no_distance),
    # A labeled vertex outside the CSR is one that deletes left isolated:
    # its own singleton component, so it keeps its own hash.  (It cannot
    # still have an edge: the CSR is built from engine.edges(), so every
    # vertex with a stored edge is in it.)
    "cc": Family(lambda g, _: static_cc(g)[0], None, _zero, component_label),
    # Masks of 0 mean "reaches no source"; a source reaches itself.
    "st": Family(lambda g, s: static_st_connectivity(g, s)[0], "sources", _zero),
    # Capacities are >= 1 and the source holds CAP_INF.
    "widest": Family(static_widest_path, "source", _zero),
}


def family(kind: str) -> Family:
    """The :data:`FAMILIES` row for ``kind``; ``ValueError`` naming the
    known families otherwise."""
    if kind not in FAMILIES:
        raise ValueError(
            f"unknown algorithm family {kind!r} (known: {', '.join(FAMILIES)})"
        )
    return FAMILIES[kind]


def static_answer(kind: str, graph: CSRGraph, seed: Any = None) -> dict[int, Any]:
    """Family ``kind``'s static answer ``{vertex: value}`` on ``graph``
    (``seed`` as the family's :attr:`Family.seed` shape says)."""
    return family(kind).oracle(graph, seed)


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
    alone: Callable[[int], Any] | None = None,
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
        if unreached(got) or vid in static:
            continue
        if alone is None:
            mismatches.append(f"vertex {vid}: dynamic={got!r} but static unreached")
        elif got != alone(vid):
            mismatches.append(
                f"isolated vertex {vid}: dynamic={got!r} != own {alone(vid)!r}"
            )
    return mismatches


def verify_family(
    kind: str,
    engine,
    prog: int | str,
    seed: Any = None,
    value_of: _ValueOf = None,
    state: _State = None,
) -> list[str]:
    """Check a quiesced program of family ``kind`` against its static
    answer on the final topology; returns mismatch descriptions (empty
    = verified).  Reads only ``engine.edges()`` and ``engine.state``.

    ``value_of`` extracts the family's plain value from a stored one
    (the generational programs store ``(generation, value, support)``);
    ``state`` substitutes a collected snapshot for the live state.
    """
    fam = family(kind)
    expect = fam.oracle(csr_from_engine(engine), seed)
    raw = engine.state(prog) if state is None else state
    if value_of is not None:
        raw = {vid: (0 if v == 0 else value_of(v)) for vid, v in raw.items()}
    return _compare(raw, expect, fam.unreached, fam.alone)


def verify_bfs(
    engine,
    prog: int | str,
    source: int,
    value_of: _ValueOf = None,
    state: _State = None,
) -> list[str]:
    """:func:`verify_family` for BFS levels from ``source``."""
    return verify_family("bfs", engine, prog, source, value_of, state)


def verify_sssp(
    engine,
    prog: int | str,
    source: int,
    value_of: _ValueOf = None,
    state: _State = None,
) -> list[str]:
    """:func:`verify_family` for shortest-path costs from ``source``."""
    return verify_family("sssp", engine, prog, source, value_of, state)


def verify_cc(
    engine, prog: int | str, value_of: _ValueOf = None, state: _State = None
) -> list[str]:
    """:func:`verify_family` for max-hash component labels."""
    return verify_family("cc", engine, prog, None, value_of, state)


def verify_st(
    engine,
    prog: int | str,
    sources: list[int],
    value_of: _ValueOf = None,
    state: _State = None,
) -> list[str]:
    """:func:`verify_family` for Multi S-T bitmaps; ``sources`` in bit
    order."""
    return verify_family("st", engine, prog, sources, value_of, state)


def verify_widest(
    engine,
    prog: int | str,
    source: int,
    value_of: _ValueOf = None,
    state: _State = None,
) -> list[str]:
    """:func:`verify_family` for widest-path capacities from ``source``."""
    return verify_family("widest", engine, prog, source, value_of, state)
