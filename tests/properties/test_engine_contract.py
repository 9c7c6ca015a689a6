"""The engine contract as one model-based test (hypothesis state machine).

The paper makes one correctness claim three times: REMO state reaches the
static answer on the ingested prefix for any legal interleaving (§II-B,
§II-D), a versioned collection harvests exactly the prefix at its cut
(§III-D), and a "When" trigger fires once and never wrongly (§III-E).
:class:`EngineContract` states all three against one DES engine.  The
test drives the clock (``run(max_actions=k)`` slices), so every rule
lands between two actions of a live run.

Set-up (drawn once per example), by mode: ``kernel`` (BFS, SSSP, CC;
bulk ingest off or at chunk 1/7/64), ``full`` (adds widest, S-T with 1–3
sources, det-bfs and degree), ``churn`` (the five generational programs
under deletes), ``handover`` (kernel set at chunk 7/64 behind triggers,
released under live traffic) and ``harvest`` (full set, collections
while one 32–40 event stream runs through them); then 1, 2 or 4 ranks,
``coalesce_updates`` on or off, at most 10 vertices (up to 40 adds, a
random tree streamed from the leaves, or 30 operations under deletes)
dealt round robin or all to rank 0, one more vertex that no event
touches, triggers and collections registered before ingest, and on
add-only runs optionally the full-stream answer as the serving tier's
reference.

Rules: run a slice (at most ``k`` actions; a few under bulk ingest);
serve a point or typed read; register or remove a trigger; release bulk
ingest (every trigger goes while a REVERSE_ADD is in flight, and the
clock runs until it lands); ``init_program`` a further source; begin a
collection; pause and drain, then resume; checkpoint and restore (pause,
drain, save, load into a fresh engine, seek the streams —
``FaultTolerantRunner._checkpoint``).

Invariants (every step): a ``stale=False`` answer equals the prefix
oracle and is served again from the cache, and a cached entry holds the
live answer; a drained engine's state is the static answer on the
stored edges; add-only values never regress (churn: ``(generation,
value)`` never regresses) and ``value_of`` agrees with ``state``; a
trigger fires at most once, only while its predicate holds on the live
value; a finished collection equals the static answer on its
``cut_positions`` prefix, and between epochs no rank holds split state.
At quiescence (each checkpoint's drain and the end) also: a trigger
fired iff its predicate holds.  At the end: the edge set, det-bfs,
degree and S-T against ``ReferenceEngine`` on the same events, and a
bulk run that stayed eligible ingested every event in chunks.

The mutant catalogue (``mutants.py``) proves the machine: it must fail
under every gated mutant within its tier-1 budget.
``PYTHONPATH=src python tests/properties/test_engine_contract.py`` runs
it randomised at the ``churn-sweep`` size in churn mode with rule 9's
fence removed and prints whether it finds the fence hazard (DESIGN §12
b).  A report, not a gate.
"""

import sys
import tempfile
from dataclasses import dataclass, field
from inspect import signature
from pathlib import Path
from typing import Any, Callable

import numpy as np
import pytest
from hypothesis import Phase, Verbosity, settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
    run_state_machine_as_test,
)

from repro import (
    INF,
    DegreeTracker,
    DynamicEngine,
    EngineConfig,
    GenerationalBFS,
    GenerationalCC,
    GenerationalSSSP,
    GenerationalST,
    GenerationalWidest,
    IncrementalBFS,
    IncrementalCC,
    IncrementalSSSP,
    ListEventStream,
    MultiSTConnectivity,
    ReferenceEngine,
    WidestPath,
)
from repro.algorithms.bfs_parents import DeterministicBFS
from repro.algorithms.cc import component_label
from repro.analytics.verify import FAMILIES, csr_from_engine, static_answer
from repro.events.types import ADD, DELETE
from repro.runtime.checkpoint import load_checkpoint, save_checkpoint
from repro.runtime.plugins import BulkIngestPlugin
from repro.runtime.visitor import VT_RADD
from repro.serving import FrozenBackend, ServingLayer
from repro.serving.workload import KINDS_FOR
from repro.storage.csr import CSRGraph

from mutants import CATALOGUE, MUTANTS, Mutant, patched

MAX_VERTICES = 10
KERNEL = ("bfs", "sssp", "cc")
FULL = (*KERNEL, "widest", "st", "det-bfs", "degree")
CHURN = ("gen-bfs", "gen-sssp", "gen-cc", "gen-st", "gen-widest")
PROGRAM = {
    "bfs": IncrementalBFS,
    "sssp": IncrementalSSSP,
    "cc": IncrementalCC,
    "widest": WidestPath,
    "st": MultiSTConnectivity,
    "det-bfs": DeterministicBFS,
    "degree": DegreeTracker,
    "gen-bfs": GenerationalBFS,
    "gen-sssp": GenerationalSSSP,
    "gen-cc": GenerationalCC,
    "gen-st": GenerationalST,
    "gen-widest": GenerationalWidest,
}
# Trigger predicates by family, given a small drawn k; each is monotone on
# add-only streams (once true, true for every later value).
PREDICATE: dict[str, Callable[[int], Callable[[Any], bool]]] = {
    "bfs": lambda k: lambda x: 0 < x <= k,
    "sssp": lambda k: lambda x: 0 < x <= 3 * k,
    "cc": lambda k: lambda x: x >= component_label(k),
    "widest": lambda k: lambda x: x >= k,
    "st": lambda k: lambda x: bool(x >> (k % 3) & 1),
    "det-bfs": lambda k: lambda x: x != 0 and x[0] <= k,
    "degree": lambda k: lambda x: x >= k,
}


def family(name: str) -> str | None:
    """The ``FAMILIES`` key of a program (generational twins included)."""
    kind = name.removeprefix("gen-")
    return kind if kind in FAMILIES else None


def project(value: Any) -> Any:
    """A stored value's plain family value (generational: index 1)."""
    return value[1] if isinstance(value, tuple) else value


@dataclass
class Init:
    """One ``init_program`` call; ``version`` is the owner's stream
    version when it was issued (prefix of a cut iff below its version)."""

    prog: str
    vertex: int
    payload: Any
    version: int = -1


@dataclass
class Watch:
    """One registered trigger and what the model knows of it."""

    prog: str
    predicate: Callable[[Any], bool]
    vertex: int | None
    before: dict[int, Any]  # the program's state at registration
    handle: Any = None
    fired: set[int] = field(default_factory=set)
    live: bool = True


def prefix_csr(streams: list[list[tuple]], cuts: dict[int, int]) -> CSRGraph:
    """The undirected graph of each stream's first ``cuts[rank]`` adds."""
    pairs = [
        (s, d, w)
        for rank, evs in enumerate(streams)
        for _k, s, d, w in evs[: cuts.get(rank, 0)]
    ]
    src, dst, w = (list(c) for c in zip(*pairs)) if pairs else ([], [], [])
    return CSRGraph.from_edges(
        np.array(src, np.int64), np.array(dst, np.int64), np.array(w, np.int64),
        symmetrize=True,
    )  # fmt: skip


@st.composite
def add_only_events(draw, n_vertices, long=False):
    """Random pairs (32-40 of them if ``long``), or a random tree."""
    if not long and draw(st.booleans(), label="tree"):
        # A random tree, streamed from the leaves inward: each edge then
        # improves a subtree that is already stored and reached only
        # through it, the order that re-relaxes the most.
        pairs = [(draw(st.integers(0, v - 1)), v) for v in range(n_vertices - 1, 0, -1)]
    else:
        # Uniform: hypothesis lists run short.
        size = draw(st.integers(32, 40) if long else st.integers(0, 40))
        vertex = st.integers(0, n_vertices - 1)
        pairs = draw(st.lists(st.tuples(vertex, vertex), min_size=size, max_size=size))
    a, b = draw(st.integers(1, 7)), draw(st.integers(1, 7))
    # A weight per undirected pair: a re-add never changes it (§II-B).
    return [(ADD, s, d, 1 + (a * min(s, d) + b * max(s, d)) % 9) for s, d in pairs]


@st.composite
def churn_events(draw, n_vertices):
    """Adds in either orientation and deletes of live edges (a few of
    absent ones), so edges die and come back while repairs run."""
    live: list[tuple[int, int]] = []
    events = []
    for roll, s, d in draw(
        st.lists(
            st.tuples(st.integers(0, 9), *[st.integers(0, n_vertices - 1)] * 2),
            max_size=30,
        )
    ):
        if s == d:
            continue
        if roll < 4 and live:
            s, d = live.pop(roll % len(live))
            events.append((DELETE, d, s, 0) if roll & 1 else (DELETE, s, d, 0))
        elif roll == 9:
            events.append((DELETE, s, d, 0))
        else:
            live.append((s, d))
            events.append((ADD, s, d, 1 + (3 * min(s, d) + 5 * max(s, d)) % 7))
    return events


class EngineContract(RuleBasedStateMachine):
    """One DES engine under test against the static oracles (module
    docstring).  A mutant (``mutants.py``) patches the code under it."""

    # mode: programs, rank counts, bulk chunk sizes, one stream at rank 0,
    # fewest vertices.  A handover holds bulk ingest back behind triggers
    # and releases it under live traffic; a harvest collects while one
    # long stream keeps changing values through the epoch.
    MODES = {
        "handover": (KERNEL, (2, 4), (7, 64), True, 6),
        "harvest": (FULL, (2,), (None,), True, 6),
        "kernel": (KERNEL, (1, 2, 4), (7, 1, 64, None), False, 2),
        "full": (FULL, (1, 2, 4), (None,), False, 2),
        "churn": (CHURN, (1, 2, 4), (None,), False, 2),
    }

    # -- set-up -----------------------------------------------------------
    @initialize(data=st.data())
    def setup(self, data):
        draw = data.draw
        self.mode = mode = draw(st.sampled_from(list(self.MODES)), label="mode")
        self.names, ranks, chunks, one_stream, fewest = self.MODES[mode]
        self.add_only = mode != "churn"
        self.n_ranks = draw(st.sampled_from(ranks), label="ranks")
        self.chunk = draw(st.sampled_from(chunks), label="chunk")
        self.coalesce = draw(st.booleans(), label="coalesce")
        # Triggers and collections keep bulk ingest off while they last:
        # half the kernel runs have none, so the chunks run end to end.
        self.observed = mode in ("handover", "harvest") or draw(st.booleans())
        self.collections = self.observed and self.add_only and mode != "handover"
        n = draw(st.integers(fewest, MAX_VERTICES), label="n_vertices")
        if not self.add_only:
            events = draw(churn_events(n))
        else:
            events = draw(add_only_events(n, long=mode == "harvest"))
        self.events = events
        lanes = 1 if one_stream else self.n_ranks
        self.streams_events = [events[k::lanes] for k in range(lanes)]
        self.streams_events += [[]] * (self.n_ranks - lanes)
        # Vertex n is in no event: a source or a read there sees a vertex
        # that only an init reaches.
        self.universe = range(n + 1)
        vertex = st.integers(0, n)
        # Every source program's inits; some are held back for a rule.
        self.st_sources: dict[str, list[int]] = {}
        inits = []
        for name in self.names:
            if family(name) == "st":
                srcs = draw(st.lists(vertex, min_size=1, max_size=3, unique=True))
                self.st_sources[name] = srcs
                inits += [Init(name, s, bit) for bit, s in enumerate(srcs)]
            elif name.removeprefix("gen-") in ("bfs", "sssp", "widest", "det-bfs"):
                inits.append(Init(name, draw(vertex, label=f"{name} source"), None))
        held = [
            draw(st.booleans(), label=f"hold {i.prog}") and i.prog != "gen-st"
            for i in inits
        ]
        self.pending = [i for i, h in zip(inits, held) if h]
        self.inits: list[Init] = []  # issued so far
        self.refs: dict[str, dict] = {}
        if self.add_only and draw(st.booleans(), label="reference"):
            graph = prefix_csr([events], {0: len(events)})
            self.refs = {
                p: self._oracle(p, graph, inits) for p in self.names if family(p)
            }
        self.watches: list[Watch] = []
        self.requested: list[tuple[float, str]] = []  # (at_time, program)
        self.checked = 0
        self.bulk_spoiled = False
        self.restores = 0
        self.drained_at = None
        self._build().attach_streams(self.streams)
        for i, h in zip(inits, held):
            if not h:
                self._init(i)
        # Queries registered before ingest starts see every change.
        for _ in range(draw(st.integers(mode == "handover", 2), label="triggers")):
            self.add_trigger(data)
        for _ in range(draw(st.integers(mode == "harvest", 2), label="collections")):
            self.begin_collection(data)
        self.last = self._states()

    def _programs(self):
        progs = [PROGRAM[name]() for name in self.names]
        for p in progs:
            for s in self.st_sources.get(p.name, ()):
                p.register_source(s)
        return progs

    def _build(self):
        self.engine = DynamicEngine(
            self._programs(),
            EngineConfig(n_ranks=self.n_ranks, coalesce_updates=self.coalesce),
            plugins=[BulkIngestPlugin(self.chunk)] if self.chunk else None,
        )
        self.streams = [
            ListEventStream(evs, stream_id=k)
            for k, evs in enumerate(self.streams_events)
        ]
        self.serving = ServingLayer(self.engine)
        for prog, answer in self.refs.items():
            self.serving.set_reference(prog, answer)
        return self.engine

    def _init(self, init: Init) -> None:
        eng = self.engine
        init.version = eng.stream_version[eng.partitioner.owner(init.vertex)]
        eng.init_program(init.prog, init.vertex, init.payload)
        self.inits.append(init)

    # -- oracles ----------------------------------------------------------
    def _seed(self, prog: str, inits) -> Any:
        kind = family(prog)
        if FAMILIES[kind].seed == "sources":
            return self.st_sources[prog]
        return next((i.vertex for i in inits if i.prog == prog), None)

    def _oracle(self, prog: str, graph: CSRGraph, inits) -> dict:
        """Family ``prog``'s static answer on ``graph``, seeded by ``inits``
        (a program no init reached has no answer)."""
        kind, seed = family(prog), self._seed(prog, inits)
        if FAMILIES[kind].seed == "source" and seed is None:
            return {}
        answer = static_answer(kind, graph, seed)
        if kind == "st":
            bits = sum(1 << i.payload for i in inits if i.prog == prog)
            answer = {v: m & bits for v, m in answer.items() if m & bits}
        return answer

    def _raw(self, prog: str, graph: CSRGraph, inits) -> dict:
        """The add-only state ``prog`` holds at a fixpoint on ``graph``:
        the oracle's answer, plus ``INF`` where BFS/SSSP touched a vertex
        they did not reach (every endpoint is touched)."""
        answer = self._oracle(prog, graph, inits)
        if family(prog) in ("bfs", "sssp"):
            return {**dict.fromkeys(graph.vertex_ids.tolist(), INF), **answer}
        return answer

    def _states(self) -> dict[str, dict]:
        return {name: self.engine.state(name) for name in self.names}

    # -- rules ------------------------------------------------------------
    @rule(data=st.data())
    def run_slice(self, data):
        # With bulk ingest a few actions at a time: an action may be a
        # whole chunk, and a trigger holding it back must find events
        # left for the chunks when it goes.
        k = data.draw(st.integers(0, 3 if self.chunk else 48), label="k")
        loop = self.engine.loop
        before = loop.actions_executed
        self.engine.run(max_actions=k)
        assert loop.actions_executed - before <= k, "a slice overran its bound"

    @rule(data=st.data())
    def serve(self, data):
        names = [p for p in self.names if family(p)]
        prog = data.draw(st.sampled_from(names), label="prog")
        kind = family(prog)
        query = "point"
        if self.add_only:
            query = data.draw(st.sampled_from(KINDS_FOR[kind]), label="query")
        v = data.draw(st.sampled_from(self.universe), label="vertex")
        aux = ()
        if query == "component":
            aux = (data.draw(st.sampled_from(self.universe), label="peer"),)
        elif query == "connected":
            aux = (data.draw(st.integers(0, len(self.st_sources[prog]) - 1)),)
        args = (prog, *aux, v) if query == "component" else (prog, v, *aux)
        call = {"connected": "connected_to", "component": "same_component"}
        method = call.get(query, query)
        got = getattr(self.serving, method)(*args)
        if got.stale:
            assert not self.engine.drained(), (query, args, got)
            return
        graph = csr_from_engine(self.engine)
        csr_vertices = set(graph.vertex_ids.tolist())
        expect = self._oracle(prog, graph, self.inits)
        if query == "point":
            fam, have = FAMILIES[kind], project(got.value)
            want = expect.get(v)
            if want is None and fam.alone and v not in csr_vertices:
                want = fam.alone(v) if have else None
            if want is None:
                assert fam.unreached(have), (prog, v, got)
            else:
                assert have == want, (prog, v, got, want)
            again = self.serving.point(prog, v)
            assert (again.value, again.stale) == (got.value, False)
            assert again.source == "cache"
        else:
            frozen = ServingLayer(FrozenBackend([prog], [expect]))
            want = getattr(frozen, method)(*args).value
            assert got.value == want, (query, args, got, want)

    @precondition(lambda self: self.observed)
    @rule(data=st.data())
    def add_trigger(self, data):
        if not self.observed:
            return
        prog = data.draw(st.sampled_from(self.names), label="prog")
        kind = family(prog) or prog
        pred = PREDICATE[kind](data.draw(st.integers(1, 5), label="k"))
        if not self.add_only:
            base = pred
            pred = lambda x: x != 0 and base(project(x))  # noqa: E731
        scope = data.draw(st.none() | st.sampled_from(self.universe), label="scope")
        w = Watch(prog, pred, scope, self.engine.state(prog))

        def fired(v, value, t, w=w, engine=self.engine):
            assert v not in w.fired, f"once-trigger on {w.prog} fired twice at {v}"
            assert w.predicate(value), (w.prog, v, value)
            assert engine.value_of(w.prog, v) == value and t <= engine.vtime()
            w.fired.add(v)

        w.handle = self.engine.add_trigger(prog, lambda v, x: pred(x), fired, scope)
        self.watches.append(w)
        self.bulk_spoiled = True

    @precondition(lambda self: any(w.live for w in self.watches))
    @rule(data=st.data())
    def remove_trigger(self, data):
        live = [w for w in self.watches if w.live]
        w = data.draw(st.sampled_from(live))
        assert self.engine.triggers.remove(w.handle)
        w.live = False

    def _events_left(self) -> bool:
        pairs = zip(self.streams, self.streams_events)
        return any(s.position < len(e) for s, e in pairs)

    def _can_release(self) -> bool:
        """Triggers hold bulk ingest back, and the streams have events."""
        held = any(w.live for w in self.watches)
        return bool(self.chunk) and held and self._events_left()

    @precondition(lambda self: self._can_release())
    @rule()
    def release_bulk(self):
        """Every trigger goes at once with a REVERSE_ADD in flight, and the
        clock runs until it lands: bulk ingest re-engages meanwhile, and
        its resync re-reads a store the visitors have not caught up with
        (the review bug of PR 49)."""
        loop = self.engine.loop

        def in_flight() -> list[tuple]:
            return [m for q in loop._inbox for _t, _s, m in q if m[0] == VT_RADD]

        for _ in range(48):
            if in_flight():
                break
            self.engine.run(max_actions=1)
        for w in self.watches:
            if w.live:
                assert self.engine.triggers.remove(w.handle)
                w.live = False
        if radds := in_flight():
            for _ in range(48):
                if not any(m is radds[0] for m in in_flight()):
                    break
                self.engine.run(max_actions=1)

    @precondition(lambda self: self.pending)
    @rule()
    def init_source(self):
        self._init(self.pending.pop(0))

    @precondition(lambda self: self.collections)
    @rule(data=st.data())
    def begin_collection(self, data):
        if not self.collections:
            return
        names = [p for p in self.names if family(p)]
        prog = data.draw(st.sampled_from(names), label="collect")
        # A cut up to 50 us ahead lands mid-stream, not at the next action.
        at = self.engine.vtime() + data.draw(st.integers(0, 50), label="us") * 1e-6
        self.engine.request_collection(prog, at_time=at)
        self.requested.append((at, prog))
        self.bulk_spoiled = True

    def _drain(self) -> None:
        """Pause every stream and run to quiescence (visitors, pending
        collections, probes)."""
        for r in range(self.n_ranks):
            self.engine.loop.set_source_active(r, False)
        self.engine.run()
        self._check_collections()
        self._check_quiescent()

    def _between_collections(self) -> bool:
        return len(self.engine.collection_results) == len(self.requested)

    @precondition(lambda self: self._between_collections() and self._events_left())
    @rule()
    def pause_and_drain(self):
        # A settled engine mid-stream: what is read now is cached, and
        # the ingest that resumes must invalidate it.
        self._drain()
        for r in range(self.n_ranks):
            self.engine.loop.set_source_active(r, True)

    # Each restore drains the cluster: two per example keep most steps
    # mid-stream, and none is taken while a collection is outstanding.
    @precondition(lambda self: self.restores < 2 and self._between_collections())
    @rule()
    def checkpoint_and_restore(self):
        self.restores += 1
        eng = self.engine
        self._drain()
        positions = [s.position for s in self.streams]
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "ckpt.npz"
            save_checkpoint(eng, path)
            self._build()
            load_checkpoint(self.engine, path)
        for s, pos in zip(self.streams, positions):
            s.seek(pos)
        self.engine.attach_streams(self.streams)
        # A checkpoint carries no triggers and no collections.
        self.watches, self.requested, self.checked = [], [], 0

    # -- invariants -------------------------------------------------------
    @invariant()
    def values_never_regress(self):
        states = self._states()
        for name, state in states.items():
            prog = self.engine.programs[self.engine.prog_index(name)]
            for v, value in state.items():
                assert self.engine.value_of(name, v) == value
            for v, old in self.last[name].items():
                new = state.get(v, 0)
                if self.add_only:
                    if prog.snapshot_mode == "merge":
                        assert prog.merge(old, new) == new, (name, v, old, new)
                    else:
                        assert new >= old, (name, v, old, new)
                else:  # within a generation the value only improves
                    assert new != 0 and new[0] >= old[0], (name, v, old, new)
                    if new[0] == old[0]:
                        assert not prog.better(old[1], new[1]), (name, v, old, new)
        self.last = states

    @invariant()
    def cache_holds_live_values(self):
        # A cached entry is a substitute for a live read: writes and bulk
        # flushes drop what they change (serving/cache.py).  Untouched (0)
        # and touched-unreached are one answer.
        for name, entries in zip(self.names, self.serving.cache._entries):
            for v, (value, _at, _absorbing) in entries.items():
                live = self.engine.value_of(name, v)
                if live != value:
                    unreached = FAMILIES[family(name)].unreached
                    both = unreached(project(live)) and unreached(project(value))
                    assert both, (name, v, value, live)

    @invariant()
    def collections_harvest_their_prefix(self):
        self._check_collections()

    def _check_collections(self) -> None:
        eng = self.engine
        if eng.active_collection is None:
            # The S_prev / S_new split lives only inside an epoch (§III-D).
            assert not any(eng._prev_vals) and not any(eng._cut_new_edges)
        results = eng.collection_results
        # Collections begin in alarm order: by time, then by request.
        order = sorted(self.requested, key=lambda req: req[0])
        for i in range(self.checked, len(results)):
            (at, prog), r = order[i], results[i]
            assert r.prog == eng.prog_index(prog)
            assert r.completed_at > r.requested_at and r.probe_waves >= 2
            assert r.vertices_collected == len(r.state)
            if i:  # one at a time: a request made meanwhile waits its turn
                prev = results[i - 1]
                assert r.cut_version > prev.cut_version
                assert r.requested_at == max(at, prev.completed_at)
            graph = prefix_csr(self.streams_events, eng.cut_positions[r.collection_id])
            inits = [x for x in self.inits if x.version < r.cut_version]
            expect = self._raw(prog, graph, inits)
            got = {v: x for v, x in r.state.items() if x != 0}  # 0: after the cut
            assert got == expect, (prog, r.cut_version, got, expect)
        self.checked = len(results)

    @invariant()
    def drained_state_is_the_prefix_answer(self):
        # drained(): every ingested event has propagated, so the live
        # state is the static answer on the ingested prefix (§II-D).
        # Once per drained point: a rule that runs nothing changes nothing.
        point = (self.engine, self.engine.loop.actions_executed)
        if self.engine.drained() and point != self.drained_at:
            self._check_drained()
            self.drained_at = point

    def _check_quiescent(self) -> None:
        """At quiescence: the state is the oracle's, every trigger fired
        iff its predicate holds."""
        eng = self.engine
        assert eng.loop.quiescent() and eng.drained()
        self._check_drained()
        for w in self.watches:
            if not (w.live and self.add_only):
                continue
            final = eng.state(w.prog)
            for v, value in final.items():
                if w.vertex in (None, v) and not w.predicate(w.before.get(v, 0)):
                    assert (v in w.fired) == w.predicate(value), (w.prog, v, value)

    def _check_drained(self) -> None:
        """The state is the oracle's on the stored edges: raw values on
        add-only runs, projections and no frozen vertex under deletes."""
        eng = self.engine
        graph = csr_from_engine(eng)
        vertices = set(graph.vertex_ids.tolist())
        for name in self.names:
            if not family(name):
                continue
            state = eng.state(name)
            if not self.add_only:
                expect = self._oracle(name, graph, self.inits)
                assert all(len(x) == 3 for x in state.values()), f"{name}: frozen"
                fam = FAMILIES[family(name)]
                got = {v: x[1] for v, x in state.items() if not fam.unreached(x[1])}
                if fam.alone:  # deletes left it isolated: its own label
                    expect = {v: fam.alone(v) for v in got.keys() - vertices} | expect
                assert got == expect, (name, got, expect)
                continue
            expect = self._raw(name, graph, self.inits)
            assert state == expect, (name, state, expect)
            if name in KERNEL:
                assert all(type(x) is int for x in state.values())

    def teardown(self):
        # Only a run that passed every step is finished here: a failing
        # step's own exception is the one to report.
        if sys.exc_info()[0] is not None or not hasattr(self, "engine"):
            return
        while self.pending:
            self.init_source()
        if self.mode == "handover" and self._can_release():
            self.release_bulk()  # a handover run always ends with one
        eng = self.engine
        eng.run()
        assert eng.ingest_watermark() == len(self.events)
        self._check_collections()
        self.values_never_regress()
        self._check_quiescent()
        if self.add_only:
            pairs = {(s, d, w) for _k, s, d, w in self.events}
            both = pairs | {(d, s, w) for s, d, w in pairs}
            assert sorted(eng.edges()) == sorted(both)
            # S-T, det-bfs and degree against the sequential spec.
            ref = ReferenceEngine(self._programs())
            for i in self.inits:  # every one, by now
                ref.init_program(i.prog, i.vertex, i.payload)
            ref.ingest(self.events)
            for name in ("st", "det-bfs", "degree"):
                if name in self.names:
                    assert eng.state(name) == ref.state(name), name
        bulk = eng.total_counters().bulk_events
        if self.chunk and not self.bulk_spoiled:
            assert bulk == len(self.events)
        elif not self.chunk:
            assert bulk == 0


TIER1 = (
    {}
    if settings.get_current_profile_name() == "churn-sweep"
    else {"max_examples": 200, "derandomize": True}
)
TestEngineContract = EngineContract.TestCase
TestEngineContract.settings = settings(
    deadline=None,
    stateful_step_count=30,
    **TIER1,
)


# ----------------------------------------------------------------------
# The machine's power: every gated mutant of the catalogue must make it
# fail within the tier-1 budget.
# ----------------------------------------------------------------------
BUDGET = settings(
    TestEngineContract.settings,
    derandomize=True,
    database=None,
    phases=[Phase.generate],  # stop at the first failure
    verbosity=Verbosity.quiet,
)


def first_failure(
    mutant: Mutant, budget: settings = BUDGET, modes=()
) -> AssertionError | None:
    """The machine's first failure under ``mutant``, or None; ``modes``
    narrows the machine to those modes."""
    narrow = {m: EngineContract.MODES[m] for m in modes} or EngineContract.MODES
    with mutant.applied(), patched((EngineContract, "MODES", narrow)):
        try:
            run_state_machine_as_test(EngineContract, settings=budget)
        except AssertionError as failure:
            return failure
    return None


@pytest.mark.parametrize("bug", [m.name for m in CATALOGUE if m.gate])
def test_the_machine_finds_a_planted_bug(bug):
    # In the modes that run the broken code; the kill matrix runs the
    # whole machine.
    mutant = MUTANTS[bug]
    assert first_failure(mutant, modes=mutant.modes), f"{bug} survived the machine"


@pytest.mark.parametrize("mutant", CATALOGUE, ids=lambda m: m.name)
def test_the_catalogue_cannot_rot(mutant):
    """A renamed or re-signed target fails here, not as a silent no-op
    mutant (a patch that adds an attribute patches nothing)."""
    original = getattr(mutant.owner, mutant.attribute)  # AttributeError: it moved
    assert original is not mutant.replacement

    def params(f):
        return [(p.name, p.kind, p.default) for p in signature(f).parameters.values()]

    assert params(original) == params(mutant.replacement)


if __name__ == "__main__":
    # A report, not a gate: the churn mode, randomised at the
    # churn-sweep size, with rule 9's fence removed (DESIGN §12 b).
    sys.path.insert(0, str(Path(__file__).parents[1]))
    import conftest  # noqa: F401 - registers the churn-sweep profile

    sweep = settings(
        BUDGET,
        max_examples=settings.get_profile("churn-sweep").max_examples,
        derandomize=False,
        verbosity=Verbosity.normal,  # the failing steps, as notes
    )
    unfenced = MUTANTS["unfenced_support_tree"]
    failure = first_failure(unfenced, sweep, unfenced.modes)
    if failure is None:
        print(f"not found in {sweep.max_examples} examples (a report, not a gate)")
    else:
        steps = "\n".join(getattr(failure, "__notes__", ()))
        print(f"found: the unfenced support tree fails\n{failure}\n{steps}")
