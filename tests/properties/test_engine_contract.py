"""The engine contract as one model-based test (hypothesis state machine).

The paper makes one correctness claim three times: REMO state reaches the
static answer on the ingested prefix for any legal interleaving (§II-B,
§II-D), a versioned collection harvests exactly the prefix at its cut
(§III-D), and a "When" trigger fires once and never wrongly (§III-E).
:class:`EngineContract` states all three against one DES engine.  The
test drives the clock (``run(max_actions=k)`` slices), so every rule
lands between two actions of a live run.

Set-up (drawn once per example): the programs — the kernel set (BFS,
SSSP, CC), the full add-only set (adds widest, S-T with 1–3 sources,
det-bfs and degree) or the five generational programs under deletes —
1, 2 or 4 ranks, bulk ingest off or at chunk 1/7/64 (kernel set only),
``coalesce_updates`` on or off, at most 10 vertices (up to 40 adds, or 30
operations under deletes) dealt round robin into per-rank streams,
triggers and collections registered before ingest, and on add-only runs
optionally the full-stream answer as the serving tier's reference.

Rules: run a slice; serve a point or typed read; register or remove a
trigger; ``init_program`` a further source; begin a collection (add-only);
checkpoint and restore (pause, drain, save, load into a fresh engine,
seek the streams — ``FaultTolerantRunner._checkpoint``).

Invariants (every step): a ``stale=False`` answer equals the prefix
oracle and is served again from the cache; add-only values never regress
(churn: ``(generation, value)`` never regresses) and ``value_of`` agrees
with ``state``; a trigger fires at most once, only while its predicate
holds on the live value; a finished collection equals the static answer
on its ``cut_positions`` prefix.  At quiescence (each checkpoint's drain
and the end): state equals the oracle — raw values on add-only runs,
projections and no frozen vertex under deletes — and a trigger fired iff
its predicate holds.  At the end also: the edge set, det-bfs, degree and
S-T against ``ReferenceEngine`` on the same events, and a bulk run that
stayed eligible ingested every event in chunks.

``PYTHONPATH=src python tests/properties/test_engine_contract.py`` runs
the machine, randomised at the ``churn-sweep`` size, on the generational
programs with rule 9's fence removed and prints whether it finds the
fence hazard (DESIGN §12 b).  A report, not a gate.
"""

import sys
import tempfile
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Any, Callable

import numpy as np
import pytest
from hypothesis import Phase, settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
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
from repro.runtime.bulk import BulkIngestor
from repro.runtime.checkpoint import load_checkpoint, save_checkpoint
from repro.runtime.plugins import BulkIngestPlugin
from repro.runtime.queries import TriggerManager
from repro.runtime.visitor import CTRL_HARVEST
from repro.serving import FrozenBackend, ServingLayer
from repro.serving.workload import KINDS_FOR
from repro.storage.csr import CSRGraph

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
def add_only_events(draw, n_vertices):
    size = draw(st.integers(0, 40))  # uniform: hypothesis lists run short
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
    docstring).  A planted-bug test overrides one of the factories."""

    MODES = ("kernel", "full", "churn")

    # -- factories --------------------------------------------------------
    def make_engine(self, programs, config, plugins) -> DynamicEngine:
        return DynamicEngine(programs, config, plugins=plugins)

    def make_bulk(self, chunk: int) -> BulkIngestPlugin:
        return BulkIngestPlugin(chunk)

    def make_serving(self, engine) -> ServingLayer:
        return ServingLayer(engine)

    def make_program(self, name: str):
        return PROGRAM[name]()

    # -- set-up -----------------------------------------------------------
    @initialize(data=st.data())
    def setup(self, data):
        draw = data.draw
        self.mode = draw(st.sampled_from(self.MODES), label="mode")
        self.names = {"kernel": KERNEL, "full": FULL, "churn": CHURN}[self.mode]
        self.add_only = self.mode != "churn"
        self.n_ranks = draw(st.sampled_from((1, 2, 4)), label="ranks")
        self.chunk = None
        if self.mode == "kernel":
            self.chunk = draw(st.sampled_from((None, 1, 7, 64)), label="chunk")
        self.coalesce = draw(st.booleans(), label="coalesce")
        # Triggers and collections keep bulk ingest off while they last:
        # half the runs have none, so the chunks run end to end.
        self.observed = draw(st.booleans(), label="triggers and collections")
        n = draw(st.integers(2, MAX_VERTICES), label="n_vertices")
        events = draw((add_only_events if self.add_only else churn_events)(n))
        self.events = events
        self.streams_events = [events[k :: self.n_ranks] for k in range(self.n_ranks)]
        self.universe = range(n)
        vertex = st.integers(0, n - 1)
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
        self._build().attach_streams(self.streams)
        for i, h in zip(inits, held):
            if not h:
                self._init(i)
        # Queries registered before ingest starts see every change.
        for _ in range(draw(st.integers(0, 2), label="queries up front")):
            self.add_trigger(data)
            self.begin_collection(data)
        self.last = self._states()

    def _programs(self):
        progs = [self.make_program(name) for name in self.names]
        for p in progs:
            for s in self.st_sources.get(p.name, ()):
                p.register_source(s)
        return progs

    def _build(self):
        plugins = [self.make_bulk(self.chunk)] if self.chunk else None
        self.engine = self.make_engine(
            self._programs(),
            EngineConfig(n_ranks=self.n_ranks, coalesce_updates=self.coalesce),
            plugins,
        )
        self.streams = [
            ListEventStream(evs, stream_id=k)
            for k, evs in enumerate(self.streams_events)
        ]
        self.serving = self.make_serving(self.engine)
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
    @rule(k=st.integers(1, 48))
    def run_slice(self, k):
        self.engine.run(max_actions=k)

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

    @rule(data=st.data())
    def remove_trigger(self, data):
        live = [w for w in self.watches if w.live]
        if not live:
            return
        w = data.draw(st.sampled_from(live))
        assert self.engine.triggers.remove(w.handle)
        w.live = False

    @rule()
    def init_source(self):
        if self.pending:
            self._init(self.pending.pop(0))

    @rule(data=st.data())
    def begin_collection(self, data):
        if not (self.add_only and self.observed):
            return
        names = [p for p in self.names if family(p)]
        prog = data.draw(st.sampled_from(names), label="collect")
        # A cut up to 50 us ahead lands mid-stream, not at the next action.
        at = self.engine.vtime() + data.draw(st.integers(0, 50), label="us") * 1e-6
        self.engine.request_collection(prog, at_time=at)
        self.requested.append((at, prog))
        self.bulk_spoiled = True

    @rule()
    def checkpoint_and_restore(self):
        # Each restore drains the cluster: two per example keep most
        # steps mid-stream.
        if self.restores == 2:
            return
        self.restores += 1
        eng = self.engine
        for r in range(self.n_ranks):
            eng.loop.set_source_active(r, False)
        eng.run()  # drain: visitors, pending collections, probes
        self._check_collections()
        self._check_quiescent()
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
    def collections_harvest_their_prefix(self):
        self._check_collections()

    def _check_collections(self) -> None:
        eng = self.engine
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
                assert r.requested_at in (at, prev.completed_at)
            graph = prefix_csr(self.streams_events, eng.cut_positions[r.collection_id])
            inits = [x for x in self.inits if x.version < r.cut_version]
            expect = self._raw(prog, graph, inits)
            got = {v: x for v, x in r.state.items() if x != 0}  # 0: after the cut
            assert got == expect, (prog, r.cut_version, got, expect)
        self.checked = len(results)

    def _check_quiescent(self) -> None:
        """At quiescence: the state is the oracle's, every trigger fired
        iff its predicate holds."""
        eng = self.engine
        assert eng.loop.quiescent() and eng.drained()
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
        for w in self.watches:
            if not (w.live and self.add_only):
                continue
            final = eng.state(w.prog)
            for v, value in final.items():
                if w.vertex in (None, v) and not w.predicate(w.before.get(v, 0)):
                    assert (v in w.fired) == w.predicate(value), (w.prog, v, value)

    def teardown(self):
        # Only a run that passed every step is finished here: a failing
        # step's own exception is the one to report.
        if sys.exc_info()[0] is not None or not hasattr(self, "engine"):
            return
        while self.pending:
            self.init_source()
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
# The machine's power: one planted bug per fast path, each in a
# test-local subclass, must make it fail within the tier-1 budget.
# ----------------------------------------------------------------------
class _SkipsLastProgramOnFlush(BulkIngestor):
    """(a) A bulk flush that drops one program's stale entries."""

    def flush_values(self, count_fallback=True):
        stale, last = self.state.stale, len(self.kernels) - 1
        self.state.stale = lambda p: stale(p)[:0] if p == last else stale(p)
        try:
            super().flush_values(count_fallback)
        finally:
            del self.state.stale


class _SkippingBulk(BulkIngestPlugin):
    def setup(self, engine):
        engine._bulk = _SkipsLastProgramOnFlush(engine, self.chunk)


class _NeverStale(ServingLayer):
    """(b) A point read stamped fresh without asking ``drained()``."""

    def point(self, prog, vertex):
        return replace(super().point(prog, vertex), stale=False)


class _HarvestsSNew(DynamicEngine):
    """(c) A collection part that reads S_new instead of S_prev."""

    def _on_control(self, rank, msg):
        if msg[1] == CTRL_HARVEST:
            self._prev_vals[rank] = {}
        super()._on_control(rank, msg)


class _RefiringTriggers(TriggerManager):
    """(d) A once-trigger that fires on every change."""

    def add(self, *args, **kwargs):
        trig = super().add(*args, **kwargs)
        trig.once = False
        return trig


def _with_refiring_triggers(programs, config, plugins):
    engine = DynamicEngine(programs, config, plugins=plugins)
    engine.triggers = _RefiringTriggers()
    return engine


PLANTED = {
    "bulk_flush_skips_a_program": {"make_bulk": lambda self, c: _SkippingBulk(c)},
    "point_read_ignores_drained": {"make_serving": lambda self, e: _NeverStale(e)},
    "harvest_reads_s_new": {
        "make_engine": lambda self, p, c, pl: _HarvestsSNew(p, c, plugins=pl)
    },
    "once_trigger_refires": {
        "make_engine": lambda self, p, c, pl: _with_refiring_triggers(p, c, pl)
    },
}


@pytest.mark.parametrize("bug", PLANTED)
def test_the_machine_finds_a_planted_bug(bug):
    planted = type(f"Planted[{bug}]", (EngineContract,), PLANTED[bug])
    # The tier-1 budget, derandomised, stopping at the first failure.
    budget = settings(
        TestEngineContract.settings,
        derandomize=True,
        database=None,
        phases=[Phase.generate],
    )
    with pytest.raises(AssertionError):
        run_state_machine_as_test(planted, settings=budget)


# ----------------------------------------------------------------------
# CI's report: the generational programs with rule 9's fence removed.
# ----------------------------------------------------------------------
class _NoFence:
    """The reverse-delete side sends no ``F`` (DESIGN §12, hazard b)."""

    def on_reverse_delete(self, ctx, vis_id, vis_val, weight):
        self._edge_removed(ctx, vis_id)


UNFENCED = {n: type(f"Unfenced[{n}]", (_NoFence, PROGRAM[n]), {}) for n in CHURN}


class UnfencedContract(EngineContract):
    MODES = ("churn",)

    def make_program(self, name):
        return UNFENCED[name]()


if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).parents[1]))
    import conftest  # noqa: F401 - registers the churn-sweep profile

    sweep = settings(
        TestEngineContract.settings,
        max_examples=settings.get_profile("churn-sweep").max_examples,
        derandomize=False,
        database=None,
        phases=[Phase.generate],
    )
    try:
        run_state_machine_as_test(UnfencedContract, settings=sweep)
    except AssertionError as failure:
        steps = "\n".join(getattr(failure, "__notes__", ()))
        print(f"found: the unfenced support tree fails\n{failure}\n{steps}")
    else:
        print(f"not found in {sweep.max_examples} examples (a report, not a gate)")
