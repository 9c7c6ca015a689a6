"""One oracle table, many views.

``analytics.verify.FAMILIES`` is the single statement of each algorithm
family's right answer; the named ``verify_*`` checkers, the freshness
reference, the serving prefix oracle and ``static_answer`` are views of
it and must say the same thing about the same engine — add-only
programs and, through ``value_of``, their generational twins on a
delete-carrying stream.  A program's ``bulk_kernel`` row is the
family's algebra once more, over arrays: on its own it must reach the
table's answer, and it must merge as the program's scalar ``merge``.
Every add-only program is one derived callback over its family's row:
its decisions must be the paper's listings, one line per family.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import (
    INF,
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
    WidestPath,
)
from repro.algorithms import DeterministicBFS
from repro.algorithms.base import CAP_INF
from repro.algorithms.cc import component_label
from repro.analytics import (
    csr_from_engine,
    static_answer,
    verify_bfs,
    verify_cc,
    verify_sssp,
    verify_st,
    verify_widest,
)
from repro.analytics.verify import FAMILIES
from repro.events.types import ADD
from repro.generators.churn import churn_events, split_churn_streams
from repro.kernels import build_csr, relax_to_fixpoint
from repro.obs import make_reference
from repro.runtime.visitor import VT_UPDATE
from repro.serving import make_prefix_oracle
from repro.storage.csr import CSRGraph

SOURCES = [0, 1]
# family -> (the named checker, its seed as the views' keyword pair)
VIEWS = {
    "bfs": (verify_bfs, {"source": 0}),
    "sssp": (verify_sssp, {"source": 0}),
    "cc": (verify_cc, {}),
    "st": (verify_st, {"sources": SOURCES}),
    "widest": (verify_widest, {"source": 0}),
}
PROGRAMS = {
    "add-only": (
        {
            "bfs": IncrementalBFS,
            "sssp": IncrementalSSSP,
            "cc": IncrementalCC,
            "st": MultiSTConnectivity,
            "widest": WidestPath,
        },
        None,
    ),
    "generational": (
        {
            "bfs": GenerationalBFS,
            "sssp": GenerationalSSSP,
            "cc": GenerationalCC,
            "st": GenerationalST,
            "widest": GenerationalWidest,
        },
        lambda v: v[1],
    ),
}
KERNEL_KINDS = [k for k, cls in PROGRAMS["add-only"][0].items() if cls.bulk_kernel]


def two_component_edges():
    """``(a, b, weight)`` of the module's graph: random pairs on 0..23
    and the path 40-41-42 (so there are unreached vertices), with
    edge-deterministic weights."""
    rng = np.random.default_rng(5)
    pairs = [(int(a), int(b)) for a, b in rng.integers(0, 24, (60, 2)) if a != b]
    pairs += [(40, 41), (41, 42)]
    return [(a, b, (min(a, b) * 31 + max(a, b)) % 7 + 1) for a, b in pairs]


def quiesced(kind, twin):
    """One quiesced program of family ``kind``: two components (so
    there are unreached vertices), edge-deterministic weights."""
    classes, value_of = PROGRAMS[twin]
    prog = classes[kind]()
    engine = DynamicEngine([prog], EngineConfig(n_ranks=3))
    if FAMILIES[kind].seed == "sources":
        for s in SOURCES:
            engine.init_program(prog.name, s, prog.register_source(s))
    elif FAMILIES[kind].seed == "source":
        engine.init_program(prog.name, 0)
    if twin == "add-only":
        events = [(ADD, a, b, w) for a, b, w in two_component_edges()]
        engine.attach_streams([ListEventStream(events)])
    else:
        cols = churn_events(36, 150, delete_ratio=0.25, rng=np.random.default_rng(99))
        engine.attach_streams(split_churn_streams(*cols, 3))
    engine.run()
    return engine, prog.name, value_of


@pytest.mark.parametrize("twin", PROGRAMS)
@pytest.mark.parametrize("kind", FAMILIES)
def test_every_view_gives_the_table_answer(kind, twin):
    engine, prog, value_of = quiesced(kind, twin)
    verify, seed_kw = VIEWS[kind]
    seed = next(iter(seed_kw.values()), None)
    expect = static_answer(kind, csr_from_engine(engine), seed)
    assert len(expect) > 2
    assert make_prefix_oracle(engine, kind, **seed_kw)() == expect

    reference = make_reference(kind, **seed_kw, value_of=value_of)
    assert verify(engine, prog, *seed_kw.values(), value_of=value_of) == []
    assert reference(engine, prog) == []
    # The stored state *is* the table's answer; a vertex outside it is
    # unreached or (CC) left alone with its own label.
    unreached, alone = FAMILIES[kind].unreached, FAMILIES[kind].alone
    state = engine.state(prog)
    assert set(expect) <= set(state)
    for v, x in state.items():
        x = x if value_of is None or x == 0 else value_of(x)
        if v in expect:
            assert x == expect[v]
        else:
            assert unreached(x) or (alone is not None and x == alone(v))

    # ... and the views agree on what is wrong with a broken state too.
    victim = max(expect)
    broken = {v: x for v, x in engine.state(prog).items() if v != victim}
    found = verify(engine, prog, *seed_kw.values(), value_of=value_of, state=broken)
    assert len(found) == 1 and f"vertex {victim}:" in found[0]


def test_unknown_family_is_one_value_error_naming_the_known_ones():
    engine, _, _ = quiesced("cc", "add-only")
    known = "known: bfs, sssp, cc, st, widest"
    with pytest.raises(ValueError, match=known):
        static_answer("pagerank", csr_from_engine(engine))
    with pytest.raises(ValueError, match=known):
        make_reference("pagerank")
    # At construction, not inside the closure at the first batch.
    with pytest.raises(ValueError, match=known):
        make_prefix_oracle(engine, "pagerank", source=0)


def test_det_bfs_is_family_bfs_projected_on_the_level():
    """``(level, parent)`` values check against the BFS row through
    ``v[0]``; an unreached ``(INF, -1)`` is unreached, not a parent."""
    engine = DynamicEngine([DeterministicBFS()], EngineConfig(n_ranks=2))
    engine.init_program("det-bfs", 0)
    events = [(ADD, 0, 1, 1), (ADD, 5, 6, 1), (ADD, 1, 2, 1)]
    engine.attach_streams([ListEventStream(events)])
    engine.run()
    assert engine.state("det-bfs")[5] == (INF, -1)
    assert verify_bfs(engine, "det-bfs", 0, value_of=lambda v: v[0]) == []
    claimed = {**engine.state("det-bfs"), 5: (2, 0)}
    found = verify_bfs(engine, "det-bfs", 0, value_of=lambda v: v[0], state=claimed)
    assert len(found) == 1 and "static unreached" in found[0]


@pytest.mark.parametrize("kind", KERNEL_KINDS)
def test_each_kernel_row_reaches_the_table_answer_on_its_own(kind):
    """The row alone — first-touch seeds, the source at 1, one
    ``relax_to_fixpoint`` from every vertex over both directions of
    every edge in dense positions — is the family's static answer."""
    kernel = PROGRAMS["add-only"][0][kind].bulk_kernel
    a, b, w = (np.array(col, dtype=np.int64) for col in zip(*two_component_edges()))
    tails, heads = np.concatenate([a, b]), np.concatenate([b, a])
    weights = np.concatenate([w, w])
    ids, pos = np.unique(tails, return_inverse=True)
    adj = build_csr(ids.size, pos, np.searchsorted(ids, heads), weights)
    values = kernel.init_values(ids)
    seed = next(iter(VIEWS[kind][1].values()), None)
    if FAMILIES[kind].seed == "source":
        values[np.searchsorted(ids, seed)] = 1
    relax_to_fixpoint(adj, values, np.arange(ids.size), kernel)

    expect = static_answer(kind, CSRGraph.from_edges(tails, heads, weights), seed)
    unreached = FAMILIES[kind].unreached
    reached = {int(v): int(x) for v, x in zip(ids, values) if not unreached(int(x))}
    assert len(expect) > 2 and reached == expect


dense_value = st.one_of(st.integers(1, 60), st.just(INF))
level = st.one_of(st.just(0), dense_value)
# Per family, the values a vertex can hold (0 = unset) ...
VALUES = {
    "bfs": level,
    "sssp": level,
    "cc": st.one_of(st.just(0), st.integers(1, 2**64 - 1)),
    "st": st.integers(0, 15),
    "widest": st.one_of(st.just(0), st.integers(1, 60), st.just(CAP_INF)),
}
SHIFTED = ("bfs", "sssp", "widest")  # families whose ``extend`` moves a value
# ... the first-touch value that replaces an unset one ...
FIRST = {"bfs": lambda v: INF, "sssp": lambda v: INF, "cc": component_label}
# ... and Algs. 4-7 as the paper writes them (widest: the same recipe):
# what the visited vertex (value v) does with visitor value t over weight w.
# One deviation: the listings broadcast an adopted value to every
# neighbour, the sender too; the derived program skips the sender unless
# it gains, and only S-T's union can hold a bit the sender lacks.
LISTINGS = {
    "bfs": lambda v, t, w: ("adopt", t + 1) if v > t + 1 else ("notify", v) if v < t - 1 else None,  # noqa: E501
    "sssp": lambda v, t, w: ("adopt", t + w) if v > t + w else ("notify", v) if v < t - w else None,  # noqa: E501
    "cc": lambda v, t, w: ("adopt", t) if v < t else ("notify", v) if v > t else None,
    "st": lambda v, t, w: None if v == t else ("notify", v) if v | t == v else ("adopt", v | t),  # noqa: E501
    "widest": lambda v, t, w: ("adopt", min(t, w)) if min(t, w) > v else ("notify", v) if min(v, w) > t else None,  # noqa: E501
}


class FakeContext:
    """Vertex 7's context, recording what a callback writes and sends."""

    vertex = 7

    def __init__(self, value):
        self.value, self.sent = value, []

    def set_value(self, value):
        self.value = value

    def update_nbrs(self, value, skip=None):
        self.sent.append(("adopt", value, skip))

    def update_single_nbr(self, nbr, value, weight=None):
        self.sent.append(("notify", value, nbr))


@pytest.mark.parametrize("kind", FAMILIES)
@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_each_row_decides_as_the_papers_listing(kind, data):
    """The one derived ``on_update`` (also bound as ``on_reverse_add``)
    takes Alg. 4-7's decision for every (value, theirs, weight),
    0 and INF included: adopt and broadcast, notify the sender back, or
    nothing.  The broadcast skips the sender (vertex 9), which cannot
    gain from it — except an S-T union holding a bit the sender lacks,
    which goes to every neighbour.  A kernel row is the same algebra over
    arrays: a dense value ``a`` folds a dict value ``b`` (0 = unset) as
    the scalar ``merge`` does, and a candidate ``c`` improves ``a``
    exactly when ``merge`` moves it."""
    prog = PROGRAMS["add-only"][0][kind]()
    value = data.draw(VALUES[kind])
    # The listings' boundaries are a hop or a weight apart: draw there too.
    near = st.integers(-3, 3).map(lambda d: min(max(value + d, 0), INF))
    theirs = data.draw(VALUES[kind] | near if kind in SHIFTED else VALUES[kind])
    weight = data.draw(st.integers(0, 60) | st.just(min(abs(theirs - value), 60)))
    first = FIRST.get(kind)
    v, t = (value, theirs) if first is None else (value or first(7), theirs or first(9))
    expect = LISTINGS[kind](v, t, weight)
    for callback in (prog.on_update, prog.on_reverse_add):
        ctx = FakeContext(value)
        callback(ctx, 9, theirs, weight)
        if expect is None:
            assert ctx.sent == [] and ctx.value == v
        elif expect[0] == "adopt":
            sender_gains = kind == "st" and expect[1] & ~t
            skip = None if sender_gains else 9
            assert ctx.sent == [(*expect, skip)] and ctx.value == expect[1]
        else:
            assert ctx.sent == [(*expect, 9)] and ctx.value == v

    k = prog.bulk_kernel
    if k is None:
        return
    a, c = data.draw(dense_value), data.draw(dense_value)
    b = data.draw(st.one_of(st.just(0), dense_value))

    def col(x):
        return np.array([x], dtype=k.dtype)

    assert k.merge_dense(col(a), col(b))[0] == prog.merge(a, b)
    assert bool(k.improves(col(c), col(a))[0]) == (prog.merge(a, c) != a)


class BroadcastLog:
    """A callback's context that logs each broadcast as ``(program,
    vertex, sender, value)``: ``value`` adopted from ``sender``.
    ``echo`` drops the skip, as Algs. 4-7 broadcast."""

    def __init__(self, ctx, prog, sender, log, echo):
        self._ctx, self._prog, self._sender = ctx, prog, sender
        self._log, self._echo = log, echo

    def __getattr__(self, name):
        return getattr(self._ctx, name)

    def update_nbrs(self, value, skip=None):
        self._log.add((self._prog, self._ctx.vertex, self._sender, value))
        self._ctx.update_nbrs(value, None if self._echo else skip)


def logging_adoptions(cls, log, echo):
    class Logged(cls):
        def on_update(self, ctx, vis_id, vis_val, weight):
            ctx = BroadcastLog(ctx, self.name, vis_id, log, echo)
            cls.on_update(self, ctx, vis_id, vis_val, weight)

        on_reverse_add = on_update

    return Logged


class DeliveryLog(DynamicEngine):
    """Logs every UPDATE it dispatches as ``(program, target, sender,
    value)``."""

    def on_message(self, loop, rank, msg):
        if msg[0] == VT_UPDATE:
            _, p, target, sender, value = msg[:5]
            self.delivered.append((self.programs[p].name, target, sender, value))
        super().on_message(loop, rank, msg)


def echoes_to_the_adopted_from(coalesce, echo):
    """Per program: how many values were adopted, and how many of them
    an UPDATE delivered back to the vertex they were adopted from."""
    adoptions: set = set()
    kinds = ("bfs", "sssp", "cc", "widest")
    classes = PROGRAMS["add-only"][0]
    programs = [logging_adoptions(classes[k], adoptions, echo)() for k in kinds]
    config = EngineConfig(n_ranks=3, coalesce_updates=coalesce)
    engine = DeliveryLog(programs, config)
    engine.delivered = []
    for kind in ("bfs", "sssp", "widest"):
        engine.init_program(kind, 0)
    events = [(ADD, a, b, w) for a, b, w in two_component_edges()]
    engine.attach_streams([ListEventStream(events)])
    engine.run()
    echoes = {(p, v, u, x) for p, u, v, x in engine.delivered} & adoptions
    return {
        k: (sum(a[0] == k for a in adoptions), sum(e[0] == k for e in echoes))
        for k in kinds
    }


@pytest.mark.parametrize("coalesce", [True, False], ids=["coalesced", "unbatched"])
def test_an_adopted_value_never_reaches_its_sender(coalesce):
    """On a weighted add-only stream, no UPDATE carries an adopted BFS,
    SSSP, CC or widest value back to the vertex it was adopted from.
    The same log, with the skip dropped as in Algs. 4-7, does see such
    echoes: the count is not blind to them."""
    for kind, (adopted, echoed) in echoes_to_the_adopted_from(coalesce, False).items():
        assert adopted > 0 and echoed == 0, kind
    for kind, (_, echoed) in echoes_to_the_adopted_from(coalesce, True).items():
        assert echoed > 0, kind
