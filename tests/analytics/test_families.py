"""One oracle table, many views.

``analytics.verify.FAMILIES`` is the single statement of each algorithm
family's right answer; the named ``verify_*`` checkers, the freshness
reference, the serving prefix oracle and ``static_answer`` are views of
it and must say the same thing about the same engine — add-only
programs and, through ``value_of``, their generational twins on a
delete-carrying stream.  A program's ``bulk_kernel`` row is the
family's algebra once more, over arrays: on its own it must reach the
table's answer, and it must merge as the program's scalar ``merge``.
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


@pytest.mark.parametrize("kind", KERNEL_KINDS)
@settings(max_examples=150, deadline=None)
@given(a=dense_value, b=st.one_of(st.just(0), dense_value), c=dense_value)
def test_each_kernel_row_merges_as_its_programs_scalar_merge(kind, a, b, c):
    """The vector row and the scalar ``merge`` are two declarations (the
    per-event hot path stays on Python ints) of one algebra: a dense
    value ``a`` folds a dict value ``b`` (0 = unset) as ``merge`` does,
    and a candidate ``c`` improves ``a`` exactly when ``merge`` moves it."""
    prog = PROGRAMS["add-only"][0][kind]()
    k = prog.bulk_kernel

    def col(x):
        return np.array([x], dtype=k.dtype)

    assert k.merge_dense(col(a), col(b))[0] == prog.merge(a, b)
    assert bool(k.improves(col(c), col(a))[0]) == (prog.merge(a, c) != a)
