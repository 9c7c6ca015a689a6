"""One oracle table, many views.

``analytics.verify.FAMILIES`` is the single statement of each algorithm
family's right answer; the named ``verify_*`` checkers, the freshness
reference, the serving prefix oracle and ``static_answer`` are views of
it and must say the same thing about the same engine — add-only
programs and, through ``value_of``, their generational twins on a
delete-carrying stream.
"""

import numpy as np
import pytest

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
from repro.obs import make_reference
from repro.serving import make_prefix_oracle

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
        rng = np.random.default_rng(5)
        pairs = [(int(a), int(b)) for a, b in rng.integers(0, 24, (60, 2)) if a != b]
        pairs += [(40, 41), (41, 42)]
        events = [
            (ADD, a, b, (min(a, b) * 31 + max(a, b)) % 7 + 1) for a, b in pairs
        ]
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
