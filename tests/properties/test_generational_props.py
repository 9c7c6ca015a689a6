"""Property-based tests for the §VI-B generational (delete) algorithms.

Hypothesis drives arbitrary interleaved add/delete sequences through
the generational programs at random rank counts and checks convergence
to the static answer on whatever topology results.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro import (
    DynamicEngine,
    EngineConfig,
    GenerationalBFS,
    GenerationalCC,
    GenerationalSSSP,
    GenerationalST,
    GenerationalWidest,
    ListEventStream,
)
from repro.analytics import verify_bfs, verify_cc, verify_sssp
from repro.analytics.verify import verify_st, verify_widest
from repro.events.types import ADD, DELETE

DIST = lambda v: v[1]  # noqa: E731
LABEL = lambda v: v[1]  # noqa: E731
MASK = GenerationalST.mask_of
CAP = lambda v: v[1]  # noqa: E731

edge = st.tuples(st.integers(0, 9), st.integers(0, 9)).filter(lambda e: e[0] != e[1])


@st.composite
def add_delete_sequences(draw):
    """A sequence of events where deletes target previously added edges
    (with occasional spurious deletes of absent edges)."""
    n_ops = draw(st.integers(1, 25))
    added: list[tuple[int, int]] = []
    events = []
    for _ in range(n_ops):
        if added and draw(st.booleans()) and draw(st.booleans()):
            s, d = draw(st.sampled_from(added))
            events.append((DELETE, s, d, 0))
        elif draw(st.integers(0, 9)) == 0:
            s, d = draw(edge)
            events.append((DELETE, s, d, 0))  # spurious delete
        else:
            s, d = draw(edge)
            added.append((s, d))
            events.append((ADD, s, d, 1))
    return events


def split(events, n):
    streams = [[] for _ in range(n)]
    for i, ev in enumerate(events):
        streams[i % n].append(ev)
    return [ListEventStream(evts, stream_id=k) for k, evts in enumerate(streams)]


@given(events=add_delete_sequences(), n_ranks=st.integers(1, 4))
@settings(max_examples=25, deadline=None)
def test_generational_bfs_converges_with_deletes(events, n_ranks):
    source = next((e[1] for e in events if e[0] == ADD), 0)
    e = DynamicEngine([GenerationalBFS()], EngineConfig(n_ranks=n_ranks))
    e.init_program("gen-bfs", source)
    e.attach_streams(split(events, n_ranks))
    e.run()
    assert e.loop.quiescent()
    assert verify_bfs(e, "gen-bfs", source, value_of=DIST) == []


@given(events=add_delete_sequences(), n_ranks=st.integers(1, 4))
@settings(max_examples=25, deadline=None)
def test_generational_cc_converges_with_deletes(events, n_ranks):
    e = DynamicEngine([GenerationalCC()], EngineConfig(n_ranks=n_ranks))
    e.attach_streams(split(events, n_ranks))
    e.run()
    assert verify_cc(e, "gen-cc", value_of=LABEL) == []


def weighted(events):
    """Re-weight adds as a pure function of the *canonical* pair so a
    re-add — in either orientation — never changes a stored weight (the
    monotone re-add contract; cf. the churn generator's pair-hashed
    weights)."""
    return [
        (
            k,
            s,
            d,
            1 + (3 * min(s, d) + 5 * max(s, d)) % 7 if k == ADD else 0,
        )
        for k, s, d, _w in events
    ]


@given(events=add_delete_sequences(), n_ranks=st.integers(1, 4))
@settings(max_examples=25, deadline=None)
def test_generational_sssp_converges_with_deletes(events, n_ranks):
    events = weighted(events)
    source = next((e[1] for e in events if e[0] == ADD), 0)
    e = DynamicEngine([GenerationalSSSP()], EngineConfig(n_ranks=n_ranks))
    e.init_program("gen-sssp", source)
    e.attach_streams(split(events, n_ranks))
    e.run()
    assert verify_sssp(e, "gen-sssp", source, value_of=DIST) == []


@given(events=add_delete_sequences(), n_ranks=st.integers(1, 4))
@settings(max_examples=25, deadline=None)
def test_generational_st_converges_with_deletes(events, n_ranks):
    sources = sorted({e[1] for e in events if e[0] == ADD} | {0})[:2]
    prog = GenerationalST()
    bits = [prog.register_source(s) for s in sources]
    e = DynamicEngine([prog], EngineConfig(n_ranks=n_ranks))
    for s, b in zip(sources, bits):
        e.init_program("gen-st", s, b)
    e.attach_streams(split(events, n_ranks))
    e.run()
    assert verify_st(e, "gen-st", sources, value_of=MASK) == []


@given(events=add_delete_sequences(), n_ranks=st.integers(1, 4))
@settings(max_examples=25, deadline=None)
def test_generational_widest_converges_with_deletes(events, n_ranks):
    events = weighted(events)
    source = next((e[1] for e in events if e[0] == ADD), 0)
    e = DynamicEngine([GenerationalWidest()], EngineConfig(n_ranks=n_ranks))
    e.init_program("gen-widest", source)
    e.attach_streams(split(events, n_ranks))
    e.run()
    assert verify_widest(e, "gen-widest", source, value_of=CAP) == []


def five_programs(sources=(0, 1)):
    """The benchmark's five delete-capable programs and their inits."""
    st_prog = GenerationalST()
    bits = [st_prog.register_source(s) for s in sources]
    programs = [
        GenerationalBFS(),
        GenerationalSSSP(),
        GenerationalCC(),
        st_prog,
        GenerationalWidest(),
    ]
    inits = [(name, sources[0]) for name in ("gen-bfs", "gen-sssp", "gen-widest")]
    inits += [("gen-st", s, b) for s, b in zip(sources, bits)]
    return programs, inits


# old value -> new value: no worse, per program.
NO_WORSE = {
    "gen-bfs": lambda old, new: new <= old,
    "gen-sssp": lambda old, new: new <= old,
    "gen-cc": lambda old, new: new >= old,
    "gen-st": lambda old, new: old & ~new == 0,
    "gen-widest": lambda old, new: new >= old,
}


@given(events=add_delete_sequences())
@settings(max_examples=20, deadline=None)
def test_generational_state_is_gen_monotone(events):
    """The §VI-B invariant, per vertex: the (generation, value) pair is
    monotone — a vertex's generation never decreases, and within one
    generation (frozen at the intrinsic value, then live) its value only
    improves; it gets worse only by entering a new generation."""
    programs, inits = five_programs()
    e = DynamicEngine(programs, EngineConfig(n_ranks=3))
    history: dict[tuple[str, int], list] = {}
    for prog in programs:
        e.add_trigger(
            prog.name,
            lambda v, val: val != 0,
            lambda v, val, t, name=prog.name: history.setdefault((name, v), []).append(
                val
            ),
            once=False,
        )
    for init in inits:
        e.init_program(*init)
    e.attach_streams(split(weighted(events), 3))
    e.run()
    for (name, v), states in history.items():
        for old, new in zip(states, states[1:]):
            assert new[0] >= old[0], f"{name} vertex {v}: generation decreased {states}"
            if new[0] == old[0]:
                assert NO_WORSE[name](old[1], new[1]), (
                    f"{name} vertex {v}: value got worse within a generation {states}"
                )
        assert len(states[-1]) == 3, f"{name} vertex {v}: frozen at quiescence"
