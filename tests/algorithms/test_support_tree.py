"""The support-tree delete protocol under all five programs at once.

The light per-program sweeps (``tests/properties``) passed on a wrong
first version of this protocol: the failures need all five programs in
one engine (their visits interleave on the rank clocks), at most a dozen
vertices and at least 40 operations, so that edges are deleted and
re-added while repair messages are in flight.  This file is that heavier
proof: a five-program hypothesis sweep, the pinned runs that broke the
prototype (on DES and through ``run_parallel``), locality stated as
exact visit counts, and the per-cause counters end to end.
"""

import multiprocessing

import numpy as np
import pytest
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
    INF,
    ListEventStream,
    ReferenceEngine,
)
from repro.algorithms.cc import component_label
from repro.analytics.metrics import throughput_report
from repro.analytics.verify import (
    verify_bfs,
    verify_cc,
    verify_sssp,
    verify_st,
    verify_widest,
)
from repro.events.types import ADD, DELETE
from repro.generators.churn import churn_events, split_churn_streams
from repro.parallel.runner import run_parallel
from repro.parallel.wire import WireConfig
from repro.runtime.checkpoint import load_checkpoint, save_checkpoint
from repro.runtime.plugins import MetricsPlugin

needs_fork = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="fork start method unavailable",
)

SECOND = lambda v: v[1]  # noqa: E731 - the projection of every state shape
# The benchmark's churn workload: five programs, sources 0 and 1.
INIT = [
    ("gen-bfs", 0, None),
    ("gen-sssp", 0, None),
    ("gen-st", 0, 0),
    ("gen-st", 1, 1),
    ("gen-widest", 0, None),
]
PROGRAMS = ("gen-bfs", "gen-sssp", "gen-cc", "gen-st", "gen-widest")
CAUSES = ("deletes_safe", "deletes_unsafe", "vertices_invalidated", "repair_visits")


def five_programs():
    st_prog = GenerationalST()
    st_prog.register_source(0)
    st_prog.register_source(1)
    return [
        GenerationalBFS(),
        GenerationalSSSP(),
        GenerationalCC(),
        st_prog,
        GenerationalWidest(),
    ]


def run_des(streams, n_ranks, programs=None):
    engine = DynamicEngine(programs or five_programs(), EngineConfig(n_ranks=n_ranks))
    names = {p.name for p in engine.programs}
    for prog, vertex, payload in INIT:
        if prog in names:
            engine.init_program(prog, vertex, payload)
    engine.attach_streams(streams)
    engine.run()
    assert engine.loop.quiescent()
    return engine


def assert_none_frozen(state_of):
    for prog in PROGRAMS:
        frozen = {v: s for v, s in state_of(prog).items() if len(s) != 3}
        assert frozen == {}, f"{prog}: frozen at quiescence"


def assert_converged(engine):
    """The five static oracles agree, and nothing is left frozen."""
    assert verify_bfs(engine, "gen-bfs", 0, value_of=SECOND) == []
    assert verify_sssp(engine, "gen-sssp", 0, value_of=SECOND) == []
    assert verify_cc(engine, "gen-cc", value_of=SECOND) == []
    assert verify_st(engine, "gen-st", [0, 1], value_of=SECOND) == []
    assert verify_widest(engine, "gen-widest", 0, value_of=SECOND) == []
    assert_none_frozen(engine.state)


def projected(state_of):
    return {name: {v: s[1] for v, s in state_of(name).items()} for name in PROGRAMS}


# ----------------------------------------------------------------------
# (i) the heavy sweep
# ----------------------------------------------------------------------
op = st.tuples(
    st.floats(0, 1), st.integers(0, 11), st.integers(0, 11), st.integers(0, 10**6)
)


# 60 examples in tier-1; the profile's 1,500 under CI's churn-sweep
# profile (tests/conftest.py).
SWEEP = (
    {} if settings.get_current_profile_name() == "churn-sweep" else {"max_examples": 60}
)


@given(
    ops=st.lists(op, min_size=40, max_size=120),
    n_vertices=st.integers(3, 12),
    n_ranks=st.integers(1, 7),
    canonical_split=st.booleans(),
)
@settings(deadline=None, **SWEEP)
def test_five_programs_converge_under_heavy_churn(
    ops, n_vertices, n_ranks, canonical_split
):
    """Dense little graphs, ~40% deletes, re-adds in either orientation:
    edges die and come back while their repair waves are still running."""
    live: list[tuple[int, int]] = []
    events = []
    for roll, a, b, pick in ops:
        if live and roll < 0.4:
            u, v = live.pop(pick % len(live))
            kind = DELETE
        else:
            u, v = a % n_vertices, b % n_vertices
            if u == v:
                v = (u + 1) % n_vertices
            live.append((u, v))
            kind = ADD
        if pick & 1:  # either orientation names the same undirected edge
            u, v = v, u
        # Weights are a function of the canonical pair: a re-add never
        # changes a stored weight (the monotone re-add contract).
        weight = 1 + (3 * min(u, v) + 5 * max(u, v)) % 7 if kind == ADD else 0
        events.append((kind, u, v, weight))
    if canonical_split:
        kinds, src, dst, weights = (np.array(col, np.int64) for col in zip(*events))
        streams = split_churn_streams(src, dst, weights, kinds, n_ranks)
    else:  # round robin: an edge's add and delete race across streams
        streams = [
            ListEventStream(events[k::n_ranks], stream_id=k) for k in range(n_ranks)
        ]
    engine = run_des(streams, n_ranks)
    assert_converged(engine)


# ----------------------------------------------------------------------
# (ii) the runs that broke the prototype
# ----------------------------------------------------------------------
# (n_vertices, n_adds, delete_ratio, ranks, seed): a late ack completing
# a later freeze, the missing fence, control messages dropped with their
# edge, kids never released — 24 of 1,500 random runs found them.
PINNED = [
    (7, 39, 0.4, 4, 606998722),
    (13, 118, 0.49, 7, 119304216),
    (10, 58, 0.4, 4, 858990217),
    (12, 43, 0.4, 4, 834128590),
    (10, 69, 0.4, 2, 357309074),
    (19, 78, 0.4, 4, 703075063),
    (13, 105, 0.49, 7, 503441585),
    (7, 33, 0.49, 7, 879689500),
]


def pinned_columns(n_vertices, n_adds, ratio, seed):
    return churn_events(
        n_vertices, n_adds, delete_ratio=ratio, rng=np.random.default_rng(seed)
    )


@pytest.mark.parametrize("n_vertices,n_adds,ratio,ranks,seed", PINNED)
def test_pinned_prototype_breakers_converge(n_vertices, n_adds, ratio, ranks, seed):
    cols = pinned_columns(n_vertices, n_adds, ratio, seed)
    engine = run_des(split_churn_streams(*cols, ranks), ranks)
    assert_converged(engine)


@needs_fork
@pytest.mark.parametrize("mp_ranks", [2, 4])
@pytest.mark.parametrize("n_vertices,n_adds,ratio,ranks,seed", PINNED)
def test_pinned_prototype_breakers_mp_equals_des(
    n_vertices, n_adds, ratio, ranks, seed, mp_ranks
):
    cols = pinned_columns(n_vertices, n_adds, ratio, seed)
    des = run_des(split_churn_streams(*cols, mp_ranks), mp_ranks)
    res = run_parallel(
        five_programs(),
        split_churn_streams(*cols, mp_ranks),
        EngineConfig(n_ranks=mp_ranks),
        WireConfig(start_method="fork"),
        init=INIT,
    )
    assert projected(res.state) == projected(des.state)
    assert_none_frozen(res.state)


# ----------------------------------------------------------------------
# (iii) locality, as exact counts
# ----------------------------------------------------------------------
def counts(engine):
    total = engine.total_counters()
    return {name: getattr(total, name) for name in ("visits",) + CAUSES}


def then(engine, events):
    """Run ``events`` on a quiescent engine; the counter deltas."""
    before = counts(engine)
    engine.attach_streams([ListEventStream(events)])
    engine.run()
    assert engine.loop.quiescent()
    return {name: value - before[name] for name, value in counts(engine).items()}


@pytest.mark.parametrize(
    "program",
    [
        GenerationalBFS,
        GenerationalSSSP,
        GenerationalCC,
        GenerationalST,
        GenerationalWidest,
    ],
)
def test_non_support_delete_costs_three_visits_and_no_write(program):
    """K4 has six edges and at most five of them support anybody (three
    for the single-support programs).  Deleting another one runs
    on_delete, on_reverse_delete and one no-op fence visit, and writes
    nothing."""
    prog = program()
    if program is GenerationalST:
        prog.register_source(0)
        prog.register_source(1)
    k4 = [(u, v) for u in range(4) for v in range(u + 1, 4)]
    engine = run_des([ListEventStream([(ADD, u, v, 2) for u, v in k4])], 2, [prog])
    state = engine.state(prog.name)
    supports = {
        frozenset((v, n))
        for v, (_g, _value, support) in state.items()
        for n in (support.values() if isinstance(support, dict) else [support])
    }
    u, v = next(e for e in k4 if frozenset(e) not in supports)
    writes = []
    engine.add_trigger(
        prog.name, lambda *_: True, lambda *a: writes.append(a), once=False
    )
    delta = then(engine, [(DELETE, u, v, 0)])
    assert delta == {
        "visits": 3,
        "deletes_safe": 2,
        "deletes_unsafe": 0,
        "vertices_invalidated": 0,
        "repair_visits": 1,
    }
    assert writes == [] and engine.state(prog.name) == state


def leaf_cut_cost(n_vertices):
    """A path 0-1-...-(n-1) with a leaf hanging off vertex 1 by two edges
    (to 1 and to 2): cut the leaf's support edge, count the visits."""
    leaf = n_vertices
    path = [(ADD, i, i + 1, 1) for i in range(n_vertices - 1)]
    engine = run_des(
        [ListEventStream(path + [(ADD, 1, leaf, 1), (ADD, 2, leaf, 1)])],
        3,
        [GenerationalBFS()],
    )
    assert engine.value_of("gen-bfs", leaf) == (0, 3, 1)
    delta = then(engine, [(DELETE, 1, leaf, 0)])
    assert engine.value_of("gen-bfs", leaf) == (1, 4, 2)
    return delta


def test_leaf_support_cut_costs_its_degree_not_the_graph():
    small, large = leaf_cut_cost(20), leaf_cut_cost(2000)
    assert small == large
    assert large["deletes_unsafe"] == 1 and large["vertices_invalidated"] == 1
    assert large["visits"] <= 12


def test_cut_bridge_resets_the_far_side_only():
    # 0-1-2 | 3-4-5 joined by the bridge 2-3.  Vertex 0 is the source of
    # every query and also holds CC's maximum hash of the six, so for all
    # five programs values flow from the near side to the far side.
    events = [(ADD, v, v + 1, 1) for v in range(5)]
    engine = run_des([ListEventStream(events)], 2)

    def near_side():
        return {p: [engine.value_of(p, v) for v in (0, 1, 2)] for p in PROGRAMS}

    before = near_side()
    then(engine, [(DELETE, 2, 3, 0)])
    assert near_side() == before  # generations included
    for v in (3, 4, 5):
        assert engine.value_of("gen-bfs", v) == (1, INF, -2)
        assert engine.value_of("gen-sssp", v) == (1, INF, -2)
        assert engine.value_of("gen-widest", v) == (1, 0, -2)
        assert engine.value_of("gen-st", v) == (1, 0, {})
    assert_converged(engine)


def test_init_landing_on_a_frozen_vertex_survives_the_thaw():
    """``init()`` "can be initiated at any time" (§IV) — also while the
    vertex is mid-repair: the grant must neither be lost nor crash."""
    engine = DynamicEngine([GenerationalBFS()], EngineConfig(n_ranks=1))
    engine.init_program("gen-bfs", 0)
    chain = [(ADD, 0, 1, 1), (ADD, 1, 2, 1), (ADD, 2, 3, 1)]
    engine.attach_streams([ListEventStream(chain)])
    engine.run()
    engine.attach_streams([ListEventStream([(DELETE, 0, 1, 0)])])
    while len(engine.value_of("gen-bfs", 2)) == 3:  # step until 2 freezes
        engine.run(max_actions=1)
    engine.init_program("gen-bfs", 2, at_time=engine.vtime())
    engine.run()
    assert engine.loop.quiescent()
    assert engine.state("gen-bfs") == {
        0: (0, 1, -2),
        1: (1, 2, 2),
        2: (1, 1, -2),
        3: (1, 2, 2),
    }


def messages(engine):
    total = engine.total_counters()
    return total.messages_sent_local + total.messages_sent_remote


# Rule 1 without its echo: a hub of degree k + 1 that adopts over its
# new edge offers the value to its k old neighbours only, and a leaf
# that adopts from the hub has nobody left to tell.
HUB, LEAVES = 100, range(101, 106)


@pytest.mark.parametrize(
    "program", [GenerationalBFS, GenerationalSSSP, GenerationalCC, GenerationalWidest]
)
def test_an_adoption_fans_out_to_all_but_its_sender(program):
    prog = program()
    engine = run_des([ListEventStream([(ADD, HUB, v, 3) for v in LEAVES])], 2, [prog])
    if program is GenerationalCC:
        # The joining vertex carries a label above the whole star's.
        joiner = max(range(HUB), key=component_label)
        assert component_label(joiner) > max(map(component_label, (HUB, *LEAVES)))
    else:
        joiner = 0  # the source, unseen by the star until now
    before = messages(engine)
    # ADD at the joiner (the canonical lo endpoint), REVERSE_ADD at the
    # hub, which adopts: one U per leaf, none back to the joiner, and
    # no leaf echoes the hub.
    delta = then(engine, [(ADD, joiner, HUB, 5)])
    assert delta["visits"] == 2 + len(LEAVES)
    assert messages(engine) - before == 2 + len(LEAVES)
    assert engine.value_of(prog.name, HUB)[2] == joiner
    assert all(engine.value_of(prog.name, v)[2] == HUB for v in LEAVES)


def test_st_adoption_still_answers_a_sender_that_lacks_a_bit():
    """Two sources, each holding its own bit, joined by one edge: the
    REVERSE_ADD side adopts the other's bit and must still send the
    union back — the one case where the sender gains from the echo."""
    prog = GenerationalST()
    prog.register_source(0)
    prog.register_source(1)
    engine = run_des([ListEventStream([])], 2, [prog])
    assert [engine.value_of("gen-st", v)[1] for v in (0, 1)] == [0b01, 0b10]
    delta = then(engine, [(ADD, 0, 1, 1)])
    assert [engine.value_of("gen-st", v)[1] for v in (0, 1)] == [0b11, 0b11]
    # ADD at 0, REVERSE_ADD at 1 (adopts bit 0, echoes), U at 0 (adopts
    # bit 1; 1 now lacks nothing, so no second echo).
    assert delta["visits"] == 3


@pytest.mark.parametrize("n_vertices,n_adds,ratio,ranks,seed", PINNED[:4])
def test_des_with_skipped_echoes_equals_the_reference_engine(
    n_vertices, n_adds, ratio, ranks, seed
):
    """The sequential spec runs the same callbacks, skip included: the
    asynchronous run reaches its projected state exactly."""
    cols = pinned_columns(n_vertices, n_adds, ratio, seed)
    src, dst, weights, kinds = (col.tolist() for col in cols)
    ref = ReferenceEngine(five_programs())
    for prog, vertex, payload in INIT:
        ref.init_program(prog, vertex, payload)
    ref.ingest(zip(kinds, src, dst, weights))
    des = run_des(split_churn_streams(*cols, ranks), ranks)
    assert projected(des.state) == projected(ref.state)
    assert_none_frozen(ref.state)


# ----------------------------------------------------------------------
# per-cause counters, end to end
# ----------------------------------------------------------------------
CHURN = (24, 90, 0.3, 0x5EED)


def test_delete_causes_reach_the_report_and_survive_a_checkpoint(tmp_path):
    cols = pinned_columns(*CHURN)
    engine = run_des(split_churn_streams(*cols, 3), 3)
    report = throughput_report(engine).to_dict()
    total = engine.total_counters()
    assert {name: report[name] for name in CAUSES} == {
        name: getattr(total, name) for name in CAUSES
    }
    assert report["deletes_unsafe"] > 0 and report["repair_visits"] > 0
    assert "deletes: safe=" in throughput_report(engine).summary()
    # Two delete callbacks per program per DELETE event (every endpoint
    # here was touched by an add first), whatever the interleaving.
    n_deletes = int((cols[3] == DELETE).sum())
    assert report["deletes_safe"] + report["deletes_unsafe"] == 2 * 5 * n_deletes

    restored = DynamicEngine(five_programs(), EngineConfig(n_ranks=3))
    save_checkpoint(engine, tmp_path / "churn.npz")
    load_checkpoint(restored, tmp_path / "churn.npz")
    assert {n: getattr(restored.total_counters(), n) for n in CAUSES} == {
        n: report[n] for n in CAUSES
    }


def test_sampler_row_carries_the_delete_causes():
    cols = pinned_columns(*CHURN)
    engine = DynamicEngine(
        five_programs(), EngineConfig(n_ranks=2), plugins=[MetricsPlugin(1e-4)]
    )
    engine.attach_streams(split_churn_streams(*cols, 2))
    engine.run()
    total = engine.total_counters()
    assert engine.metrics.rows("sample")[-1]["deletes"] == {
        name: getattr(total, name) for name in CAUSES
    }
    assert total.deletes_unsafe > 0


def test_no_deletes_line_without_deletes():
    engine = run_des([ListEventStream([(ADD, 0, 1, 1), (ADD, 1, 2, 1)])], 2)
    assert "deletes:" not in throughput_report(engine).summary()


@needs_fork
def test_delete_callbacks_agree_between_des_and_mp():
    cols = pinned_columns(*CHURN)
    des = run_des(split_churn_streams(*cols, 3), 3).total_counters()
    res = run_parallel(
        five_programs(),
        split_churn_streams(*cols, 3),
        EngineConfig(n_ranks=3),
        WireConfig(start_method="fork"),
        init=INIT,
    )
    mp = res.counters
    # Which of the two a delete is depends on the interleaving; their
    # sum is the number of delete callbacks dispatched.
    assert mp.deletes_safe + mp.deletes_unsafe == des.deletes_safe + des.deletes_unsafe
    assert mp.deletes_unsafe > 0 and mp.repair_visits > 0
