"""mp backend on delete-carrying (churn) streams — §VI-B end to end.

The process backend must accept first-class add+delete streams and land
on the same answers as the DES backend and the static oracles.  Raw
generational values are interleaving-dependent (epoch tags differ run
to run), so equality is stated on the *projections* — distance, label,
reachability mask, capacity — which §VI-B pins down exactly.

Also under test: the runner's add-only sniff.  A single DELETE anywhere
in the source streams must keep the vectorized slab path disengaged
(its kernels assume insert-only monotone convergence), routing every
record through per-event dispatch.
"""

import multiprocessing

import numpy as np
import pytest

from repro import (
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
)
from repro.analytics.verify import (
    verify_bfs,
    verify_cc,
    verify_sssp,
    verify_st,
    verify_widest,
)
from repro.generators.churn import churn_events, split_churn_streams
from repro.parallel.runner import ParallelStateView, run_parallel
from repro.parallel.wire import WireConfig

pytestmark = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="fork start method unavailable",
)

N_RANKS = 3

DIST = lambda v: v[1]  # noqa: E731
LABEL = lambda v: v[1]  # noqa: E731
MASK = GenerationalST.mask_of
CAP = lambda v: v[1]  # noqa: E731

PROJECTIONS = [
    ("gen-bfs", DIST),
    ("gen-sssp", DIST),
    ("gen-cc", LABEL),
    ("gen-st", MASK),
    ("gen-widest", CAP),
]


def gen_programs():
    st = GenerationalST()
    st.register_source(0)
    st.register_source(1)
    return [
        GenerationalBFS(),
        GenerationalSSSP(),
        GenerationalCC(),
        st,
        GenerationalWidest(),
    ]


INIT = [
    ("gen-bfs", 0, None),
    ("gen-sssp", 0, None),
    ("gen-st", 0, 0),
    ("gen-st", 1, 1),
    ("gen-widest", 0, None),
]


def run_des(cols):
    engine = DynamicEngine(
        gen_programs(), EngineConfig(n_ranks=N_RANKS)
    )
    for prog, v, payload in INIT:
        engine.init_program(prog, v, payload)
    engine.attach_streams(split_churn_streams(*cols, N_RANKS))
    engine.run()
    return engine


def run_mp(cols):
    return run_parallel(
        gen_programs(),
        split_churn_streams(*cols, N_RANKS),
        EngineConfig(n_ranks=N_RANKS),
        WireConfig(start_method="fork"),
        init=INIT,
        collect_edges=True,
    )


def projected(state_of):
    return {
        name: {k: proj(v) for k, v in state_of(name).items()}
        for name, proj in PROJECTIONS
    }


class TestChurnDifferential:
    def test_all_five_programs_agree_with_des_and_static(self):
        cols = churn_events(
            36, 140, delete_ratio=0.25, rng=np.random.default_rng(0x51)
        )
        des = run_des(cols)
        res = run_mp(cols)

        # Static oracles on the mp final topology (deletes applied).
        view = ParallelStateView(res)
        assert verify_bfs(view, "gen-bfs", 0, value_of=DIST) == []
        assert verify_sssp(view, "gen-sssp", 0, value_of=DIST) == []
        assert verify_cc(view, "gen-cc", value_of=LABEL) == []
        assert verify_st(view, "gen-st", [0, 1], value_of=MASK) == []
        assert verify_widest(view, "gen-widest", 0, value_of=CAP) == []

        # Backend equality on the §VI-B projection domain.
        assert projected(res.state) == projected(des.state)

    def test_deletes_actually_reach_the_stores(self):
        cols = churn_events(
            30, 120, delete_ratio=0.3, rng=np.random.default_rng(0x52)
        )
        des = run_des(cols)
        res = run_mp(cols)
        assert res.counters.edge_deletes > 0
        assert res.counters.edge_deletes == sum(
            c.edge_deletes for c in des.counters
        )

    def test_flash_crowd_shapes_agree(self):
        from repro.generators.churn import flash_crowd_events

        cols = flash_crowd_events(
            30, 60, 60, decay_ratio=0.6, rng=np.random.default_rng(0x53)
        )
        des = run_des(cols)
        res = run_mp(cols)
        assert projected(res.state) == projected(des.state)
        assert verify_bfs(
            ParallelStateView(res), "gen-bfs", 0, value_of=DIST
        ) == []


class TestAddOnlySniff:
    """A delete anywhere in the sources must keep the vec path off."""

    def _cols(self, with_delete):
        rng = np.random.default_rng(0x54)
        pairs = rng.integers(0, 24, size=(80, 2))
        pairs = pairs[pairs[:, 0] != pairs[:, 1]][:60]
        src, dst = pairs[:, 0].copy(), pairs[:, 1].copy()
        w = np.ones(len(src), dtype=np.int64)
        kinds = np.zeros(len(src), dtype=np.int64)
        if with_delete:
            # retire the last added edge: still a well-formed lifecycle
            src = np.append(src, src[-1])
            dst = np.append(dst, dst[-1])
            w = np.append(w, 0)
            kinds = np.append(kinds, 1)
        return src, dst, w, kinds

    def _run(self, cols):
        return run_parallel(
            [IncrementalBFS(), IncrementalCC(), IncrementalSSSP()],
            split_churn_streams(*cols, 2),
            EngineConfig(n_ranks=2),
            WireConfig(start_method="fork"),
            init=[("bfs", 0, None), ("sssp", 0, None)],
            collect_edges=True,
        )

    def test_add_only_streams_engage_vec(self):
        res = self._run(self._cols(with_delete=False))
        assert res.wire.get("kernel_records", 0) > 0

    def test_one_delete_disables_vec(self):
        res = self._run(self._cols(with_delete=True))
        assert res.wire.get("kernel_records", 0) == 0
        assert res.counters.edge_deletes > 0
