"""The S_prev / S_new split of a versioned collection (§III-D).

Two collections in one run: each snapshot is the static answer on its
own cut prefix.  A rank that had sent its ``CTRL_HARVEST`` part kept
splitting vertices until the coordinator ended the collection, and
those ``_prev_vals`` and ``_cut_new_edges`` entries survived: the next
collection read them as split vertices and harvested their stale S_prev
values.  A single collection never showed it.  Seeds 0-5 cover every
kind and schedule below with a leak.

One collection, and the final state: a prev-version edge insert at a
split vertex of a merge-mode program ran on S_prev only, so S_new never
sent its own, better value over the new edge, and the run could end on
a wrong answer (2 of 400 single-collection runs before the fix).
"""

import numpy as np
import pytest

from repro import (
    DynamicEngine,
    EngineConfig,
    IncrementalBFS,
    IncrementalCC,
    split_streams,
)
from repro.analytics import verify_bfs, verify_cc
from repro.analytics.verify import family, static_answer
from repro.generators import rmat_edges
from repro.storage.csr import CSRGraph

N_RANKS = 4


def _two_collections(seed: int, kind: str, gap: float):
    rng = np.random.default_rng(seed)
    src, dst = rmat_edges(8, edge_factor=8, rng=rng)
    streams = split_streams(src, dst, N_RANKS, rng=rng)
    replay = [list(s) for s in streams]
    for s in streams:
        s.reset()
    source = int(src[0])
    engine = DynamicEngine(
        [IncrementalBFS(), IncrementalCC()], EngineConfig(n_ranks=N_RANKS)
    )
    engine.init_program("bfs", source)
    engine.attach_streams(streams)
    span = len(src) * 2.5e-6 / N_RANKS
    first = span * (0.15 + 0.02 * ((seed * 7) % 10))
    engine.request_collection(kind, at_time=first)
    engine.request_collection(kind, at_time=first + gap * span)
    engine.run()
    return engine, replay, source


def _prefix_answer(engine, replay, col_id: int, kind: str, source: int) -> dict:
    cuts = engine.cut_positions[col_id]
    pre = [
        (s, d)
        for rank, events in enumerate(replay)
        for _, s, d, _w in events[: cuts.get(rank, 0)]
    ]
    graph = CSRGraph.from_edges(
        np.array([s for s, _ in pre], dtype=np.int64),
        np.array([d for _, d in pre], dtype=np.int64),
        symmetrize=True,
    )
    return static_answer(kind, graph, source if kind == "bfs" else None)


# gap 0: the second request is deferred and begins when the first ends;
# gap 0.3: it lands mid-stream, after or during the first.
@pytest.mark.parametrize("gap", [0.0, 0.3], ids=["back_to_back", "spaced"])
@pytest.mark.parametrize("kind", ["bfs", "cc"])
def test_each_snapshot_is_its_own_prefix(kind, gap):
    unreached = family(kind).unreached
    wrong = []
    for seed in range(6):
        engine, replay, source = _two_collections(seed, kind, gap)
        assert len(engine.collection_results) == 2
        for result in engine.collection_results:
            want = _prefix_answer(engine, replay, result.collection_id, kind, source)
            got = {v: x for v, x in result.state.items() if not unreached(x)}
            # The init() visitor is version-0 work: the BFS source may be
            # in a snapshot whose prefix has no edge touching it.
            if got != want and got != {**want, source: 1}:
                wrong.append((seed, result.collection_id))
        assert verify_bfs(engine, "bfs", source) == [], seed
        assert verify_cc(engine, "cc") == [], seed
        assert all(not prev for prev in engine._prev_vals)
    assert wrong == []


def test_a_harvested_rank_splits_nothing_more():
    """Between a rank's harvest and the end of its collection, new
    writes go to S_new alone: nothing is left for the next collection."""
    engine, _, _ = _two_collections(2, "bfs", 0.0)
    assert engine._harvested == [1] * N_RANKS
    assert all(not edges for edges in engine._cut_new_edges)


@pytest.mark.parametrize(
    "seed, kind, frac", [(22, "bfs", 0.5), (24, "cc", 0.3), (28, "bfs", 0.4)]
)
def test_a_prev_version_insert_still_relaxes_the_new_edge_in_s_new(seed, kind, frac):
    rng = np.random.default_rng(seed)
    src, dst = rmat_edges(8, edge_factor=8, rng=rng)
    source = int(src[0])
    engine = DynamicEngine(
        [IncrementalBFS(), IncrementalCC()], EngineConfig(n_ranks=N_RANKS)
    )
    engine.init_program("bfs", source)
    engine.attach_streams(split_streams(src, dst, N_RANKS, rng=rng))
    engine.request_collection(kind, at_time=frac * len(src) * 2.5e-6 / N_RANKS)
    engine.run()
    assert len(engine.collection_results) == 1
    assert verify_bfs(engine, "bfs", source) == []
    assert verify_cc(engine, "cc") == []
