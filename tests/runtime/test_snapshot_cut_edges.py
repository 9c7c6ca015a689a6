"""Regression: post-cut edges must not leak into S_prev (§III-D).

Found by the snapshot-prefix hypothesis property: a vertex processing a
*prev*-version update iterates its live adjacency, which may already
contain edges inserted after the cut — the prev-version flood then
crossed a post-cut edge and polluted the harvested S_prev (here: the
snapshot reported vertex 2 at BFS level 2, reachable only via the
post-cut edge (0, 2), instead of level 3 via the prefix).  The engine
now relabels prev-version emissions crossing post-cut edges to the cut
version, so their effect lands in S_new only while the final state
still converges.
"""

import numpy as np
import pytest

from repro import DynamicEngine, EngineConfig, IncrementalBFS, INF
from repro.analytics import verify_bfs
from repro.events.stream import ListEventStream
from repro.events.types import ADD
from repro.staticalgs import static_bfs
from repro.storage.csr import CSRGraph

# The minimized falsifying stream: dense 0-1 traffic delays the cut
# relative to rank 2's stream, whose last event (0, 2) lands post-cut.
EDGES = [
    (0, 1), (0, 1), (1, 3), (0, 1), (0, 1), (0, 1),
    (1, 3), (0, 1), (0, 3), (2, 3), (0, 1), (0, 2),
]
N_RANKS = 3
CUT_AT = 0.5 * len(EDGES) * 2.5e-6 / N_RANKS


def split(events, n):
    streams = [[] for _ in range(n)]
    for i, ev in enumerate(events):
        streams[i % n].append(ev)
    return streams


# §II-D coalescing off and on, under the test's long-standing ids.
@pytest.mark.parametrize("coalesce", [False, True], ids=["False-False", "True-True"])
def test_post_cut_edge_does_not_leak_into_snapshot(coalesce):
    events = [(ADD, s, d, 1) for s, d in EDGES]
    source = 0
    evsplit = split(events, N_RANKS)
    streams = [ListEventStream(evts, stream_id=k) for k, evts in enumerate(evsplit)]
    engine = DynamicEngine(
        [IncrementalBFS()],
        EngineConfig(n_ranks=N_RANKS, coalesce_updates=coalesce),
    )
    engine.init_program("bfs", source)
    engine.attach_streams(streams)
    engine.request_collection("bfs", at_time=CUT_AT)
    engine.run()

    res = engine.collection_results[0]
    cuts = engine.cut_positions[res.collection_id]
    pre_src, pre_dst = [], []
    for rank, evts in enumerate(evsplit):
        for _, s, d, _w in evts[: cuts.get(rank, 0)]:
            pre_src.append(s)
            pre_dst.append(d)
    prefix = CSRGraph.from_edges(
        np.array(pre_src), np.array(pre_dst), symmetrize=True
    )
    expect, _ = static_bfs(prefix, source)
    got = {v: val for v, val in res.state.items() if 0 < val < INF}
    assert got == expect or got == {**expect, source: 1}
    # The relabelled messages still reach the final state.
    assert verify_bfs(engine, "bfs", source) == []
