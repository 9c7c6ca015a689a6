"""A clock-free budget on the dense layer: what one chunk may call.

The layer's rule is that a chunk's ids and keys are touched once — one
id resolution per ``process_chunk`` / ``VecApplier.drain``, one search
per run and none inside ``merged`` or at a fold per ``EdgeRuns.insert``, one
``sorted_unique`` per relaxation round — and that no set operation goes
through numpy's hash-based plain ``np.unique``.  A bulk chunk relaxes
what it brought: its own rows once, then only what adopted, so its
charge does not grow with the edges already stored.  An mp rank pays a
drain's fixed cost once per worker turn — one ``VecApplier.drain``,
one ``relax_to_fixpoint`` per program in it.  Call and
relaxation counts are exact for a given input, so they hold the line
where a timing on a shared host cannot (the per-event path's twin is
``tests/runtime/test_hot_path_budget.py``).
"""

from __future__ import annotations

import ast
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

import repro
from repro import (
    DynamicEngine,
    EngineConfig,
    IncrementalBFS,
    IncrementalCC,
    IncrementalSSSP,
)
from repro.events.stream import ArrayEventStream, split_streams
from repro.kernels import frontier, mirror
from repro.kernels.frontier import relax_to_fixpoint
from repro.kernels.mirror import DenseState, EdgeRuns, _Run
from repro.parallel import WireConfig, run_parallel, vecapply
from repro.parallel.codec import ADD_DTYPE, UPDATE_DTYPE, Codec
from repro.parallel.loop import ShmLoop
from repro.parallel.shm import K_ADD, K_RADD, K_UPDATE
from repro.parallel.vecapply import VecApplier
from repro.runtime import bulk
from repro.runtime.bulk import BulkIngestor
from repro.runtime.plugins import BulkIngestPlugin, TracerPlugin


@pytest.fixture
def calls(monkeypatch):
    """``calls.count(owner, name)`` wraps an attribute so that
    ``calls[name]`` is the number of times it ran."""

    class Calls(Counter):
        def count(self, owner, name):
            inner = getattr(owner, name)

            def counted(*args, **kwargs):
                self[name] += 1
                return inner(*args, **kwargs)

            monkeypatch.setattr(owner, name, counted)

    return Calls()


def random_edges(seed, n_vertices, n_events):
    rng = np.random.default_rng(seed)
    return (
        rng.integers(0, n_vertices, n_events, dtype=np.int64),
        rng.integers(0, n_vertices, n_events, dtype=np.int64),
    )


def test_a_bulk_chunk_resolves_its_ids_once(calls):
    calls.count(DenseState, "resolve")
    calls.count(BulkIngestor, "process_chunk")
    calls.count(BulkIngestor, "_rebuild_topology")
    src, dst = random_edges(3, 60, 300)
    eng = DynamicEngine(
        [IncrementalCC()], EngineConfig(n_ranks=2), plugins=[BulkIngestPlugin(64)]
    )
    eng.attach_streams(split_streams(src, dst, 2))
    eng.run()
    chunks = eng.total_counters().bulk_chunks
    assert chunks == 6
    # process_chunk is also what finds a stream exhausted.
    assert calls["process_chunk"] >= chunks
    # One per chunk, one per re-read of the stores (the first sync).
    assert calls["_rebuild_topology"] == 1
    assert calls["resolve"] == chunks + calls["_rebuild_topology"]


def last_chunk_on_hubs(n_leaves, chunk, monkeypatch):
    """``(relaxations, rounds)`` of ``chunk`` ingested after a graph of
    two joined hubs that both reach every one of ``n_leaves`` leaves
    (BFS from hub 0: every vertex reached, one CC component)."""
    leaves = np.arange(2, n_leaves + 2)
    hubs = np.repeat([0, 1], n_leaves)
    src = np.concatenate([[0], hubs])
    dst = np.concatenate([[1], leaves, leaves])
    eng = DynamicEngine(
        [IncrementalBFS(), IncrementalCC()],
        EngineConfig(n_ranks=2),
        plugins=[BulkIngestPlugin(64), TracerPlugin()],
    )
    eng.init_program("bfs", 0)
    eng.run()
    eng.attach_streams(split_streams(src, dst, 2))
    eng.run()
    rounds = []

    def recorded(*args):
        result = relax_to_fixpoint(*args)
        rounds.append(result[0])
        return result

    monkeypatch.setattr(bulk, "relax_to_fixpoint", recorded)
    before = eng.state("bfs"), eng.state("cc")
    cs, cd = np.array(chunk, dtype=np.int64).T
    assert eng._bulk.process_chunk(0, ArrayEventStream(cs, cd)) == len(chunk)
    eng._bulk.flush_values(count_fallback=False)
    assert (eng.state("bfs"), eng.state("cc")) == before  # nothing improved
    spans = [ev for ev in eng.tracer.spans(["bulk"]) if ev[2] == "bulk/chunk"]
    return spans[-1][6]["relaxations"], rounds


# Leaf-leaf edges (levels 1 and 1, one component) and a re-add of the
# hub-hub edge: every row is offered, none adopts.
QUIET_CHUNK = [(2, 3), (3, 4), (1, 0)]


def test_a_chunk_that_improves_nothing_charges_only_its_rows(monkeypatch):
    relaxations, rounds = last_chunk_on_hubs(16, QUIET_CHUNK, monkeypatch)
    # Two directed rows per undirected edge, offered once per program;
    # with nothing adopted the frontier loop starts empty.
    assert relaxations == 2 * 2 * len(QUIET_CHUNK)
    assert rounds == [0, 0]


def test_a_chunk_charges_the_same_in_a_graph_four_times_larger(monkeypatch):
    small, _ = last_chunk_on_hubs(16, QUIET_CHUNK, monkeypatch)
    large, _ = last_chunk_on_hubs(64, QUIET_CHUNK, monkeypatch)
    assert small == large


class NullLoop:
    """Where a drain queues its emissions."""

    def queue_add(self, *cols):
        pass

    queue_radd = queue_update = queue_add


def test_a_vec_drain_resolves_its_ids_once(calls):
    engine = DynamicEngine(
        [IncrementalBFS(), IncrementalCC()], EngineConfig(n_ranks=2)
    )
    codec = Codec(engine.programs)
    applier = VecApplier(engine, 0, codec)
    calls.count(DenseState, "resolve")
    src, dst = random_edges(5, 40, 30)
    add = np.zeros(30, dtype=ADD_DTYPE)
    add["src"], add["dst"], add["weight"] = src, dst, 1
    # A REVERSE_ADD comes from its source's owner: the peer.
    peer = np.flatnonzero(engine.partitioner.owner_array(np.arange(200)) == 1)
    radd = np.zeros(20, dtype=codec.radd_dtype)
    radd["dst"], radd["src"], radd["weight"] = dst[:20] + 40, peer[src[:20]], 1
    upd = np.zeros(10, dtype=UPDATE_DTYPE)
    upd["prog"], upd["target"], upd["sender"] = 0, dst[:10], src[:10] + 80
    upd["value"], upd["weight"] = 3, 1
    slabs = [(K_ADD, 30, 1, add), (K_RADD, 20, 1, radd), (K_UPDATE, 10, 1, upd)]
    assert applier.drain(slabs, NullLoop()) == 60
    # Five id columns (ADD src/dst, RADD dst/src, UPDATE target), one call.
    assert calls["resolve"] == 1
    assert applier.num_edges > 0


def test_a_vec_drain_whose_local_rows_need_a_notify_back_relaxes_once(calls):
    """An ADD whose destination this rank owns and whose source it
    learns about only now: the per-event REVERSE_ADD's notify-back would
    carry the destination's level back to the source.  Offered along
    both directions before the relaxation, each program relaxes once per
    drain, and the rank ends where the per-event engine does."""
    config = EngineConfig(n_ranks=2)
    engine = DynamicEngine([IncrementalBFS(), IncrementalCC()], config)
    mine = np.flatnonzero(engine.partitioner.owner_array(np.arange(64)) == 0)
    root, leaf = int(mine[0]), int(mine[1])
    engine.init_program("bfs", root)
    engine.run()
    applier = VecApplier(engine, 0, Codec(engine.programs))
    calls.count(vecapply, "relax_to_fixpoint")
    edge = np.array([leaf]), np.array([root]), np.array([1])
    applier.ingest(*edge, NullLoop())
    applier.drain([], NullLoop())
    assert calls["relax_to_fixpoint"] == applier.n_programs
    applier.write_back()
    des = DynamicEngine([IncrementalBFS(), IncrementalCC()], config)
    des.init_program("bfs", root)
    des.attach_streams([ArrayEventStream(*edge)])
    des.run()
    assert engine.values[0][0][leaf] == 2  # one level below the root
    assert engine.values[0] == des.values[0]


def test_a_vec_rank_drains_at_most_once_per_turn(monkeypatch):
    """A worker turn starts with ``ShmLoop.pump``; each rank counts its
    turns and the turns its ``VecApplier.drain`` calls fell in, and
    reports both with its wire stats (the ranks are forked, so the
    patches reach them)."""
    pump, drain, wire_stats = ShmLoop.pump, VecApplier.drain, ShmLoop.wire_stats

    def counted_pump(self):
        self.turns = getattr(self, "turns", 0) + 1
        return pump(self)

    def counted_drain(self, slabs, loop):
        loop.drain_turns = [*getattr(loop, "drain_turns", []), loop.turns]
        return drain(self, slabs, loop)

    def reported_stats(self):
        turns = getattr(self, "drain_turns", [])
        return {
            **wire_stats(self),
            "turns": self.turns,
            "drain_calls": len(turns),
            "turns_with_a_drain": len(set(turns)),
        }

    monkeypatch.setattr(ShmLoop, "pump", counted_pump)
    monkeypatch.setattr(VecApplier, "drain", counted_drain)
    monkeypatch.setattr(ShmLoop, "wire_stats", reported_stats)
    src, dst = random_edges(9, 400, 3000)
    res = run_parallel(
        [IncrementalBFS(), IncrementalCC()],
        split_streams(src, dst, 2, rng=np.random.default_rng(10)),
        config=EngineConfig(n_ranks=2),
        wire=WireConfig(start_method="fork", ingest_chunk=128),
        init=[("bfs", int(src[0]), None)],
        timeout=60.0,
    )
    assert res.source_events == len(src)
    for info in res.per_rank:
        wire = info["wire"]
        assert wire["kernel_batches"] > 5  # ingest chunks of 128 events
        assert wire["drain_calls"] == wire["turns_with_a_drain"] <= wire["turns"]


def test_an_insert_searches_each_run_once_and_merged_never(calls, monkeypatch):
    calls.count(mirror, "_find")
    in_merged = []
    merged, searchsorted = _Run.merged, np.searchsorted

    def flagged_merged(self, *args):
        in_merged.append(True)
        try:
            return merged(self, *args)
        finally:
            in_merged.pop()

    def counted_searchsorted(*args, **kwargs):
        calls["searchsorted in merged"] += bool(in_merged)
        return searchsorted(*args, **kwargs)

    monkeypatch.setattr(_Run, "merged", flagged_merged)
    monkeypatch.setattr(np, "searchsorted", counted_searchsorted)
    store = EdgeRuns()
    folded = set()
    for seed in range(40):
        tails, heads = random_edges(seed, 200, 60)
        before, folds = calls["_find"], store.folds
        store.insert(tails, heads, np.ones(60, dtype=np.int64))
        assert calls["_find"] - before == 2  # base, delta
        folded.add(store.folds > folds)
    assert folded == {True, False}  # inserts on both sides of the fold rule
    assert calls["searchsorted in merged"] == 0


def test_a_fold_searches_nothing(calls):
    # The delta carries its insertion points into the base, so the two
    # _find searches are all an insert runs, folding or not.
    calls.count(np, "searchsorted")
    store = EdgeRuns()
    folded = set()
    for seed in range(40):
        tails, heads = random_edges(seed, 200, 60)
        before, folds = calls["searchsorted"], store.folds
        store.insert(tails, heads, np.ones(60, dtype=np.int64))
        assert calls["searchsorted"] - before == 2, seed
        folded.add(store.folds > folds)
    assert folded == {True, False}


def test_relaxation_dedupes_once_at_entry_and_once_per_round(calls):
    calls.count(frontier, "sorted_unique")
    n = 50
    chain = np.arange(n - 1, dtype=np.int64)
    adj = frontier.build_csr(n, chain, chain + 1, np.ones(n - 1, dtype=np.int64))
    kernel = IncrementalSSSP.bulk_kernel
    values = kernel.init_values(np.arange(n))
    values[0] = 1
    rounds, _relaxed = relax_to_fixpoint(adj, values, np.array([0, 0, 0]), kernel)
    assert rounds == n - 1
    assert calls["sorted_unique"] == 1 + rounds


DENSE_LAYER = ("kernels", "runtime/bulk.py", "parallel/vecapply.py", "parallel/loop.py")


def test_no_plain_np_unique_in_the_dense_layer():
    """numpy >= 2.3 hashes a plain integer ``np.unique``; the layer's
    set operations are ``sorted_unique`` (the oracle-side uses in
    ``storage/csr.py``, ``analytics/``, ``partition/stats.py`` and
    ``cli.py`` are outside every timed region and stay)."""
    root = Path(repro.__file__).parent
    files = []
    for part in DENSE_LAYER:
        path = root / part
        files += sorted(path.glob("*.py")) if path.is_dir() else [path]
    assert len(files) >= 6
    plain = []
    for path in files:
        for node in ast.walk(ast.parse(path.read_text())):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "unique"
                and not {k.arg for k in node.keywords}
                & {"return_inverse", "return_index", "return_counts"}
            ):
                plain.append(f"{path.relative_to(root)}:{node.lineno}")
    assert plain == []
