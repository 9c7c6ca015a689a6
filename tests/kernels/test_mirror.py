"""The shared dense mirror (repro.kernels.mirror) against plain models.

``Universe`` is checked against a dict model and, across its switch from
the direct id table to the sorted index, against a universe that only
ever had the index.
``EdgeRuns`` is checked step by step against a ``dict[(tail, head)] ->
weight``: inserts, re-adds with a changed weight and duplicates inside
one batch, in batch sizes that put the store on both sides of its fold
rule, with the universe growing between a run's row-pointer
build and its next gather.  ``DenseState`` is checked against per-vertex
``[value, written, synced]`` records under random resolve / fold / offer /
stale sequences, as the DES holds it (``rank=None``) and as an mp rank
does.
"""

from collections import Counter
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro import IncrementalCC, IncrementalSSSP
from repro.kernels import mirror
from repro.kernels.mirror import (
    FOLD_FRACTION,
    TABLE_DENSITY,
    TABLE_SLACK,
    DenseState,
    EdgeRuns,
    Universe,
)

I64 = np.int64


def arr(xs):
    return np.asarray(list(xs), dtype=I64)


# ----------------------------------------------------------------------
# Universe
# ----------------------------------------------------------------------
class TestUniverse:
    def test_positions_are_arrival_ordered_and_never_move(self):
        u = Universe()
        assert u.resolve(arr([30, 10, 30])).tolist() == [1, 0, 1]
        first = u.resolve(arr([10, 30])).tolist()
        assert first == [0, 1]
        # Only the new are admitted, ascending, at the end.
        assert u.resolve(arr([20, 10, 5])).tolist() == [3, 0, 2]
        assert u.ids.tolist() == [10, 30, 5, 20]
        assert u.resolve(arr([10, 30])).tolist() == first
        assert u.resolve(arr([20, 5, 30])).tolist() == [3, 2, 1]
        assert u.resolve(arr([])).size == 0
        assert len(u) == 4

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.lists(st.integers(-50, 50), max_size=12), max_size=10))
    # One resolve call with repeated, already-known and new ids.
    @example([[7, 3], [9, 3, 9, -2, 7, 3, 9]])
    def test_matches_a_dict_model(self, batches):
        u, model = Universe(), {}
        for batch in batches:
            new = sorted(set(batch) - model.keys())
            pos = u.resolve(arr(batch))
            for v in new:  # ascending, at the end
                model[v] = len(model)
            assert pos.tolist() == [model[v] for v in batch]
            assert u.ids.tolist() == list(model)
            # Known ids resolve to where they were admitted, and stay.
            assert u.resolve(arr(model)).tolist() == list(range(len(model)))

    @settings(max_examples=150, deadline=None)
    @given(
        dense=st.lists(st.integers(0, 300), min_size=1, max_size=40),
        crossing=st.sampled_from([-1, -(1 << 40), TABLE_SLACK + 4 * 81, 1 << 33, 1 << 62]),
        after=st.lists(
            st.one_of(st.integers(0, 400), st.integers(-(1 << 62), 1 << 62)), max_size=40
        ),
        cuts=st.lists(st.integers(1, 17), min_size=1, max_size=12),
    )
    def test_the_table_and_the_sorted_index_place_every_id_alike(
        self, dense, crossing, after, cuts
    ):
        """A stream of dense ids crosses the table's bound through one
        huge or negative id, then goes on with ids of any size, in any
        chunking: the positions are those of a universe that only ever
        had the sorted index."""
        u, model = Universe(), Universe()
        model._table = None  # the sorted index from the first call
        ids = dense + [crossing] + after
        at, k, switched = 0, 0, False
        while at < len(ids):
            chunk = arr(ids[at : at + cuts[k % len(cuts)]])
            at, k = at + chunk.size, k + 1
            switched = switched or crossing in chunk.tolist()
            assert u.resolve(chunk).tolist() == model.resolve(chunk).tolist()
            assert u.ids.tolist() == model.ids.tolist()
            assert (u._table is None) == switched  # once, and for good
        assert u.resolve(arr([])).size == 0

    def test_the_first_id_at_the_bound_switches_to_the_sorted_index(self):
        u = Universe()
        below = TABLE_DENSITY * 1 + TABLE_SLACK - 1  # batch of one, empty universe
        assert u.resolve(arr([below])).tolist() == [0]
        assert u._table is not None and u._table.size <= below + 1
        bound = TABLE_DENSITY * (1 + 2) + TABLE_SLACK
        assert u.resolve(arr([bound, 3])).tolist() == [2, 1]
        assert u._table is None
        assert u.resolve(arr([3, below, 7])).tolist() == [1, 0, 3]
        assert u.ids.tolist() == [below, 3, bound, 7]


# ----------------------------------------------------------------------
# EdgeRuns against a dict model
# ----------------------------------------------------------------------
def check_against(store, model, n_vertices, frontier):
    t, h, w = store.edges()
    assert store.num_edges == len(model) == t.size
    assert dict(zip(zip(t.tolist(), h.tolist()), w.tolist())) == model
    got = Counter()
    frontier = arr(frontier)
    for heads, weights, tails, doubled in store.gather(
        frontier, n_vertices, frontier, 2 * frontier
    ):
        assert tails.size == heads.size == weights.size > 0
        assert (doubled == 2 * tails).all()
        got.update(zip(tails.tolist(), heads.tolist(), weights.tolist()))
    want = Counter()
    for v in frontier.tolist():  # a vertex named twice: its edges twice
        want.update((t, h, w) for (t, h), w in model.items() if t == v)
    assert got == want


def apply_step(store, model, triples):
    t = arr(x[0] for x in triples)
    h = arr(x[1] for x in triples)
    fresh = store.insert(t, h, arr(x[2] for x in triples))
    new_pairs = {(a, b) for a, b, _ in triples} - model.keys()
    assert sorted(fresh.tolist()) == sorted(a for a, _ in new_pairs)
    for a, b, w in triples:  # later duplicates win: keep-last
        model[(a, b)] = w


vertex = st.integers(0, 11)
triple = st.tuples(vertex, vertex, st.integers(1, 9))
step = st.tuples(
    # Small and large batches: a large one folds at once, a run of
    # small ones grows the delta up to the fold.
    st.one_of(st.lists(triple, max_size=4), st.lists(triple, min_size=10, max_size=40)),
    st.integers(0, 3),  # vertices that join the universe before the gather
    st.lists(st.integers(0, 11), max_size=6),
)


# One key, (3, 9), three times in a batch with three weights — the last
# wins and the key is one fresh tail — where it is new (into the delta),
# where the delta holds it, in the batch that folds it into the base (a
# sort long enough not to be an insertion sort, the key's arrivals
# spread through it) and where the base holds it.
_BASE = [(a, (a + b) % 12, 1) for a in range(12) for b in (1, 2, 3)]
_FOLDING = [
    x
    for i in range(13)
    for x in ((7, 0, i % 9 + 1), (i % 12, 9, 2), (3, 9, 9 - i % 9))
]
_PINNED = [
    (_BASE, 0, [3]),
    ([(3, 9, 1), (5, 11, 2), (3, 9, 2), (3, 9, 3)], 1, [3, 5]),
    ([(3, 9, 6), (3, 9, 5), (3, 9, 4)], 0, [3]),
    (_FOLDING, 2, [3, 7]),
    ([(3, 9, 7), (3, 9, 9), (3, 9, 8)], 0, [3]),
]


@settings(max_examples=150, deadline=None)
@given(st.lists(step, max_size=14), st.sampled_from([1, 3, 1 << 15]))
@example(_PINNED, 3)
def test_edge_runs_match_a_dict_model_after_every_step(steps, block):
    # Tiny blocks: a gather cut between, and inside, vertices' slices.
    with patch.object(mirror, "GATHER_BLOCK", block):
        run_steps(steps)


def run_steps(steps):
    store, model = EdgeRuns(), {}
    n_vertices = 12
    for triples, joined, frontier in steps:
        apply_step(store, model, triples)
        # The universe grows between a run's indptr build (previous
        # gather) and this one; newcomers have no edges yet.
        n_vertices += joined
        check_against(store, model, n_vertices, frontier + [n_vertices - 1])


def test_equal_batches_cross_the_fold_boundary_repeatedly():
    rng = np.random.default_rng(7)
    store, model = EdgeRuns(), {}
    n = 400
    sizes_on_both_sides = set()
    for _ in range(96):
        triples = [
            (int(a), int(b), int(w))
            for a, b, w in zip(
                rng.integers(0, n, 50), rng.integers(0, n, 50), rng.integers(1, 9, 50)
            )
        ]
        folds = store.folds
        apply_step(store, model, triples)
        sizes_on_both_sides.add(store.folds > folds)
        base, delta = store._runs
        assert FOLD_FRACTION * len(delta) < max(len(base), 1)
        check_against(store, model, n, rng.integers(0, n, 20).tolist())
    assert sizes_on_both_sides == {True, False}
    assert 5 <= store.folds <= 30  # geometric: far fewer folds than batches
    # Every fold rewrites the base, every other insert the delta: the
    # delta's share is bounded by the fold rule, the base's geometrically.
    assert store.moved_edges <= 2 * len(model) * np.log2(96)


def test_readd_overwrites_in_place_without_counting():
    store = EdgeRuns()
    assert store.insert(arr([0, 0, 1]), arr([1, 1, 2]), arr([5, 6, 7])).tolist() == [0, 1]
    moved = store.moved_edges
    assert store.insert(arr([0]), arr([1]), arr([9])).size == 0  # re-add
    assert store.moved_edges == moved  # nothing rebuilt
    t, h, w = store.edges()
    assert sorted(zip(t.tolist(), h.tolist(), w.tolist())) == [(0, 1, 9), (1, 2, 7)]
    assert store.insert(arr([]), arr([]), arr([])).size == 0


# ----------------------------------------------------------------------
# DenseState
# ----------------------------------------------------------------------
KERNELS = [IncrementalSSSP.bulk_kernel, IncrementalCC.bulk_kernel]
N_RANKS = 3

dense_vertex = st.integers(0, 15)
dense_value = st.integers(0, 40)  # 0 = the dicts' "unset"
entries = st.lists(st.tuples(dense_vertex, dense_value), max_size=8)
dense_op = st.one_of(
    st.tuples(st.just("resolve"), st.lists(dense_vertex, max_size=6)),
    st.tuples(st.just("fold"), st.integers(0, 1), entries),
    st.tuples(st.just("offer"), st.integers(0, 1), entries),
    st.tuples(st.just("stale"), st.integers(0, 1)),
)


class DenseModel:
    """``cells[p][vid] = [value, written, synced]`` plus arrival order."""

    def __init__(self, rank):
        self.rank = rank
        self.order: list[int] = []
        self.cells = [{} for _ in KERNELS]

    def grow(self, vids):
        for vid in sorted(set(vids) - set(self.order)):
            self.order.append(vid)
            for p, k in enumerate(KERNELS):
                seed = k.init_values(arr([vid]))[0]
                self.cells[p][vid] = [seed, self.rank is None, 0]

    def best(self, p, a, b):
        return min(a, b) if p == 0 else max(a, b)

    def fold(self, p, items):
        improved = []
        for vid, val in items.items():
            cell, k = self.cells[p][vid], KERNELS[p]
            # 0 = unset folds as the vertex's own seed, which never wins.
            seeded = k.materialize(np.array([val], k.dtype), arr([vid]))[0]
            merged = self.best(p, cell[0], seeded)
            if merged != cell[0]:
                improved.append(vid)
            cell[:] = [merged, True, val]
        return improved

    def offer(self, p, pairs):
        before = {vid: self.cells[p][vid][0] for vid, _ in pairs}
        for vid, cand in pairs:
            cell = self.cells[p][vid]
            cell[0], cell[1] = self.best(p, cell[0], cand), True
        return [vid for vid, _ in pairs if self.cells[p][vid][0] != before[vid]]

    def stale(self, p):
        cells = self.cells[p]
        out = [v for v in self.order if cells[v][1] and cells[v][0] != cells[v][2]]
        for v in out:
            cells[v][2] = cells[v][0]
        return out


def check_dense(state, model):
    ids = state.universe.ids
    assert ids.tolist() == model.order  # positions never move
    assert state.owner.tolist() == [v % N_RANKS for v in model.order]
    if model.rank is None:
        assert state.local is None
    else:
        assert state.local.tolist() == [v % N_RANKS == model.rank for v in model.order]
    for p in range(len(KERNELS)):
        columns = (state.values[p], state.written[p], state.synced[p])
        got = [list(cell) for cell in zip(*(c.tolist() for c in columns))]
        assert got == [model.cells[p][v] for v in model.order]


@pytest.mark.parametrize("rank", [None, 1])
@settings(max_examples=120, deadline=None)
@given(ops=st.lists(dense_op, max_size=24))
def test_dense_state_matches_a_dict_model(rank, ops):
    state = DenseState(KERNELS, lambda vids: np.asarray(vids) % N_RANKS, rank)
    model = DenseModel(rank)
    for op, *args in ops:
        if op == "resolve":
            pos = state.resolve(arr(args[0]))
            model.grow(args[0])
            assert pos.tolist() == [model.order.index(v) for v in args[0]]
        elif op == "fold":
            p, items = args[0], dict(args[1])  # dict entries: unique ids
            raw = arr(items)
            vals = np.array(list(items.values()), dtype=KERNELS[p].dtype)
            model.grow(items)  # fold admits its never-seen ids
            got = state.fold(p, raw, vals)
            assert state.universe.ids[got].tolist() == model.fold(p, items)
        elif op == "offer":
            p = args[0]
            pairs = [(v, c) for v, c in args[1] if v in model.order and c]
            idx = state.resolve(arr(v for v, _ in pairs))
            cands = np.array([c for _, c in pairs], dtype=KERNELS[p].dtype)
            got = state.offer(p, idx, cands)
            assert state.universe.ids[got].tolist() == model.offer(p, pairs)
        else:
            p = args[0]
            assert state.universe.ids[state.stale(p)].tolist() == model.stale(p)
            assert state.stale(p).size == 0  # each entry exactly once
        check_dense(state, model)


def test_fold_of_a_worse_dict_value_leaves_the_column_and_is_stale():
    state = DenseState(KERNELS, lambda vids: np.asarray(vids) % N_RANKS)
    state.resolve(arr([4, 9]))
    assert state.offer(0, arr([0, 1]), arr([5, 7])).tolist() == [0, 1]
    assert state.stale(0).tolist() == [0, 1]
    # The dict says 9 for vertex 4 (worse than 5) and 3 for vertex 9 (better).
    assert state.fold(0, arr([4, 9]), arr([9, 3])).tolist() == [1]
    assert state.values[0].tolist() == [5, 3]
    assert state.stale(0).tolist() == [0]  # only the entry the dict is behind on
    assert state.stale(0).size == 0
