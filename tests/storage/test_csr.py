"""Unit tests for the static CSR graph baseline."""

import numpy as np
import pytest

from repro.storage.csr import CSRGraph


def make_simple():
    # 0->1, 0->2, 1->2, 3->0 with weights 1..4
    src = np.array([0, 0, 1, 3])
    dst = np.array([1, 2, 2, 0])
    w = np.array([1, 2, 3, 4])
    return CSRGraph.from_edges(src, dst, w)


class TestConstruction:
    def test_counts(self):
        g = make_simple()
        assert g.num_vertices == 4
        assert g.num_edges == 4
        assert g.build_stats.num_input_edges == 4

    def test_neighbors(self):
        g = make_simple()
        v0 = g.dense_index(0)
        nbrs = {int(g.vertex_ids[t]) for t in g.neighbors(v0)}
        assert nbrs == {1, 2}

    def test_weights_follow_edges(self):
        g = make_simple()
        v0 = g.dense_index(0)
        pairs = {
            (int(g.vertex_ids[t]), int(w))
            for t, w in zip(
                g.neighbors(v0), g.weights[g.offsets[v0] : g.offsets[v0 + 1]]
            )
        }
        assert pairs == {(1, 1), (2, 2)}

    def test_default_weights_are_one(self):
        g = CSRGraph.from_edges(np.array([0]), np.array([1]))
        assert list(g.weights) == [1]

    def test_sparse_noncontiguous_ids(self):
        g = CSRGraph.from_edges(np.array([100, 5000]), np.array([5000, 99999]))
        assert g.num_vertices == 3
        assert g.has_vertex(99999)
        assert not g.has_vertex(0)
        v = g.dense_index(100)
        assert [int(g.vertex_ids[t]) for t in g.neighbors(v)] == [5000]

    def test_symmetrize_doubles_edges(self):
        g = CSRGraph.from_edges(np.array([0, 1]), np.array([1, 2]), symmetrize=True)
        assert g.num_edges == 4
        v2 = g.dense_index(2)
        assert [int(g.vertex_ids[t]) for t in g.neighbors(v2)] == [1]

    def test_duplicates_preserved(self):
        g = CSRGraph.from_edges(np.array([0, 0]), np.array([1, 1]))
        assert g.num_edges == 2
        assert g.degree(g.dense_index(0)) == 2

    def test_empty_graph(self):
        g = CSRGraph.from_edges(np.array([], dtype=np.int64), np.array([], dtype=np.int64))
        assert g.num_vertices == 0
        assert g.num_edges == 0

    def test_mismatched_inputs_rejected(self):
        with pytest.raises(ValueError):
            CSRGraph.from_edges(np.array([0]), np.array([1, 2]))
        with pytest.raises(ValueError):
            CSRGraph.from_edges(np.array([0]), np.array([1]), np.array([1, 2]))


class TestAccessors:
    def test_degrees(self):
        g = make_simple()
        degs = np.diff(g.offsets)
        assert int(degs[g.dense_index(0)]) == 2
        assert int(degs[g.dense_index(2)]) == 0
        assert int(degs.sum()) == g.num_edges

    def test_dense_index_roundtrip(self):
        g = make_simple()
        for vid in (0, 1, 2, 3):
            assert int(g.vertex_ids[g.dense_index(vid)]) == vid

    def test_dense_index_missing_raises(self):
        g = make_simple()
        with pytest.raises(KeyError):
            g.dense_index(77)

    def test_neighbors_are_views(self):
        g = make_simple()
        v0 = g.dense_index(0)
        assert g.neighbors(v0).base is g.targets


class TestRandomizedAgainstReference:
    def test_matches_adjacency_dict(self):
        rng = np.random.default_rng(21)
        n, m = 50, 400
        src = rng.integers(0, n, size=m)
        dst = rng.integers(0, n, size=m)
        g = CSRGraph.from_edges(src, dst)
        ref: dict[int, list[int]] = {}
        for s, d in zip(src, dst):
            ref.setdefault(int(s), []).append(int(d))
        for vid, nbrs in ref.items():
            dense = g.dense_index(vid)
            got = sorted(int(g.vertex_ids[t]) for t in g.neighbors(dense))
            assert got == sorted(nbrs)
