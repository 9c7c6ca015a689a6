"""Unit tests for the degree-aware dynamic adjacency store."""

import numpy as np
import pytest

from repro.storage.degaware import DegAwareRHH


# One store under the fixture's long-standing ``[dict]`` ids: both hash
# tables (the vertex index and each promoted vertex's) are dicts.
@pytest.fixture(params=["dict"])
def store():
    return DegAwareRHH(promote_threshold=4)


class TestVertices:
    def test_ensure_vertex_new(self, store):
        assert store.ensure_vertex(5) is True
        assert store.ensure_vertex(5) is False
        assert store.has_vertex(5)
        assert store.num_vertices == 1

    def test_vertices_iteration_order(self, store):
        for v in (3, 1, 2):
            store.ensure_vertex(v)
        assert list(store.vertices()) == [3, 1, 2]

    def test_unknown_vertex_queries(self, store):
        assert store.degree(99) == 0
        assert list(store.neighbors(99)) == []
        assert store.edge_weight(99, 1) is None
        assert not store.has_edge(99, 1)


class TestEdges:
    def test_insert_edge_new_and_duplicate(self, store):
        assert store.insert_edge(1, 2, 5) is True
        assert store.insert_edge(1, 2, 7) is False  # attribute update
        assert store.edge_weight(1, 2) == 7
        assert store.num_edges == 1
        assert store.stats.duplicate_inserts == 1

    def test_insert_registers_source_vertex(self, store):
        store.insert_edge(10, 20)
        assert store.has_vertex(10)
        # Destination is NOT registered: it lives on another rank.
        assert not store.has_vertex(20)

    def test_degree_counts(self, store):
        for dst in range(3):
            store.insert_edge(0, dst)
        assert store.degree(0) == 3

    def test_neighbors_with_weights(self, store):
        store.insert_edge(1, 2, 20)
        store.insert_edge(1, 3, 30)
        assert dict(store.neighbors(1)) == {2: 20, 3: 30}

    def test_delete_edge(self, store):
        store.insert_edge(1, 2)
        assert store.delete_edge(1, 2) is True
        assert store.delete_edge(1, 2) is False
        assert store.num_edges == 0
        assert not store.has_edge(1, 2)

    def test_delete_from_missing_vertex(self, store):
        assert store.delete_edge(42, 1) is False

    def test_edges_iterates_all(self, store):
        expected = set()
        for s in range(3):
            for d in range(3):
                if s != d:
                    store.insert_edge(s, d, s * 10 + d)
                    expected.add((s, d, s * 10 + d))
        assert set(store.edges()) == expected


class TestPromotion:
    def test_promotes_at_threshold(self, store):
        for dst in range(3):
            store.insert_edge(0, dst)
        assert not store.is_promoted(0)
        store.insert_edge(0, 99)  # 4th edge == threshold
        assert store.is_promoted(0)
        assert store.stats.promotions == 1

    def test_promoted_adjacency_preserved(self, store):
        weights = {dst: dst * 3 + 1 for dst in range(10)}
        for dst, w in weights.items():
            store.insert_edge(7, dst, w)
        assert store.is_promoted(7)
        assert dict(store.neighbors(7)) == weights
        assert store.degree(7) == 10

    def test_promoted_delete_and_lookup(self, store):
        for dst in range(10):
            store.insert_edge(7, dst)
        assert store.delete_edge(7, 4)
        assert not store.has_edge(7, 4)
        assert store.degree(7) == 9
        # No demotion on shrink (promote-only, like DegAwareRHH).
        assert store.is_promoted(7)

    def test_duplicate_insert_does_not_trigger_promotion(self, store):
        for _ in range(10):
            store.insert_edge(0, 1)
        assert not store.is_promoted(0)
        assert store.degree(0) == 1


class TestScaleAndStats:
    def test_random_workload_matches_reference(self):
        rng = np.random.default_rng(11)
        store = DegAwareRHH(promote_threshold=6)
        ref: dict[tuple[int, int], int] = {}
        for _ in range(4000):
            s, d = int(rng.integers(0, 40)), int(rng.integers(0, 200))
            if rng.random() < 0.8:
                w = int(rng.integers(1, 100))
                store.insert_edge(s, d, w)
                ref[(s, d)] = w
            else:
                assert store.delete_edge(s, d) == ((s, d) in ref)
                ref.pop((s, d), None)
        assert store.num_edges == len(ref)
        assert {(s, d, w) for s, d, w in store.edges()} == {
            (s, d, w) for (s, d), w in ref.items()
        }

    def test_stats_counters(self):
        store = DegAwareRHH(promote_threshold=2)
        store.insert_edge(1, 2)
        store.insert_edge(1, 2)
        store.insert_edge(1, 3)
        store.delete_edge(1, 3)
        assert store.stats.edge_inserts == 2
        assert store.stats.duplicate_inserts == 1
        assert store.stats.edge_deletes == 1

    def test_invalid_config_rejected(self):
        with pytest.raises(ValueError):
            DegAwareRHH(promote_threshold=0)
        with pytest.raises(TypeError):
            DegAwareRHH(vertex_index="dict")  # one index, no backend switch


class TestNeighborsArrays:
    def test_low_degree_tier_borrows_internal_lists(self, store):
        store.insert_edge(1, 2, 5)
        store.insert_edge(1, 3, 6)
        nbrs, weights = store.neighbors_arrays(1)
        assert list(zip(nbrs, weights)) == sorted(store.neighbors(1))
        # Borrowed views: repeated calls return the same list objects.
        again, _ = store.neighbors_arrays(1)
        assert again is nbrs

    def test_promoted_tier_materialises_parallel_lists(self, store):
        # Push vertex 7 past the promotion threshold (4).
        for dst in range(10, 16):
            store.insert_edge(7, dst, dst * 2)
        assert store.is_promoted(7)
        nbrs, weights = store.neighbors_arrays(7)
        assert len(nbrs) == len(weights) == 6
        # Pairing is preserved and matches the tuple iterator exactly,
        # in insertion order across the promotion.
        assert list(zip(nbrs, weights)) == list(store.neighbors(7))
        assert weights == [20, 22, 24, 26, 28, 30]

    def test_unknown_vertex_gives_empty_arrays(self, store):
        assert store.neighbors_arrays(404) == ([], [])

    def test_flushes_bulk_pending_before_reading(self, store):
        store.bulk_append_edges(
            np.array([5, 5], dtype=np.int64),
            np.array([6, 7], dtype=np.int64),
            np.array([1, 2], dtype=np.int64),
        )
        nbrs, weights = store.neighbors_arrays(5)
        assert sorted(zip(nbrs, weights)) == [(6, 1), (7, 2)]
        assert store.bulk_pending == 0

