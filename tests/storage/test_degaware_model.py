"""``DegAwareRHH`` against a dict-of-dicts model.

Each vertex's model adjacency is a Python dict, so its iteration order
is insertion order: an overwrite keeps an edge's place, and a deleted
then re-inserted edge goes last.  The store must iterate both tiers in
exactly that order, across promotion — the cost ledger's message order
rests on it — and agree on weights, degrees, membership and every
``AdjacencyStats`` counter.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.storage.degaware import AdjacencyStats, DegAwareRHH

ops = st.lists(
    st.tuples(
        st.sampled_from(["insert", "insert", "insert", "delete", "has_edge", "weight"]),
        st.integers(0, 4),  # few sources: hubs form and promote
        st.integers(0, 11),
        st.integers(1, 9),
    ),
    max_size=150,
)


class _Model:
    def __init__(self, threshold: int):
        self.threshold = threshold
        self.adj: dict[int, dict[int, int]] = {}
        self.promoted: set[int] = set()
        self.stats = AdjacencyStats()

    def _scan(self, src: int, dst: int) -> None:
        # The low-degree tier scans its list up to the match (or all of it).
        if src in self.adj and src not in self.promoted:
            nbrs = list(self.adj[src])
            steps = nbrs.index(dst) + 1 if dst in nbrs else len(nbrs)
            self.stats.low_degree_scans += steps

    def insert(self, src: int, dst: int, w: int) -> bool:
        self.adj.setdefault(src, {})
        self._scan(src, dst)
        new = dst not in self.adj[src]
        self.adj[src][dst] = w
        if not new:
            self.stats.duplicate_inserts += 1
            return False
        self.stats.edge_inserts += 1
        if src not in self.promoted and len(self.adj[src]) >= self.threshold:
            self.promoted.add(src)
            self.stats.promotions += 1
        return True

    def delete(self, src: int, dst: int) -> bool:
        self._scan(src, dst)
        if dst not in self.adj.get(src, {}):
            return False
        del self.adj[src][dst]
        self.stats.edge_deletes += 1
        return True

    def lookup(self, src: int, dst: int) -> int | None:
        self._scan(src, dst)
        return self.adj.get(src, {}).get(dst)


@settings(max_examples=200, deadline=None)
@given(threshold=st.integers(1, 5), sequence=ops)
def test_store_matches_the_dict_of_dicts_model(threshold, sequence):
    store = DegAwareRHH(promote_threshold=threshold)
    model = _Model(threshold)
    for op, src, dst, w in sequence:
        if op == "insert":
            assert store.insert_edge(src, dst, w) == model.insert(src, dst, w)
        elif op == "delete":
            assert store.delete_edge(src, dst) == model.delete(src, dst)
        elif op == "has_edge":
            assert store.has_edge(src, dst) == (model.lookup(src, dst) is not None)
        else:
            assert store.edge_weight(src, dst) == model.lookup(src, dst)
        assert store.stats == model.stats
    assert list(store.vertices()) == list(model.adj)
    for src, nbrs in model.adj.items():
        pairs = list(nbrs.items())
        assert list(store.neighbors(src)) == pairs
        got_nbrs, got_weights = store.neighbors_arrays(src)
        assert list(zip(got_nbrs, got_weights)) == pairs
        assert store.degree(src) == len(nbrs)
        assert store.is_promoted(src) == (src in model.promoted)
    assert list(store.edges()) == [
        (s, d, w) for s, nbrs in model.adj.items() for d, w in nbrs.items()
    ]
    assert store.num_edges == sum(len(n) for n in model.adj.values())
    assert store.approx_bytes() == (
        88 * len(model.adj)
        + 40 * store.num_edges
        + 24 * threshold * model.stats.promotions
    )
