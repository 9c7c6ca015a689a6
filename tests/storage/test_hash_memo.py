"""The hash memo is a cache of the mix: invisible in layout, counters and bytes.

A ``RobinHoodMap`` reads a key's home from a ``HashMemo`` filled on
insert; a ``DegAwareRHH`` shares one memo between its vertex index and
every promoted table.  Nothing a map stores or counts may depend on
whether the memo was shared, warm, or cold.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.storage.degaware import DegAwareRHH
from repro.storage.robin_hood import HashMemo, RobinHoodMap
from repro.util.hashing import _FIB_MUL, _MASK64, mix64

EDGES = [-(2**63), -(2**63) + 1, -1, 0, 1, 2**63 - 2, 2**63 - 1]
int64s = st.integers(-(2**63), 2**63 - 1)
keys = st.one_of(
    st.integers(-40, 40),  # collisions and clusters
    st.sampled_from(EDGES),
    int64s,
    st.builds(np.int64, int64s),
)
values = st.one_of(st.sampled_from(EDGES), int64s)
ops = st.lists(
    st.tuples(st.sampled_from(["put", "get", "delete"]), keys, values), max_size=200
)


def _apply(m: RobinHoodMap, sequence) -> list:
    out = []
    for op, key, value in sequence:
        if op == "put":
            out.append(m.put(key, value))
        elif op == "get":
            out.append(m.get(key))
        else:
            out.append(m.delete(key))
    return out


def _layout(m: RobinHoodMap) -> tuple:
    return (
        m._keys,
        m._values,
        m._meta,
        m.probe_count,
        m.displacement_count,
        m.resize_count,
    )


@settings(max_examples=80, deadline=None)
@given(sequence=ops, neighbour_keys=st.lists(keys, max_size=60))
def test_a_shared_memo_map_equals_a_standalone_one(sequence, neighbour_keys):
    memo = HashMemo()
    neighbour = RobinHoodMap(hashes=memo)
    for key in neighbour_keys:  # the memo arrives warm, from another map
        neighbour.put(key, 1)
    shared = RobinHoodMap(hashes=memo)
    fresh = RobinHoodMap()
    assert _apply(shared, sequence) == _apply(fresh, sequence)
    assert _layout(shared) == _layout(fresh)
    # check_invariants recomputes every home from mix64, not the memo.
    shared.check_invariants()
    fresh.check_invariants()
    for key, product in memo.items():
        assert product == (mix64(key) * _FIB_MUL) & _MASK64
    # Only an insert fills a memo: one entry per distinct key ever put.
    assert set(fresh._hashes) == {int(k) for op, k, _ in sequence if op == "put"}


def test_resizes_happen_where_the_float_test_put_them():
    """``size >= int(lf * capacity)`` is ``size + 1 > lf * capacity``."""
    for lf in (0.1, 0.5, 0.75, 0.85, 0.9, 0.97):
        m = RobinHoodMap(max_load_factor=lf)
        for key in range(3000):
            cap = m.capacity
            m.put(key, key)
            assert (m.capacity != cap) == (key + 1 > lf * cap), (lf, key)


def _store(vertex_index: str = "robinhood") -> DegAwareRHH:
    store = DegAwareRHH(promote_threshold=4, vertex_index=vertex_index)
    for src in range(6):
        for dst in range(src * 3):
            store.insert_edge(src, 100 + dst, dst)
    return store


def test_a_store_shares_one_memo_across_its_tables():
    for kind in ("robinhood", "dict"):
        store = _store(kind)
        tables = [t for t in (store._index, *store._adj) if isinstance(t, RobinHoodMap)]
        assert len(tables) == (5 if kind == "robinhood" else 4)
        assert all(t._hashes is store._hashes for t in tables), kind


def test_lookups_and_deletes_do_not_grow_the_memo():
    store = _store()
    held = dict(store._hashes)
    for vid in range(-500, 500):
        store.has_edge(vid, vid + 1)
        store.has_edge(3, vid)  # 3 is promoted: its table probes too
        store.edge_weight(5, vid)
        store.degree(vid)
        store.delete_edge(4, vid)
    assert store._hashes == held
    # A deleted key keeps its entry; putting it back adds none.
    assert store.delete_edge(5, 101)
    assert store.insert_edge(5, 101, 7)
    assert store._hashes == held


def test_two_stores_do_not_share_a_memo():
    a, b = _store(), _store()
    assert a._hashes is not b._hashes
    assert a._index._hashes is not b._index._hashes


def test_approx_bytes_is_the_same_with_and_without_the_memo():
    """A store whose memo is emptied after every insert (every probe
    sequence mixes afresh) holds and charges exactly what a warm one
    does."""
    warm, cold = DegAwareRHH(promote_threshold=4), DegAwareRHH(promote_threshold=4)
    rng = np.random.default_rng(3)
    for src, dst in rng.integers(-50, 50, size=(400, 2)).tolist():
        warm.insert_edge(src, dst, src ^ dst)
        cold.insert_edge(src, dst, src ^ dst)
        cold._hashes.clear()
        assert warm.approx_bytes() == cold.approx_bytes()
    assert len(warm._hashes) > 0
    assert list(warm.edges()) == list(cold.edges())
    assert warm.approx_bytes() == (
        88 * warm.num_vertices
        + 40 * warm.num_edges
        + 24 * warm.promote_threshold * warm.stats.promotions
    )
