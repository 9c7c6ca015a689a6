"""Unit tests for the Robin Hood open-addressing map."""

import hashlib

import numpy as np
import pytest

from repro.storage.robin_hood import RobinHoodMap
from repro.util.hashing import fibonacci_hash, mix64


class TestBasicOps:
    def test_put_get(self):
        m = RobinHoodMap()
        assert m.put(1, 10) is True
        assert m.get(1) == 10

    def test_get_missing_returns_default(self):
        m = RobinHoodMap()
        assert m.get(42) is None
        assert m.get(42, -1) == -1

    def test_overwrite_returns_false(self):
        m = RobinHoodMap()
        m.put(1, 10)
        assert m.put(1, 20) is False
        assert m.get(1) == 20
        assert len(m) == 1

    def test_contains(self):
        m = RobinHoodMap()
        m.put(7, 70)
        assert 7 in m
        assert 8 not in m

    def test_getitem_setitem(self):
        m = RobinHoodMap()
        m[3] = 33
        assert m[3] == 33
        with pytest.raises(KeyError):
            _ = m[4]

    def test_delete_present(self):
        m = RobinHoodMap()
        m.put(1, 10)
        assert m.delete(1) is True
        assert 1 not in m
        assert len(m) == 0

    def test_delete_absent(self):
        m = RobinHoodMap()
        assert m.delete(99) is False

    def test_negative_and_large_keys(self):
        m = RobinHoodMap()
        for k in (-1, -(2**62), 2**62, 0):
            m.put(k, k % 97)
        for k in (-1, -(2**62), 2**62, 0):
            assert m.get(k) == k % 97

    def test_zero_key(self):
        # mix64(0) == 0; make sure key 0 is still stored correctly.
        m = RobinHoodMap()
        m.put(0, 123)
        assert m.get(0) == 123
        assert m.delete(0)
        assert m.get(0) is None


class TestGrowthAndInvariants:
    def test_grows_past_initial_capacity(self):
        m = RobinHoodMap(initial_capacity=8)
        for i in range(1000):
            m.put(i, i * 2)
        assert len(m) == 1000
        assert m.capacity >= 1000
        for i in range(1000):
            assert m.get(i) == i * 2

    def test_invariants_after_random_workload(self):
        rng = np.random.default_rng(3)
        m = RobinHoodMap()
        ref: dict[int, int] = {}
        for _ in range(5000):
            k = int(rng.integers(0, 800))
            op = rng.random()
            if op < 0.6:
                v = int(rng.integers(0, 10**9))
                m.put(k, v)
                ref[k] = v
            else:
                assert m.delete(k) == (k in ref)
                ref.pop(k, None)
        m.check_invariants()
        assert len(m) == len(ref)
        assert dict(m.items()) == ref

    def test_layout_and_counters_are_pinned(self):
        """The slot containers may change, the algorithm may not: table
        order, probes, displacements and resizes of a seeded 5,000-op
        mix, generated at commit bad94b2 (numpy-backed slots)."""
        rng = np.random.default_rng(11)
        keys = rng.integers(-(2**40), 2**40, size=900).tolist()
        m = RobinHoodMap()
        got = 0
        for op, i, v in zip(
            rng.random(5000).tolist(),
            rng.integers(0, 900, 5000).tolist(),
            rng.integers(0, 10**9, 5000).tolist(),
        ):
            if op < 0.5:
                m.put(keys[i], v)
            elif op < 0.75:
                got += m.get(keys[i], 0)
            else:
                m.delete(keys[i])
        m.check_invariants()
        assert (len(m), m.capacity, got) == (606, 1024, 324919932724)
        table = hashlib.sha1(repr(list(m.items())).encode()).hexdigest()
        assert table == "a1d3eb8fb7fd9b422182e29c8ba0e29390cbdf2c"
        assert (m.probe_count, m.displacement_count, m.resize_count) == (12760, 1557, 7)
        assert m.max_probe_distance() == 6
        assert m.mean_probe_distance().hex() == "0x1.8fa15f78d1880p-1"

    def test_home_slot_is_fibonacci_of_mix64(self):
        # _home folds the two hashing primitives into one frame.
        for capacity in (8, 64, 4096):
            m = RobinHoodMap(initial_capacity=capacity)
            bits = capacity.bit_length() - 1
            for key in (0, 1, -1, 12345, -(2**62), 2**62, 2**63 - 1):
                assert m._home(key) == fibonacci_hash(mix64(key), bits)

    def test_load_factor_respected(self):
        m = RobinHoodMap(initial_capacity=8, max_load_factor=0.5)
        for i in range(100):
            m.put(i, i)
        assert m.load_factor <= 0.5 + 1 / m.capacity

    def test_items_iterates_all(self):
        m = RobinHoodMap()
        ref = {i * 7: i for i in range(50)}
        for k, v in ref.items():
            m.put(k, v)
        assert dict(m.items()) == ref
        assert sorted(m.keys()) == sorted(ref.keys())

    def test_backward_shift_keeps_lookups_working(self):
        # Insert a cluster, delete from the middle, confirm everything
        # behind the hole is still reachable (the classic tombstone bug).
        m = RobinHoodMap(initial_capacity=64, max_load_factor=0.95)
        keys = list(range(200))
        for k in keys:
            m.put(k, k)
        for k in keys[::3]:
            assert m.delete(k)
        m.check_invariants()
        for k in keys:
            if k % 3 == 0:
                assert k not in m
            else:
                assert m.get(k) == k

    def test_probe_stats_accumulate(self):
        m = RobinHoodMap()
        for i in range(100):
            m.put(i, i)
        assert m.probe_count >= 100
        assert m.mean_probe_distance() >= 0.0
        assert m.max_probe_distance() >= 0

    def test_resize_counter(self):
        m = RobinHoodMap(initial_capacity=8)
        for i in range(100):
            m.put(i, i)
        assert m.resize_count >= 1


class TestValidation:
    def test_bad_load_factor_rejected(self):
        with pytest.raises(ValueError):
            RobinHoodMap(max_load_factor=1.5)

    def test_capacity_rounded_to_power_of_two(self):
        m = RobinHoodMap(initial_capacity=100)
        assert m.capacity == 128

    def test_empty_map_probe_distance(self):
        m = RobinHoodMap()
        assert m.mean_probe_distance() == 0.0
        assert m.max_probe_distance() == 0
