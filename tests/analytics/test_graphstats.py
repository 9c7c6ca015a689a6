"""Tests for workload characterisation statistics."""

import numpy as np
import pytest

from repro.analytics.graphstats import degree_stats
from repro.generators import barabasi_albert_edges, erdos_renyi_edges, rmat_edges


class TestDegreeStats:
    def test_star_graph(self):
        src = np.zeros(10, dtype=np.int64)
        dst = np.arange(1, 11, dtype=np.int64)
        s = degree_stats(src, dst)
        assert s.n_vertices == 11
        assert s.n_edges == 10
        assert s.max == 10
        assert s.median == 1.0
        assert s.skew == pytest.approx(10 / s.mean)
        assert 0.0 < s.gini < 1.0

    def test_regular_ring_has_low_gini(self):
        n = 100
        src = np.arange(n)
        dst = (src + 1) % n
        s = degree_stats(src, dst)
        assert s.gini == pytest.approx(0.0, abs=1e-9)
        assert s.skew == pytest.approx(1.0)

    def test_empty(self):
        s = degree_stats(np.empty(0, np.int64), np.empty(0, np.int64))
        assert s.n_vertices == 0
        assert s.tail_exponent is None

    def test_rmat_more_skewed_than_er(self):
        rng = np.random.default_rng(0)
        r_src, r_dst = rmat_edges(12, edge_factor=8, rng=rng)
        e_src, e_dst = erdos_renyi_edges(1 << 12, 8 << 12, rng=rng)
        r = degree_stats(r_src, r_dst)
        e = degree_stats(e_src, e_dst)
        assert r.skew > 5 * e.skew
        assert r.gini > e.gini

    def test_ba_tail_exponent_near_three(self):
        rng = np.random.default_rng(1)
        src, dst = barabasi_albert_edges(5000, 3, rng=rng)
        s = degree_stats(src, dst)
        # BA's theoretical exponent is 3; the crude fit lands near it.
        assert s.tail_exponent is not None
        assert 1.8 < s.tail_exponent < 4.5

    def test_describe_readable(self):
        s = degree_stats(np.array([0, 0]), np.array([1, 2]))
        assert "V=3" in s.describe()
