"""Tests for the §III-B out-of-core (NVRAM spill) model."""

import numpy as np
import pytest

from repro import DynamicEngine, EngineConfig, IncrementalBFS, split_streams
from repro.comm.costmodel import CostModel
from repro.generators import rmat_edges
from repro.storage.degaware import DegAwareRHH


class TestFootprintEstimate:
    def test_empty_store(self):
        assert DegAwareRHH().approx_bytes() == 0

    def test_grows_with_vertices_and_edges(self):
        store = DegAwareRHH()
        sizes = [store.approx_bytes()]
        for dst in range(20):
            store.insert_edge(0, dst)
            sizes.append(store.approx_bytes())
        assert all(b > a for a, b in zip(sizes, sizes[1:]))

    def test_promotion_adds_slack(self):
        a = DegAwareRHH(promote_threshold=4)
        b = DegAwareRHH(promote_threshold=1 << 30)
        for dst in range(10):
            a.insert_edge(0, dst)
            b.insert_edge(0, dst)
        assert a.approx_bytes() > b.approx_bytes()


class TestSpillFraction:
    def test_zero_below_budget(self):
        cm = CostModel(rank_memory_bytes=1000.0)
        assert cm.spill_fraction(500) == 0.0
        assert cm.spill_fraction(1000) == 0.0

    def test_fraction_above_budget(self):
        cm = CostModel(rank_memory_bytes=1000.0)
        assert cm.spill_fraction(2000) == pytest.approx(0.5)
        assert cm.spill_fraction(4000) == pytest.approx(0.75)

    def test_unbounded_default(self):
        assert CostModel().spill_fraction(1e18) == 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            CostModel(rank_memory_bytes=0)
        with pytest.raises(ValueError):
            CostModel(rank_memory_bytes=-1.0)


class TestEndToEndSpill:
    def run(self, budget):
        rng = np.random.default_rng(0)
        src, dst = rmat_edges(9, edge_factor=8, rng=rng)
        cm = CostModel(ranks_per_node=4, rank_memory_bytes=budget)
        e = DynamicEngine([IncrementalBFS()], EngineConfig(n_ranks=4), cost_model=cm)
        e.init_program("bfs", int(src[0]))
        e.attach_streams(split_streams(src, dst, 4, rng=np.random.default_rng(1)))
        e.run()
        return e

    def test_tight_budget_slows_ingestion(self):
        roomy = self.run(float("inf"))
        tight = self.run(50_000.0)  # well below the final footprint
        assert tight.state("bfs") == roomy.state("bfs")  # semantics intact
        assert tight.loop.max_time() > 1.2 * roomy.loop.max_time()

    def test_generous_budget_is_free(self):
        roomy = self.run(float("inf"))
        generous = self.run(1e12)
        assert generous.loop.max_time() == pytest.approx(roomy.loop.max_time())
