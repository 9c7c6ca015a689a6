"""WorkloadSpec parsing and MixedWorkloadDriver mechanics."""

import numpy as np
import pytest

from repro import (
    DynamicEngine,
    EngineConfig,
    IncrementalBFS,
    ListEventStream,
    ServingLayer,
)
from repro.events.types import ADD
from repro.serving import (
    FrozenBackend,
    KINDS_FOR,
    MixedWorkloadDriver,
    WorkloadSpec,
)


class TestSpecParsing:
    def test_defaults(self):
        spec = WorkloadSpec.from_spec("")
        assert spec == WorkloadSpec()
        assert spec.ratio == 0.1 and spec.slice_actions == 2048
        assert spec.final_queries == 64

    def test_full_spec(self):
        spec = WorkloadSpec.from_spec(
            "ratio=0.5, slice=4096, kinds=point:distance, seed=7, "
            "max=1000, final=10"
        )
        assert spec.ratio == 0.5
        assert spec.slice_actions == 4096
        assert spec.kinds == ("point", "distance")
        assert spec.seed == 7
        assert spec.max_queries == 1000
        assert spec.final_queries == 10

    def test_describe_round_trips_the_mix(self):
        spec = WorkloadSpec.from_spec("ratio=0.25,slice=128")
        assert "ratio=0.25" in spec.describe()
        assert "slice=128" in spec.describe()

    @pytest.mark.parametrize(
        "bad",
        ["ratio", "bogus=1", "ratio=-1", "slice=0", "ratio=x"],
    )
    def test_rejects_malformed_terms(self, bad):
        with pytest.raises(ValueError):
            WorkloadSpec.from_spec(bad)


def _bfs_driver(spec, pool=None, n=12):
    e = DynamicEngine([IncrementalBFS()], EngineConfig(n_ranks=2))
    e.init_program("bfs", 0)
    e.attach_streams([ListEventStream([(ADD, i, i + 1, 1) for i in range(n)])])
    serving = ServingLayer(e)
    pool = np.arange(n + 1) if pool is None else pool
    return MixedWorkloadDriver(serving, spec, pool, "bfs")


class TestDriver:
    def test_rejects_unknown_algo_and_kinds(self):
        serving = ServingLayer(FrozenBackend(["bfs"], [{}]))
        with pytest.raises(ValueError):
            MixedWorkloadDriver(serving, WorkloadSpec(), [0], "nope")
        with pytest.raises(ValueError):
            MixedWorkloadDriver(
                serving, WorkloadSpec(kinds=("component",)), [0], "bfs"
            )
        with pytest.raises(ValueError):
            MixedWorkloadDriver(serving, WorkloadSpec(), [], "bfs")

    def test_query_count_tracks_ratio(self):
        spec = WorkloadSpec(ratio=0.5, slice_actions=16, final_queries=0)
        res = _bfs_driver(spec).run()
        # 12 events at 0.5 queries/event, fractional carry preserved.
        assert res.queries == 6
        assert res.events_ingested == 12
        assert res.latencies_ns and len(res.latencies_ns) == res.queries

    def test_max_queries_caps(self):
        spec = WorkloadSpec(ratio=2.0, slice_actions=16, max_queries=5)
        res = _bfs_driver(spec).run()
        assert res.queries == 5
        # The cap leaves room for the converged tail (final=64 > max):
        # all five are served after quiescence, so none is stale.
        assert res.stale_served == 0

    def test_deterministic_given_seed(self):
        spec = WorkloadSpec(ratio=1.0, slice_actions=32, seed=13)
        r1 = _bfs_driver(spec).run()
        r2 = _bfs_driver(spec).run()
        assert r1.queries == r2.queries
        assert r1.per_kind == r2.per_kind
        assert r1.stale_served == r2.stale_served

    def test_final_batch_serves_converged(self):
        spec = WorkloadSpec(ratio=0.0, slice_actions=1 << 20, final_queries=40)
        res = _bfs_driver(spec).run()
        assert res.queries == 40
        assert res.stale_served == 0  # quiesced: every answer exact

    def test_serve_only_against_frozen_state(self):
        backend = FrozenBackend(["bfs"], [{i: i + 1 for i in range(8)}])
        serving = ServingLayer(backend)
        driver = MixedWorkloadDriver(
            serving,
            WorkloadSpec(seed=3),
            np.arange(8),
            "bfs",
            oracle_fn=lambda: {i: i + 1 for i in range(8)},
        )
        res = driver.serve_only(200)
        assert res.queries == 200
        assert res.stale_served == 0
        assert res.verified == 200
        assert res.violations == []
        assert res.hit_rate > 0.5  # 8 distinct targets, 200 queries

    def test_result_to_dict_shape(self):
        spec = WorkloadSpec(ratio=0.5, slice_actions=64)
        doc = _bfs_driver(spec).run().to_dict()
        for key in (
            "queries", "events_ingested", "qps", "p50_us", "p99_us",
            "per_kind", "stale_served", "hit_rate", "verified",
            "violations", "cache",
        ):
            assert key in doc

    def test_every_kind_table_entry_is_issuable(self):
        for algo, kinds in KINDS_FOR.items():
            assert "point" in kinds
