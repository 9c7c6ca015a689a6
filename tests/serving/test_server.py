"""ServingLayer behaviour: envelope semantics, admission, invalidation.

The contract under test (DESIGN.md §10): a ``stale=False`` answer
always equals the static answer on the ingested prefix; a cache entry
always equals the live engine value; the engine pays nothing for an
idle serving layer (hooks install lazily on first admission).
"""

import pytest

from repro import (
    DynamicEngine,
    EngineConfig,
    IncrementalBFS,
    IncrementalCC,
    ListEventStream,
    MultiSTConnectivity,
    ServingLayer,
    WidestPath,
)
from repro.algorithms.cc import component_label
from repro.events.types import ADD
from repro.runtime.plugins import MetricsPlugin
from repro.serving import FrozenBackend, QueryResult


def path_engine(n: int = 5, n_ranks: int = 2):
    """BFS over the path 0-1-...-n with the source at 0."""
    e = DynamicEngine([IncrementalBFS()], EngineConfig(n_ranks=n_ranks))
    e.init_program("bfs", 0)
    e.attach_streams([ListEventStream([(ADD, i, i + 1, 1) for i in range(n)])])
    return e


class TestEnvelope:
    def test_drained_read_is_stale_free_live(self):
        e = path_engine()
        e.run()
        serving = ServingLayer(e)
        res = serving.point("bfs", 3)
        assert isinstance(res, QueryResult)
        assert res.value == 4  # source is level 1
        assert res.stale is False
        assert res.source == "live"
        assert res.as_of_vtime == e.vtime()
        assert res.prog == "bfs"

    def test_second_read_hits_cache(self):
        e = path_engine()
        e.run()
        serving = ServingLayer(e)
        first = serving.point("bfs", 3)
        second = serving.point("bfs", 3)
        assert second.source == "cache"
        assert second.value == first.value
        assert second.stale is False

    def test_midrun_read_is_flagged_stale(self):
        e = path_engine(n=12)
        # One action: the stream pull is in flight, nothing propagated.
        e.run(max_actions=1)
        assert not e.drained()
        serving = ServingLayer(e)
        res = serving.point("bfs", 11)
        assert res.stale is True
        assert res.source == "live"
        # Unstable values are not admitted.
        assert len(serving.cache) == 0

    def test_unknown_program_rejected(self):
        e = path_engine()
        serving = ServingLayer(e)
        with pytest.raises(ValueError):
            serving.point("nope", 0)


class TestAdmissionAndInvalidation:
    def test_hooks_install_lazily(self):
        e = path_engine(n=12)
        serving = ServingLayer(e)
        assert e._hk_write == ()  # idle layer: no hook
        e.run(max_actions=1)
        serving.point("bfs", 11)  # stale miss: still no admission
        assert e._hk_write == ()
        e.run()
        serving.point("bfs", 11)  # drained miss: admits, installs
        assert e._hk_write != ()
        assert e._hk_bulk_flush != ()
        serving.close()
        assert e._hk_write == ()
        assert e._hk_bulk_flush == ()

    def test_write_invalidates_cached_entry(self):
        # Path 0-1-2-3-4-5 ingested in two stages; a shortcut edge 0-5
        # then improves vertex 5 (level 6 -> 2), which must evict the
        # cached entry rather than serve the superseded value.
        e = DynamicEngine([IncrementalBFS()], EngineConfig(n_ranks=2))
        e.init_program("bfs", 0)
        stage1 = ListEventStream([(ADD, i, i + 1, 1) for i in range(5)])
        e.attach_streams([stage1])
        e.run()
        serving = ServingLayer(e)
        assert serving.point("bfs", 5).value == 6
        assert serving.point("bfs", 5).source == "cache"
        e.attach_streams([ListEventStream([(ADD, 0, 5, 1)])])
        e.run()
        res = serving.point("bfs", 5)
        assert res.source == "live"  # entry was invalidated by the write
        assert res.value == 2
        assert serving.cache.invalidations >= 1
        # ...and the improved value re-admits and hits.
        assert serving.point("bfs", 5).source == "cache"

    def test_reference_bound_admits_absorbing_midrun(self):
        # The static-final bound for the path: vertex i is level i+1.
        # Mid-ingest, already-converged vertices serve stale-free even
        # though the engine is not drained.
        e = path_engine(n=12)
        serving = ServingLayer(
            e, references={"bfs": {i: i + 1 for i in range(13)}}
        )
        seen_absorbing = False
        while not e.loop.quiescent():
            e.run(max_actions=40)
            res = serving.point("bfs", 1)
            if not e.drained() and res.value == 2:
                assert res.stale is False  # absorbing: equals the bound
                seen_absorbing = True
        assert seen_absorbing
        assert serving.point("bfs", 1).source == "cache"

    def test_cached_value_always_equals_live(self):
        e = path_engine(n=8)
        serving = ServingLayer(e, references={"bfs": {i: i + 1 for i in range(9)}})
        while not e.loop.quiescent():
            e.run(max_actions=17)
            for v in range(9):
                res = serving.point("bfs", v)
                assert res.value == e.value_of("bfs", v)
        for v in range(9):
            assert serving.point("bfs", v).value == v + 1


class TestTypedQueries:
    def test_distance_normalizes_unreached(self):
        e = path_engine()
        e.run()
        serving = ServingLayer(e)
        assert serving.distance("bfs", 2).value == 3
        assert serving.distance("bfs", 999).value is None
        assert serving.reachable("bfs", 2).value is True
        assert serving.reachable("bfs", 999).value is False

    def test_same_component(self):
        e = DynamicEngine([IncrementalCC()], EngineConfig(n_ranks=2))
        events = [(ADD, 0, 1, 1), (ADD, 1, 2, 1), (ADD, 10, 11, 1)]
        e.attach_streams([ListEventStream(events)])
        e.run()
        serving = ServingLayer(e)
        res = serving.same_component("cc", 0, 2)
        assert res.value is True and res.stale is False
        assert serving.same_component("cc", 0, 10).value is False
        assert serving.same_component("cc", 0, 99).value is False
        assert serving.point("cc", 0).value == max(
            component_label(v) for v in (0, 1, 2)
        )

    def test_connected_to_bit(self):
        st = MultiSTConnectivity()
        e = DynamicEngine([st], EngineConfig(n_ranks=2))
        bit = st.register_source(0)
        e.init_program("st", 0, payload=bit)
        e.attach_streams([ListEventStream([(ADD, i, i + 1, 1) for i in range(3)])])
        e.run()
        serving = ServingLayer(e)
        assert serving.connected_to("st", 3, bit).value is True
        assert serving.connected_to("st", 77, bit).value is False

    def test_widest_capacity(self):
        e = DynamicEngine([WidestPath()], EngineConfig(n_ranks=2))
        e.init_program("widest", 0)
        e.attach_streams(
            [ListEventStream([(ADD, 0, 1, 7), (ADD, 1, 2, 3)])]
        )
        e.run()
        serving = ServingLayer(e)
        assert serving.capacity("widest", 1).value == 7
        assert serving.capacity("widest", 2).value == 3  # min along path
        assert serving.capacity("widest", 50).value is None


class TestSubscriptionsAndSnapshots:
    def test_subscribe_unsubscribe(self):
        e = path_engine(n=6)
        serving = ServingLayer(e)
        fired = []
        trig = serving.subscribe(
            "bfs", lambda v, lvl: lvl > 0, lambda v, lvl, t: fired.append(v),
            vertex=6,
        )
        e.run()
        assert fired == [6]
        assert serving.unsubscribe(trig) is True
        assert serving.unsubscribe(trig) is False
        assert serving.metrics.counters["serve_subscriptions"] == 1

    def test_snapshot_returns_collection(self):
        e = path_engine()
        e.run()
        serving = ServingLayer(e)
        result = serving.snapshot("bfs")
        assert result.vertices_collected == 6
        assert dict(result.state) == {i: i + 1 for i in range(6)}


class TestMetrics:
    def test_counters_and_latency_histogram(self):
        e = path_engine()
        e.run()
        serving = ServingLayer(e)
        serving.point("bfs", 1)
        serving.point("bfs", 1)
        m = serving.metrics
        assert m.counters["serve_misses"] == 1
        assert m.counters["serve_hits"] == 1
        assert m.counters["serve_admissions"] == 1
        assert m.histograms["serve_latency_us"].count == 2
        stats = serving.stats()
        assert stats["serve_hits"] == 1
        assert stats["latency_us"]["count"] == 2
        assert stats["watermark"] == 5

    def test_uses_engine_registry_when_sampling(self):
        e = DynamicEngine(
            [IncrementalBFS()],
            EngineConfig(n_ranks=2),
            plugins=[MetricsPlugin(1e-4)],
        )
        e.init_program("bfs", 0)
        e.attach_streams([ListEventStream([(ADD, 0, 1, 1)])])
        e.run()
        serving = ServingLayer(e)
        assert serving.metrics is e.metrics


class TestFrozenBackend:
    def test_frozen_serving_is_always_stable(self):
        backend = FrozenBackend(["bfs"], [{0: 1, 1: 2, 2: 3}], vtime=4.5)
        serving = ServingLayer(backend)
        res = serving.point("bfs", 1)
        assert res.value == 2 and res.stale is False
        assert res.as_of_vtime == 4.5
        assert serving.point("bfs", 1).source == "cache"
        assert serving.point("bfs", 9).value == 0  # absent = unreached

    def test_frozen_rejects_live_tiers(self):
        serving = ServingLayer(FrozenBackend(["bfs"], [{}]))
        with pytest.raises(RuntimeError):
            serving.subscribe("bfs", lambda v, x: True, lambda *a: None)
        with pytest.raises(RuntimeError):
            serving.snapshot("bfs")

    def test_frozen_prog_resolution(self):
        backend = FrozenBackend(["a", "b"], [{}, {}])
        assert backend.prog_index("b") == 1
        with pytest.raises(ValueError):
            backend.prog_index("c")
        with pytest.raises(ValueError):
            backend.prog_index(2)
        with pytest.raises(ValueError):
            FrozenBackend(["a"], [{}, {}])
