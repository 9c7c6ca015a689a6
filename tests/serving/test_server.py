"""ServingLayer behaviour: envelope semantics, admission, invalidation.

The contract under test (DESIGN.md §10): a ``stale=False`` answer
always equals the static answer on the ingested prefix; a cache entry
always equals the live engine value; the engine pays nothing for an
idle serving layer (its cache attaches to the engine's
``_serve_caches`` slot on first admission).
"""

import numpy as np
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
from repro.events.stream import split_streams
from repro.events.types import ADD
from repro.generators import rmat_edges
from repro.obs import make_reference
from repro.runtime.plugins import FreshnessPlugin, MetricsPlugin
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
        assert e._serve_caches == ()  # idle layer: nothing attached
        e.run(max_actions=1)
        serving.point("bfs", 11)  # stale miss: still no admission
        assert e._serve_caches == ()
        e.run()
        serving.point("bfs", 11)  # drained miss: admits, attaches
        assert e._serve_caches == (serving.cache,)
        serving.close()
        assert e._serve_caches == ()

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


class TestProbeIsAnObserver:
    """Plugins observe (``runtime/plugins.py``): a freshness probe
    sampling the engine mid-ingest must not change what is served."""

    def test_a_freshness_probe_does_not_change_a_served_answer(self):
        src, dst = rmat_edges(7, edge_factor=4, rng=np.random.default_rng(4))
        source = int(src[0])
        pool = sorted(set(src.tolist()) | set(dst.tolist()))

        def engine(plugins=()):
            e = DynamicEngine(
                [IncrementalBFS()], EngineConfig(n_ranks=2), plugins=plugins
            )
            e.init_program("bfs", source)
            e.attach_streams(split_streams(src, dst, 2, rng=np.random.default_rng(5)))
            return e

        full = engine()
        makespan = full.run()

        def serve(e):
            serving = ServingLayer(e, references={"bfs": full.state("bfs")})
            answers = []
            while not e.loop.quiescent():
                e.run(max_actions=200)
                for v in pool:
                    res = serving.point("bfs", v)
                    answers.append((v, res.value, res.stale, res.source))
            return answers

        probed = engine(
            [
                MetricsPlugin(makespan / 20),
                FreshnessPlugin("bfs", make_reference("bfs", source=source)),
            ]
        )
        with_probe = serve(probed)
        assert with_probe == serve(engine())
        assert len(probed.metrics.rows("freshness")) > 1
        # The comparison covers every envelope the layer can serve.
        kinds = {(stale, where) for _, _, stale, where in with_probe}
        assert {(True, "live"), (False, "live"), (False, "cache")} <= kinds


class TestTwoLayersOnOneEngine:
    """Both coherence sites serve every attached cache: two layers on
    one engine each hear every write, and each detaches only itself."""

    @staticmethod
    def staged_engine():
        # Path 0-1-2-3-4-5, drained; a later shortcut 0-5 improves
        # vertex 5 from level 6 to level 2.
        e = DynamicEngine([IncrementalBFS()], EngineConfig(n_ranks=2))
        e.init_program("bfs", 0)
        e.attach_streams([ListEventStream([(ADD, i, i + 1, 1) for i in range(5)])])
        e.run()
        return e

    @staticmethod
    def shortcut(e):
        e.attach_streams([ListEventStream([(ADD, 0, 5, 1)])])
        e.run()

    def test_shortcut_write_evicts_from_both_caches(self):
        e = self.staged_engine()
        a, b = ServingLayer(e), ServingLayer(e)
        for layer in (a, b):
            assert layer.point("bfs", 5).value == 6
            assert layer.point("bfs", 5).source == "cache"
        assert e._serve_caches == (a.cache, b.cache)
        self.shortcut(e)
        for layer in (a, b):
            assert layer.cache.invalidations == 1
            res = layer.point("bfs", 5)
            assert (res.source, res.value) == ("live", 2)

    def test_closing_one_leaves_the_other_coherent(self):
        e = self.staged_engine()
        a, b = ServingLayer(e), ServingLayer(e)
        for layer in (a, b):
            layer.point("bfs", 5)
        a.close()
        assert e._serve_caches == (b.cache,)
        assert b.point("bfs", 5).source == "cache"
        self.shortcut(e)
        res = b.point("bfs", 5)
        assert (res.source, res.value) == ("live", 2)
        assert len(a.cache) == 0 and a.cache.invalidations == 0

    def test_slot_is_empty_only_after_both_close(self):
        e = self.staged_engine()
        a, b = ServingLayer(e), ServingLayer(e)
        for layer in (a, b):
            layer.point("bfs", 5)
        b.close()
        assert e._serve_caches == (a.cache,)
        b.close()  # a second close detaches nothing more
        assert e._serve_caches == (a.cache,)
        a.close()
        assert e._serve_caches == ()


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
    def test_snapshot_returns_collection(self):
        e = path_engine()
        e.run()
        serving = ServingLayer(e)
        result = serving.snapshot("bfs")
        assert result.vertices_collected == 6
        assert dict(result.state) == {i: i + 1 for i in range(6)}


class TestStats:
    def test_the_cache_counts_reads_and_the_engine_the_watermark(self):
        """Serving keeps no counts of its own: the cache owns hits,
        misses and admissions, the engine the ingested count."""
        e = path_engine()
        e.run()
        serving = ServingLayer(e)
        serving.point("bfs", 1)
        serving.point("bfs", 1)
        cache = serving.cache.stats()
        assert (cache["misses"], cache["hits"], cache["admissions"]) == (1, 1, 1)
        assert serving.stats()["watermark"] == 5


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
