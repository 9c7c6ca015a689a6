"""Tests for quiescent-state checkpointing (suspend / resume)."""

import numpy as np
import pytest

from repro import (
    DynamicEngine,
    EngineConfig,
    IncrementalBFS,
    IncrementalCC,
    ListEventStream,
    split_streams,
)
from repro.analytics import verify_bfs, verify_cc
from repro.events.types import ADD
from repro.generators import rmat_edges
from repro.runtime.checkpoint import (
    NotQuiescentError,
    load_checkpoint,
    save_checkpoint,
)
from repro.runtime.plugins import BulkIngestPlugin


def build_engine(n_ranks=4):
    return DynamicEngine(
        [IncrementalBFS(), IncrementalCC()], EngineConfig(n_ranks=n_ranks)
    )


def run_workload(engine, seed=0):
    rng = np.random.default_rng(seed)
    src, dst = rmat_edges(8, edge_factor=4, rng=rng)
    source = int(src[0])
    engine.init_program("bfs", source)
    engine.attach_streams(split_streams(src, dst, engine.config.n_ranks, rng=rng))
    engine.run()
    return source


class TestRoundTrip:
    def test_save_and_restore_preserve_everything(self, tmp_path):
        original = build_engine()
        source = run_workload(original)
        path = tmp_path / "ckpt.npz"
        save_checkpoint(original, path)

        restored = build_engine()
        load_checkpoint(restored, path)
        assert restored.num_edges == original.num_edges
        assert restored.state("bfs") == original.state("bfs")
        assert restored.state("cc") == original.state("cc")
        assert verify_bfs(restored, "bfs", source) == []
        assert verify_cc(restored, "cc") == []

    def test_restored_engine_keeps_ingesting(self, tmp_path):
        original = build_engine()
        source = run_workload(original)
        path = tmp_path / "ckpt.npz"
        save_checkpoint(original, path)

        restored = build_engine()
        load_checkpoint(restored, path)
        # new edges extend the old state seamlessly
        far_a, far_b = 999_001, 999_002
        restored.attach_streams(
            [ListEventStream([(ADD, source, far_a, 1), (ADD, far_a, far_b, 1)])]
        )
        restored.run()
        assert restored.value_of("bfs", far_b) == 3
        assert verify_bfs(restored, "bfs", source) == []

    def test_restore_into_different_rank_count(self, tmp_path):
        original = build_engine(n_ranks=4)
        source = run_workload(original)
        path = tmp_path / "ckpt.npz"
        save_checkpoint(original, path)
        restored = build_engine(n_ranks=7)  # repartitioned on restore
        load_checkpoint(restored, path)
        assert restored.state("bfs") == original.state("bfs")
        assert verify_bfs(restored, "bfs", source) == []


class TestWeightDtype:
    """Regression: save_checkpoint used to coerce weights to int64,
    silently truncating float weights (SSSP / widest-path workloads)."""

    FLOAT_EDGES = [(1, 2, 0.25), (2, 1, 0.25), (3, 4, 7.5), (4, 3, 7.5)]

    def _place_edges(self, engine, edges):
        for s, d, w in edges:
            engine.stores[engine.partitioner.owner(s)].insert_edge(s, d, w)

    def test_float_weights_round_trip_exactly(self, tmp_path):
        original = build_engine()
        self._place_edges(original, self.FLOAT_EDGES)
        path = tmp_path / "float.npz"
        save_checkpoint(original, path)

        restored = build_engine()
        load_checkpoint(restored, path)
        got = {(s, d): w for s, d, w in restored.edges()}
        assert got == {(s, d): w for s, d, w in self.FLOAT_EDGES}
        # the restored weights are genuine floats, not int-truncated
        assert all(isinstance(w, float) for w in got.values())

    def test_int_weights_stay_int(self, tmp_path):
        original = build_engine()
        self._place_edges(original, [(1, 2, 3), (2, 1, 3)])
        path = tmp_path / "int.npz"
        save_checkpoint(original, path)

        restored = build_engine()
        load_checkpoint(restored, path)
        got = {(s, d): w for s, d, w in restored.edges()}
        assert got == {(1, 2): 3, (2, 1): 3}
        assert all(isinstance(w, int) for w in got.values())


class TestRestoreIntoBulkIngest:
    """Restoring into an engine with a bulk ingestor: load_checkpoint
    inserts edges directly into the stores, so the bulk ingestor's
    cached topology must be rebuilt before its first chunk — otherwise
    frontier kernels would run on a stale (empty) CSR."""

    def _bulk_engine(self, n_ranks=4):
        return DynamicEngine(
            [IncrementalBFS(), IncrementalCC()],
            EngineConfig(n_ranks=n_ranks),
            plugins=[BulkIngestPlugin(chunk=32)],
        )

    def test_round_trip_into_bulk_engine(self, tmp_path):
        original = build_engine()
        source = run_workload(original)
        path = tmp_path / "ckpt.npz"
        save_checkpoint(original, path)

        restored = self._bulk_engine()
        load_checkpoint(restored, path)
        assert restored.num_edges == original.num_edges
        assert restored.state("bfs") == original.state("bfs")
        assert restored.state("cc") == original.state("cc")
        assert verify_bfs(restored, "bfs", source) == []

    def test_restored_bulk_engine_resumes_with_bulk_path(self, tmp_path):
        original = build_engine()
        source = run_workload(original)
        path = tmp_path / "ckpt.npz"
        save_checkpoint(original, path)

        restored = self._bulk_engine()
        load_checkpoint(restored, path)
        rng = np.random.default_rng(99)
        src, dst = rmat_edges(7, edge_factor=4, rng=rng)
        restored.attach_streams(
            split_streams(src, dst, restored.config.n_ranks, rng=rng)
        )
        restored.run()
        # per-event continuation from the same checkpoint must agree
        per_event = build_engine()
        load_checkpoint(per_event, path)
        rng = np.random.default_rng(99)
        src, dst = rmat_edges(7, edge_factor=4, rng=rng)
        per_event.attach_streams(
            split_streams(src, dst, per_event.config.n_ranks, rng=rng)
        )
        per_event.run()
        assert restored.state("bfs") == per_event.state("bfs")
        assert restored.state("cc") == per_event.state("cc")
        assert verify_bfs(restored, "bfs", source) == []
        assert verify_cc(restored, "cc") == []

    def test_save_from_bulk_engine_and_restore(self, tmp_path):
        original = self._bulk_engine()
        source = run_workload(original)
        path = tmp_path / "bulk.npz"
        save_checkpoint(original, path)
        restored = build_engine()
        load_checkpoint(restored, path)
        assert restored.state("bfs") == original.state("bfs")
        assert verify_bfs(restored, "bfs", source) == []


class TestExtraPayload:
    def test_extra_round_trips(self, tmp_path):
        original = build_engine()
        run_workload(original)
        path = tmp_path / "ckpt.npz"
        save_checkpoint(
            original, path, extra={"stream_positions": {0: 5, 1: 7}}
        )
        restored = build_engine()
        extra = load_checkpoint(restored, path)
        assert extra == {"stream_positions": {0: 5, 1: 7}}

    def test_missing_extra_defaults_to_empty(self, tmp_path):
        original = build_engine()
        run_workload(original)
        path = tmp_path / "ckpt.npz"
        save_checkpoint(original, path)
        restored = build_engine()
        assert load_checkpoint(restored, path) == {}


class TestCounterRoundTrip:
    """§VI-B delete-safety: the per-rank counters are durable state —
    losing them across a restore silently undercounts ``edge_deletes``
    (and every churn metric derived from it) after each recovery."""

    def _churn_engine(self, n_ranks=3):
        from repro import GenerationalBFS, GenerationalCC
        from repro.generators.churn import churn_events, split_churn_streams

        e = DynamicEngine(
            [GenerationalBFS(), GenerationalCC()],
            EngineConfig(n_ranks=n_ranks, undirected=True),
        )
        e.init_program("gen-bfs", 0)
        cols = churn_events(
            30, 150, delete_ratio=0.3, rng=np.random.default_rng(21)
        )
        e.attach_streams(split_churn_streams(*cols, n_ranks))
        e.run()
        return e

    def test_counters_restore_exactly(self, tmp_path):
        original = self._churn_engine()
        assert sum(c.edge_deletes for c in original.counters) > 0
        path = tmp_path / "counters.npz"
        save_checkpoint(original, path)

        restored = DynamicEngine(
            list(original.programs),
            EngineConfig(n_ranks=3, undirected=True),
        )
        load_checkpoint(restored, path)
        assert list(restored.counters) == list(original.counters)

    def test_rank_count_change_preserves_totals(self, tmp_path):
        # Restoring into a different rank count repartitions, so the
        # counters merge onto rank 0 — no aggregate may be lost.
        original = self._churn_engine(n_ranks=3)
        path = tmp_path / "c.npz"
        save_checkpoint(original, path)
        other = DynamicEngine(
            list(original.programs),
            EngineConfig(n_ranks=5, undirected=True),
        )
        load_checkpoint(other, path)
        assert sum(c.edge_deletes for c in other.counters) == sum(
            c.edge_deletes for c in original.counters
        )
        assert sum(c.source_events for c in other.counters) == sum(
            c.source_events for c in original.counters
        )

    def test_legacy_checkpoint_without_counters_loads(self, tmp_path):
        # Pre-delete checkpoints carry no counters entry; they restore
        # with zeroed counters, exactly the old behaviour.
        import pickle

        original = build_engine()
        run_workload(original)
        path = tmp_path / "legacy.npz"
        save_checkpoint(original, path)
        with np.load(path) as data:
            arrays = {k: data[k] for k in data.files}
        payload = pickle.loads(arrays["sidecar"].tobytes())
        del payload["counters"]
        arrays["sidecar"] = np.frombuffer(
            pickle.dumps(payload), dtype=np.uint8
        )
        np.savez_compressed(path, **arrays)
        restored = build_engine()
        load_checkpoint(restored, path)
        assert restored.state("bfs") == original.state("bfs")
        assert all(c.source_events == 0 for c in restored.counters)


class TestGuards:
    def test_save_mid_flight_rejected(self, tmp_path):
        e = build_engine()
        rng = np.random.default_rng(1)
        src, dst = rmat_edges(8, edge_factor=4, rng=rng)
        e.init_program("bfs", int(src[0]))
        e.attach_streams(split_streams(src, dst, 4, rng=rng))
        e.run(max_actions=50)  # stop mid-flight
        with pytest.raises(NotQuiescentError):
            save_checkpoint(e, tmp_path / "x.npz")

    def test_save_during_collection_rejected(self, tmp_path):
        e = build_engine()
        run_workload(e)
        e.request_collection("bfs", at_time=e.loop.max_time() + 1.0)
        # the alarm has not fired yet; fire it but stop before it finishes
        e.run(max_actions=1)
        if e.active_collection is not None:
            with pytest.raises(NotQuiescentError):
                save_checkpoint(e, tmp_path / "x.npz")

    def test_restore_into_used_engine_rejected(self, tmp_path):
        original = build_engine()
        run_workload(original)
        save_checkpoint(original, tmp_path / "c.npz")
        dirty = build_engine()
        run_workload(dirty, seed=5)
        with pytest.raises(RuntimeError, match="fresh engine"):
            load_checkpoint(dirty, tmp_path / "c.npz")

    def test_restore_program_mismatch_rejected(self, tmp_path):
        original = build_engine()
        run_workload(original)
        save_checkpoint(original, tmp_path / "c.npz")
        other = DynamicEngine([IncrementalCC()], EngineConfig(n_ranks=4))
        with pytest.raises(ValueError, match="program mismatch"):
            load_checkpoint(other, tmp_path / "c.npz")
