"""Unit tests for the sequential reference engine (executable spec)."""

import pytest

from repro import (
    DegreeTracker,
    IncrementalBFS,
    IncrementalCC,
    INF,
    ReferenceEngine,
)
from repro.events.types import ADD, DELETE


class TestBasics:
    def test_bfs_on_a_path(self):
        ref = ReferenceEngine([IncrementalBFS()])
        ref.init_program("bfs", 0)
        ref.ingest([(ADD, i, i + 1, 1) for i in range(5)])
        assert ref.value_of("bfs", 5) == 6
        assert ref.value_of("bfs", 0) == 1
        assert ref.events_ingested == 5

    def test_atomic_per_event_semantics(self):
        # After each ingest() returns, the cascade has fully drained:
        # state is immediately consistent — the footnote-1 machine.
        ref = ReferenceEngine([IncrementalBFS()])
        ref.init_program("bfs", 0)
        ref.ingest([(ADD, 0, 1, 1)])
        assert ref.value_of("bfs", 1) == 2
        ref.ingest([(ADD, 1, 2, 1)])
        assert ref.value_of("bfs", 2) == 3
        assert not ref.queue

    def test_undirected_topology(self):
        ref = ReferenceEngine([DegreeTracker()])
        ref.ingest([(ADD, 3, 4, 7)])
        assert ref.num_edges == 2
        assert ref.store.edge_weight(4, 3) == 7

    def test_deletes(self):
        ref = ReferenceEngine([DegreeTracker()])
        ref.ingest([(ADD, 0, 1, 1), (ADD, 0, 2, 1), (DELETE, 0, 1, 0)])
        assert ref.value_of("degree", 0) == 1
        assert not ref.store.has_edge(1, 0)

    def test_multiple_programs(self):
        ref = ReferenceEngine([IncrementalBFS(), IncrementalCC()])
        ref.init_program("bfs", 0)
        ref.ingest([(ADD, 0, 1, 1), (ADD, 5, 6, 1)])
        assert ref.value_of("bfs", 1) == 2
        assert ref.value_of("bfs", 5) == INF
        assert ref.value_of("cc", 5) == ref.value_of("cc", 6) != 0

    def test_state_is_a_copy(self):
        ref = ReferenceEngine([IncrementalCC()])
        ref.ingest([(ADD, 0, 1, 1)])
        snap = ref.state("cc")
        snap[0] = 123
        assert ref.value_of("cc", 0) != 123

    def test_init_after_ingest(self):
        ref = ReferenceEngine([IncrementalBFS()])
        ref.ingest([(ADD, 0, 1, 1), (ADD, 1, 2, 1)])
        ref.init_program("bfs", 2)
        assert ref.value_of("bfs", 0) == 3

    def test_duplicate_program_names_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            ReferenceEngine([IncrementalBFS(), IncrementalBFS()])

    def test_unknown_program_rejected(self):
        ref = ReferenceEngine([IncrementalBFS()])
        with pytest.raises(ValueError):
            ref.prog_index("nope")

    def test_canonical_edge_order(self):
        ref = ReferenceEngine([DegreeTracker()])
        ref.ingest([(ADD, 9, 2, 1), (DELETE, 2, 9, 0)])
        assert ref.num_edges == 0
