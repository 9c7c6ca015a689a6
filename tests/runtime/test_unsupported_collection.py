"""Versioned collection vs generational programs (§VI-B soundness).

Versioned (continuous) collection splits a program's state into
prev/new versions keyed by stream version; the generational programs'
epoch/generation tags are global protocol state that cannot be split
that way — a collection cut through an epoch restart would capture a
mix of old- and new-epoch values that no quiescent run ever exhibits.
Such programs declare ``supports_versioned_collection = False`` and the
engine must refuse the request up front instead of returning garbage.
"""

import pytest

from repro import (
    DynamicEngine,
    EngineConfig,
    GenerationalBFS,
    GenerationalCC,
    IncrementalBFS,
    ListEventStream,
    UnsupportedCollectionError,
)
from repro.events.types import ADD


def churn_engine(program, source=None):
    e = DynamicEngine([program], EngineConfig(n_ranks=2))
    if source is not None:
        e.init_program(program.name, source)
    e.attach_streams(
        [ListEventStream([(ADD, i, i + 1, 1) for i in range(6)])]
    )
    e.run()
    return e


class TestGenerationalProgramsRefuse:
    def test_generational_bfs_raises(self):
        e = churn_engine(GenerationalBFS(), source=0)
        with pytest.raises(
            UnsupportedCollectionError, match="versioned collection"
        ):
            e.request_collection("gen-bfs", at_time=e.loop.max_time() + 1.0)

    def test_generational_cc_raises(self):
        e = churn_engine(GenerationalCC())
        with pytest.raises(UnsupportedCollectionError):
            e.request_collection("gen-cc", at_time=e.loop.max_time() + 1.0)

    def test_flag_defaults_on(self):
        assert IncrementalBFS().supports_versioned_collection is True
        assert GenerationalBFS().supports_versioned_collection is False
        assert GenerationalCC().supports_versioned_collection is False

    def test_error_is_a_runtime_error(self):
        # callers catching the old failure mode keep working
        assert issubclass(UnsupportedCollectionError, RuntimeError)


class TestIncrementalProgramsStillCollect:
    def test_incremental_bfs_collection_unaffected(self):
        e = churn_engine(IncrementalBFS(), source=0)
        e.request_collection("bfs", at_time=e.loop.max_time() + 1.0)
        e.run()
        assert len(e.collection_results) == 1
        # the collected snapshot equals the quiescent live state
        assert e.collection_results[0].state == e.state("bfs")
