"""The event-centric dynamic graph runtime (the paper's middleware).

This package is the reproduction of §II-III: the visitor-based
programming model (Alg. 3), the engine that routes topology events and
algorithmic events over the simulated cluster, local-state "When"
queries (§III-E), and global-state collection — both quiescence-based
and the continuous Chandy-Lamport-style versioned variant (§III-D).
"""

from repro.runtime.program import VertexContext, VertexProgram
from repro.runtime.engine import (
    DynamicEngine,
    EngineConfig,
    UnsupportedCollectionError,
)
from repro.runtime.lifecycle import EngineBuilder
from repro.runtime.plugins import (
    BulkIngestPlugin,
    EnginePlugin,
    FaultInjectionPlugin,
    FreshnessPlugin,
    MetricsPlugin,
    TracerPlugin,
)
from repro.runtime.queries import Trigger, TriggerManager
from repro.runtime.reference import ReferenceEngine
from repro.runtime.snapshot import CollectionResult

__all__ = [
    "VertexContext",
    "VertexProgram",
    "DynamicEngine",
    "UnsupportedCollectionError",
    "EngineConfig",
    "EngineBuilder",
    "EnginePlugin",
    "TracerPlugin",
    "MetricsPlugin",
    "FreshnessPlugin",
    "BulkIngestPlugin",
    "FaultInjectionPlugin",
    "Trigger",
    "ReferenceEngine",
    "TriggerManager",
    "CollectionResult",
]
