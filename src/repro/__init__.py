"""repro — Incremental Graph Processing for On-Line Analytics.

A from-scratch Python reproduction of Sallinen, Pearce & Ripeanu,
*Incremental Graph Processing for On-Line Analytics* (IPDPS 2019):
an event-centric framework in which REMO (recursive-update,
monotonic-convergence) algorithms maintain live, queryable answers —
BFS levels, shortest-path costs, component labels, multi-source
connectivity — while the graph evolves one edge event at a time,
processed asynchronously and without shared state across a (simulated)
shared-nothing cluster.

Quickstart::

    import numpy as np
    from repro import (
        DynamicEngine, EngineConfig, IncrementalBFS, split_streams,
    )

    src = np.array([0, 1, 2, 3]); dst = np.array([1, 2, 3, 4])
    bfs = IncrementalBFS()
    engine = DynamicEngine([bfs], EngineConfig(n_ranks=4))
    engine.init_program("bfs", 0)
    engine.attach_streams(split_streams(src, dst, 4))
    engine.run()
    engine.value_of("bfs", 4)   # -> 5 (source is level 1)

See DESIGN.md for the system inventory and EXPERIMENTS.md for the
paper-figure reproductions.
"""

from repro.algorithms import (
    INF,
    DegreeTracker,
    DeterministicBFS,
    GenerationalBFS,
    GenerationalCC,
    GenerationalSSSP,
    GenerationalST,
    GenerationalWidest,
    IncrementalBFS,
    IncrementalCC,
    IncrementalSSSP,
    MultiSTConnectivity,
    WidestPath,
)
from repro.analytics import throughput_report
from repro.batching import SnapshotPipeline
from repro.comm import CostModel
from repro.events import (
    ADD,
    DELETE,
    ArrayEventStream,
    EdgeEvent,
    ListEventStream,
    split_streams,
)
from repro.faults import (
    FaultPlan,
    FaultRunResult,
    FaultTolerantRunner,
    RankCrash,
    RankStall,
)
from repro.generators import (
    barabasi_albert_edges,
    erdos_renyi_edges,
    generate_preset,
    rmat_edges,
)
from repro.partition import ConsistentHashPartitioner
from repro.runtime import (
    CollectionResult,
    DynamicEngine,
    EngineConfig,
    ReferenceEngine,
    UnsupportedCollectionError,
    VertexContext,
    VertexProgram,
)
from repro.runtime.program import CallbackProgram
from repro.serving import (
    MixedWorkloadDriver,
    QueryResult,
    ServingLayer,
    StableValueCache,
    WorkloadSpec,
)
from repro.storage import CSRGraph, DegAwareRHH, RobinHoodMap

__version__ = "1.0.0"

__all__ = [
    "INF",
    "DegreeTracker",
    "DeterministicBFS",
    "GenerationalBFS",
    "GenerationalCC",
    "GenerationalSSSP",
    "GenerationalST",
    "GenerationalWidest",
    "IncrementalBFS",
    "IncrementalCC",
    "IncrementalSSSP",
    "MultiSTConnectivity",
    "WidestPath",
    "throughput_report",
    "SnapshotPipeline",
    "CostModel",
    "ADD",
    "DELETE",
    "ArrayEventStream",
    "EdgeEvent",
    "ListEventStream",
    "split_streams",
    "FaultPlan",
    "FaultRunResult",
    "FaultTolerantRunner",
    "RankCrash",
    "RankStall",
    "barabasi_albert_edges",
    "erdos_renyi_edges",
    "generate_preset",
    "rmat_edges",
    "ConsistentHashPartitioner",
    "CollectionResult",
    "DynamicEngine",
    "EngineConfig",
    "UnsupportedCollectionError",
    "ReferenceEngine",
    "VertexContext",
    "VertexProgram",
    "CallbackProgram",
    "MixedWorkloadDriver",
    "QueryResult",
    "ServingLayer",
    "StableValueCache",
    "WorkloadSpec",
    "CSRGraph",
    "DegAwareRHH",
    "RobinHoodMap",
    "__version__",
]
