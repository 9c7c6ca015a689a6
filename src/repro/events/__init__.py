"""Topology-event model and event streams.

The paper's middleware ingests graph changes as *events* flowing over one
or more ordered streams (§II-A, Fig. 1): "Events in the same stream are
ordered while events across streams do not have a relative order."

Hot-path events are plain tuples ``(kind, src, dst, weight)`` (see
:mod:`repro.events.types`) so the simulator does not pay Python object
overhead per edge; the classes here manage batching, ordering, and
splitting an edge list into per-rank streams.
"""

from repro.events.types import (
    ADD,
    DELETE,
    EdgeEvent,
    kind_name,
)
from repro.events.stream import (
    ArrayEventStream,
    EventStream,
    ListEventStream,
    split_round_robin,
    split_streams,
)
from repro.events.io import (
    read_edge_npz,
    read_edge_text,
    write_edge_npz,
    write_edge_text,
)

__all__ = [
    "ADD",
    "DELETE",
    "EdgeEvent",
    "kind_name",
    "ArrayEventStream",
    "EventStream",
    "ListEventStream",
    "split_round_robin",
    "split_streams",
    "read_edge_npz",
    "read_edge_text",
    "write_edge_npz",
    "write_edge_text",
]
