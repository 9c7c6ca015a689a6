"""Global-state collection bookkeeping (§III-D).

Two collection modes, per the paper:

* **quiescence** — pause ingestion, drain, read state.  The engine
  offers this trivially (run to quiescence, then read
  ``DynamicEngine.state``); no protocol object is needed.
* **versioned (continuous)** — the Chandy-Lamport-style variant: a CUT
  control message starts version *v+1* on every stream without pausing
  it; vertices touched by new-version events split into
  ``S_prev``/``S_new``; prev-version events apply to both; when
  four-counter detection proves all prev-version traffic drained, each
  rank harvests its ``S_prev`` view and ships it to the coordinator.

This module holds the coordinator- and rank-side state for the
versioned mode; the message choreography lives in the engine.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.comm.termination import TerminationCoordinator


@dataclass
class CollectionResult:
    """What a completed versioned collection returns.

    ``state`` maps vertex -> prev-version value (the discretized global
    algorithm state at the cut); timing fields are virtual seconds.
    """

    collection_id: int
    prog: int
    cut_version: int
    requested_at: float
    completed_at: float
    state: dict[int, Any]
    probe_waves: int
    vertices_collected: int

    @property
    def latency(self) -> float:
        """Request-to-collected latency — the Fig. 4 left-bar metric."""
        return self.completed_at - self.requested_at

    def to_dict(self, include_state: bool = False) -> dict[str, Any]:
        """JSON-safe summary; the (potentially huge) vertex state map is
        excluded unless asked for."""
        d = {
            "collection_id": self.collection_id,
            "prog": self.prog,
            "cut_version": self.cut_version,
            "requested_at": self.requested_at,
            "completed_at": self.completed_at,
            "latency": self.latency,
            "probe_waves": self.probe_waves,
            "vertices_collected": self.vertices_collected,
        }
        if include_state:
            d["state"] = dict(self.state)
        return d


@dataclass
class ActiveCollection:
    """Coordinator-side state of the one in-flight collection.

    The prototype, like the paper's ("our global state collection is a
    preliminary implementation"), supports one active collection at a
    time; the engine rejects overlapping requests.
    """

    collection_id: int
    prog: int
    cut_version: int  # events with version < cut_version are "prev"
    requested_at: float
    detector: TerminationCoordinator
    parts: dict[int, dict[int, Any]] = field(default_factory=dict)
    callback: Any = None  # called with CollectionResult when done

    def all_parts_in(self, n_ranks: int) -> bool:
        return len(self.parts) == n_ranks

    def merged_state(self) -> dict[int, Any]:
        merged: dict[int, Any] = {}
        for part in self.parts.values():
            merged.update(part)
        return merged
