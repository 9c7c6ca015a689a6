"""Incremental (REMO) vertex programs — §IV of the paper.

One algebra row per family (:mod:`repro.algorithms.base`) — BFS (Alg.
4), SSSP (Alg. 5), CC (Alg. 6), Multi S-T connectivity (Alg. 7) and
widest path, a fifth REMO family — and two programs derived from each:
the add-only one (:class:`IncrementalBFS`, :class:`IncrementalSSSP`,
:class:`IncrementalCC`, :class:`MultiSTConnectivity`,
:class:`WidestPath`) and its delete-capable twin of §VI-B
(:mod:`repro.algorithms.generations`).  Beside them: the degree-tracking
example of §II-A (:class:`~repro.algorithms.degree.DegreeTracker`) and
the deterministic BFS tree (:class:`DeterministicBFS`).

``INF`` (2**62) is the shared "unreached" sentinel; 0 is the engine's
"vertex never touched" default, as in the paper's pseudocode.
"""

from repro.algorithms.base import (
    INF,
    IncrementalBFS,
    IncrementalCC,
    IncrementalSSSP,
    MultiSTConnectivity,
    WidestPath,
)
from repro.algorithms.bfs_parents import DeterministicBFS
from repro.algorithms.degree import DegreeTracker
from repro.algorithms.generations import (
    GenerationalBFS,
    GenerationalCC,
    GenerationalSSSP,
    GenerationalST,
    GenerationalWidest,
)

__all__ = [
    "INF",
    "IncrementalBFS",
    "DeterministicBFS",
    "IncrementalCC",
    "IncrementalSSSP",
    "MultiSTConnectivity",
    "WidestPath",
    "DegreeTracker",
    "GenerationalBFS",
    "GenerationalCC",
    "GenerationalSSSP",
    "GenerationalST",
    "GenerationalWidest",
]
