"""Component labels — the first touch of Alg. 6's connected components.

"Each vertex primarily assumes it will dominate the component it is
attached to": a vertex seeds itself with a hash of its id, and the
larger label wins (Alg. 6's comparisons are the max-dominates mirror of
§II-B's minimum-label prose; we follow the algorithm).  Hashing the ids,
rather than comparing raw ids, removes insertion-order bias and lets the
label double as an unbiased component representative.  The CC row of
:mod:`repro.algorithms.base` takes both functions below.
"""

from __future__ import annotations

import numpy as np

from repro.util.hashing import stable_vertex_hash, stable_vertex_hash_array

# Labels must never be 0 (the engine's "unset" default); fold the zero
# hash (astronomically unlikely, but cheap to guard) up to 1.
_LABEL_SALT = 0xCC


def component_label(vertex_id: int) -> int:
    """The label a vertex seeds itself with (its salted hash, never 0)."""
    return stable_vertex_hash(vertex_id, _LABEL_SALT) or 1


def component_labels(ids: np.ndarray) -> np.ndarray:
    """:func:`component_label` of every entry of ``ids``, as uint64."""
    labels = stable_vertex_hash_array(np.asarray(ids, dtype=np.int64), _LABEL_SALT)
    return np.where(labels == 0, np.uint64(1), labels)
