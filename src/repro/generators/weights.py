"""Edge-weight assignment for SSSP workloads.

The paper's SSSP (Alg. 5) uses integer edge weights whose updates are
"limited only to reducing edge weight" to preserve monotonicity.  Weights
here are positive int64 values, one per endpoint pair
(:func:`pairwise_weights`); :func:`decreasing_reweights` produces a
stream of weight-*decrease* attribute updates for the SSSP-update tests.
"""

from __future__ import annotations

import numpy as np

from repro.util.validate import check_positive


def pairwise_weights(
    src: np.ndarray,
    dst: np.ndarray,
    lo: int = 1,
    hi: int = 100,
    salt: int = 0,
) -> np.ndarray:
    """Deterministic weight per (src, dst) pair: duplicates of an edge in
    a stream carry the *same* weight.

    SSSP's monotonicity (§II-B) requires that re-observing an edge never
    raises its weight; hashing the endpoint pair guarantees that while
    keeping weights uniform-ish in ``[lo, hi]``.  Note the weight is
    direction-sensitive only through the hash being symmetrised (so the
    undirected reverse edge also matches).
    """
    check_positive("lo", lo)
    if hi < lo:
        raise ValueError(f"hi ({hi}) must be >= lo ({lo})")
    src = np.asarray(src, dtype=np.int64)
    dst = np.asarray(dst, dtype=np.int64)
    if src.shape != dst.shape:
        raise ValueError("src/dst length mismatch")
    # Symmetric pair key so (a,b) and (b,a) agree.
    lo_end = np.minimum(src, dst).astype(np.uint64)
    hi_end = np.maximum(src, dst).astype(np.uint64)
    from repro.util.hashing import mix64_array

    with np.errstate(over="ignore"):
        key = mix64_array(lo_end * np.uint64(0x9E3779B97F4A7C15) ^ hi_end)
        key = mix64_array(key ^ np.uint64(salt))
    span = np.uint64(hi - lo + 1)
    return (np.int64(lo) + (key % span).astype(np.int64)).astype(np.int64)


def decreasing_reweights(
    weights: np.ndarray,
    fraction: float,
    rng: np.random.Generator | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Pick a fraction of edges and draw strictly smaller weights for them.

    Returns ``(indices, new_weights)`` where ``new_weights[i]`` is drawn
    uniformly from ``[1, weights[indices[i]] - 1]``; edges of weight 1
    are never selected (they cannot decrease further).
    """
    if not 0.0 <= fraction <= 1.0:
        raise ValueError(f"fraction must be in [0, 1], got {fraction}")
    if rng is None:
        rng = np.random.default_rng()
    weights = np.asarray(weights, dtype=np.int64)
    eligible = np.nonzero(weights > 1)[0]
    k = int(round(fraction * len(eligible)))
    if k == 0:
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
    chosen = rng.choice(eligible, size=k, replace=False)
    new = np.array([rng.integers(1, w) for w in weights[chosen]], dtype=np.int64)
    return chosen, new
