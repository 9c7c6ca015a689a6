"""Workload characterisation: degree and structure statistics.

§III's challenges are all structural ("highly heterogeneous node degree
distribution", "power-law", "scale-free"), and §V-D attributes the
per-dataset performance differences to "the resulting structure and
topology".  This module quantifies that structure so benches and users
can relate event rates to the workload's shape:

* degree distribution summary (mean/median/max, skew ratio, Gini);
* an approximate power-law tail exponent (rank-size regression).

Connected components have one implementation,
:func:`repro.staticalgs.algorithms.static_cc`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class DegreeStats:
    """Summary of an (undirected) degree distribution."""

    n_vertices: int
    n_edges: int
    mean: float
    median: float
    max: int
    skew: float  # max / mean — the hub dominance the engine feels
    gini: float  # 0 = perfectly even, -> 1 = one hub owns everything
    tail_exponent: float | None  # approximate power-law alpha, if fit

    def describe(self) -> str:
        alpha = f"{self.tail_exponent:.2f}" if self.tail_exponent else "n/a"
        return (
            f"V={self.n_vertices:,} E={self.n_edges:,} "
            f"deg mean={self.mean:.1f} median={self.median:.0f} max={self.max} "
            f"(skew {self.skew:.0f}x, gini {self.gini:.2f}, alpha~{alpha})"
        )


def degree_stats(src: np.ndarray, dst: np.ndarray) -> DegreeStats:
    """Compute :class:`DegreeStats` from an edge list (undirected view)."""
    src = np.asarray(src, dtype=np.int64)
    dst = np.asarray(dst, dtype=np.int64)
    if len(src) == 0:
        return DegreeStats(0, 0, 0.0, 0.0, 0, 0.0, 0.0, None)
    endpoints = np.concatenate([src, dst])
    _ids, degs = np.unique(endpoints, return_counts=True)
    degs = degs.astype(np.float64)
    mean = float(degs.mean())
    # Gini via the sorted-cumulative formulation.
    sorted_degs = np.sort(degs)
    n = len(sorted_degs)
    cum = np.cumsum(sorted_degs)
    gini = float((n + 1 - 2 * (cum / cum[-1]).sum()) / n)
    return DegreeStats(
        n_vertices=n,
        n_edges=len(src),
        mean=mean,
        median=float(np.median(degs)),
        max=int(degs.max()),
        skew=float(degs.max() / mean) if mean > 0 else 0.0,
        gini=gini,
        tail_exponent=_tail_exponent(degs),
    )


def _tail_exponent(degs: np.ndarray, top_fraction: float = 0.1) -> float | None:
    """Approximate power-law exponent from a rank-size log-log fit.

    Crude but serviceable for characterisation (not a statistical
    claim): fits ``log(degree) ~ -1/(alpha-1) * log(rank)`` over the top
    ``top_fraction`` of vertices.  Returns None when there is too little
    tail to fit.
    """
    tail = np.sort(degs)[::-1]
    k = max(int(len(tail) * top_fraction), 10)
    tail = tail[: min(k, len(tail))]
    tail = tail[tail > 0]
    if len(tail) < 10 or tail[0] == tail[-1]:
        return None
    ranks = np.arange(1, len(tail) + 1, dtype=np.float64)
    slope, _intercept = np.polyfit(np.log(ranks), np.log(tail), 1)
    if slope >= 0:
        return None
    return float(1.0 - 1.0 / slope)
