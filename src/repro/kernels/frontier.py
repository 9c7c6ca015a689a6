"""Array frontier kernels: vectorized REMO propagation to a fixpoint.

The per-event engine reaches the monotone fixpoint by recursive visitor
events (Alg. 3); these kernels reach the *same* fixpoint by repeated
whole-frontier relaxation over the key-sorted edge runs of
:mod:`repro.kernels.mirror`:

* gather the frontier vertices' out-edges (ragged gather, no Python
  loop over vertices),
* compute candidate values (``tail_value + weight`` for min-plus,
  the tail's label for max-label),
* scatter-reduce into the dense value array (``np.minimum.at`` /
  ``np.maximum.at``),
* the heads whose value changed form the next frontier.

Because REMO state is monotone and the relaxation operator matches the
program's ``on_update`` comparison exactly, the fixpoint is independent
of event interleaving — the kernel result is bitwise-equal to what the
per-event path converges to over the same topology (the §II-B
convergence argument, vectorized).

The loop starts from values already at the fixpoint over the edges
stored before a batch, so a batch's frontier is what its own records
changed: both callers first ``DenseState.offer`` the batch's
relaxations (a bulk chunk's rows; an mp drain's REVERSE_ADD and UPDATE
records) and relax from the positions that adopted (plus, on the DES,
those a dict fold improved) — not from every endpoint the batch
touched, whose stored out-edges grow with the graph, not with the batch.
"""

from __future__ import annotations

import numpy as np

from repro.algorithms.base import INF
from repro.kernels.mirror import EdgeRuns, sorted_unique
from repro.util.hashing import stable_vertex_hash_array

_CC_LABEL_SALT = 0xCC  # must match repro.algorithms.cc._LABEL_SALT


class FrontierKernel:
    """One program's vectorized relaxation strategy.

    Values live in a dense per-vertex array of ``dtype``; vertex ids are
    dense indices assigned by the bulk controller.  ``0`` never appears
    in the dense array — the engine's "unset" sentinel is materialised
    eagerly by :meth:`init_values` (INF for min kernels, the hash label
    for CC), exactly as the per-event callbacks do on first touch.
    """

    dtype: np.dtype = np.dtype(np.int64)

    def init_values(self, ids: np.ndarray) -> np.ndarray:
        """Initial dense values for newly seen vertex ``ids``."""
        raise NotImplementedError

    def relax(self, tail_values: np.ndarray, weights: np.ndarray) -> np.ndarray:
        """Candidate values offered along edges with the given tails."""
        raise NotImplementedError

    def scatter(self, values: np.ndarray, heads: np.ndarray, candidates: np.ndarray) -> None:
        """Reduce candidates into ``values`` at ``heads`` (in place)."""
        raise NotImplementedError

    def can_emit(self, tail_values: np.ndarray) -> np.ndarray | None:
        """Mask of frontier entries that can improve a neighbour
        (None = all of them)."""
        return None

    def merge_dense(self, dense: np.ndarray, incoming: np.ndarray) -> np.ndarray:
        """Monotone combine of dense values with values read back from
        the per-event dicts (0 in ``incoming`` means unset)."""
        raise NotImplementedError

    def materialize(self, values: np.ndarray, ids: np.ndarray) -> np.ndarray:
        """Resolve the engine's 0 = "unset" sentinel to the value the
        per-event callbacks would seed vertex ``ids`` with on first
        touch (INF for min-plus, the salted hash label for CC)."""
        raise NotImplementedError

    def improves(self, candidate: np.ndarray, current: np.ndarray) -> np.ndarray:
        """Strict-improvement mask: would adopting ``candidate`` change
        ``current``?  Matches the program's ``on_update`` comparison
        (both sides already materialized)."""
        raise NotImplementedError


class MinPlusKernel(FrontierKernel):
    """BFS / SSSP: min-converging path costs, identity ``INF``.

    ``unit_weight=True`` relaxes ``tail + 1`` (BFS levels); otherwise
    ``tail + weight`` (SSSP costs).  Matches Alg. 4/5's
    ``value > vis_val + weight`` adoption rule.
    """

    dtype = np.dtype(np.int64)

    def __init__(self, unit_weight: bool = False):
        self.unit_weight = bool(unit_weight)

    def init_values(self, ids: np.ndarray) -> np.ndarray:
        return np.full(len(ids), INF, dtype=np.int64)

    def relax(self, tail_values: np.ndarray, weights: np.ndarray) -> np.ndarray:
        if self.unit_weight:
            return tail_values + 1
        return tail_values + weights

    def scatter(self, values: np.ndarray, heads: np.ndarray, candidates: np.ndarray) -> None:
        np.minimum.at(values, heads, candidates)

    def can_emit(self, tail_values: np.ndarray) -> np.ndarray | None:
        return tail_values < INF

    def merge_dense(self, dense: np.ndarray, incoming: np.ndarray) -> np.ndarray:
        inc = np.where(incoming == 0, INF, incoming)
        return np.minimum(dense, inc)

    def materialize(self, values: np.ndarray, ids: np.ndarray) -> np.ndarray:
        return np.where(values == 0, INF, values)

    def improves(self, candidate: np.ndarray, current: np.ndarray) -> np.ndarray:
        return candidate < current


class MaxLabelKernel(FrontierKernel):
    """CC: max-converging salted hash labels (Alg. 6, vectorized).

    Labels are uint64 (the full :func:`stable_vertex_hash` range); the
    zero hash folds to 1, matching ``component_label``.
    """

    dtype = np.dtype(np.uint64)

    def init_values(self, ids: np.ndarray) -> np.ndarray:
        labels = stable_vertex_hash_array(np.asarray(ids, dtype=np.int64), _CC_LABEL_SALT)
        return np.where(labels == 0, np.uint64(1), labels)

    def relax(self, tail_values: np.ndarray, weights: np.ndarray) -> np.ndarray:
        return tail_values

    def scatter(self, values: np.ndarray, heads: np.ndarray, candidates: np.ndarray) -> None:
        np.maximum.at(values, heads, candidates)

    def merge_dense(self, dense: np.ndarray, incoming: np.ndarray) -> np.ndarray:
        return np.maximum(dense, incoming)

    def materialize(self, values: np.ndarray, ids: np.ndarray) -> np.ndarray:
        if not (values == 0).any():
            return values
        return np.where(values == 0, self.init_values(ids), values)

    def improves(self, candidate: np.ndarray, current: np.ndarray) -> np.ndarray:
        return candidate > current


# ----------------------------------------------------------------------
# relaxation over the mirror's edge runs
# ----------------------------------------------------------------------
def build_csr(
    n_vertices: int,
    tails: np.ndarray,
    heads: np.ndarray,
    weights: np.ndarray,
) -> EdgeRuns:
    """An :class:`EdgeRuns` adjacency holding the given directed edges.

    ``tails``/``heads`` are dense vertex indices in ``[0, n_vertices)``;
    duplicate pairs keep the last weight.
    """
    tails = np.asarray(tails, dtype=np.int64)
    heads = np.asarray(heads, dtype=np.int64)
    if tails.size and max(int(tails.max()), int(heads.max())) >= n_vertices:
        raise ValueError(f"edge endpoint outside [0, {n_vertices})")
    adj = EdgeRuns()
    adj.insert(tails, heads, weights)
    return adj


def relax_to_fixpoint(
    adj: EdgeRuns,
    values: np.ndarray,
    frontier: np.ndarray,
    kernel: FrontierKernel,
    local: np.ndarray | None = None,
    written: np.ndarray | None = None,
    remote: list | None = None,
) -> tuple[int, int]:
    """Relax ``frontier`` over ``adj`` until no value changes — the
    repository's one frontier loop.

    ``values`` (one entry per universe vertex) is mutated in place.
    Returns ``(rounds, relaxations)`` for cost accounting: ``rounds``
    counts the iterations that relaxed at least one edge,
    ``relaxations`` the edges relaxed — the bulk analogue of per-event
    UPDATE visits.

    With ``local`` (bool per position: an mp rank's own vertices) only
    local heads are scattered — and marked in ``written``, delivery
    seeds the neighbour — while each block's non-local heads are
    appended to ``remote`` as ``(heads, tails, tail values, weights,
    candidates)`` for the caller to send to their owners.
    """
    frontier = sorted_unique(np.asarray(frontier, dtype=np.int64))
    rounds = 0
    relaxations = 0
    while frontier.size:
        # Tail values are read once per round, before any scatter, so
        # the rounds (and their relaxation counts) do not depend on how
        # the gather splits the edges into runs and blocks.
        vals_f = values[frontier]
        mask = kernel.can_emit(vals_f)
        if mask is not None:
            frontier = frontier[mask]
            vals_f = vals_f[mask]
        # Tails are spread over the edges only for a caller that sends.
        spread = (vals_f,) if local is None else (vals_f, frontier)
        changed = []
        for e_heads, e_weights, tail_vals, *tails in adj.gather(
            frontier, values.size, *spread
        ):
            relaxations += e_heads.size
            candidates = kernel.relax(tail_vals, e_weights)
            if local is not None:
                here = local[e_heads]
                away = ~here
                if away.any():
                    block = (e_heads, tails[0], tail_vals, e_weights, candidates)
                    remote.append(tuple(col[away] for col in block))
                e_heads, candidates = e_heads[here], candidates[here]
                written[e_heads] = True
            old = values[e_heads]
            kernel.scatter(values, e_heads, candidates)
            changed.append(e_heads[values[e_heads] != old])
        if not changed:
            break
        rounds += 1
        frontier = sorted_unique(np.concatenate(changed))
    return rounds, relaxations
