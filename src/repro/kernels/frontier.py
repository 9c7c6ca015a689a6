"""Array frontier kernels: vectorized REMO propagation to a fixpoint.

§II-B makes every REMO algorithm a monotone merge; a family's array
algebra is one :class:`FrontierKernel` row, declared on the program
class beside the per-event ``on_update`` it mirrors.  The per-event
engine reaches the fixpoint by recursive visitor events (Alg. 3);
:func:`relax_to_fixpoint` reaches the *same* fixpoint by repeated
whole-frontier relaxation over the key-sorted edge runs of
:mod:`repro.kernels.mirror`:

* gather the frontier vertices' out-edges (ragged gather, no Python
  loop over vertices),
* compute candidate values with the row's ``extend``,
* scatter-reduce them into the dense value array (``reduce.at``),
* the heads whose value changed form the next frontier.

Because REMO state is monotone and the relaxation operator matches the
program's ``on_update`` comparison exactly, the fixpoint is independent
of event interleaving — the kernel result is bitwise-equal to what the
per-event path converges to over the same topology (the §II-B
convergence argument, vectorized).

The loop starts from values already at the fixpoint over the edges
stored before a batch, so a batch's frontier is what its own records
changed: both callers first ``DenseState.offer`` the batch's
relaxations (a bulk chunk's rows; an mp drain's local ADD rows, both
directions, and its REVERSE_ADD and UPDATE records) and relax from the
positions that adopted (plus, on the DES,
those a dict fold improved) — not from every endpoint the batch
touched, whose stored out-edges grow with the graph, not with the batch.
"""

from __future__ import annotations

import numpy as np

from repro.kernels.mirror import EdgeRuns, sorted_unique


class FrontierKernel:
    """One family's algebra over dense value arrays of ``dtype``.

    A row is ``reduce`` (the monotone merge: ``np.minimum`` or
    ``np.maximum``), its ``identity`` (the value ``reduce`` never
    improves on: INF for costs, 0 for labels), ``extend(tail_values,
    weights)`` (what a value is worth across an edge) and ``seed(ids)``
    (the first-touch values; ``None`` = the identity).  Every operation
    below is derived from those.  ``0`` never appears in a dense array:
    the engine's "unset" sentinel is materialised eagerly by
    :meth:`init_values`, as the per-event callbacks do on first touch.
    """

    def __init__(self, dtype, reduce, identity, extend, seed=None) -> None:
        self.dtype = np.dtype(dtype)
        self.reduce = reduce
        self.identity = self.dtype.type(identity)
        self.seed = seed
        self.relax = extend  # candidates offered along edges
        self.scatter = reduce.at  # (values, heads, candidates), in place

    def init_values(self, ids: np.ndarray) -> np.ndarray:
        """First-touch values of vertex ``ids``."""
        if self.seed is None:
            return np.full(len(ids), self.identity, dtype=self.dtype)
        return self.seed(ids)

    def can_emit(self, tail_values: np.ndarray) -> np.ndarray | None:
        """Mask of the tails that can improve a neighbour; ``None`` when
        all can (an all-true mask would copy every row it selects)."""
        mask = tail_values != self.identity
        return None if mask.all() else mask

    def improves(self, candidate: np.ndarray, current: np.ndarray) -> np.ndarray:
        """Would adopting ``candidate`` change ``current``?"""
        return self.reduce(candidate, current) != current

    def merge_dense(self, dense: np.ndarray, incoming: np.ndarray) -> np.ndarray:
        """Merge values read back from the dicts (0 = unset) into ``dense``."""
        return self.reduce(dense, np.where(incoming == 0, self.identity, incoming))

    def materialize(self, values: np.ndarray, ids: np.ndarray) -> np.ndarray:
        """``values`` with each 0 = "unset" replaced by its vertex's seed."""
        unset = values == 0
        if not unset.any():
            return values
        return np.where(unset, self.init_values(ids), values)


def kernel_eligible(programs) -> bool:
    """Both vectorized paths' program-side rule: every program has a
    ``bulk_kernel`` and no neighbour cache (vacuously true for none)."""
    return all(p.bulk_kernel is not None and not p.needs_nbr_cache for p in programs)


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
