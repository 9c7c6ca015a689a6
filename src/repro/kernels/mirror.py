"""The dense layer under both vectorized paths.

:class:`repro.runtime.bulk.BulkIngestor` (DES bulk replay) and
:class:`repro.parallel.vecapply.VecApplier` (mp rank drain) each hold
one :class:`DenseState` next to the engine's per-rank value dicts.  Its
parts live here, built so a batch costs what it brings, not what is
stored:

* :class:`Universe` — raw vertex ids in **arrival order**: a dense
  position is assigned once and never moves, so per-vertex arrays only
  grow at their end.  :meth:`Universe.resolve`, the one id → position
  call, is one gather from a direct table while the ids are small
  non-negative integers (:data:`TABLE_DENSITY`), and O(log V) per
  distinct id over a sorted view once one is not.
* :class:`EdgeRuns` — the directed edges in dense positions, sorted by
  ``key = tail << 32 | head``, in a large **base** run and a small
  **delta** run, each holding only ``keys`` and ``weights`` (a head is
  the low half of its key).  A batch is looked up in both (a stored
  pair has its weight overwritten in place — keep-last, the
  ``insert_edge`` rule — so the keys found in neither are exactly the
  per-event first inserts), fresh keys merge into the delta together
  with their insertion points into the base, and the delta folds into
  the base at those points, without a search, only when it has reached
  ``1 / FOLD_FRACTION`` of it: O(batch log E + delta) per batch, and
  all folds together rewrite a geometric series of base sizes (at most
  ``FOLD_FRACTION + 1`` times the final count).
  :meth:`EdgeRuns.gather` reads a frontier's out-edges through per-run
  CSR row pointers — a key-sorted run *is* in CSR order.
* :class:`DenseState` — one of each, plus per program the ``values`` /
  ``written`` / ``synced`` columns that shadow the dicts: the dict →
  dense fold, the seed-scatter-compare offer (what adopts is a batch's
  relaxation frontier) and the dense → dict write-back rule exist once,
  here.
"""

from __future__ import annotations

from collections.abc import Iterator

import numpy as np

_EMPTY_I64 = np.empty(0, dtype=np.int64)
_EMPTY_U64 = np.empty(0, dtype=np.uint64)
_SHIFT = np.uint64(32)
_LOW = np.uint64(0xFFFFFFFF)

#: The delta folds once ``FOLD_FRACTION * len(delta) >= len(base)`` — a
#: constant of the structure, not a knob; a batch that large (every
#: chunk of an early bulk replay) goes straight into the base.
FOLD_FRACTION = 4

#: A :class:`Universe` resolves ids by a direct table while each batch's
#: ids lie in ``[0, TABLE_DENSITY * (len(universe) + len(batch)) +
#: TABLE_SLACK)``, the table never longer than that bound; the first id
#: outside it switches the universe to a sorted index for good.
#: Constants of the structure, not knobs.
TABLE_DENSITY = 4
TABLE_SLACK = 1 << 16

#: Stream events per batch on both vectorized paths: the default of the
#: DES replay's ``BulkIngestPlugin(chunk=)`` and of an mp rank's
#: ``WireConfig.ingest_chunk``.  A batch pays a fixed cost (one id
#: resolution, one insert, one relaxation per program) that a larger one
#: spreads further; 16,384 ran ``ingest_mp`` no faster and held 5-8%
#: more memory.
BULK_CHUNK = 8192

#: Edges per gathered block.  Temporaries of one fixed size are handed
#: back and forth by the allocator and stay cache-resident; sized by the
#: frontier's degree sum they grow with the graph, and each one was a
#: fresh mapping to page-fault in.
GATHER_BLOCK = 1 << 15


def edge_keys(tails: np.ndarray, heads: np.ndarray) -> np.ndarray:
    """Sort keys of directed edges given in dense positions."""
    return (tails.astype(np.uint64) << _SHIFT) | heads.astype(np.uint64)


def _heads(keys: np.ndarray) -> np.ndarray:
    """The head positions of ``keys``, a fresh array masked in place."""
    keys &= _LOW
    return keys.view(np.int64)


def _find(sorted_keys: np.ndarray, keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(index, hit)`` of ``keys`` in ``sorted_keys``: ``index`` is the
    insertion point, the key's own slot where ``hit`` is set.  One
    ``np.searchsorted`` call, an empty ``sorted_keys`` included."""
    at = np.searchsorted(sorted_keys, keys)
    if not sorted_keys.size:
        return at, np.zeros(keys.shape, dtype=bool)
    return at, sorted_keys.take(at, mode="clip") == keys


def _group_starts(sorted_keys: np.ndarray) -> np.ndarray:
    """Mask of the first entry of each run of equal neighbours."""
    first = np.ones(sorted_keys.size, dtype=bool)
    np.not_equal(sorted_keys[1:], sorted_keys[:-1], out=first[1:])
    return first


def sorted_unique(a: np.ndarray) -> np.ndarray:
    """The distinct values of ``a``, ascending — the layer's one set
    primitive.  Sort + neighbour compare: numpy >= 2.3 sends a plain
    integer ``np.unique`` through a hash set that is several times
    slower on the mostly-distinct id and position columns of a chunk."""
    a = np.sort(a)
    return a[_group_starts(a)]


def last_of_each(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(distinct keys ascending, index of each one's last entry in
    keys)`` — keep-last de-duplication with one sort.  The sort need not
    be stable: the last entry of an equal-key group is the largest
    original index in it."""
    order = np.argsort(keys)
    keys = keys[order]
    starts = np.flatnonzero(_group_starts(keys))
    return keys[starts], np.maximum.reduceat(order, starts)


def _admit_check(start: int, n_fresh: int) -> None:
    if start + n_fresh >= (1 << 32):  # pragma: no cover - key encoding
        raise OverflowError("vertex universe exceeds 2^32 vertices")


class Universe:
    """Arrival-ordered, append-only vertex universe: ``ids[pos]`` is the
    raw id at dense position ``pos``.

    Ids reach positions through a direct table (``table[id]`` is the
    position, -1 for an id not admitted) while every id seen is a
    non-negative integer below :data:`TABLE_DENSITY` times the universe
    plus batch size, plus :data:`TABLE_SLACK`; the first id outside that
    bound switches the universe, once and for good, to a sorted index.
    Both give every id the same position.
    """

    def __init__(self) -> None:
        self.ids = _EMPTY_I64
        self._table: np.ndarray | None = _EMPTY_I64  # None: switched
        self._sorted = _EMPTY_I64  # ids, ascending (sorted index only)
        self._perm = _EMPTY_I64  # dense position of each sorted entry

    def __len__(self) -> int:
        return self.ids.size

    def resolve(self, vids: np.ndarray) -> np.ndarray:
        """The dense position of every entry of ``vids`` — the layer's
        one id → position call.  Ids not seen before are admitted at
        the end, ascending; existing positions never move."""
        vids = np.asarray(vids, dtype=np.int64)
        table = self._table
        if table is not None:
            top = int(vids.max(initial=-1))
            bound = TABLE_DENSITY * (self.ids.size + vids.size) + TABLE_SLACK
            if int(vids.min(initial=0)) >= 0 and top < bound:
                return self._gather(table, vids, top, bound)
            self._table = None  # once and for good
            self._perm = np.argsort(self.ids)  # ids are distinct
            self._sorted = self.ids[self._perm]
        return self._search(vids)

    def _gather(
        self, table: np.ndarray, vids: np.ndarray, top: int, bound: int
    ) -> np.ndarray:
        """Table path: one gather, and a sort of the misses only."""
        if top >= table.size:
            grown = np.full(min(bound, max(top + 1, 2 * table.size)), -1, np.int64)
            grown[: table.size] = table
            self._table = table = grown
        pos = table[vids]
        miss = pos < 0
        if miss.any():
            missing = vids[miss]
            fresh = sorted_unique(missing)
            start = self.ids.size
            _admit_check(start, fresh.size)
            table[fresh] = np.arange(start, start + fresh.size)
            self.ids = np.concatenate([self.ids, fresh])
            pos[miss] = table[missing]
        return pos

    def _search(self, vids: np.ndarray) -> np.ndarray:
        """Sorted-index path: the entries are sorted once and only the
        distinct ids are searched for; the search places the known ones
        and is the insertion point of the rest."""
        distinct, inverse = np.unique(vids, return_inverse=True)
        at, hit = _find(self._sorted, distinct)
        pos = self._perm.take(at, mode="clip") if self.ids.size else at
        if not hit.all():
            miss = ~hit
            fresh, at = distinct[miss], at[miss]
            start = self.ids.size
            _admit_check(start, fresh.size)
            pos[miss] = taken = np.arange(start, start + fresh.size)
            self._sorted = np.insert(self._sorted, at, fresh)
            self._perm = np.insert(self._perm, at, taken)
            self.ids = np.concatenate([self.ids, fresh])
        return pos[inverse]


class _Run:
    """One key-sorted run.  ``keys`` are never written after
    construction; ``weights`` are overwritten in place by re-adds.  A
    delta run also carries ``base_at``, each key's insertion point into
    the base: the base changes only at the fold that empties the delta,
    so the points stay valid for as long as the delta exists."""

    __slots__ = ("keys", "weights", "base_at", "_indptr")

    def __init__(self, keys=_EMPTY_U64, weights=_EMPTY_I64, base_at=None) -> None:
        self.keys, self.weights, self.base_at = keys, weights, base_at
        self._indptr: np.ndarray | None = None

    def __len__(self) -> int:
        return self.keys.size

    def tails(self) -> np.ndarray:
        return (self.keys >> _SHIFT).astype(np.int64)

    def merged(self, other: _Run, at: np.ndarray) -> _Run:
        """This run with ``other`` (disjoint keys) woven in at its
        insertion points ``at`` — the caller has searched already: one
        pass over each column (``base_at`` too, if this run has one)."""
        if not (self.keys.size and other.keys.size):
            return self if self.keys.size else other
        n = self.keys.size
        dest = at + np.arange(other.keys.size)
        # Entry i of this run moves up by the keys woven in before it.
        kept = np.bincount(at, minlength=n + 1)[:n]
        np.cumsum(kept, out=kept)
        kept += np.arange(n)

        def weave(mine: np.ndarray, theirs: np.ndarray) -> np.ndarray:
            out = np.empty(n + theirs.size, dtype=mine.dtype)
            out[dest] = theirs
            out[kept] = mine
            return out

        return _Run(
            weave(self.keys, other.keys),
            weave(self.weights, other.weights),
            None if self.base_at is None else weave(self.base_at, other.base_at),
        )

    def indptr(self, n_vertices: int) -> np.ndarray:
        """CSR row pointers over ``n_vertices`` rows: built when first
        asked for, padded when the universe has grown since (newcomers
        have no edges in this run)."""
        indptr = self._indptr
        if indptr is None:
            indptr = np.zeros(n_vertices + 1, dtype=np.int64)
            np.cumsum(np.bincount(self.tails(), minlength=n_vertices), out=indptr[1:])
        elif indptr.size <= n_vertices:
            pad = np.full(n_vertices + 1 - indptr.size, indptr[-1])
            indptr = np.concatenate([indptr, pad])
        self._indptr = indptr
        return indptr


class EdgeRuns:
    """Directed edge set in dense positions: a base and a delta run."""

    def __init__(self) -> None:
        self._runs = [_Run(), _Run()]  # base, delta: disjoint key sets
        self.folds = 0  # times the delta was folded into the base
        self.moved_edges = 0  # edge slots written into rebuilt runs

    @property
    def num_edges(self) -> int:
        return len(self._runs[0]) + len(self._runs[1])

    def insert(
        self, tails: np.ndarray, heads: np.ndarray, weights: np.ndarray
    ) -> np.ndarray:
        """Store a batch of directed edges.  Duplicates within the batch
        keep the last weight; a pair already stored has its weight
        overwritten.  Returns the tails of the pairs that were new (one
        per first insert)."""
        if tails.size == 0:
            return _EMPTY_I64
        keys, sel = last_of_each(edge_keys(tails, heads))
        weights = np.asarray(weights, dtype=np.int64)[sel]
        # One search per run: a hit is a re-add, a miss in both runs a
        # first insert whose insertion points into both runs are in hand.
        base, delta = self._runs
        fresh = np.ones(keys.size, dtype=bool)
        found = []
        for run in (base, delta):
            at, hit = _find(run.keys, keys)
            found.append(at)
            if hit.any():
                run.weights[at[hit]] = weights[hit]
                fresh &= ~hit
        base_at, at = found
        if not fresh.all():
            keys, weights = keys[fresh], weights[fresh]
            base_at, at = base_at[fresh], at[fresh]
        if keys.size:
            delta = delta.merged(_Run(keys, weights, base_at), at)
            if FOLD_FRACTION * len(delta) >= len(base):
                base = base.merged(delta, delta.base_at)
                base.base_at = None  # was the delta itself if the base was empty
                delta = _Run()
                self.folds += 1
            self.moved_edges += len(delta) or len(base)  # the run just rebuilt
            self._runs = [base, delta]
        return (keys >> _SHIFT).astype(np.int64)

    def edges(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(tails, heads, weights)`` of every stored edge."""
        base, delta = self._runs
        return (
            np.concatenate([base.tails(), delta.tails()]),
            _heads(np.concatenate([base.keys, delta.keys])),
            np.concatenate([base.weights, delta.weights]),
        )

    def gather(
        self, frontier: np.ndarray, n_vertices: int, *per_vertex: np.ndarray
    ) -> Iterator[tuple[np.ndarray, ...]]:
        """Ragged gather of the out-edges of ``frontier`` (dense
        positions below ``n_vertices``; no Python loop over vertices).

        Yields ``(heads, weights, *spread)`` per block of about
        ``GATHER_BLOCK`` edges of one run, ``spread[k]`` being
        ``per_vertex[k]`` (one entry per frontier vertex) repeated over
        each vertex's edges.
        """
        for run in self._runs:
            if not run.keys.size:
                continue
            indptr = run.indptr(n_vertices)
            starts = indptr[frontier]
            counts = indptr[frontier + 1] - starts
            ends = np.cumsum(counts)  # gather offset just past each vertex
            total = int(ends[-1]) if ends.size else 0
            # Gathered edge i of vertex v is slot starts[v] + i - first[v],
            # first[v] being the gather offset of v's first edge.
            starts -= ends - counts
            cuts = np.searchsorted(ends, np.arange(GATHER_BLOCK, total, GATHER_BLOCK))
            lo = done = 0
            for hi in (*(cuts + 1).tolist(), frontier.size):
                size = int(ends[hi - 1]) - done if hi > lo else 0
                if size:
                    c = counts[lo:hi]
                    idx = np.repeat(starts[lo:hi], c)
                    idx += np.arange(done, done + size)
                    spread = (np.repeat(x[lo:hi], c) for x in per_vertex)
                    yield _heads(run.keys[idx]), run.weights[idx], *spread
                    lo, done = hi, done + size


class DenseState:
    """The state a vectorized path keeps beside the engine's value dicts.

    Per universe position: its ``owner`` rank and, per program ``p``,
    ``values[p]`` (always *materialized* — never the dicts' 0 = unset
    sentinel), ``written[p]`` (would the per-event path hold a dict
    entry for it?) and ``synced[p]`` (the value that dict entry holds, 0
    for none); ``edges`` is the adjacency the values relax over.

    ``rank=None`` is the DES bulk replay: every vertex is local and
    written, ``local`` is ``None``.  A rank number is that mp rank's
    view — its own vertices plus the remote endpoints of its edges —
    where ``local`` marks the positions it owns and ``written`` follows
    the per-event first-touch rules (callers and
    :func:`~repro.kernels.frontier.relax_to_fixpoint` set it).  Nothing
    else differs between the two.

    Growth replaces the columns (positions are stable): :meth:`resolve`
    (or :meth:`fold`, which resolves its own ids) first, then capture
    arrays.
    """

    def __init__(self, kernels, owner_array, rank: int | None = None) -> None:
        self.kernels = kernels
        self.rank = rank
        self._owner_array = owner_array  # raw ids -> owner ranks
        self.universe = Universe()
        self.edges = EdgeRuns()
        self.owner = _EMPTY_I64
        self.local = None if rank is None else np.empty(0, dtype=bool)
        self.values = [np.empty(0, dtype=k.dtype) for k in kernels]
        self.written = [np.empty(0, dtype=bool) for _ in kernels]
        self.synced = [np.empty(0, dtype=k.dtype) for k in kernels]

    def resolve(self, raw: np.ndarray) -> np.ndarray:
        """The position of every entry of ``raw`` (a chunk's id columns,
        concatenated: the one id resolution a chunk pays for).  Every
        column grows at its end over the never-seen ids, values at the
        program's first-touch seed."""
        pos = self.universe.resolve(raw)
        fresh = self.universe.ids[self.owner.size :]
        if not fresh.size:
            return pos
        owner = self._owner_array(fresh)
        self.owner = np.concatenate([self.owner, owner])
        if self.local is not None:
            self.local = np.concatenate([self.local, owner == self.rank])
        seen = np.full(fresh.size, self.rank is None)
        for p, k in enumerate(self.kernels):
            self.values[p] = np.concatenate([self.values[p], k.init_values(fresh)])
            self.written[p] = np.concatenate([self.written[p], seen])
            self.synced[p] = np.concatenate(
                [self.synced[p], np.zeros(fresh.size, dtype=k.dtype)]
            )
        return pos

    def fold(self, p: int, raw: np.ndarray, vals: np.ndarray) -> np.ndarray:
        """Fold dict entries ``raw -> vals`` (0 = unset; never-seen ids
        admitted) into program ``p`` by its monotone merge; returns the
        positions whose dense value improved.  A worse dict value leaves
        the column alone and is simply behind (see :meth:`stale`)."""
        idx = self.resolve(raw)
        values = self.values[p]
        cur = values[idx]
        merged = self.kernels[p].merge_dense(cur, vals)
        values[idx] = merged
        self.written[p][idx] = True
        self.synced[p][idx] = vals
        return idx[merged != cur]

    def offer(self, p: int, idx: np.ndarray, candidates: np.ndarray) -> np.ndarray:
        """Deliver ``candidates`` at positions ``idx`` of program ``p``:
        delivery seeds the entry (``written``) whether or not it adopts;
        returns the positions that adopted (repeated if ``idx`` is)."""
        values = self.values[p]
        self.written[p][idx] = True
        old = values[idx]
        self.kernels[p].scatter(values, idx, candidates)
        return idx[values[idx] != old]

    def offer_edges(
        self, p: int, tails: np.ndarray, heads: np.ndarray, weights: np.ndarray
    ) -> tuple[np.ndarray, int]:
        """:meth:`offer` program ``p``'s relaxation of edges ``tails ->
        heads`` at their heads, from the tails' current values; a tail
        that cannot emit offers nothing.  Returns the positions that
        adopted and the number of rows offered."""
        kernel = self.kernels[p]
        vals = self.values[p][tails]
        mask = kernel.can_emit(vals)
        if mask is not None:
            vals, heads, weights = vals[mask], heads[mask], weights[mask]
        return self.offer(p, heads, kernel.relax(vals, weights)), heads.size

    def stale(self, p: int) -> np.ndarray:
        """Positions of program ``p`` whose dict entry is behind the
        dense value — the one write-back rule.  The caller writes them
        out; they count as synced from here on."""
        values, synced = self.values[p], self.synced[p]
        idx = np.nonzero(self.written[p] & (values != synced))[0]
        synced[idx] = values[idx]
        return idx
