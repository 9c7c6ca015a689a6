"""Ordered event streams and stream splitting.

A stream is the unit of ordering in the paper's model: within a stream,
events are totally ordered; across streams they are concurrent.  The
evaluation parallelises ingestion "into one stream per MPI rank" (§V-A),
which :func:`split_streams` reproduces: a pre-randomised edge list is
dealt across ``n`` streams, each preserving its own order.

Streams expose a pull interface (``pull() -> event | None``) because the
saturation methodology has each rank "pulling a topology event as soon as
local work is completed".
"""

from __future__ import annotations

from typing import Iterator, Sequence

import numpy as np

from repro.events.types import ADD, DELETE


class EventStream:
    """Abstract ordered stream of event tuples ``(kind, src, dst, weight)``."""

    stream_id: int

    def pull(self) -> tuple[int, int, int, int] | None:
        """Return the next event, or None when exhausted."""
        raise NotImplementedError

    def __iter__(self) -> Iterator[tuple[int, int, int, int]]:
        while (ev := self.pull()) is not None:
            yield ev

    def remaining(self) -> int:
        """Number of events not yet pulled (if known)."""
        raise NotImplementedError

    @property
    def exhausted(self) -> bool:
        return self.remaining() == 0

    @property
    def add_only(self) -> bool:
        """True iff the stream provably contains only ADD events — the
        precondition for the bulk-ingest fast path.  Subclasses that
        know their contents override this; the conservative default is
        False (bulk ineligible)."""
        return False

    def pull_chunk(
        self, max_events: int
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Pull up to ``max_events`` events as ``(src, dst, weight)``
        int64 columns (the bulk-ingest fast path).

        Only valid on :attr:`add_only` streams — the tuple carries no
        event kinds.  The base implementation loops :meth:`pull`;
        array-backed streams override with zero-copy slices.
        """
        srcs: list[int] = []
        dsts: list[int] = []
        ws: list[int] = []
        while len(srcs) < max_events:
            ev = self.pull()
            if ev is None:
                break
            kind, s, d, w = ev
            if kind != ADD:  # pragma: no cover - add_only violated
                raise ValueError("pull_chunk on a stream with non-ADD events")
            srcs.append(s)
            dsts.append(d)
            ws.append(w)
        return (
            np.asarray(srcs, dtype=np.int64),
            np.asarray(dsts, dtype=np.int64),
            np.asarray(ws, dtype=np.int64),
        )


class ArrayEventStream(EventStream):
    """A stream backed by parallel NumPy columns (the fast path).

    Columns are materialised once; ``pull`` is an index bump.  ``kinds``
    may be omitted for pure add-only streams.
    """

    def __init__(
        self,
        src: np.ndarray,
        dst: np.ndarray,
        weights: np.ndarray | None = None,
        kinds: np.ndarray | None = None,
        stream_id: int = 0,
    ):
        n = len(src)
        if len(dst) != n:
            raise ValueError("src/dst length mismatch")
        self._src = np.asarray(src, dtype=np.int64)
        self._dst = np.asarray(dst, dtype=np.int64)
        if weights is None:
            self._weights = np.ones(n, dtype=np.int64)
        else:
            if len(weights) != n:
                raise ValueError("weights length mismatch")
            self._weights = np.asarray(weights, dtype=np.int64)
        if kinds is None:
            self._kinds = None
        else:
            if len(kinds) != n:
                raise ValueError("kinds length mismatch")
            kinds = np.asarray(kinds, dtype=np.int64)
            bad = ~np.isin(kinds, (ADD, DELETE))
            if bad.any():
                raise ValueError(f"unknown event kinds at {np.nonzero(bad)[0][:5]}")
            self._kinds = kinds
        self._add_only = self._kinds is None or not bool(
            (self._kinds == DELETE).any()
        )
        self._cursor = 0
        self._n = n
        self.stream_id = stream_id

    def pull(self) -> tuple[int, int, int, int] | None:
        i = self._cursor
        if i >= self._n:
            return None
        self._cursor = i + 1
        kind = ADD if self._kinds is None else int(self._kinds[i])
        return (kind, int(self._src[i]), int(self._dst[i]), int(self._weights[i]))

    def remaining(self) -> int:
        return self._n - self._cursor

    @property
    def add_only(self) -> bool:
        return self._add_only

    def pull_chunk(
        self, max_events: int
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Zero-copy chunk pull: slice views over the backing columns.

        Only valid on :attr:`add_only` streams — the returned columns
        carry no event kinds, so slicing a delete-carrying stream here
        would silently reinterpret its DELETEs as ADDs.
        """
        if not self._add_only:
            raise ValueError(
                "pull_chunk on a stream with non-ADD events; "
                "delete-carrying streams must be pulled per-event"
            )
        i = self._cursor
        j = min(i + max_events, self._n)
        self._cursor = j
        return self._src[i:j], self._dst[i:j], self._weights[i:j]

    def __len__(self) -> int:
        return self._n

    def columns(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray | None]:
        """The backing ``(src, dst, weights, kinds)`` columns (kinds is
        None for pure-ADD streams) — picklable as-is, so a stream can be
        shipped to an mp worker and rebuilt with ``ArrayEventStream(*cols)``."""
        return (self._src, self._dst, self._weights, self._kinds)

    def reset(self) -> None:
        """Rewind to the beginning (streams are replayable for re-runs)."""
        self._cursor = 0

    @property
    def position(self) -> int:
        """Events pulled so far (checkpointable replay position)."""
        return self._cursor

    def seek(self, position: int) -> None:
        """Jump to an absolute replay position (crash recovery: resume
        ingestion at the suffix after the last checkpoint)."""
        if not 0 <= position <= self._n:
            raise ValueError(f"position {position} out of range [0, {self._n}]")
        self._cursor = int(position)


class ListEventStream(EventStream):
    """A stream over an explicit list of event tuples (tests, examples)."""

    def __init__(self, events: Sequence[tuple[int, int, int, int]], stream_id: int = 0):
        self._events = [tuple(int(x) for x in ev) for ev in events]
        for ev in self._events:
            if len(ev) != 4:
                raise ValueError(f"event must be (kind, src, dst, weight), got {ev!r}")
            if ev[0] not in (ADD, DELETE):
                raise ValueError(f"unknown event kind in {ev!r}")
        self._add_only = all(ev[0] == ADD for ev in self._events)
        self._cursor = 0
        self.stream_id = stream_id

    def pull(self) -> tuple[int, int, int, int] | None:
        if self._cursor >= len(self._events):
            return None
        ev = self._events[self._cursor]
        self._cursor += 1
        return ev  # type: ignore[return-value]

    def remaining(self) -> int:
        return len(self._events) - self._cursor

    @property
    def add_only(self) -> bool:
        return self._add_only

    def __len__(self) -> int:
        return len(self._events)

    def reset(self) -> None:
        self._cursor = 0

    @property
    def position(self) -> int:
        """Events pulled so far (checkpointable replay position)."""
        return self._cursor

    def seek(self, position: int) -> None:
        """Jump to an absolute replay position (crash recovery)."""
        if not 0 <= position <= len(self._events):
            raise ValueError(
                f"position {position} out of range [0, {len(self._events)}]"
            )
        self._cursor = int(position)


def split_round_robin(n_events: int, n_streams: int) -> list[np.ndarray]:
    """Index sets dealing ``n_events`` across ``n_streams`` round-robin."""
    if n_streams <= 0:
        raise ValueError(f"n_streams must be > 0, got {n_streams}")
    return [np.arange(k, n_events, n_streams) for k in range(n_streams)]


def split_streams(
    src: np.ndarray,
    dst: np.ndarray,
    n_streams: int,
    weights: np.ndarray | None = None,
    kinds: np.ndarray | None = None,
    rng: np.random.Generator | None = None,
) -> list[ArrayEventStream]:
    """Split one edge list into ``n_streams`` ordered streams.

    If ``rng`` is given the edge list is globally shuffled first (the
    paper pre-randomises edges before ingestion, §V-A); the shuffled list
    is then dealt round-robin so stream lengths differ by at most one.
    """
    src = np.asarray(src, dtype=np.int64)
    dst = np.asarray(dst, dtype=np.int64)
    n = len(src)
    if weights is None:
        weights = np.ones(n, dtype=np.int64)
    if rng is not None:
        perm = rng.permutation(n)
        src, dst, weights = src[perm], dst[perm], np.asarray(weights)[perm]
        if kinds is not None:
            kinds = np.asarray(kinds)[perm]
    out = []
    for sid, idx in enumerate(split_round_robin(n, n_streams)):
        out.append(
            ArrayEventStream(
                src[idx],
                dst[idx],
                np.asarray(weights)[idx],
                None if kinds is None else np.asarray(kinds)[idx],
                stream_id=sid,
            )
        )
    return out
