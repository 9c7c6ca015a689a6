"""Merging multiple ordered streams into one interleaved feed.

Across streams the paper defines *no* relative order — any interleaving
is a legal execution.  The multiplexer makes that nondeterminism explicit
and controllable: round-robin interleaving for determinism, or seeded
random interleaving to exercise different legal orders (the property
tests use this to check that REMO algorithms converge to the same answer
under every interleaving).
"""

from __future__ import annotations

import numpy as np

from repro.events.stream import EventStream


class StreamMultiplexer(EventStream):
    """Interleaves several streams while preserving each stream's order.

    Parameters
    ----------
    streams:
        The ordered input streams.
    policy:
        ``"round_robin"`` (default) cycles exhausted-aware through the
        streams; ``"random"`` picks the next stream uniformly (weighted
        by remaining length so long streams do not starve), seeded by
        ``rng``.
    """

    def __init__(
        self,
        streams: list[EventStream],
        policy: str = "round_robin",
        rng: np.random.Generator | None = None,
    ):
        if not streams:
            raise ValueError("need at least one stream")
        if policy not in ("round_robin", "random"):
            raise ValueError(f"unknown policy {policy!r}")
        if policy == "random" and rng is None:
            raise ValueError("policy='random' requires an rng")
        self._streams = list(streams)
        self._policy = policy
        self._rng = rng
        self._next = 0
        self.stream_id = -1  # a multiplexer is not itself an ordered stream

    def pull(self) -> tuple[int, int, int, int] | None:
        live = [s for s in self._streams if not s.exhausted]
        if not live:
            return None
        if self._policy == "random":
            weights = np.array([s.remaining() for s in live], dtype=np.float64)
            total = weights.sum()
            if total > 0.0:
                pick = live[int(self._rng.choice(len(live), p=weights / total))]
            else:
                # Live streams may legitimately report remaining() == 0
                # (unknown-length sources); a zero sum would turn the
                # probabilities into NaN and crash rng.choice — fall
                # back to a uniform choice instead.
                pick = live[int(self._rng.integers(len(live)))]
            return pick.pull()
        # round robin: advance the cursor until we find a live stream
        n = len(self._streams)
        for _ in range(n):
            s = self._streams[self._next % n]
            self._next += 1
            if not s.exhausted:
                return s.pull()
        return None  # pragma: no cover - unreachable given `live` above

    def remaining(self) -> int:
        return sum(s.remaining() for s in self._streams)
