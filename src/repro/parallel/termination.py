"""Distributed termination for the process-parallel backend.

The DES backend proves quiescence with the four-counter method driven
by coordinator *broadcast* waves (:mod:`repro.comm.termination`) —
cheap there, because virtual-time alarms make a broadcast free.  On
real processes a broadcast wave costs ``2(n-1)`` wakeups per round, so
the mp backend runs the same four-counter rule over an **async token
ring**: rank 0 originates a token carrying ``(round, sent, received,
all_idle)``; each rank holds the token until it is locally idle, adds
its own cumulative wire counters, and forwards it to ``(rank+1) % n``.
When the token returns, rank 0 has one complete round.  Termination is
concluded by exactly the DES rule: two *consecutive* rounds that are
all-idle, balanced (``sent == received``) and report identical totals.

Soundness sketch (mirrors Mattern's four-counter argument): counters
are cumulative and monotone, so two rounds with identical totals mean
no rank sent or received anything between its two visits.  Those visit
intervals all contain the instant rank 0 originated the second round,
which makes that instant a consistent cut: globally ``sent ==
received`` (nothing in flight), every rank idle with its stream
exhausted, and — since an idle rank with an empty inbox and a dead
stream has no way to create work — permanently quiescent.  A rank only
reports itself idle once its *outbuffers are flushed*, so every
entrusted message is visible to the counters; messages still queued in
a sender thread or a pipe are covered by ``sent > received``.

The classes here are pure state machines (no I/O) so the protocol is
unit-testable without spawning processes; :mod:`repro.parallel.worker`
moves the actual token frames over the pipes.
"""

from __future__ import annotations

from repro.comm.termination import proves_termination


class RingCoordinator:
    """Rank 0's conclusion rule over completed token rounds: the DES
    waves' :func:`~repro.comm.termination.proves_termination`, fed one
    returned token's totals per round.
    """

    def __init__(self) -> None:
        self._prev: tuple[int, int, bool] | None = None
        self.rounds_completed = 0
        self.terminated = False

    def round_complete(self, sent: int, received: int, all_idle: bool) -> bool:
        """Feed one returned token's totals; True iff now terminated."""
        if self.terminated:
            raise RuntimeError("coordinator already concluded termination")
        self.rounds_completed += 1
        totals = (sent, received, all_idle)
        if proves_termination(self._prev, totals):
            self.terminated = True
        self._prev = totals
        return self.terminated


class RingMember:
    """One rank's token-holding state (any rank, including rank 0).

    The worker calls :meth:`receive` when a token frame arrives and
    :meth:`take_if_idle` on every idle iteration; a non-None return is
    the payload to forward (or, at rank 0, to conclude on).
    """

    def __init__(self, rank: int, n_ranks: int) -> None:
        if not 0 <= rank < n_ranks:
            raise ValueError(f"rank {rank} out of range for {n_ranks} ranks")
        self.rank = rank
        self.n_ranks = n_ranks
        self.next_rank = (rank + 1) % n_ranks
        self._held: tuple[int, int, int, bool] | None = None

    @property
    def holding(self) -> bool:
        return self._held is not None

    def receive(self, round_id: int, sent: int, received: int, all_idle: bool) -> None:
        """A token frame arrived; hold it until the rank is idle."""
        if self._held is not None:
            raise RuntimeError(f"rank {self.rank} already holds a token")
        self._held = (round_id, sent, received, all_idle)

    def take_if_idle(
        self, local_sent: int, local_received: int, local_idle: bool
    ) -> tuple[int, int, int, bool] | None:
        """Release the held token with this rank's counters folded in.

        Returns ``(round, sent_sum, received_sum, all_idle)`` to send to
        :attr:`next_rank` — at rank 0 the caller instead feeds it to the
        :class:`RingCoordinator` (rank 0's counters were folded in when
        it originated the round, so they are *not* re-added here).
        Returns None while no token is held or the rank is busy.
        """
        if self._held is None or not local_idle:
            return None
        round_id, sent, received, all_idle = self._held
        self._held = None
        if self.rank == 0:
            return (round_id, sent, received, all_idle)
        return (
            round_id,
            sent + local_sent,
            received + local_received,
            all_idle and local_idle,
        )

    def originate(
        self, round_id: int, local_sent: int, local_received: int
    ) -> tuple[int, int, int, bool]:
        """Rank 0 starts a round seeded with its own counters (it must
        be locally idle when calling this — that instant is the
        consistent cut the soundness argument hinges on)."""
        if self.rank != 0:
            raise RuntimeError("only rank 0 originates token rounds")
        return (round_id, local_sent, local_received, True)
