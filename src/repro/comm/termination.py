"""Distributed termination (quiescence) detection.

HavoqGT ends an algorithm "when all visitors have completed, which is
determined by a distributed quiescence detection algorithm" [24].  We
implement the classic **four-counter method** (Mattern 1987): the
coordinator runs waves; in each wave every rank reports its cumulative
(sent, received) message counters and whether it is locally idle.  The
system has terminated when two *consecutive* waves are all-idle and
report identical, balanced global counters — the second wave proves no
message was in flight "behind" the first wave's probes.

The classes here are pure protocol state (no I/O); the engine moves the
probe/report messages over the simulated network, and the kernel's
oracle (:meth:`repro.comm.des.DiscreteEventLoop.quiescent`) is only used
by tests to validate that the detector never fires early.

Counters are kept per *channel label* so several detectors can run at
once — e.g. one per snapshot version during Chandy-Lamport-style global
state collection (§III-D), where only prior-version traffic must drain.
"""

from __future__ import annotations

from dataclasses import dataclass, field


class FourCounterState:
    """Per-rank message counters, partitioned by channel label.

    ``received_by_label`` is public: the engine's UPDATE dispatch bumps
    it in place, one dict update per visit instead of a method frame.
    """

    def __init__(self) -> None:
        self._sent: dict[int, int] = {}
        self.received_by_label: dict[int, int] = {}

    def record_send(self, label: int, n: int = 1) -> None:
        self._sent[label] = self._sent.get(label, 0) + n

    def record_receive(self, label: int, n: int = 1) -> None:
        self.received_by_label[label] = self.received_by_label.get(label, 0) + n

    def sent(self, label: int) -> int:
        return self._sent.get(label, 0)

    def received(self, label: int) -> int:
        return self.received_by_label.get(label, 0)

    def snapshot(self, label: int) -> tuple[int, int]:
        """The (sent, received) pair a rank reports for a probe."""
        return self.sent(label), self.received(label)

    def sent_below(self, cut: int) -> int:
        """Total sends over all labels < ``cut`` (prev-version traffic
        for a snapshot whose cut version is ``cut``)."""
        return sum(n for label, n in self._sent.items() if label < cut)

    def received_below(self, cut: int) -> int:
        """Total receives over all labels < ``cut``."""
        return sum(n for label, n in self.received_by_label.items() if label < cut)


def proves_termination(
    prev: tuple[int, int, bool] | None, totals: tuple[int, int, bool]
) -> bool:
    """The four-counter conclusion rule over two consecutive complete
    waves' ``(sent, received, all_idle)`` totals: this wave is all-idle
    and balanced, and the previous one reported the same totals."""
    sent, received, all_idle = totals
    return all_idle and sent == received and prev == totals


@dataclass
class _Wave:
    wave_id: int
    reports: dict[int, tuple[int, int, bool]] = field(default_factory=dict)

    def complete(self, n_ranks: int) -> bool:
        return len(self.reports) == n_ranks

    def totals(self) -> tuple[int, int, bool]:
        sent = sum(s for s, _, _ in self.reports.values())
        recv = sum(r for _, r, _ in self.reports.values())
        all_idle = all(idle for _, _, idle in self.reports.values())
        return sent, recv, all_idle


class TerminationCoordinator:
    """Coordinator-side state machine for one channel label.

    Usage by the engine::

        wave = coord.start_wave()        # -> broadcast PROBE(wave)
        coord.report(wave, rank, s, r, idle)  # on each REPORT
        if coord.wave_complete():
            if coord.conclude():          # -> terminated
            else: coord.start_wave()      # -> next probe round
    """

    def __init__(self, n_ranks: int):
        if n_ranks <= 0:
            raise ValueError(f"n_ranks must be > 0, got {n_ranks}")
        self.n_ranks = n_ranks
        self._wave: _Wave | None = None
        self._prev_totals: tuple[int, int, bool] | None = None
        self._next_wave_id = 0
        self.terminated = False
        self.waves_run = 0

    def start_wave(self) -> int:
        """Open a new probe wave; returns its id (to stamp PROBE msgs)."""
        if self.terminated:
            raise RuntimeError("detector already concluded termination")
        wid = self._next_wave_id
        self._next_wave_id += 1
        self._wave = _Wave(wid)
        self.waves_run += 1
        return wid

    def report(self, wave_id: int, rank: int, sent: int, received: int, idle: bool) -> None:
        """Accept one rank's report (stale-wave reports are ignored)."""
        if self._wave is None or wave_id != self._wave.wave_id:
            return
        if not 0 <= rank < self.n_ranks:
            raise ValueError(f"rank {rank} out of range")
        self._wave.reports[rank] = (sent, received, idle)

    def wave_complete(self) -> bool:
        return self._wave is not None and self._wave.complete(self.n_ranks)

    def conclude(self) -> bool:
        """After a complete wave: True iff termination is now proven.

        Termination requires this wave to be all-idle with sent == recv,
        *and* the previous wave to have reported the same counters (the
        two-consecutive-consistent-waves rule).  On False the caller
        should start another wave.
        """
        if self._wave is None or not self._wave.complete(self.n_ranks):
            raise RuntimeError("conclude() before the wave is complete")
        totals = self._wave.totals()
        if proves_termination(self._prev_totals, totals):
            self.terminated = True
        self._prev_totals = totals
        self._wave = None
        return self.terminated
