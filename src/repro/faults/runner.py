"""Crash-recovery orchestration: checkpoints, rollback, replay.

The recovery model is **whole-cluster rollback**: losing any rank loses
its un-checkpointed vertex state, and because REMO state is globally
entangled (a lost BFS level invalidates levels derived from it), the
prototype restarts the cluster from the last quiescent checkpoint
rather than attempting per-rank log replay.  What makes this cheap is
the paper's own algorithm class: REMO programs are monotone and
interleaving-independent, so replaying the event-stream suffix after
the checkpoint — in whatever order the new incarnation produces —
converges to exactly the static answer.

Delete-carrying (churn) streams stay recoverable, with a sharper
argument: raw generational state (per-vertex generations, support
pointers) is *not* interleaving-independent, but its value
**projections** (distance, label, mask, capacity) are — they equal the
static answer on the final topology.  A quiescent checkpoint is a
consistent generational cut (generations and supports ride the vertex
values, see :mod:`repro.runtime.checkpoint`), so an incarnation that
replays the suffix — deletes included — quiesces with the same
projections as a fault-free run, even though its tags may differ.
Recovery tests must therefore compare projections, never raw
generational tuples.

One run under a :class:`~repro.faults.FaultPlan` is therefore a
sequence of *incarnations*:

1. build a fresh engine (factory) under the plan's stalls, restore the
   last checkpoint if one exists (or run the caller's init function on
   the very first incarnation);
2. rebuild the streams (factory) and ``seek()`` each to the replay
   position saved in the checkpoint's ``extra`` payload;
3. drive the engine in segments bounded by the next checkpoint instant
   and the next scheduled crash;
4. a checkpoint pauses the sources, drains to quiescence, saves, and
   resumes; the next one is due at the first interval instant after
   the drain;
5. a crash discards the engine mid-flight — no draining, no goodbye —
   and loops back to step 1.

Crash and checkpoint instants are interpreted in each incarnation's own
virtual clock (which restarts at zero on rollback); the fault plan's
random generator is *not* reset, so the whole multi-incarnation run is
one deterministic replayable sequence.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Sequence

from repro.events.stream import EventStream
from repro.runtime.checkpoint import load_checkpoint, save_checkpoint
from repro.runtime.engine import DynamicEngine
from repro.runtime.plugins import FaultInjectionPlugin
from repro.runtime.visitor import COORDINATOR_RANK


@dataclass
class FaultRunResult:
    """Outcome of a fault-tolerant run (the final incarnation's engine
    plus bookkeeping summed over every incarnation)."""

    engine: DynamicEngine
    virtual_time: float  # summed makespans of all incarnations
    incarnations: int
    recoveries: int  # crashes survived (incarnations - 1)
    checkpoints: int  # checkpoints written
    events_replayed: int  # source events re-ingested after rollbacks


class FaultTolerantRunner:
    """Drives a workload to completion under a fault plan.

    Parameters
    ----------
    engine_factory:
        Zero-argument callable returning a *fresh* engine with identical
        configuration every time (each incarnation gets a new one).
    stream_factory:
        Zero-argument callable returning the same list of streams, in
        the same order with identical contents, every time (rebuild
        from the same seed — streams must be deterministic for replay).
    plan:
        The :class:`~repro.faults.FaultPlan`; its crash events are
        consumed here, one per incarnation, in time order.
    checkpoint_path:
        Where the (single, overwritten) checkpoint lives.
    checkpoint_interval:
        Virtual seconds between checkpoints, or None for none (a crash
        then rolls all the way back to the start).
    init_fn:
        Called with the engine on the first incarnation only (register
        sources via ``init_program`` etc.); restored incarnations carry
        that state in the checkpoint.
    """

    def __init__(
        self,
        engine_factory: Callable[[], DynamicEngine],
        stream_factory: Callable[[], Sequence[EventStream]],
        plan: Any,
        checkpoint_path: str | Path,
        checkpoint_interval: float | None = None,
        init_fn: Callable[[DynamicEngine], None] | None = None,
        max_incarnations: int = 32,
    ):
        if checkpoint_interval is not None and checkpoint_interval <= 0:
            raise ValueError(
                f"checkpoint_interval must be > 0, got {checkpoint_interval}"
            )
        self.engine_factory = engine_factory
        self.stream_factory = stream_factory
        self.plan = plan
        self.checkpoint_path = Path(checkpoint_path)
        self.checkpoint_interval = checkpoint_interval
        self.init_fn = init_fn
        self.max_incarnations = max_incarnations

    # ------------------------------------------------------------------
    def run(self) -> FaultRunResult:
        """Run to completion; returns the final engine + bookkeeping."""
        crashes = list(self.plan.crashes)
        have_ckpt = False
        incarnations = 0
        checkpoints = 0
        events_replayed = 0
        total_vt = 0.0
        while True:
            if incarnations >= self.max_incarnations:
                raise RuntimeError(
                    f"no completion after {incarnations} incarnations "
                    "(crash schedule denser than checkpoint progress?)"
                )
            incarnations += 1
            engine = self.engine_factory()
            # Each incarnation is a fresh engine: attach the plan to it
            # before anything runs.
            FaultInjectionPlugin(self.plan).setup(engine)
            streams = list(self.stream_factory())
            if have_ckpt:
                extra = load_checkpoint(engine, self.checkpoint_path)
                positions = extra.get("stream_positions", {})
                for i, s in enumerate(streams):
                    s.seek(positions.get(i, 0))
            elif self.init_fn is not None:
                self.init_fn(engine)
            if incarnations > 1:
                events_replayed += sum(s.remaining() for s in streams)
            engine.attach_streams(streams)
            crash_time = crashes[0].time if crashes else None
            crashed, n_ckpts = self._drive(engine, streams, crash_time)
            checkpoints += n_ckpts
            if n_ckpts:
                have_ckpt = True
            total_vt += engine.loop.max_time()
            if crashed:
                crashes.pop(0)
                continue
            recoveries = incarnations - 1
            if engine.metrics is not None:
                engine.metrics.inc("recoveries", recoveries)
                engine.metrics.inc("checkpoints", checkpoints)
            return FaultRunResult(
                engine=engine,
                virtual_time=total_vt,
                incarnations=incarnations,
                recoveries=recoveries,
                checkpoints=checkpoints,
                events_replayed=events_replayed,
            )

    # ------------------------------------------------------------------
    def _drive(
        self,
        engine: DynamicEngine,
        streams: Sequence[EventStream],
        crash_time: float | None,
    ) -> tuple[bool, int]:
        """Drive one incarnation; returns (crashed, checkpoints_taken)."""
        interval = self.checkpoint_interval
        next_ckpt = interval
        n_ckpts = 0
        while True:
            bounds = [b for b in (next_ckpt, crash_time) if b is not None]
            boundary = min(bounds) if bounds else None
            engine.run(max_virtual_time=boundary)
            if engine.loop.quiescent():
                # Sources exhausted and every message drained: done —
                # any scheduled crash after this instant is moot.
                return (False, n_ckpts)
            if crash_time is not None and boundary == crash_time:
                # The rank dies mid-flight: no draining, no goodbye.
                if engine.tracer is not None:
                    victim = (
                        self.plan.crashes[0].rank
                        if self.plan.crashes and self.plan.crashes[0].rank >= 0
                        else 0
                    )
                    engine.tracer.instant(
                        victim, "fault/crash", crash_time, "fault", {}
                    )
                return (True, n_ckpts)
            self._checkpoint(engine, streams)
            n_ckpts += 1
            # The drain may have run past several grid instants; a
            # checkpoint due before it would save no stream progress.
            next_ckpt = (engine.loop.max_time() // interval + 1) * interval

    def _checkpoint(
        self, engine: DynamicEngine, streams: Sequence[EventStream]
    ) -> None:
        """Pause sources, drain to quiescence, save, resume."""
        loop = engine.loop
        paused = [
            r
            for r in range(engine.config.n_ranks)
            if engine._streams[r] is not None and not engine._stream_done[r]
        ]
        for r in paused:
            loop.set_source_active(r, False)
        engine.run()  # drain: in-flight visitors and control traffic
        positions = {i: s.position for i, s in enumerate(streams)}
        save_checkpoint(
            engine, self.checkpoint_path, extra={"stream_positions": positions}
        )
        if engine.tracer is not None:
            engine.tracer.instant(
                COORDINATOR_RANK,
                "fault/checkpoint",
                loop.max_time(),
                "fault",
                {"positions": positions},
            )
        for r in paused:
            s = engine._streams[r]
            if s is not None and not s.exhausted:
                loop.set_source_active(r, True)
        if engine.sampler is not None:
            # The sampler saw quiescence during the drain and stopped;
            # re-arm it for the resumed segment (next fresh instant to
            # avoid a duplicate row at the drain time).
            engine.sampler._next_t += engine.sampler.interval
            engine.sampler.schedule()
