"""Seeded virtual-time fault schedules.

A :class:`FaultPlan` is the single source of hostility for a run: the
fault-tolerant runner consumes its crash events and the engine its
stall events, over the same FIFO channels a fault-free run uses.  One
seeded generator picks the victims of events that name no rank, so a
plan replays identically — including across crash recoveries, because
the generator's state simply continues into the next incarnation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

US = 1e-6


@dataclass(frozen=True)
class RankCrash:
    """Kill one rank (whole-cluster rollback) at a virtual instant.

    ``rank`` < 0 lets the plan pick a victim with its own generator.
    """

    time: float
    rank: int = -1


@dataclass(frozen=True)
class RankStall:
    """Freeze one rank for ``duration`` virtual seconds (GC pause / OS
    hiccup): the rank services nothing while frozen; peers keep sending
    and its queued arrivals are serviced late, in channel order."""

    time: float
    rank: int = -1
    duration: float = 200.0 * US


class FaultPlan:
    """One run's worth of scheduled misfortune.

    Parameters
    ----------
    crashes, stalls:
        :class:`RankCrash` / :class:`RankStall` events, consumed in
        time order by the runner / engine.
    seed:
        Seeds the generator behind victim picks.
    """

    def __init__(
        self,
        crashes: tuple[RankCrash, ...] | list[RankCrash] = (),
        stalls: tuple[RankStall, ...] | list[RankStall] = (),
        seed: int = 0,
    ):
        self.crashes = sorted(crashes, key=lambda c: c.time)
        self.stalls = sorted(stalls, key=lambda s: s.time)
        self.seed = int(seed)
        self.rng = np.random.default_rng(seed)

    # ------------------------------------------------------------------
    def pick_rank(self, n_ranks: int) -> int:
        """Choose a victim rank for an event that left it unspecified."""
        return int(self.rng.integers(n_ranks))

    def describe(self) -> dict:
        """JSON-safe summary (benchmark/CLI reports)."""
        return {
            "seed": self.seed,
            "crashes": [(c.time, c.rank) for c in self.crashes],
            "stalls": [(s.time, s.rank, s.duration) for s in self.stalls],
        }

    # ------------------------------------------------------------------
    @classmethod
    def from_spec(cls, spec: str, time_scale: float = 1.0) -> "FaultPlan":
        """Parse a CLI-style plan spec.

        ``spec`` is comma-separated ``key=value`` pairs::

            seed=7,crash=0.5,stall=0.3

        ``crash``/``stall`` may repeat; their values are *fractions* of
        the run's estimated makespan and are multiplied by
        ``time_scale`` to become virtual instants (the CLI passes its
        makespan estimate).  A stall may carry a duration in virtual
        microseconds as ``stall=FRAC:US``.  Every fraction and duration
        must be a finite number >= 0: anything else is a ``ValueError``
        here, not a fault that never fires (or fires before the run).
        """

        def amount(what: str, text: str) -> float:
            value = float(text)
            if not 0 <= value < math.inf:  # also false for nan
                raise ValueError(f"{what} must be a finite number >= 0, got {text!r}")
            return value

        seed = 0
        crashes: list[RankCrash] = []
        stalls: list[RankStall] = []
        for part in spec.split(","):
            part = part.strip()
            if not part:
                continue
            if "=" not in part:
                raise ValueError(f"bad fault spec item {part!r} (need key=value)")
            key, _, value = part.partition("=")
            key = key.strip()
            value = value.strip()
            if key == "crash":
                crashes.append(RankCrash(time=amount("crash", value) * time_scale))
            elif key == "stall":
                frac, _, dur = value.partition(":")
                at = amount("stall", frac) * time_scale
                duration = (
                    amount("stall duration", dur) * US if dur else RankStall.duration
                )
                stalls.append(RankStall(time=at, duration=duration))
            elif key == "seed":
                seed = int(value)
            else:
                raise ValueError(f"unknown fault spec key {key!r}")
        return cls(crashes=crashes, stalls=stalls, seed=seed)
