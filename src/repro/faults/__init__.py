"""Fault injection and crash recovery for the simulated cluster.

The paper's platform runs on thousands of cores for hours; at that
scale rank failure is an operating condition, not an exception.  This
subpackage makes the simulator hostile on purpose, on the same FIFO
channels a fault-free run uses (neither backend loses a message):

* :class:`~repro.faults.plan.FaultPlan` — a seeded, virtual-time fault
  schedule of rank crash and stall events at chosen virtual instants;
* :class:`~repro.faults.runner.FaultTolerantRunner` — orchestrates a
  run under a plan: periodic quiescent checkpoints, whole-cluster
  rollback on a crash (fresh engine + last checkpoint + stream
  ``seek()`` to the saved positions), replaying the suffix until the
  workload completes.  REMO algorithms make the replay safe: they are
  monotone and interleaving-independent, so re-processing a suffix
  converges to the same answer as the fault-free run.
"""

from repro.faults.plan import FaultPlan, RankCrash, RankStall
from repro.faults.runner import FaultRunResult, FaultTolerantRunner

__all__ = [
    "FaultPlan",
    "RankCrash",
    "RankStall",
    "FaultRunResult",
    "FaultTolerantRunner",
]
