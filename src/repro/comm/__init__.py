"""Shared-nothing communication substrate (simulated MPI).

The paper runs on HavoqGT over MPI on the Catalyst cluster.  Python's GIL
makes an honest 3072-core run impossible, so this subpackage provides the
documented substitution (see DESIGN.md): a **conservative discrete-event
simulation** of a cluster of ranks.

* Each rank is a shared-nothing actor with its own virtual clock.
* Messages travel over per-(sender, receiver) FIFO channels with a
  latency drawn from the :class:`~repro.comm.costmodel.CostModel`
  (intra-node vs. inter-node).
* The kernel (:class:`~repro.comm.des.DiscreteEventLoop`) executes rank
  actions in global virtual-time order, so every interleaving it produces
  is one a real asynchronous cluster could produce — and the per-rank
  clocks yield the virtual-time throughput numbers the scaling figures
  report.
* :mod:`repro.comm.termination` implements Mattern-style four-counter
  termination detection as a real distributed protocol on this substrate
  (HavoqGT's quiescence detection [24] plays this role in the paper).
"""

from repro.comm.costmodel import CostModel
from repro.comm.des import DiscreteEventLoop, RankHandler
from repro.comm.termination import FourCounterState, TerminationCoordinator

__all__ = [
    "CostModel",
    "DiscreteEventLoop",
    "RankHandler",
    "FourCounterState",
    "TerminationCoordinator",
]
