"""True multi-core execution: each rank as a real OS process.

The DES backend (:mod:`repro.comm.des`) models the paper's HavoqGT/MPI
middleware in virtual time on one core; this package *executes* it —
the same unmodified :class:`~repro.runtime.engine.DynamicEngine` visitor
switch runs in one process per rank over the same consistent-hash
partition, with quiescence proved by the four-counter detector adapted
to an async token ring.  The data plane is single-producer/
single-consumer shared-memory rings (:mod:`repro.parallel.shm` +
:mod:`repro.parallel.codec`); the duplex-pipe mesh carries control
frames only (token, stop, doorbells).  A run is one of two things all
the way down: when every loaded program declares a bulk kernel (and the
streams are add-only), ranks exchange fixed-layout numpy record slabs,
read zero-copy and applied with in-rank vectorized kernels
(:mod:`repro.parallel.vecapply`); otherwise they exchange pickled tuple
batches and dispatch per event.  Because the five REMO algorithms
converge to a unique fixpoint under any event interleaving (§II-D/§IV),
the mp backend's final state is bit-equal to the DES backend's and to
the static oracle — which the differential tests in ``tests/parallel/``
enforce on both the kernel and the per-event drain.

Entry points: :func:`run_parallel` (library), ``python -m repro run
--backend mp --ranks N`` (CLI).
"""

from repro.parallel.codec import Codec
from repro.parallel.loop import ShmLoop
from repro.parallel.runner import (
    ParallelResult,
    ParallelStateView,
    run_parallel,
)
from repro.parallel.shm import RingCorruption, ShmRing, attach_ring, create_ring
from repro.parallel.termination import RingCoordinator, RingMember
from repro.parallel.wire import WireConfig

__all__ = [
    "Codec",
    "RingCorruption",
    "ShmLoop",
    "ShmRing",
    "attach_ring",
    "create_ring",
    "ParallelResult",
    "ParallelStateView",
    "RingCoordinator",
    "RingMember",
    "WireConfig",
    "run_parallel",
]
