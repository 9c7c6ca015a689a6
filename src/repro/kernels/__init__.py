"""Vectorized delta-frontier kernels for the bulk-ingest fast path.

A kernel is the array-native counterpart of a REMO vertex program's
``on_update`` logic: instead of one Python callback per visitor event,
a whole frontier's worth of candidate values is relaxed against the
topology with numpy scatter-reduces.  A family's algebra is one
:class:`FrontierKernel` row — reduction ufunc, identity, edge
``extend`` and first-touch seed — that a program declares as its
``bulk_kernel`` class attribute (next to ``combine``);
:func:`kernel_eligible` is the one program-side rule of both
vectorized paths.  See :mod:`repro.runtime.bulk` for how the engine
drives them and :mod:`repro.kernels.mirror` for the dense state they
relax over — the one :class:`DenseState` layer under both paths.
"""

from repro.kernels.frontier import (
    FrontierKernel,
    build_csr,
    kernel_eligible,
    relax_to_fixpoint,
)
from repro.kernels.mirror import BULK_CHUNK, DenseState, EdgeRuns, Universe

__all__ = [
    "BULK_CHUNK",
    "DenseState",
    "EdgeRuns",
    "FrontierKernel",
    "Universe",
    "build_csr",
    "kernel_eligible",
    "relax_to_fixpoint",
]
