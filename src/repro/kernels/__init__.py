"""Vectorized delta-frontier kernels for the bulk-ingest fast path.

A kernel is the array-native counterpart of a REMO vertex program's
``on_update`` logic: instead of one Python callback per visitor event,
a whole frontier's worth of candidate values is relaxed against the
topology with numpy scatter-reduces (``np.minimum.at`` for BFS/SSSP,
``np.maximum.at`` for CC).  Programs declare their kernel via the
``bulk_kernel`` class attribute (next to ``combine``); see
:mod:`repro.runtime.bulk` for how the engine drives them and
:mod:`repro.kernels.mirror` for the dense state they relax over — the
one :class:`DenseState` layer under both vectorized paths.
"""

from repro.kernels.frontier import (
    FrontierKernel,
    MaxLabelKernel,
    MinPlusKernel,
    build_csr,
    relax_to_fixpoint,
)
from repro.kernels.mirror import DenseState, EdgeRuns, Universe

__all__ = [
    "DenseState",
    "EdgeRuns",
    "FrontierKernel",
    "MaxLabelKernel",
    "MinPlusKernel",
    "Universe",
    "build_csr",
    "relax_to_fixpoint",
]
