"""Graph storage substrates.

Three stores, mirroring the paper's storage story (§III-B, §V-B):

* :class:`repro.storage.degaware.DegAwareRHH` — the degree-aware dynamic
  adjacency store [Iwabuchi et al., GABB'16]: a compact array region for
  low-degree vertices and a per-vertex hash table (a ``dict``) once a
  vertex's degree crosses a threshold.
* :class:`repro.storage.robin_hood.RobinHoodMap` — a standalone
  open-addressing int64→int64 map with Robin Hood displacement, the
  probe sequence of the paper's DegAwareRHH tables; the storage
  ablation reports its probe profile.
* :class:`repro.storage.csr.CSRGraph` — the static Compressed Sparse Row
  baseline the paper compares against in Fig. 3 (construction includes
  the sort/compress step, as in the paper).
"""

from repro.storage.csr import CSRGraph
from repro.storage.degaware import AdjacencyStats, DegAwareRHH
from repro.storage.robin_hood import RobinHoodMap

__all__ = ["CSRGraph", "DegAwareRHH", "AdjacencyStats", "RobinHoodMap"]
