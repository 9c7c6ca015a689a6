"""Synthetic graph and workload generators.

The paper evaluates on RMAT streams (Graph500 parameters) and four large
real-world graphs (Table I).  The real datasets are not redistributable
at laptop scale, so :mod:`repro.generators.presets` provides
structure-matched synthetic stand-ins (documented per-preset), while
:mod:`repro.generators.rmat` is a faithful vectorised Graph500 RMAT
generator used for the scaling studies (Figs. 4 and 6).
"""

from repro.generators.ba import barabasi_albert_edges
from repro.generators.churn import (
    churn_events,
    flash_crowd_events,
    split_churn_streams,
)
from repro.generators.er import erdos_renyi_edges
from repro.generators.presets import (
    DATASET_PRESETS,
    DatasetPreset,
    generate_preset,
)
from repro.generators.rmat import rmat_edges

__all__ = [
    "barabasi_albert_edges",
    "churn_events",
    "erdos_renyi_edges",
    "flash_crowd_events",
    "split_churn_streams",
    "DATASET_PRESETS",
    "DatasetPreset",
    "generate_preset",
    "rmat_edges",
]
