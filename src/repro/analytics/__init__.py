"""Verification and measurement helpers.

:mod:`repro.analytics.verify` checks the REMO convergence guarantee —
after quiescence, dynamic state must equal the static algorithm's answer
on the final topology, for any interleaving (§II-D); the test suite
leans on it heavily.  :mod:`repro.analytics.metrics` turns engine
counters into the events/s-style reports the benchmark harness prints.
"""

from repro.analytics.graphstats import (
    ComponentStats,
    DegreeStats,
    component_stats,
    degree_stats,
)
from repro.analytics.metrics import (
    ThroughputReport,
    parallel_throughput_report,
    throughput_report,
)
from repro.analytics.verify import (
    csr_from_engine,
    static_answer,
    verify_bfs,
    verify_cc,
    verify_sssp,
    verify_st,
    verify_widest,
)

__all__ = [
    "ComponentStats",
    "DegreeStats",
    "component_stats",
    "degree_stats",
    "ThroughputReport",
    "parallel_throughput_report",
    "throughput_report",
    "csr_from_engine",
    "static_answer",
    "verify_bfs",
    "verify_cc",
    "verify_sssp",
    "verify_st",
    "verify_widest",
]
