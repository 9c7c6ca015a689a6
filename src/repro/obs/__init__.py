"""Opt-in telemetry for the simulated engine: tracing, metrics, freshness.

Three layers, all keyed to **virtual time** so captures are
deterministic and comparable across runs:

* :class:`Tracer` — span/instant/counter events in the Chrome
  ``trace_event`` model (one "process" per rank); export via
  :func:`write_chrome_trace` opens directly in Perfetto.
* :class:`MetricsRegistry` + :class:`VirtualTimeSampler` — periodic
  samples of queue depths, topology size, busy fractions, per-program
  visit counts, exported as JSONL time series, plus named counters for
  what no other object owns (fault stalls, recoveries, checkpoints).
* :class:`FreshnessProbe` — convergence-lag measurement: live program
  state vs the static reference on the ingested prefix, per sample.

Everything is off by default; the engine pays one ``is not None`` check
per guarded emission when disabled (asserted <3% by
``benchmarks/bench_obs_overhead.py``).

A fourth layer, :mod:`repro.obs.distributed`, extends the same
primitives to the process-parallel backend on **wall-clock** time:
per-rank :class:`RankObs` captures, parent-anchored clock alignment
(:class:`ClockAnchor`), and :func:`merge_rank_obs` folding every rank
into one multi-process trace plus a cross-rank counters report.
"""

from repro.obs.distributed import (
    MP_BUSY_CATEGORIES,
    ClockAnchor,
    MergedObs,
    ObsConfig,
    RankObs,
    harvest_payload,
    merge_rank_obs,
)
from repro.obs.export import (
    chrome_trace_dict,
    read_jsonl,
    render_metrics_report,
    render_trace_report,
    validate_chrome_trace,
    write_chrome_trace,
    write_metrics_jsonl,
)
from repro.obs.freshness import FreshnessProbe, make_reference
from repro.obs.registry import MetricsRegistry, VirtualTimeSampler
from repro.obs.tracer import BUSY_CATEGORIES, Tracer

__all__ = [
    "BUSY_CATEGORIES",
    "MP_BUSY_CATEGORIES",
    "ClockAnchor",
    "FreshnessProbe",
    "MergedObs",
    "MetricsRegistry",
    "ObsConfig",
    "RankObs",
    "Tracer",
    "VirtualTimeSampler",
    "chrome_trace_dict",
    "harvest_payload",
    "make_reference",
    "merge_rank_obs",
    "read_jsonl",
    "render_metrics_report",
    "render_trace_report",
    "validate_chrome_trace",
    "write_chrome_trace",
    "write_metrics_jsonl",
]
