"""Regression gate over the machine-readable ``BENCH_*.json`` artifacts.

CI regenerates the smoke-scale benches and diffs the fresh results
against the copies committed at the repo root; a gated metric that lost
more than ``--tolerance`` (default 25%) fails the build.

Only *virtual* (cost-model) metrics and exact counts are gated: they
are deterministic functions of the code and the workload, so a drop is a
real behavioural regression, not runner noise.  (A cost-model rate is
spelled ``virtual_events_per_second`` where a wall-clock rate sits next
to it — BENCH_churn — so the two cannot be read as one number.)  Wall-clock numbers vary with the host
and are never gated — by convention every machine-dependent key in the
bench payloads carries ``wall`` in its name, and this tool skips any
metric whose dotted path contains that substring.  Improvements always
pass.

Deliberate exceptions: a handful of wall-marked keys *are* gated
despite the marker, because each is a ratio of two wall times measured
on the same host in the same run, so the host's absolute speed divides
out — ``wall_speedup_4v1`` (BENCH_parallel: the shm wire's gain is
work-efficiency, vectorized slab kernels replacing per-event visits),
``wall_speedup_trigger_index`` (BENCH_trigger_index: indexed vs linear
trigger dispatch), and ``wall_speedup_cache_vs_collection``
(BENCH_serving: a stable-cache hit vs a full versioned collection).  A
collapse in any of them means the mechanism regressed, not that the
runner was slow.

Serving adds two more gate flavours:

* ``hit_rate`` (higher-is-better, in ``GATED_KEYS``) — the converged-
  prefix cache hit rate is a deterministic function of the seeded
  query workload and the admission logic.
* ``wall_p99_point_us`` (in ``LOWER_GATED_KEYS``) — the one *absolute*
  wall figure gated, because the serving SLO is about the point-read
  fast path staying O(1) dict work.  Lower is better, and its entry in
  ``TOLERANCE_OVERRIDES`` is deliberately loose (a slower runner may
  legitimately be ~2x off; the gate only catches structural blowups
  like the cache being bypassed, which costs orders of magnitude).

``visits_per_event`` (``LOWER_GATED_KEYS``) is the callbacks-per-event
count of a seeded DES run — exact, host-independent, lower is better;
on BENCH_churn it is the write amplification of a delete.

Distributed observability adds one more (``LOWER_GATED_KEYS``):
``disabled_overhead_mp_fraction`` from BENCH_obs_overhead — the mp
backend's disabled-telemetry guard budget as a fraction of its
per-event wall cost.  Also deliberately loose; it exists to catch
instrumentation escaping its ``if obs is not None`` guards onto the mp
hot loop, which shows up as a 10x+ jump.

Usage (what the CI bench-regression step runs)::

    python benchmarks/compare.py --baseline baseline_dir --fresh .
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

# Metric keys gated wherever they appear in a payload.  All are
# higher-is-better figures that are deterministic functions of the code
# and the workload.  ("peak_speedup" is a ratio of virtual rates;
# "hit_rate" is the serving cache's converged-prefix hit rate.)
GATED_KEYS = frozenset(
    {"events_per_second", "virtual_events_per_second", "peak_speedup", "hit_rate"}
)
# Lower-is-better keys: gated on *increase* instead of loss.
# ``disabled_overhead_mp_fraction`` is the mp backend's disabled-
# telemetry guard cost per event as a fraction of per-event wall cost
# (bench_obs_overhead); gating it catches instrumentation leaking out
# from behind its ``if obs is not None`` guards onto the mp hot loop.
# ``visits_per_event`` is an exact count of a seeded DES run.
LOWER_GATED_KEYS = frozenset(
    {"wall_p99_point_us", "disabled_overhead_mp_fraction", "visits_per_event"}
)
WALL_MARKER = "wall"
# Wall-marked keys gated anyway: same-host, same-run ratios where the
# machine speed divides out (see the module docstring).
WALL_GATED_EXCEPTIONS = frozenset(
    {
        "wall_speedup_4v1",
        "wall_speedup_trigger_index",
        "wall_speedup_cache_vs_collection",
    }
)
# Per-key tolerance overrides (fractional change allowed before the
# gate fails), for metrics whose honest run-to-run variance differs
# from the CLI default: absolute wall latency across hosts (loose),
# and huge same-host ratios where 2x jitter around 100x is still fine.
TOLERANCE_OVERRIDES: dict[str, float] = {
    "wall_p99_point_us": 1.5,  # allow 2.5x before failing
    "wall_speedup_trigger_index": 0.5,
    "wall_speedup_cache_vs_collection": 0.5,
    # Guard-cost-over-wall-cost ratio: both terms jitter across hosts,
    # and the bench itself asserts the 3% absolute ceiling.  The gate
    # only needs to catch structural regressions (unguarded work on the
    # mp hot loop), which cost 10x+.
    "disabled_overhead_mp_fraction": 3.0,
}


def iter_metrics(doc, prefix: str = ""):
    """Yield ``(dotted_path, value)`` for every gated numeric leaf."""
    if isinstance(doc, dict):
        for key, value in sorted(doc.items()):
            path = f"{prefix}.{key}" if prefix else str(key)
            if (
                key in WALL_GATED_EXCEPTIONS or key in LOWER_GATED_KEYS
            ) and isinstance(value, (int, float)):
                yield path, float(value)
                continue
            if WALL_MARKER in str(key):
                continue
            if key in GATED_KEYS and isinstance(value, (int, float)):
                yield path, float(value)
            else:
                yield from iter_metrics(value, path)
    elif isinstance(doc, list):
        for i, value in enumerate(doc):
            yield from iter_metrics(value, f"{prefix}[{i}]")


def compare_docs(baseline: dict, fresh: dict, tolerance: float) -> list[str]:
    """Return regression descriptions (empty = gate passes)."""
    base_metrics = dict(iter_metrics(baseline))
    fresh_metrics = dict(iter_metrics(fresh))
    problems = []
    for path, base_value in sorted(base_metrics.items()):
        if path not in fresh_metrics:
            problems.append(f"{path}: gated metric missing from fresh run")
            continue
        fresh_value = fresh_metrics[path]
        if base_value <= 0:
            continue
        leaf = path.rsplit(".", 1)[-1]
        allowed = TOLERANCE_OVERRIDES.get(leaf, tolerance)
        if leaf in LOWER_GATED_KEYS:
            loss = (fresh_value - base_value) / base_value
        else:
            loss = (base_value - fresh_value) / base_value
        if loss > allowed:
            problems.append(
                f"{path}: {base_value:,.1f} -> {fresh_value:,.1f} "
                f"({loss:.1%} regression, tolerance {allowed:.0%})"
            )
    return problems


def compare_trees(
    baseline_dir: Path, fresh_dir: Path, tolerance: float
) -> tuple[list[str], list[str]]:
    """Compare every baseline ``BENCH_*.json`` against its fresh twin.

    Returns ``(problems, notes)``.  A baseline file with no fresh
    counterpart is skipped with a note (that bench was not re-run); a
    fresh file with no baseline is a new bench and passes with a note.
    """
    problems, notes = [], []
    baseline_files = sorted(baseline_dir.glob("BENCH_*.json"))
    if not baseline_files:
        problems.append(f"no BENCH_*.json baselines found in {baseline_dir}")
        return problems, notes
    for base_path in baseline_files:
        fresh_path = fresh_dir / base_path.name
        if not fresh_path.exists():
            notes.append(f"{base_path.name}: not re-run, skipped")
            continue
        regressions = compare_docs(
            json.loads(base_path.read_text()),
            json.loads(fresh_path.read_text()),
            tolerance,
        )
        if regressions:
            problems.extend(f"{base_path.name}: {r}" for r in regressions)
        else:
            gated = sum(1 for _ in iter_metrics(json.loads(base_path.read_text())))
            notes.append(f"{base_path.name}: OK ({gated} gated metrics)")
    for fresh_path in sorted(fresh_dir.glob("BENCH_*.json")):
        if not (baseline_dir / fresh_path.name).exists():
            notes.append(f"{fresh_path.name}: new bench, no baseline")
    return problems, notes


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--baseline",
        required=True,
        type=Path,
        help="directory holding the committed BENCH_*.json copies",
    )
    parser.add_argument(
        "--fresh",
        required=True,
        type=Path,
        help="directory holding the freshly regenerated BENCH_*.json",
    )
    parser.add_argument(
        "--tolerance",
        type=float,
        default=0.25,
        help="allowed fractional loss on gated metrics (default 0.25)",
    )
    args = parser.parse_args(argv)
    if not 0 <= args.tolerance < 1:
        parser.error(f"--tolerance must be in [0, 1), got {args.tolerance}")
    problems, notes = compare_trees(args.baseline, args.fresh, args.tolerance)
    for note in notes:
        print(f"bench-regression: {note}")
    for problem in problems:
        print(f"bench-regression: FAIL {problem}", file=sys.stderr)
    if problems:
        return 1
    print("bench-regression: all gated metrics within tolerance")
    return 0


if __name__ == "__main__":
    sys.exit(main())
