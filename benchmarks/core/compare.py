"""Compare two sets of benchmark results.

    python benchmarks/core/compare.py --base A.json [A2.json ...] --new B.json [...]

Each file is a result document written by ``run.py --json`` (or a
``history.jsonl`` ledger: every line is pooled).  Files on one side are
pooled into one sample per (workload, end-to-end metric).  Prints one
row per pair with both medians and quartiles, the ratio with its base,
and a verdict against the bound in ``spec.END_TO_END``:

* ``worse`` / ``improved`` — the medians differ by more than the bound
  (a share of the base median, or the metric's absolute floor) *and* by
  more than the wider of the two sets' quartile spreads: a difference
  the sets' own runs span is not a finding;
* ``unresolved`` — no such difference, but a spread wider than the
  bound, so "no change" cannot be claimed either;
* ``unchanged`` — within the bound, and the spreads are inside it too;
* ``demoted`` — the metric has no bound (``spec.END_TO_END``): shown,
  not judged.

Exit status is non-zero on any ``worse`` or on a higher ``failed_frac``.
Two sets of the *same* commit are the benchmark's own steadiness test:
no row may come out ``worse`` or ``improved``.  Take the two sets in
alternation (README): this host's speed moves by a third over minutes,
and sets taken one after the other measure that.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import spec  # noqa: E402


def load(paths: list[Path]) -> dict[tuple[str, str], list[float]]:
    """Pool ``{(workload, metric): values}`` over result documents."""
    pooled: dict[tuple[str, str], list[float]] = {}
    for path in paths:
        text = path.read_text()
        docs = (
            [json.loads(line) for line in text.splitlines() if line.strip()]
            if path.suffix == ".jsonl"
            else [json.loads(text)]
        )
        for doc in docs:
            for workload, block in doc["workloads"].items():
                for metric, row in block["metrics"].items():
                    pooled.setdefault((workload, metric), []).extend(row["values"])
    return pooled


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def verdict(metric: spec.Metric, base: list[float], new: list[float]) -> str:
    if metric.bound is None:
        return "demoted"
    b_q1, b_med, b_q3 = quartiles(base)
    n_q1, n_med, n_q3 = quartiles(new)
    spread = max(b_q3 - b_q1, n_q3 - n_q1)
    if metric.name == "failed_frac":
        # One failed run in five must not hide behind a zero median,
        # nor a higher failure rate behind its own spread.
        b_med, n_med, spread = statistics.fmean(base), statistics.fmean(new), 0.0
    allowance = max(metric.bound * abs(b_med), metric.abs_bound)
    worse_by = n_med - b_med if metric.better == "lower" else b_med - n_med
    if worse_by > max(allowance, spread):
        return "worse"
    if -worse_by > max(allowance, spread):
        return "improved"
    return "unresolved" if spread > allowance else "unchanged"


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--base", type=Path, nargs="+", required=True)
    ap.add_argument("--new", type=Path, nargs="+", required=True)
    opts = ap.parse_args(argv)
    base, new = load(opts.base), load(opts.new)

    print(
        f"{'workload':<14}{'metric':<15}{'unit':<6}"
        f"{'base med [q1, q3] n':>40}{'new med [q1, q3] n':>40}"
        f"{'new/base':>10}  verdict"
    )
    failed = False
    for workload in spec.WORKLOADS:
        for metric in spec.END_TO_END:
            key = (workload, metric.name)
            if workload not in metric.workloads or key not in base or key not in new:
                continue
            cells = []
            for values in (base[key], new[key]):
                q1, med, q3 = quartiles(values)
                cells.append(f"{med:.6g} [{q1:.6g}, {q3:.6g}] {len(values)}")
            b_med, n_med = quartiles(base[key])[1], quartiles(new[key])[1]
            ratio = f"{n_med / b_med:.3f}" if b_med else "-"
            word = verdict(metric, base[key], new[key])
            failed |= word == "worse"
            print(
                f"{workload:<14}{metric.name:<15}{metric.unit:<6}"
                f"{cells[0]:>40}{cells[1]:>40}{ratio:>10}  {word}"
            )
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
