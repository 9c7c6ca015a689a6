"""Experiment report assembly.

Collects the per-figure tables the benchmark suite writes to
``benchmarks/out/`` into a single markdown report, ordered to follow
the paper's evaluation section, with a provenance header.  Used by
maintainers to refresh the measured blocks quoted in EXPERIMENTS.md
after a benchmark run:

    python -m repro.analytics.report benchmarks/out report.md
"""

from __future__ import annotations

import sys
from pathlib import Path

# Presentation order: paper figures first, ablations after.
SECTION_ORDER = [
    ("table1", "Table I — graphs used in experiments"),
    ("fig3", "Figure 3 — static vs. dynamic strategies"),
    ("fig4", "Figure 4 — global state collection vs. static recompute"),
    ("fig5", "Figure 5 — dynamic algorithm queries on real-graph stand-ins"),
    ("fig6", "Figure 6 — strong and weak scaling (incremental BFS)"),
    ("fig7", "Figure 7 — Multi S-T source scaling"),
    ("ablation_robinhood", "Ablation — Robin Hood map probe profile"),
    ("ablation_degaware", "Ablation — degree-aware promotion threshold"),
    ("ablation_partition", "Ablation — partition balance"),
    ("ablation_partition_rate", "Ablation — hash-draw rate sensitivity"),
    ("ablation_snapshot", "Ablation — versioned vs stop-the-world snapshots"),
    ("ablation_flowcontrol", "Ablation — bounded visitor queues"),
    ("ablation_nvram", "Ablation — NVRAM spill budget"),
    ("ablation_offered_load", "Ablation — latency vs offered load"),
    ("ablation_batching", "Ablation — continuous engine vs batching"),
    ("ablation_squash", "Ablation — visitor-queue coalescing"),
    ("churn", "Churn — adds beside deletes (§VI-B)"),
    ("parallel_scaling", "Process-parallel scaling (shm wire)"),
    ("serving_latency", "On-line serving latency"),
    ("trigger_index", "Trigger dispatch index"),
    ("obs_overhead", "Telemetry overhead"),
]


def assemble_report(out_dir: str | Path) -> str:
    """Build the markdown report from the tables in ``out_dir``.

    Tables the benchmark run did not produce are listed as missing
    rather than silently skipped, so a partial run is visible.
    """
    out_dir = Path(out_dir)
    lines = [
        "# Benchmark report",
        "",
        f"Assembled from `{out_dir}` "
        "(regenerate with `pytest benchmarks/ --benchmark-only`).",
        "",
    ]
    known = {name for name, _ in SECTION_ORDER}
    missing = []
    for name, title in SECTION_ORDER:
        path = out_dir / f"{name}.txt"
        if not path.exists():
            missing.append(name)
            continue
        lines.append(f"## {title}")
        lines.append("")
        lines.append("```")
        lines.append(path.read_text().rstrip())
        lines.append("```")
        lines.append("")
    # Any extra tables a new bench added but this list does not know.
    extras = sorted(
        p.stem for p in out_dir.glob("*.txt") if p.stem not in known
    )
    for name in extras:
        lines.append(f"## {name} (unlisted)")
        lines.append("")
        lines.append("```")
        lines.append((out_dir / f"{name}.txt").read_text().rstrip())
        lines.append("```")
        lines.append("")
    if missing:
        lines.append("## Missing tables")
        lines.append("")
        for name in missing:
            lines.append(f"- `{name}` (bench not run)")
        lines.append("")
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) not in (1, 2):
        print(
            "usage: python -m repro.analytics.report OUT_DIR [REPORT.md]",
            file=sys.stderr,
        )
        return 2
    report = assemble_report(args[0])
    if len(args) == 2:
        Path(args[1]).write_text(report)
        print(f"wrote {args[1]}")
    else:
        print(report)
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
