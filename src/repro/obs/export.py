"""Serialisation and rendering of telemetry captures.

Two on-disk shapes:

* **Chrome/Perfetto trace JSON** — ``{"traceEvents": [...]}`` in the
  ``trace_event`` format: one "process" per rank (named via ``M``
  metadata events), virtual-time timestamps in microseconds, complete
  spans (``ph="X"``), instants (``"i"``) and counters (``"C"``).  Drop
  the file into https://ui.perfetto.dev or ``chrome://tracing``.
* **metrics JSONL** — one JSON object per line.  The first line is a
  ``meta`` row (run parameters, cost-model constants), then the
  sampler's time-series rows plus one final ``counters`` row.

A trace is always written as Chrome JSON, whatever the file's
extension: ``repro report``, Perfetto and :func:`validate_chrome_trace`
all read that shape.

:func:`validate_chrome_trace` is the shape contract CI's smoke job
enforces; :func:`render_trace_report` / :func:`render_metrics_report`
back the ``repro report`` subcommand.
"""

from __future__ import annotations

import json
from typing import Any, Iterable

from repro.obs.registry import MetricsRegistry
from repro.obs.tracer import PH_COUNTER, PH_INSTANT, PH_SPAN, Tracer

_SCALE = 1e6  # virtual seconds -> trace microseconds


# ----------------------------------------------------------------------
# Chrome trace_event JSON
# ----------------------------------------------------------------------
def chrome_trace_events(tracer: Tracer) -> list[dict[str, Any]]:
    """The tracer's events in trace_event form, per-track time-ordered."""
    out: list[dict[str, Any]] = []
    for rank in tracer.ranks():
        out.append(
            {
                "ph": "M",
                "name": "process_name",
                "pid": rank,
                "tid": 0,
                "ts": 0,
                "args": {"name": f"rank {rank}"},
            }
        )
    # Stable sort by (track, ts) so every track is monotone in file
    # order — some consumers stream rather than sort.
    for ph, rank, name, cat, ts, dur, args in sorted(
        tracer.events, key=lambda ev: (ev[1], ev[4])
    ):
        ev: dict[str, Any] = {
            "ph": ph,
            "name": name,
            "cat": cat,
            "pid": rank,
            "tid": 0,
            "ts": ts * _SCALE,
        }
        if ph == PH_SPAN:
            ev["dur"] = dur * _SCALE
        if ph == PH_INSTANT:
            ev["s"] = "p"  # process-scoped instant
        if args is not None:
            ev["args"] = args if ph != PH_COUNTER else dict(args)
        out.append(ev)
    return out


def chrome_trace_dict(
    tracer: Tracer, meta: dict[str, Any] | None = None
) -> dict[str, Any]:
    doc: dict[str, Any] = {
        "traceEvents": chrome_trace_events(tracer),
        "displayTimeUnit": "ms",
    }
    if meta:
        doc["otherData"] = meta
    return doc


def write_chrome_trace(
    path: str, tracer: Tracer, meta: dict[str, Any] | None = None
) -> None:
    with open(path, "w") as f:
        json.dump(chrome_trace_dict(tracer, meta), f)
        f.write("\n")


# ----------------------------------------------------------------------
# metrics JSONL
# ----------------------------------------------------------------------
def write_metrics_jsonl(
    path: str, registry: MetricsRegistry, meta: dict[str, Any] | None = None
) -> None:
    with open(path, "w") as f:
        f.write(json.dumps({"kind": "meta", **(meta or {})}) + "\n")
        for row in registry.samples:
            f.write(json.dumps(row) + "\n")
        if registry.counters:
            f.write(json.dumps({"kind": "counters", **registry.counters}) + "\n")


def read_jsonl(path: str) -> list[dict[str, Any]]:
    """One dict per non-blank line; a line that is not a JSON object is
    a ``ValueError`` naming its line number."""
    rows = []
    with open(path) as f:
        for lineno, line in enumerate(f, 1):
            line = line.strip()
            if line:
                try:
                    row = json.loads(line)
                except json.JSONDecodeError as exc:
                    raise ValueError(
                        f"line {lineno}: not JSON: {exc.msg} (column {exc.colno})"
                    ) from None
                if not isinstance(row, dict):
                    raise ValueError(f"line {lineno}: not a JSON object")
                rows.append(row)
    return rows


# ----------------------------------------------------------------------
# validation (the CI smoke contract)
# ----------------------------------------------------------------------
def validate_chrome_trace(trace: str | dict[str, Any]) -> dict[str, int]:
    """Validate a Chrome trace file (or loaded dict) against the shape
    the engine promises: required keys per event, known phase codes,
    non-negative span durations, and **monotone timestamps per track**
    in file order.  Raises :class:`ValueError` on the first violation;
    returns event counts by phase on success.
    """
    if isinstance(trace, str):
        with open(trace) as f:
            trace = json.load(f)
    if not isinstance(trace, dict) or "traceEvents" not in trace:
        raise ValueError("trace must be an object with a traceEvents array")
    events = trace["traceEvents"]
    if not isinstance(events, list) or not events:
        raise ValueError("traceEvents must be a non-empty array")
    counts: dict[str, int] = {}
    last_ts: dict[tuple[int, int], float] = {}
    for i, ev in enumerate(events):
        if not isinstance(ev, dict):
            raise ValueError(f"event #{i} is not a JSON object")
        for key in ("ph", "name", "pid", "tid", "ts"):
            if key not in ev:
                raise ValueError(f"event #{i} missing required key {key!r}")
        ph = ev["ph"]
        if ph not in ("X", "i", "C", "M"):
            raise ValueError(f"event #{i} has unknown phase {ph!r}")
        counts[ph] = counts.get(ph, 0) + 1
        if ph == "M":
            continue
        if ph == "X":
            if "dur" not in ev:
                raise ValueError(f"span event #{i} ({ev['name']!r}) missing dur")
            if ev["dur"] < 0:
                raise ValueError(f"span event #{i} has negative dur {ev['dur']}")
        track = (ev["pid"], ev["tid"])
        ts = ev["ts"]
        if ts < last_ts.get(track, 0.0) - 1e-9:
            raise ValueError(
                f"event #{i} ({ev['name']!r}) breaks ts monotonicity on "
                f"track {track}: {ts} < {last_ts[track]}"
            )
        last_ts[track] = ts
    if counts.get("M", 0) == 0:
        raise ValueError("trace has no process_name metadata events")
    return counts


# ----------------------------------------------------------------------
# text rendering (the `repro report` subcommand)
# ----------------------------------------------------------------------
def _table(headers: list[str], rows: list[list[str]], title: str = "") -> str:
    widths = [
        max(len(str(h)), *(len(str(r[i])) for r in rows)) if rows else len(str(h))
        for i, h in enumerate(headers)
    ]
    lines = []
    if title:
        lines.append(title)
    lines.append("  ".join(str(h).ljust(w) for h, w in zip(headers, widths)))
    lines.append("  ".join("-" * w for w in widths))
    for r in rows:
        lines.append("  ".join(str(c).ljust(w) for c, w in zip(r, widths)))
    return "\n".join(lines)


def _fmt_us(seconds: float) -> str:
    if seconds >= 1.0:
        return f"{seconds:.3f}s"
    if seconds >= 1e-3:
        return f"{seconds * 1e3:.2f}ms"
    return f"{seconds * 1e6:.1f}us"


def render_trace_report(trace: str | dict[str, Any]) -> str:
    """Per-rank and per-span-name virtual-time breakdowns of a Chrome
    trace file — the EXPERIMENTS.md text-table view of a capture.  A
    file that is not JSON, or not an object whose ``traceEvents`` is a
    list of objects, is a ``ValueError``."""
    if isinstance(trace, str):
        with open(trace) as f:
            try:
                trace = json.load(f)
            except json.JSONDecodeError as exc:
                raise ValueError(f"not JSON: {exc}") from None
    if not isinstance(trace, dict):
        raise ValueError("not a JSON object")
    events = trace["traceEvents"]
    if not isinstance(events, list) or not all(isinstance(ev, dict) for ev in events):
        raise ValueError("traceEvents is not a list of JSON objects")
    per_rank: dict[int, dict[str, float]] = {}
    per_name: dict[str, tuple[int, float]] = {}
    instants: dict[str, int] = {}
    t_max = 0.0
    for ev in events:
        if ev["ph"] == "M":
            continue
        t_max = max(t_max, ev["ts"])
        if ev["ph"] == "i":
            instants[ev["name"]] = instants.get(ev["name"], 0) + 1
        if ev["ph"] != "X":
            continue
        dur = ev["dur"] / _SCALE
        cat = ev.get("cat", "?")
        by_cat = per_rank.setdefault(ev["pid"], {})
        by_cat[cat] = by_cat.get(cat, 0.0) + dur
        count, total = per_name.get(ev["name"], (0, 0.0))
        per_name[ev["name"]] = (count + 1, total + dur)
    cats = sorted({c for by_cat in per_rank.values() for c in by_cat})
    rank_rows = [
        [str(rank)]
        + [_fmt_us(per_rank[rank].get(c, 0.0)) for c in cats]
        + [_fmt_us(sum(per_rank[rank].values()))]
        for rank in sorted(per_rank)
    ]
    name_rows = [
        [name, f"{count:,}", _fmt_us(total), _fmt_us(total / count)]
        for name, (count, total) in sorted(
            per_name.items(), key=lambda kv: -kv[1][1]
        )
    ]
    parts = [
        _table(
            ["rank"] + cats + ["total"],
            rank_rows,
            title=f"Span time by rank and category (trace end: {_fmt_us(t_max / _SCALE)})",
        ),
    ]
    if len(per_rank) > 1:
        totals = [sum(by_cat.values()) for by_cat in per_rank.values()]
        if sum(totals):
            skew = max(totals) / (sum(totals) / len(totals))
            parts.append(f"rank skew (max/mean span time): {skew:.2f}")
    parts += [
        "",
        _table(["span", "count", "total", "mean"], name_rows, title="Span time by name"),
    ]
    if instants:
        parts += [
            "",
            _table(
                ["instant", "count"],
                [[n, str(c)] for n, c in sorted(instants.items())],
                title="Instant events",
            ),
        ]
    return "\n".join(parts)


def render_metrics_report(rows: Iterable[dict[str, Any]]) -> str:
    """Summarise a metrics JSONL: per-series min/mean/max/last over the
    sampled time series, plus the convergence-lag table per program."""
    rows = list(rows)
    samples = [r for r in rows if r.get("kind") == "sample"]
    fresh = [r for r in rows if r.get("kind") == "freshness"]
    rank_rows = [r for r in rows if r.get("kind") == "rank"]
    ring_samples = [r for r in rows if r.get("kind") == "ring_sample"]
    counters = next((r for r in rows if r.get("kind") == "counters"), None)
    parts = []
    if samples:
        scalar_keys = [
            k
            for k in samples[-1]
            if k not in ("kind", "t") and isinstance(samples[-1][k], (int, float))
        ]
        list_keys = [k for k in samples[-1] if isinstance(samples[-1][k], list)]
        stat_rows = []
        for k in scalar_keys:
            vals = [r[k] for r in samples if k in r]
            stat_rows.append(
                [
                    k,
                    f"{min(vals):g}",
                    f"{sum(vals) / len(vals):g}",
                    f"{max(vals):g}",
                    f"{vals[-1]:g}",
                ]
            )
        for k in list_keys:
            flat = [v for r in samples if k in r for v in r[k]]
            if not flat:
                continue
            stat_rows.append(
                [
                    f"{k} (per-rank)",
                    f"{min(flat):g}",
                    f"{sum(flat) / len(flat):g}",
                    f"{max(flat):g}",
                    f"{max(samples[-1][k]):g}",
                ]
            )
        parts.append(
            _table(
                ["series", "min", "mean", "max", "last"],
                stat_rows,
                title=f"Sampled series ({len(samples)} samples, "
                f"t = 0 .. {_fmt_us(samples[-1]['t'])})",
            )
        )
    if fresh:
        progs = sorted({r["prog"] for r in fresh})
        fresh_rows = []
        for prog in progs:
            series = [r for r in fresh if r["prog"] == prog]
            peak = max(series, key=lambda r: r["stale"])
            first_fresh = next((r["t"] for r in series if r["stale"] == 0), None)
            final = series[-1]
            fresh_rows.append(
                [
                    prog,
                    str(len(series)),
                    f"{peak['stale']:,} ({peak['frac']:.1%})",
                    _fmt_us(first_fresh) if first_fresh is not None else "never",
                    f"{final['stale']:,}",
                    _fmt_us(final["lag"]),
                    f"{final['lag_events']:,}",
                ]
            )
        parts.append("")
        parts.append(
            _table(
                [
                    "program",
                    "samples",
                    "peak stale",
                    "first fresh",
                    "final stale",
                    "final lag",
                    "lag events",
                ],
                fresh_rows,
                title="Convergence lag (live state vs static reference on the "
                "ingested prefix)",
            )
        )
    if rank_rows:
        table = []
        for r in sorted(rank_rows, key=lambda r: r.get("rank", 0)):
            table.append(
                [
                    str(r.get("rank", "?")),
                    _fmt_us(r.get("wall_seconds", 0.0)),
                    _fmt_us(r.get("busy_seconds", 0.0)),
                    f"{r.get('busy_frac', 0.0):.1%}",
                    f"{r.get('wire_sent', 0):,}",
                    f"{r.get('wire_received', 0):,}",
                    f"{r.get('ring_stalls', 0):,}",
                ]
            )
        busy = [r.get("busy_seconds", 0.0) for r in rank_rows]
        skew = max(busy) / (sum(busy) / len(busy)) if sum(busy) else 1.0
        if parts:
            parts.append("")
        parts.append(
            _table(
                ["rank", "wall", "busy", "busy%", "sent", "received", "stalls"],
                table,
                title=f"Per-rank load (mp backend, busy skew max/mean = {skew:.2f})",
            )
        )
    if ring_samples and parts:
        parts.append("")
    if ring_samples:
        peak = max(
            (
                max(r.get("ring_in_used", {0: 0}).values(), default=0)
                for r in ring_samples
            ),
            default=0,
        )
        parts.append(
            f"Ring occupancy: {len(ring_samples)} doorbell samples, "
            f"peak inbound ring {peak:,} bytes"
        )
    if counters is not None:
        items = sorted(
            ((k, v) for k, v in counters.items() if k != "kind"),
            key=lambda kv: str(kv[0]),
        )
        if parts:
            parts.append("")
        parts.append(
            _table(
                ["counter", "value"],
                [[str(k), f"{v:,.0f}" if isinstance(v, (int, float)) else str(v)]
                 for k, v in items],
                title=(
                    "Cross-rank counters (summed over ranks)"
                    if rank_rows
                    else "Counters"
                ),
            )
        )
    if not parts:
        parts.append("no sample rows found")
    return "\n".join(parts)
