"""Tests for trace/metrics serialisation, validation, and rendering."""

import pytest

from repro.obs import (
    MetricsRegistry,
    Tracer,
    chrome_trace_dict,
    read_jsonl,
    render_metrics_report,
    render_trace_report,
    validate_chrome_trace,
    write_chrome_trace,
    write_metrics_jsonl,
)


def sample_tracer() -> Tracer:
    t = Tracer()
    t.span(0, "visit/add", 1e-6, 3e-6, "visit", args={"v": 1})
    t.span(0, "source/pull", 3e-6, 4e-6, "source")
    t.span(1, "ctrl/probe", 2e-6, 2.5e-6, "ctrl")
    t.instant(1, "collection/cut", 2.5e-6, args={"id": 0})
    t.counter(0, "queues", 4e-6, {"data": 2.0})
    return t


class TestChromeTrace:
    def test_dict_shape(self):
        doc = chrome_trace_dict(sample_tracer(), meta={"algo": "cc"})
        assert doc["displayTimeUnit"] == "ms"
        assert doc["otherData"] == {"algo": "cc"}
        assert isinstance(doc["traceEvents"], list)

    def test_meta_omitted_when_absent(self):
        assert "otherData" not in chrome_trace_dict(sample_tracer())

    def test_one_process_name_per_rank(self):
        events = chrome_trace_dict(sample_tracer())["traceEvents"]
        metas = [ev for ev in events if ev["ph"] == "M"]
        assert [(m["pid"], m["args"]["name"]) for m in metas] == [
            (0, "rank 0"),
            (1, "rank 1"),
        ]

    def test_timestamps_scaled_to_microseconds(self):
        events = chrome_trace_dict(sample_tracer())["traceEvents"]
        span = next(ev for ev in events if ev["name"] == "visit/add")
        assert span["ts"] == pytest.approx(1.0)  # 1e-6 virtual s -> 1 us
        assert span["dur"] == pytest.approx(2.0)
        assert span["args"] == {"v": 1}

    def test_instants_are_process_scoped(self):
        events = chrome_trace_dict(sample_tracer())["traceEvents"]
        inst = next(ev for ev in events if ev["ph"] == "i")
        assert inst["s"] == "p"
        assert "dur" not in inst

    def test_events_time_ordered_per_track(self):
        # Emit out of order across ranks; the export must re-sort so
        # each (pid, tid) track is monotone in file order.
        t = Tracer()
        t.span(1, "b", 5e-6, 6e-6, "visit")
        t.span(0, "a", 3e-6, 4e-6, "visit")
        t.span(1, "c", 1e-6, 2e-6, "visit")
        t.span(0, "d", 1e-6, 2e-6, "visit")
        assert validate_chrome_trace(chrome_trace_dict(t))["X"] == 4

    def test_write_and_validate_file(self, tmp_path):
        path = str(tmp_path / "trace.json")
        write_chrome_trace(path, sample_tracer(), meta={"algo": "cc"})
        counts = validate_chrome_trace(path)
        assert counts == {"M": 2, "X": 3, "i": 1, "C": 1}


class TestValidator:
    def good(self):
        return chrome_trace_dict(sample_tracer())

    def test_rejects_non_dict(self):
        with pytest.raises(ValueError, match="traceEvents"):
            validate_chrome_trace({"events": []})

    def test_rejects_an_event_that_is_not_an_object(self):
        doc = self.good()
        doc["traceEvents"].insert(1, 1)
        with pytest.raises(ValueError, match=r"event #1 is not a JSON object"):
            validate_chrome_trace(doc)

    def test_rejects_empty_events(self):
        with pytest.raises(ValueError, match="non-empty"):
            validate_chrome_trace({"traceEvents": []})

    def test_rejects_missing_required_key(self):
        doc = self.good()
        del doc["traceEvents"][-1]["ts"]
        with pytest.raises(ValueError, match="missing required key 'ts'"):
            validate_chrome_trace(doc)

    def test_rejects_unknown_phase(self):
        doc = self.good()
        doc["traceEvents"][-1]["ph"] = "Z"
        with pytest.raises(ValueError, match="unknown phase"):
            validate_chrome_trace(doc)

    def test_rejects_span_without_dur(self):
        doc = self.good()
        span = next(ev for ev in doc["traceEvents"] if ev["ph"] == "X")
        del span["dur"]
        with pytest.raises(ValueError, match="missing dur"):
            validate_chrome_trace(doc)

    def test_rejects_negative_dur(self):
        doc = self.good()
        span = next(ev for ev in doc["traceEvents"] if ev["ph"] == "X")
        span["dur"] = -1.0
        with pytest.raises(ValueError, match="negative dur"):
            validate_chrome_trace(doc)

    def test_rejects_ts_regression_on_a_track(self):
        doc = self.good()
        spans = [ev for ev in doc["traceEvents"] if ev["ph"] == "X"
                 and ev["pid"] == 0]
        spans[-1]["ts"] = spans[0]["ts"] - 1.0
        with pytest.raises(ValueError, match="monotonicity"):
            validate_chrome_trace(doc)

    def test_interleaved_tracks_are_independent(self):
        # Rank 1 at t=1 after rank 0 at t=9 is fine: monotonicity is
        # per track, not global.
        doc = {
            "traceEvents": [
                {"ph": "M", "name": "process_name", "pid": 0, "tid": 0,
                 "ts": 0, "args": {"name": "rank 0"}},
                {"ph": "X", "name": "a", "pid": 0, "tid": 0, "ts": 9.0,
                 "dur": 1.0},
                {"ph": "X", "name": "b", "pid": 1, "tid": 0, "ts": 1.0,
                 "dur": 1.0},
            ]
        }
        assert validate_chrome_trace(doc)["X"] == 2

    def test_rejects_trace_without_process_names(self):
        doc = self.good()
        doc["traceEvents"] = [
            ev for ev in doc["traceEvents"] if ev["ph"] != "M"
        ]
        with pytest.raises(ValueError, match="process_name"):
            validate_chrome_trace(doc)


class TestJsonl:
    def test_metrics_jsonl_row_kinds(self, tmp_path):
        reg = MetricsRegistry()
        reg.record({"kind": "sample", "t": 0.0, "edges": 3})
        reg.record({"kind": "freshness", "t": 0.0, "prog": "cc", "stale": 1})
        reg.inc("recoveries")
        path = str(tmp_path / "metrics.jsonl")
        write_metrics_jsonl(path, reg, meta={"algo": "cc"})
        rows = read_jsonl(path)
        kinds = [r["kind"] for r in rows]
        assert kinds == ["meta", "sample", "freshness", "counters"]
        assert rows[3] == {"kind": "counters", "recoveries": 1}

    def test_empty_registry_writes_meta_only(self, tmp_path):
        path = str(tmp_path / "metrics.jsonl")
        write_metrics_jsonl(path, MetricsRegistry())
        assert read_jsonl(path) == [{"kind": "meta"}]

    def test_read_jsonl_skips_blank_lines(self, tmp_path):
        path = tmp_path / "rows.jsonl"
        path.write_text('{"a": 1}\n\n{"b": 2}\n')
        assert read_jsonl(str(path)) == [{"a": 1}, {"b": 2}]


class TestRendering:
    def test_trace_report_tables(self, tmp_path):
        path = str(tmp_path / "trace.json")
        write_chrome_trace(path, sample_tracer())
        text = render_trace_report(path)
        assert "Span time by rank and category" in text
        assert "Span time by name" in text
        assert "visit/add" in text
        assert "collection/cut" in text  # instant table

    def test_metrics_report_series_and_lag(self):
        rows = [
            {"kind": "meta"},
            {"kind": "sample", "t": 0.0, "events": 0, "busy": [0.0, 0.0]},
            {"kind": "sample", "t": 1.0, "events": 10, "busy": [0.4, 0.6]},
            {"kind": "freshness", "t": 0.0, "prog": "cc", "stale": 5,
             "frac": 0.5, "lag": 0.0, "lag_events": 0, "events": 0},
            {"kind": "freshness", "t": 1.0, "prog": "cc", "stale": 0,
             "frac": 0.0, "lag": 0.0, "lag_events": 0, "events": 10},
        ]
        text = render_metrics_report(rows)
        assert "Sampled series (2 samples" in text
        assert "busy (per-rank)" in text
        assert "Convergence lag" in text
        assert "cc" in text

    def test_metrics_report_handles_no_samples(self):
        assert "no sample rows" in render_metrics_report([{"kind": "meta"}])

    def test_freshness_never_converged_renders(self):
        rows = [
            {"kind": "freshness", "t": 0.5, "prog": "bfs", "stale": 3,
             "frac": 0.3, "lag": 0.5, "lag_events": 7, "events": 9},
        ]
        assert "never" in render_metrics_report(rows)
