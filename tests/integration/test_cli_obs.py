"""Integration tests for the CLI telemetry surface: ``run --trace /
--metrics / --freshness / --json`` and the ``report`` subcommand."""

import json

import pytest

from repro.cli import ALGOS, main
from repro.obs import read_jsonl, validate_chrome_trace


def run_cli(*argv) -> int:
    return main(["run", "--scale", "8", "--edge-factor", "4", *argv])


class TestTrace:
    def test_chrome_trace_validates(self, tmp_path, capsys):
        path = str(tmp_path / "trace.json")
        assert run_cli("--algo", "cc", "--trace", path) == 0
        counts = validate_chrome_trace(path)
        assert counts["M"] == 4  # one process per rank
        assert counts["X"] > 0
        assert f"-> {path}" in capsys.readouterr().out

    def test_trace_carries_run_meta(self, tmp_path):
        path = str(tmp_path / "trace.json")
        assert run_cli("--algo", "cc", "--trace", path) == 0
        with open(path) as f:
            doc = json.load(f)
        meta = doc["otherData"]
        assert meta["algo"] == "cc"
        assert meta["n_ranks"] == 4
        assert "cost_model" in meta

    def test_trace_under_a_jsonl_name_renders_through_report(self, tmp_path, capsys):
        """The file name picks no format: a capture saved as ``.jsonl``
        is Chrome JSON too, and ``report --trace`` renders it."""
        path = str(tmp_path / "trace.jsonl")
        assert run_cli("--algo", "cc", "--trace", path) == 0
        assert validate_chrome_trace(path)["X"] > 0
        capsys.readouterr()
        assert main(["report", "--trace", path]) == 0
        assert "Span time by name" in capsys.readouterr().out


class TestMetrics:
    def test_metrics_jsonl_rows(self, tmp_path):
        path = str(tmp_path / "m.jsonl")
        assert run_cli("--algo", "cc", "--metrics", path, "--freshness") == 0
        rows = read_jsonl(path)
        assert rows[0]["kind"] == "meta"
        samples = [r for r in rows if r["kind"] == "sample"]
        # The interval is ~1/100 of the estimated makespan.
        assert len(samples) > 50
        assert samples[-1]["events_remaining"] == 0
        # A fault-free run counts nothing: what the engine and its
        # results own (collection latency, dispatch spans) is not copied.
        assert {r["kind"] for r in rows} == {"meta", "sample", "freshness"}

    def test_mp_metrics_keep_each_rank_fact_once(self, tmp_path, capsys):
        path = str(tmp_path / "m.jsonl")
        assert main(["run", "--backend", "mp", "--ranks", "2", "--algo", "cc",
                     "--scale", "8", "--metrics", path]) == 0
        rows = read_jsonl(path)
        assert {r["kind"] for r in rows} <= {"meta", "ring_sample", "rank", "counters"}
        rank_rows = [r for r in rows if r["kind"] == "rank"]
        # Rows come in rank finish-time order: each rank once, any order.
        assert sorted(r["rank"] for r in rank_rows) == [0, 1]
        assert [r["t"] for r in rank_rows] == sorted(r["t"] for r in rank_rows)
        assert all("ring_hwm_bytes" in r for r in rank_rows)
        capsys.readouterr()
        assert main(["report", "--metrics", path]) == 0
        assert "Per-rank load" in capsys.readouterr().out

    def test_freshness_rows_per_program(self, tmp_path):
        path = str(tmp_path / "m.jsonl")
        # Every algorithm with a program is probed; only con has none.
        for algo in (a for a in ALGOS if a != "con"):
            assert run_cli("--algo", algo, "--metrics", path, "--freshness") == 0
            fresh = [r for r in read_jsonl(path) if r["kind"] == "freshness"]
            assert fresh, f"{algo}: no convergence-lag series recorded"
            assert {r["prog"] for r in fresh} == {algo}
            assert fresh[-1]["stale"] == 0

    def test_freshness_noop_for_construction_only(self, tmp_path, capsys):
        path = str(tmp_path / "m.jsonl")
        assert run_cli("--algo", "con", "--metrics", path, "--freshness") == 0
        assert "nothing to probe" in capsys.readouterr().out


class TestReportSubcommand:
    def test_renders_trace_and_metrics(self, tmp_path, capsys):
        trace = str(tmp_path / "trace.json")
        metrics = str(tmp_path / "m.jsonl")
        assert run_cli("--algo", "bfs", "--trace", trace,
                       "--metrics", metrics, "--freshness") == 0
        capsys.readouterr()
        assert main(["report", "--trace", trace, "--metrics", metrics]) == 0
        out = capsys.readouterr().out
        assert "Span time by rank and category" in out
        assert "Span time by name" in out
        assert "Sampled series" in out
        assert "Convergence lag" in out

    def test_requires_at_least_one_flag(self, capsys):
        assert main(["report"]) == 2
        assert "pass --trace" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flag, name, text, says",
        [
            ("--metrics", "m.jsonl", '{"kind": "meta"}\n{"kind":"sample",\n', "line 2"),
            ("--trace", "trace.json", '{"traceEvents": [', "Expecting value"),
            (
                "--metrics",
                "m.jsonl",
                '{"kind": "freshness", "t": 0.0, "prog": "cc"}\n',
                "'stale'",
            ),
            ("--metrics", "absent.jsonl", None, "No such file"),
            ("--trace", "trace.json", "[1]\n", "not a JSON object"),
            ("--metrics", "m.jsonl", '{"kind": "meta"}\n[1]\n', "line 2: not a JSON object"),
        ],
        ids=["jsonl-line", "truncated-trace", "freshness-without-stale", "missing-file",
             "trace-not-an-object", "jsonl-line-not-an-object"],
    )
    def test_a_bad_input_is_one_usage_line(self, tmp_path, capsys, flag, name, text, says):
        path = tmp_path / name
        if text is not None:
            path.write_text(text)
        assert main(["report", flag, str(path)]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.count("\n") == 1
        assert err.startswith(f"report: {flag}: {path}: ") and says in err


class TestJsonOutput:
    def test_stdout_is_one_json_document(self, tmp_path, capsys):
        trace = str(tmp_path / "trace.json")
        assert run_cli("--algo", "cc", "--verify", "--json",
                       "--trace", trace) == 0
        captured = capsys.readouterr()
        doc = json.loads(captured.out)  # stdout must parse as-is
        assert doc["algo"] == "cc"
        assert doc["events"] == doc["report"]["source_events"]
        assert doc["verify"] == {
            "requested": True, "checked": True, "mismatches": 0,
        }
        assert doc["trace_file"] == trace
        assert doc["metrics_file"] is None
        # Progress chatter moved to stderr.
        assert "events=" in captured.err

    def test_collections_in_document(self, capsys):
        assert run_cli("--algo", "bfs", "--snapshot-at", "0.5", "--json") == 0
        doc = json.loads(capsys.readouterr().out)
        assert len(doc["collections"]) == 1
        col = doc["collections"][0]
        assert col["prog"] == "bfs"
        assert col["vertices_collected"] > 0
        assert col["completed_at"] >= col["requested_at"]

    def test_verify_failure_exits_nonzero(self, capsys, monkeypatch):
        monkeypatch.setattr(
            "repro.cli.verify_family", lambda *a, **k: ["vertex 0: wrong"]
        )
        assert run_cli("--algo", "cc", "--verify", "--json") == 1
        captured = capsys.readouterr()
        doc = json.loads(captured.out)
        assert doc["verify"]["mismatches"] == 1
        assert "VERIFY FAILED" in captured.err

    def test_verify_failure_without_json_also_exits_nonzero(self, monkeypatch, capsys):
        monkeypatch.setattr(
            "repro.cli.verify_family", lambda *a, **k: ["vertex 0: wrong"]
        )
        assert run_cli("--algo", "cc", "--verify") == 1
        assert "VERIFY FAILED" in capsys.readouterr().out
