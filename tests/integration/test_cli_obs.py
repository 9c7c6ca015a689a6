"""Integration tests for the CLI telemetry surface: ``run --trace /
--metrics / --freshness / --json`` and the ``report`` subcommand."""

import json

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

    def test_jsonl_extension_selects_compact_mode(self, tmp_path):
        path = str(tmp_path / "trace.jsonl")
        assert run_cli("--algo", "cc", "--trace", path) == 0
        rows = read_jsonl(path)
        assert rows[0]["kind"] == "meta"
        assert all(r["kind"] == "event" for r in rows[1:])


class TestMetrics:
    def test_metrics_jsonl_rows(self, tmp_path):
        path = str(tmp_path / "m.jsonl")
        assert run_cli("--algo", "cc", "--metrics", path) == 0
        rows = read_jsonl(path)
        assert rows[0]["kind"] == "meta"
        samples = [r for r in rows if r["kind"] == "sample"]
        # Auto interval is ~1/100 of the estimated makespan.
        assert len(samples) > 50
        assert samples[-1]["events_remaining"] == 0
        assert any(r["kind"] == "histogram" for r in rows)

    def test_freshness_rows_per_program(self, tmp_path):
        path = str(tmp_path / "m.jsonl")
        # Every algorithm with a program is probed; only con has none.
        for algo in (a for a in ALGOS if a != "con"):
            assert run_cli("--algo", algo, "--metrics", path, "--freshness") == 0
            fresh = [r for r in read_jsonl(path) if r["kind"] == "freshness"]
            assert fresh, f"{algo}: no convergence-lag series recorded"
            assert {r["prog"] for r in fresh} == {algo}
            assert fresh[-1]["stale"] == 0

    def test_freshness_noop_for_construction_only(self, capsys):
        assert run_cli("--algo", "con", "--freshness") == 0
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
