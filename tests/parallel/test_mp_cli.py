"""CLI surface of the process-parallel backend (``--backend mp``)."""

import json
import os
import subprocess
import sys

import pytest

import repro
from repro.cli import build_parser, main


def repro_env():
    src_path = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = src_path
    return env


class TestParser:
    def test_backend_defaults_to_des(self):
        args = build_parser().parse_args(["run"])
        assert args.backend == "des"
        assert args.ranks is None

    def test_backend_choices(self):
        args = build_parser().parse_args(["run", "--backend", "mp", "--ranks", "4"])
        assert args.backend == "mp" and args.ranks == 4
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "--backend", "mpi"])

    @pytest.mark.parametrize("sub", ["run", "serve"])
    def test_wire_flag_is_gone(self, sub):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args([sub, "--backend", "mp", "--wire", "pipe"])
        assert exc.value.code == 2

    def test_widest_algo_accepted(self):
        args = build_parser().parse_args(["run", "--algo", "widest"])
        assert args.algo == "widest"


class TestDesOnlyFlagsRejected:
    """mp has no virtual time: fault, snapshot, checkpoint and freshness
    flags exit 2 before any process is spawned.  (``--trace``/``--metrics``
    are no longer DES-only: on mp they switch to the wall-clock
    distributed capture — see TestMpObsCapture.)"""

    @pytest.mark.parametrize(
        "flags",
        [
            ["--faults", "crash=0.5"],
            ["--snapshot-at", "0.5"],
            ["--checkpoint-path", "unused.npz"],
            ["--freshness"],
        ],
    )
    def test_rejected_with_exit_2(self, flags, capsys):
        code = main(["run", "--backend", "mp", "--scale", "6", *flags])
        assert code == 2
        assert "only available on --backend des" in capsys.readouterr().err


def run_cli_json(*argv):
    proc = subprocess.run(
        [sys.executable, "-m", "repro", *argv],
        capture_output=True, text=True, env=repro_env(), timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


class TestMpRun:
    """One real spawn-backed CLI run, exactly as the CI smoke job uses
    it, asserting on the machine-readable document."""

    @pytest.fixture(scope="class")
    def doc(self):
        return run_cli_json(
            "run", "--backend", "mp", "--ranks", "2", "--algo", "cc",
            "--scale", "6", "--edge-factor", "4", "--verify", "--json",
        )

    def test_document_shape(self, doc):
        assert doc["backend"] == "mp"
        assert doc["n_ranks"] == 2
        assert doc["algo"] == "cc"
        assert doc["events"] > 0
        assert len(doc["per_rank"]) == 2

    def test_verification_ran_clean(self, doc):
        assert doc["verify"] == {
            "requested": True, "checked": True, "mismatches": 0,
        }

    def test_report_counters(self, doc):
        report = doc["report"]
        assert report["backend"] == "mp"
        assert report["source_events"] == doc["events"]
        assert report["token_rounds"] >= 2
        assert report["wire"]["wire_sent"] == report["wire"]["wire_received"]
        assert report["wall_seconds"] > 0
        assert report["wall_events_per_second"] > 0

    def test_per_rank_events_partition_the_stream(self, doc):
        assert sum(r["source_events"] for r in doc["per_rank"]) == doc["events"]

    def test_widest_runs_on_both_backends(self):
        for backend_args in (["--backend", "mp", "--ranks", "2"], []):
            doc = run_cli_json(
                "run", *backend_args, "--algo", "widest",
                "--scale", "6", "--edge-factor", "4", "--verify", "--json",
            )
            assert doc["verify"]["mismatches"] == 0


class TestMpObsCapture:
    """``--trace``/``--metrics`` on the mp backend: the merged
    multi-rank capture the obs-smoke CI job consumes."""

    @pytest.fixture(scope="class")
    def capture(self, tmp_path_factory):
        out = tmp_path_factory.mktemp("mp-obs")
        trace = out / "trace.json"
        metrics = out / "metrics.jsonl"
        doc = run_cli_json(
            "run", "--backend", "mp", "--ranks", "2", "--algo", "cc",
            "--scale", "6", "--edge-factor", "4",
            "--trace", str(trace), "--metrics", str(metrics),
            "--trace-per-rank", "--json",
        )
        return doc, trace, metrics

    def test_merged_trace_validates_with_one_pid_per_rank(self, capture):
        from repro.obs import validate_chrome_trace

        doc, trace, _ = capture
        counts = validate_chrome_trace(str(trace))
        assert counts["M"] >= 2 and counts["X"] > 0, counts
        loaded = json.loads(trace.read_text())
        pids = {e["pid"] for e in loaded["traceEvents"] if e["ph"] == "X"}
        assert pids == {0, 1}
        assert doc["trace_file"] == str(trace)

    def test_per_rank_captures_written_and_valid(self, capture):
        from repro.obs import validate_chrome_trace

        _, trace, _ = capture
        for rank in range(2):
            per_rank = trace.with_name(f"trace.rank{rank}.json")
            assert per_rank.exists()
            validate_chrome_trace(str(per_rank))

    def test_metrics_carry_rank_rows_and_counters(self, capture):
        from repro.obs import read_jsonl

        doc, _, metrics = capture
        rows = read_jsonl(str(metrics))
        ranks = sorted(
            r["rank"] for r in rows if r.get("kind") == "rank"
        )
        assert ranks == [0, 1]
        counters = next(r for r in rows if r.get("kind") == "counters")
        assert counters["wire_sent"] == counters["wire_received"]

    def test_obs_summary_in_report_doc(self, capture):
        doc, _, _ = capture
        obs = doc["report"]["obs"]
        assert obs["ranks"] == [0, 1]
        assert obs["trace_events"] > 0
        assert obs["busy_skew"] >= 1.0
        assert set(obs["counters"]) >= {"wire_sent", "wire_received"}
