"""Tests for the repro CLI (python -m repro)."""

import json
import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

import repro

from repro.analytics.verify import FAMILIES
from repro.cli import ALGOS, _algo, build_parser, main


class TestParser:
    def test_defaults(self):
        args = build_parser().parse_args(["run"])
        assert args.graph == "rmat"
        assert args.algo == "bfs"
        assert args.nodes == 1

    def test_rejects_unknown_graph(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "--graph", "orkut"])

    def test_rejects_unknown_algo(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "--algo", "pagerank"])

    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    @pytest.mark.parametrize(
        "argv",
        [
            ["run", "--ranks", "0"],
            ["run", "--nodes", "0"],
            ["run", "--ranks-per-node", "0"],
            ["run", "--backend", "mp", "--ranks", "-3"],
            ["run", "--scale", "0"],
            ["run", "--edge-factor", "-1"],
            ["run", "--algo", "st", "--sources", "0"],
            ["serve", "--ranks", "0"],
            ["generate", "--scale", "0", "-o", "unused.txt"],
        ],
    )
    def test_counts_must_be_positive(self, argv, capsys):
        """Fails at the boundary: exit 2 and one error line, where these
        used to die in a division or a validator deep in the run."""
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert "must be a positive integer" in err.strip().splitlines()[-1]


class TestNumbersAndSpecsAtTheBoundary:
    """Periods, stream fractions and fault specs fail like counts do:
    exit 2 and one error line, never a traceback from deep in the run."""

    def rejected(self, argv, capsys):
        """The exit code and last stderr line of a run that must stop
        before it reads or generates anything (stdout stays empty)."""
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        out, err = capsys.readouterr()
        assert out == ""
        assert "Traceback" not in err
        return code, err.strip().splitlines()[-1]

    def test_checkpoint_every_must_be_positive(self, capsys):
        argv = ["run", "--faults", "crash=0.5", "--checkpoint-every", "0"]
        code, line = self.rejected(argv, capsys)
        assert code == 2 and "must be a positive number" in line

    @pytest.mark.parametrize(
        "spec, expect",
        [
            ("bogus=1", "unknown fault spec key"),
            ("drop=0.1", "unknown fault spec key"),
            ("crash=nan", "crash must be a finite number >= 0"),
            ("crash=inf", "crash must be a finite number >= 0"),
            ("crash=-1", "crash must be a finite number >= 0"),
            ("stall=0.3:-50", "stall duration must be a finite number >= 0"),
        ],
    )
    def test_faults_spec_is_checked(self, spec, expect, capsys):
        argv = ["run", "--scale", "6", "--edge-factor", "2", "--faults", spec]
        code, line = self.rejected(argv, capsys)
        assert code == 2 and line.startswith("run: bad --faults spec:")
        assert expect in line

    @pytest.mark.parametrize(
        "spec, expect",
        [
            ("ratio=inf", "ratio must be a finite number >= 0"),
            ("ratio=nan", "ratio must be a finite number >= 0"),
            ("kinds=", "kinds must be names"),
            ("kinds=capacity", "'capacity' not available for 'bfs'"),
            ("final=-3", "final must be >= 0"),
            ("max=-1", "max must be >= 0"),
        ],
    )
    def test_serve_workload_spec_is_checked(self, spec, expect, capsys):
        argv = ["serve", "--scale", "6", "--edge-factor", "2", "--workload", spec]
        code, line = self.rejected(argv, capsys)
        assert code == 2 and line.startswith("serve: bad --workload spec:")
        assert expect in line

    @pytest.mark.parametrize("value", ["-0.5", "2"])
    def test_snapshot_at_is_a_fraction(self, value, capsys):
        code, line = self.rejected(["run", "--snapshot-at", value], capsys)
        assert code == 2 and "must be a fraction in [0, 1]" in line

    @pytest.mark.parametrize(
        "argv, flag, needs",
        [
            (["run", "--checkpoint-every", "0.2", "--checkpoint-path", "{ckpt}"],
             "--checkpoint-every, --checkpoint-path", "crash plan"),
            (["run", "--faults", "stall=0.3:500", "--checkpoint-every", "0.2"],
             "--checkpoint-every", "crash plan"),
            (["run", "--backend", "mp", "--checkpoint-every", "0.2"],
             "--checkpoint-every", "--backend des"),
            (["run", "--trace", "{trace}", "--trace-per-rank"],
             "--trace-per-rank", "--backend mp and --trace"),
            (["run", "--backend", "mp", "--trace-per-rank"],
             "--trace-per-rank", "--backend mp and --trace"),
            (["run", "--freshness"], "--freshness", "--metrics"),
        ],
        ids=[
            "checkpoint-without-faults", "checkpoint-with-stalls-only",
            "checkpoint-on-mp", "trace-per-rank-on-des",
            "trace-per-rank-without-trace", "freshness-without-metrics",
        ],
    )
    def test_a_flag_the_path_cannot_honour_is_a_usage_error(
        self, argv, flag, needs, tmp_path, capsys
    ):
        """A flag the chosen path would silently ignore stops the run:
        exit 2 and one line naming the flag and what it needs, before
        anything is written."""
        paths = {"ckpt": str(tmp_path / "c.npz"), "trace": str(tmp_path / "t.json")}
        argv = [a.format(**paths) for a in argv] + ["--scale", "6"]
        code, line = self.rejected(argv + ["--edge-factor", "2"], capsys)
        assert code == 2
        assert flag in line and needs in line
        assert list(tmp_path.iterdir()) == []


class TestRun:
    def run_cli(self, *argv, capsys=None):
        code = main(["run", "--scale", "8", "--edge-factor", "4", *argv])
        return code

    @pytest.mark.parametrize("algo", ALGOS)
    def test_each_algorithm_runs(self, algo, capsys):
        assert self.run_cli("--algo", algo) == 0
        out = capsys.readouterr().out
        assert "events=" in out

    @pytest.mark.parametrize("algo", [a for a in ALGOS if a != "con"])
    def test_verify_passes(self, algo, capsys):
        assert self.run_cli("--algo", algo, "--verify") == 0
        assert "verify: OK" in capsys.readouterr().out

    @pytest.mark.parametrize("algo", ALGOS)
    def test_table_row_resolves(self, algo):
        row = ALGOS[algo]
        if algo == "con":
            assert row.program is None and row.family is None
            return
        assert row.family in FAMILIES
        prog = pickle.loads(pickle.dumps(row.program()))  # ships to mp workers
        assert prog.name == algo

    def test_unknown_algorithm_names_the_known_ones(self):
        with pytest.raises(ValueError, match="known: con, bfs, det-bfs, sssp"):
            _algo("pagerank")

    def test_verify_con_is_noop(self, capsys):
        assert self.run_cli("--algo", "con", "--verify") == 0
        assert "nothing to verify" in capsys.readouterr().out

    def test_preset_graph(self, capsys):
        assert self.run_cli("--graph", "twitter", "--algo", "cc") == 0
        assert "Twitter" in capsys.readouterr().out

    def test_snapshot(self, capsys):
        assert self.run_cli("--algo", "bfs", "--snapshot-at", "0.5") == 0
        assert "snapshot #0" in capsys.readouterr().out

    def test_multiple_st_sources(self, capsys):
        assert self.run_cli("--algo", "st", "--sources", "3", "--verify") == 0
        assert "verify: OK" in capsys.readouterr().out

    def test_multi_node(self, capsys):
        assert self.run_cli("--nodes", "2", "--ranks-per-node", "3") == 0
        assert "ranks=6" in capsys.readouterr().out

    def test_generate_then_run_text(self, tmp_path, capsys):
        out_file = str(tmp_path / "wl.txt")
        assert main(["generate", "--scale", "8", "--edge-factor", "4", "-o", out_file]) == 0
        assert main(["run", "--input", out_file, "--algo", "cc", "--verify"]) == 0
        out = capsys.readouterr().out
        assert "wrote 1,024 events" in out
        assert "verify: OK" in out

    def test_generate_then_run_npz(self, tmp_path, capsys):
        out_file = str(tmp_path / "wl.npz")
        assert main(
            ["generate", "--scale", "8", "--edge-factor", "4", "--weights", "-o", out_file]
        ) == 0
        assert main(["run", "--input", out_file, "--algo", "sssp", "--verify"]) == 0
        assert "verify: OK" in capsys.readouterr().out

    def test_generate_requires_output(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["generate"])

    def test_seed_changes_graph(self, capsys):
        self.run_cli("--seed", "1")
        out1 = capsys.readouterr().out
        self.run_cli("--seed", "1")
        out2 = capsys.readouterr().out
        assert out1.split("wall time")[0] == out2.split("wall time")[0]


class TestServe:
    @pytest.mark.parametrize(
        "argv, cap",
        [
            (["--algo", "bfs", "--workload", "ratio=0.2,max=150"], 150),
            (["--backend", "mp", "--ranks", "2", "--algo", "cc",
              "--workload", "max=200"], 200),
        ],
        ids=["des", "mp"],
    )
    def test_capped_serve_verifies_answers(self, argv, cap, capsys):
        """The happy path on each backend: the cap sets the query count
        and stale-free answers are left to check against the oracle."""
        assert main(["serve", "--scale", "8", *argv, "--verify", "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["serving"]["queries"] == cap
        assert doc["verify"]["violations"] == 0
        assert doc["verify"]["checked"] > 0


class TestInputBoundary:
    """A bad ``--input`` fails at the boundary: exit 2, one line, no
    traceback — and a delete line is never replayed as an add."""

    CASES = {
        "delete line": ("1 2\n2 3\n3 4\nd 2 3\n", "event 4 is a delete"),
        "bad field": ("1 2\n2 x\n", ":2: non-integer field"),
        "no events": ("# nothing here\n\n", "no events"),
        "negative weight": ("0 1 -3\n1 2 1\n", "event 1 has weight -3"),
        "missing file": (None, "No such file"),
    }

    @pytest.mark.parametrize("command", ["run", "serve"])
    @pytest.mark.parametrize("case", CASES)
    def test_bad_input_is_a_usage_error(self, command, case, tmp_path, capsys):
        text, expect = self.CASES[case]
        path = tmp_path / "events.txt"
        if text is not None:
            path.write_text(text)
        with pytest.raises(SystemExit) as exc:
            main([command, "--input", str(path), "--algo", "cc", "--ranks", "2", "--verify"])
        assert exc.value.code == 2
        err = capsys.readouterr().err.strip()
        assert "Traceback" not in err and len(err.splitlines()) == 1
        assert expect in err and str(path) in err

    @pytest.mark.parametrize("algo", ALGOS)
    def test_negative_weight_stops_every_algo_before_the_engine(self, algo, tmp_path):
        """An undirected negative edge is a negative cycle: SSSP's costs
        would fall forever.  A subprocess, so a run that never quiesces
        fails on the timeout instead of hanging the suite."""
        path = tmp_path / "events.txt"
        path.write_text("0 1 -3\n1 2 1\n")
        argv = ["run", "--input", str(path), "--algo", algo, "--verify"]
        env = {**os.environ, "PYTHONPATH": str(Path(repro.__file__).parents[1])}
        done = subprocess.run(
            [sys.executable, "-m", "repro", *argv],
            capture_output=True, text=True, env=env, timeout=60,
        )  # fmt: skip
        assert done.returncode == 2 and not done.stdout
        assert done.stderr.strip().splitlines() == [
            f"repro: error: --input: {path}: event 1 has weight -3; weights must "
            "be >= 0 (an undirected negative edge is a negative cycle)"
        ]

    def test_zero_weight_stays_legal(self, tmp_path, capsys):
        path = tmp_path / "events.txt"
        path.write_text("0 1 0\n1 2 1\n")
        assert main(["run", "--input", str(path), "--algo", "sssp", "--verify"]) == 0
        assert "verify: OK" in capsys.readouterr().out

    def test_delete_in_npz_is_rejected_too(self, tmp_path, capsys):
        from repro.events.io import write_edge_npz

        path = str(tmp_path / "events.npz")
        write_edge_npz(path, [1, 2, 1], [2, 3, 2], kinds=[0, 0, 1])
        with pytest.raises(SystemExit) as exc:
            main(["run", "--input", path, "--algo", "cc"])
        assert exc.value.code == 2
        assert "event 3 is a delete" in capsys.readouterr().err
