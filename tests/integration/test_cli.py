"""Tests for the repro CLI (python -m repro)."""

import pickle

import pytest

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
        """The exit code and last output line of a run that must stop."""
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        out, err = capsys.readouterr()
        assert "Traceback" not in out + err
        return code, (out + err).strip().splitlines()[-1]

    @pytest.mark.parametrize("value", ["0", "-1"])
    def test_sample_interval_must_be_positive(self, value, capsys):
        code, line = self.rejected(["run", "--sample-interval", value], capsys)
        assert code == 2 and "must be a positive number" in line

    def test_checkpoint_every_must_be_positive(self, capsys):
        argv = ["run", "--faults", "crash=0.5", "--checkpoint-every", "0"]
        code, line = self.rejected(argv, capsys)
        assert code == 2 and "must be a positive number" in line

    @pytest.mark.parametrize(
        "spec, expect",
        [
            ("bogus=1", "unknown fault spec key"),
            ("drop=2", "drop must be a probability"),
        ],
    )
    def test_faults_spec_is_checked(self, spec, expect, capsys):
        argv = ["run", "--scale", "6", "--edge-factor", "2", "--faults", spec]
        code, line = self.rejected(argv, capsys)
        assert code == 2 and line.startswith("run: bad --faults spec:")
        assert expect in line

    @pytest.mark.parametrize("value", ["-0.5", "2"])
    def test_snapshot_at_is_a_fraction(self, value, capsys):
        code, line = self.rejected(["run", "--snapshot-at", value], capsys)
        assert code == 2 and "must be a fraction in [0, 1]" in line

    def test_queries_must_be_positive(self, capsys):
        argv = ["serve", "--backend", "mp", "--queries", "-3"]
        code, line = self.rejected(argv, capsys)
        assert code == 2 and "must be a positive integer" in line


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


class TestInputBoundary:
    """A bad ``--input`` fails at the boundary: exit 2, one line, no
    traceback — and a delete line is never replayed as an add."""

    CASES = {
        "delete line": ("1 2\n2 3\n3 4\nd 2 3\n", "event 4 is a delete"),
        "bad field": ("1 2\n2 x\n", ":2: non-integer field"),
        "no events": ("# nothing here\n\n", "no events"),
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

    def test_delete_in_npz_is_rejected_too(self, tmp_path, capsys):
        from repro.events.io import write_edge_npz

        path = str(tmp_path / "events.npz")
        write_edge_npz(path, [1, 2, 1], [2, 3, 2], kinds=[0, 0, 1])
        with pytest.raises(SystemExit) as exc:
            main(["run", "--input", path, "--algo", "cc"])
        assert exc.value.code == 2
        assert "event 3 is a delete" in capsys.readouterr().err
