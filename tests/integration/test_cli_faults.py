"""CLI integration: `repro run --faults` (lossy wire and crash plans)."""

import json

from repro.cli import main


def run_cli(*argv):
    return main(["run", "--scale", "7", "--edge-factor", "4", *argv])


class TestLossyWire:
    def test_lossy_run_verifies(self, capsys):
        code = run_cli(
            "--algo", "bfs", "--verify",
            "--faults", "drop=0.1,dup=0.02,delay=0.05,seed=3",
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "verify: OK" in out
        assert "faults:" in out and "retransmits=" in out

    def test_clean_plan_reports_zero_drops(self, capsys):
        assert run_cli("--algo", "cc", "--faults", "seed=1") == 0
        out = capsys.readouterr().out
        assert "dropped=0" in out and "retransmits=0" in out

    def test_json_document_carries_fault_block(self, capsys):
        code = run_cli(
            "--algo", "cc", "--json", "--verify",
            "--faults", "drop=0.05,seed=2",
        )
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["verify"]["mismatches"] == 0
        assert doc["faults"]["plan"]["drop"] == 0.05
        assert doc["faults"]["recoveries"] == 0
        assert doc["faults"]["wire"]["app_sent"] == doc["faults"]["wire"][
            "app_delivered"
        ]

    def test_bad_spec_rejected(self, capsys):
        assert run_cli("--algo", "bfs", "--faults", "explode=1") == 2
        assert "unknown fault spec" in capsys.readouterr().out


class TestCrashPlans:
    def test_crash_run_recovers_and_verifies(self, capsys):
        code = run_cli(
            "--algo", "cc", "--verify",
            "--faults", "drop=0.05,crash=0.4,seed=5",
            "--checkpoint-every", "0.25",
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "verify: OK" in out
        assert "recoveries=1" in out

    def test_crash_json_counts_incarnations(self, capsys, tmp_path):
        code = run_cli(
            "--algo", "bfs", "--json", "--verify",
            "--faults", "crash=0.3,crash=0.6,seed=8",
            "--checkpoint-every", "0.2",
            "--checkpoint-path", str(tmp_path / "cli_ckpt.npz"),
        )
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["verify"]["mismatches"] == 0
        assert doc["faults"]["incarnations"] == doc["faults"]["recoveries"] + 1
        assert doc["faults"]["checkpoints"] >= 1
        assert doc["faults"]["events_replayed"] > 0

    def test_crash_plus_snapshot_rejected(self, capsys):
        code = run_cli(
            "--algo", "bfs",
            "--faults", "crash=0.5",
            "--snapshot-at", "0.5",
        )
        assert code == 2
        assert "do not combine" in capsys.readouterr().out
