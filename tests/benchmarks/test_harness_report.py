"""Output-shape contract of the bench harness's ``report_json``.

The driver and EXPERIMENTS.md consumers rely on the ``BENCH_*.json``
artifacts landing at the repo root, having sorted keys (stable diffs),
ending with a trailing newline (POSIX text files), and carrying a
``meta`` block recording the run environment (cores, python, commit)
so numbers are comparable across hosts.  Locked in here so harness
refactors cannot silently change the artifact format.
"""

import json
import os
import platform
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(REPO_ROOT / "benchmarks"))

from harness import REPO_ROOT as HARNESS_ROOT  # noqa: E402
from harness import report_json, run_metadata  # noqa: E402

PAYLOAD = {
    "zeta": 1,
    "alpha": {"nested_z": [3, 2, 1], "nested_a": True},
    "mid": None,
}


def test_run_metadata_contents():
    meta = run_metadata()
    assert meta["cores"] == os.cpu_count()
    assert meta["python"] == platform.python_version()
    assert isinstance(meta["commit"], str) and meta["commit"]
    assert isinstance(meta["bench_scale"], int)
    assert isinstance(meta["ranks_per_node"], int)
    assert meta["host_platform"]


def test_report_json_shape(tmp_path):
    name = "_pytest_shape_probe"
    path = report_json(name, PAYLOAD)
    try:
        # Artifact lands at the repo root under the BENCH_ prefix.
        assert path == REPO_ROOT / f"BENCH_{name}.json"
        assert HARNESS_ROOT == REPO_ROOT
        assert path.parent == REPO_ROOT

        text = path.read_text()
        # Trailing newline, exactly one.
        assert text.endswith("\n")
        assert not text.endswith("\n\n")
        loaded = json.loads(text)
        # The payload round-trips losslessly, plus the stamped meta.
        meta = loaded.pop("meta")
        assert loaded == PAYLOAD
        assert meta["cores"] == os.cpu_count()
        assert meta["python"] == platform.python_version()
        assert meta["commit"]
        # Keys sorted at every nesting level (indent 2, sort_keys).
        assert text == json.dumps(
            json.loads(text), indent=2, sort_keys=True
        ) + "\n"
        lines = text.splitlines()
        top_keys = [
            line.split('"')[1] for line in lines if line.startswith('  "')
        ]
        assert top_keys == sorted(top_keys) == ["alpha", "meta", "mid", "zeta"]
    finally:
        path.unlink(missing_ok=True)


def test_report_json_keeps_explicit_meta(tmp_path):
    name = "_pytest_shape_probe_meta"
    path = report_json(name, {"k": 1, "meta": {"cores": -1}})
    try:
        assert json.loads(path.read_text())["meta"] == {"cores": -1}
    finally:
        path.unlink(missing_ok=True)


def test_report_json_returns_written_path(tmp_path):
    name = "_pytest_shape_probe2"
    path = report_json(name, {"k": 1})
    try:
        assert path.exists()
        doc = json.loads(path.read_text())
        assert doc["k"] == 1 and "meta" in doc
    finally:
        path.unlink(missing_ok=True)


def test_every_committed_bench_artifact_is_stamped():
    """A ``BENCH_*.json`` without ``meta.commit`` cannot be traced to
    the code that produced it (ROADMAP aim 1)."""
    # BENCH__pytest_* are the probes the tests above write and unlink.
    artifacts = sorted(
        path
        for path in REPO_ROOT.glob("BENCH_*.json")
        if not path.name.startswith("BENCH__pytest")
    )
    assert artifacts
    unstamped = [
        path.name
        for path in artifacts
        if not json.loads(path.read_text()).get("meta", {}).get("commit")
    ]
    assert unstamped == []
