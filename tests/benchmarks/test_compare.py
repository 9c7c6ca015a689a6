"""Unit tests for the bench-regression gate (benchmarks/compare.py).

CI trusts this tool to fail the build on a real throughput regression
and to stay quiet on runner noise, so both directions are pinned:
gated virtual metrics fail past tolerance, wall-clock metrics are
never gated, improvements and new benches pass.
"""

import json
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(REPO_ROOT / "benchmarks"))

from compare import compare_docs, compare_trees, iter_metrics, main  # noqa: E402

BASE = {
    "bench": "demo",
    "events_per_second": 1000.0,
    "wall_seconds": 5.0,
    "results": [
        {"events_per_second": 400.0, "wall_events_per_second": 10.0},
        {"events_per_second": 600.0, "n_ranks": 4},
    ],
    "peak_speedup": 2.0,
}


def clone(doc=BASE, **top_level):
    out = json.loads(json.dumps(doc))
    out.update(top_level)
    return out


class TestIterMetrics:
    def test_collects_gated_keys_recursively(self):
        assert dict(iter_metrics(BASE)) == {
            "events_per_second": 1000.0,
            "results[0].events_per_second": 400.0,
            "results[1].events_per_second": 600.0,
            "peak_speedup": 2.0,
        }

    def test_wall_metrics_are_never_gated(self):
        paths = dict(iter_metrics(BASE))
        assert not any("wall" in p for p in paths)

    def test_non_numeric_gated_keys_ignored(self):
        assert dict(iter_metrics({"events_per_second": "n/a"})) == {}

    def test_wall_speedup_4v1_is_gated_despite_marker(self):
        doc = clone(wall_speedup_4v1=3.0)
        assert dict(iter_metrics(doc))["wall_speedup_4v1"] == 3.0


class TestCompareDocs:
    def test_identical_docs_pass(self):
        assert compare_docs(BASE, clone(), tolerance=0.25) == []

    def test_regression_past_tolerance_fails(self):
        fresh = clone(events_per_second=700.0)  # -30%
        problems = compare_docs(BASE, fresh, tolerance=0.25)
        assert len(problems) == 1
        assert "events_per_second" in problems[0]
        assert "30.0%" in problems[0]

    def test_loss_within_tolerance_passes(self):
        fresh = clone(events_per_second=800.0)  # -20%
        assert compare_docs(BASE, fresh, tolerance=0.25) == []

    def test_improvement_passes(self):
        fresh = clone(events_per_second=5000.0, peak_speedup=9.0)
        assert compare_docs(BASE, fresh, tolerance=0.25) == []

    def test_wall_clock_collapse_is_not_a_regression(self):
        fresh = clone(wall_seconds=500.0)
        fresh["results"][0]["wall_events_per_second"] = 0.001
        assert compare_docs(BASE, fresh, tolerance=0.25) == []

    def test_nested_regression_is_located(self):
        fresh = clone()
        fresh["results"][1]["events_per_second"] = 60.0
        problems = compare_docs(BASE, fresh, tolerance=0.25)
        assert problems and "results[1].events_per_second" in problems[0]

    def test_missing_gated_metric_fails(self):
        fresh = clone()
        del fresh["peak_speedup"]
        problems = compare_docs(BASE, fresh, tolerance=0.25)
        assert problems == ["peak_speedup: gated metric missing from fresh run"]

    def test_wall_speedup_4v1_collapse_is_a_regression(self):
        base = clone(wall_speedup_4v1=3.0)
        fresh = clone(wall_speedup_4v1=1.0)
        problems = compare_docs(base, fresh, tolerance=0.25)
        assert len(problems) == 1 and "wall_speedup_4v1" in problems[0]

    def test_zero_baseline_is_skipped(self):
        base = clone(events_per_second=0.0)
        fresh = clone(events_per_second=0.0)
        assert compare_docs(base, fresh, tolerance=0.25) == []


class TestServingGates:
    """The gate flavours added for BENCH_serving (hit_rate, lower-is-
    better p99 latency, same-host cache-vs-collection ratio)."""

    SERVING = {
        "bench": "serving_latency",
        "converged": {"hit_rate": 0.95, "wall_p99_point_us": 10.0,
                      "wall_p50_point_us": 3.0, "hit_rate_mixed": 0.02},
        "wall_speedup_cache_vs_collection": 100.0,
        "wall_speedup_trigger_index": 2000.0,
    }

    def test_gated_paths(self):
        paths = dict(iter_metrics(self.SERVING))
        assert set(paths) == {
            "converged.hit_rate",
            "converged.wall_p99_point_us",
            "wall_speedup_cache_vs_collection",
            "wall_speedup_trigger_index",
        }
        # hit_rate_mixed (nondeterministic mid-ingest figure) and the
        # plain-wall p50 stay ungated.

    def test_hit_rate_drop_fails(self):
        fresh = clone(self.SERVING)
        fresh["converged"]["hit_rate"] = 0.60  # -37%
        problems = compare_docs(self.SERVING, fresh, tolerance=0.25)
        assert len(problems) == 1 and "hit_rate" in problems[0]

    def test_p99_increase_gated_with_loose_override(self):
        fresh = clone(self.SERVING)
        fresh["converged"]["wall_p99_point_us"] = 24.0  # 2.4x: within 2.5x
        assert compare_docs(self.SERVING, fresh, tolerance=0.25) == []
        fresh["converged"]["wall_p99_point_us"] = 30.0  # 3.0x: blowup
        problems = compare_docs(self.SERVING, fresh, tolerance=0.25)
        assert len(problems) == 1 and "wall_p99_point_us" in problems[0]

    def test_p99_decrease_is_an_improvement(self):
        fresh = clone(self.SERVING)
        fresh["converged"]["wall_p99_point_us"] = 1.0
        assert compare_docs(self.SERVING, fresh, tolerance=0.25) == []

    def test_same_host_ratios_gated_with_override(self):
        # 2x jitter around a ~100x ratio passes (override 0.5)...
        fresh = clone(
            self.SERVING,
            wall_speedup_cache_vs_collection=55.0,
            wall_speedup_trigger_index=1100.0,
        )
        assert compare_docs(self.SERVING, fresh, tolerance=0.25) == []
        # ...a structural collapse does not.
        fresh = clone(self.SERVING, wall_speedup_cache_vs_collection=2.0)
        problems = compare_docs(self.SERVING, fresh, tolerance=0.25)
        assert len(problems) == 1
        assert "wall_speedup_cache_vs_collection" in problems[0]


class TestChurnGates:
    """BENCH_churn: the exact visits-per-event count (lower is better)
    and the cost-model rate under its ``virtual_`` name; the wall rate
    next to it stays ungated."""

    CHURN = {
        "bench": "churn",
        "results": {
            "steady": {
                "visits_per_event": 60.0,
                "virtual_events_per_second": 250000.0,
                "wall_seconds": 0.5,
            },
            "mp_steady": {"wall_events_per_second": 1000.0},
            "scaling": [{"vertices": 16, "visits_per_event": 33.0}],
        },
    }

    def test_gated_paths(self):
        assert set(dict(iter_metrics(self.CHURN))) == {
            "results.steady.visits_per_event",
            "results.steady.virtual_events_per_second",
            "results.scaling[0].visits_per_event",
        }

    def test_visit_amplification_is_a_regression_and_a_cut_is_not(self):
        fresh = clone(self.CHURN)
        fresh["results"]["scaling"][0]["visits_per_event"] = 155.0
        problems = compare_docs(self.CHURN, fresh, tolerance=0.25)
        assert len(problems) == 1 and "scaling[0].visits_per_event" in problems[0]
        fresh["results"]["scaling"][0]["visits_per_event"] = 21.5
        assert compare_docs(self.CHURN, fresh, tolerance=0.25) == []

    def test_virtual_rate_drop_fails(self):
        fresh = clone(self.CHURN)
        fresh["results"]["steady"]["virtual_events_per_second"] = 7600.0
        problems = compare_docs(self.CHURN, fresh, tolerance=0.25)
        assert len(problems) == 1 and "virtual_events_per_second" in problems[0]


def write_tree(directory, **docs):
    directory.mkdir(exist_ok=True)
    for name, doc in docs.items():
        (directory / f"BENCH_{name}.json").write_text(json.dumps(doc))
    return directory


class TestCompareTrees:
    def test_clean_trees_pass(self, tmp_path):
        base = write_tree(tmp_path / "base", a=BASE, b=clone())
        fresh = write_tree(tmp_path / "fresh", a=clone(), b=clone())
        problems, notes = compare_trees(base, fresh, 0.25)
        assert problems == []
        assert len(notes) == 2 and all("OK" in n for n in notes)

    def test_regressed_file_fails_with_filename(self, tmp_path):
        base = write_tree(tmp_path / "base", a=BASE)
        fresh = write_tree(tmp_path / "fresh", a=clone(events_per_second=1.0))
        problems, _ = compare_trees(base, fresh, 0.25)
        assert problems and problems[0].startswith("BENCH_a.json:")

    def test_not_rerun_bench_is_skipped(self, tmp_path):
        base = write_tree(tmp_path / "base", a=BASE)
        fresh = write_tree(tmp_path / "fresh")
        problems, notes = compare_trees(base, fresh, 0.25)
        assert problems == []
        assert notes == ["BENCH_a.json: not re-run, skipped"]

    def test_new_bench_without_baseline_passes(self, tmp_path):
        base = write_tree(tmp_path / "base", a=BASE)
        fresh = write_tree(tmp_path / "fresh", a=clone(), extra=clone())
        problems, notes = compare_trees(base, fresh, 0.25)
        assert problems == []
        assert any("new bench" in n for n in notes)

    def test_empty_baseline_dir_fails(self, tmp_path):
        base = write_tree(tmp_path / "base")
        fresh = write_tree(tmp_path / "fresh", a=clone())
        problems, _ = compare_trees(base, fresh, 0.25)
        assert problems == [f"no BENCH_*.json baselines found in {base}"]


class TestMain:
    def test_exit_zero_on_pass(self, tmp_path, capsys):
        base = write_tree(tmp_path / "base", a=BASE)
        fresh = write_tree(tmp_path / "fresh", a=clone())
        assert main(["--baseline", str(base), "--fresh", str(fresh)]) == 0
        assert "within tolerance" in capsys.readouterr().out

    def test_exit_one_on_regression(self, tmp_path, capsys):
        base = write_tree(tmp_path / "base", a=BASE)
        fresh = write_tree(tmp_path / "fresh", a=clone(events_per_second=1.0))
        assert main(["--baseline", str(base), "--fresh", str(fresh)]) == 1
        assert "FAIL" in capsys.readouterr().err

    def test_custom_tolerance(self, tmp_path):
        base = write_tree(tmp_path / "base", a=BASE)
        fresh = write_tree(tmp_path / "fresh", a=clone(events_per_second=800.0))
        argv = ["--baseline", str(base), "--fresh", str(fresh)]
        assert main([*argv, "--tolerance", "0.1"]) == 1
        assert main([*argv, "--tolerance", "0.25"]) == 0

    def test_invalid_tolerance_rejected(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["--baseline", str(tmp_path), "--fresh", str(tmp_path),
                  "--tolerance", "1.5"])

    def test_gate_passes_on_the_committed_artifacts(self):
        """The committed BENCH files must gate cleanly against
        themselves — guards against a malformed commit."""
        assert main(["--baseline", str(REPO_ROOT), "--fresh", str(REPO_ROOT)]) == 0
