"""Self-check of the benchmark itself, at tiny sizes (<30 s).

Run explicitly — it is not part of the tier-1 ``testpaths``:

    PYTHONPATH=src python -m pytest benchmarks/core -q

It asserts the contract later PRs rely on: the exact workload and
metric names, that the wrappers' view of the program coheres with the
program's own counters, that tracing leaves no wrapper behind, that
exact counts repeat for a seed, and that the layer split discriminates
between the per-event and the bulk path.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
REPO = HERE.parent.parent
sys.path.insert(0, str(HERE))
sys.path.insert(1, str(REPO / "src"))

import spec  # noqa: E402
from compare import verdict  # noqa: E402
from run import child_measure  # noqa: E402
from trace import ENTRY_POINTS, PROGRAM_CALLBACKS, LayerTrace  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

NAMES = ("ingest_event", "ingest_bulk", "ingest_mp", "churn", "serve_mixed", "update_step")
E2E_NAMES = (
    "setup_s",
    "events_per_s",
    "peak_rss_mb",
    "update_p50_us",
    "update_p99_us",
    "query_p50_us",
    "query_p99_us",
    "stale_frac",
    "failed_frac",
)


def _tiny(name: str, seed: int, traced: bool = False) -> dict:
    # 0 seconds: spec.MIN_ROUNDS rounds and no more
    return child_measure(name, seed, 0, traced, spec.TINY, spec.TINY_PLAN)


@pytest.fixture(scope="module")
def traced() -> dict[str, dict]:
    """One tiny traced run of every workload (in-process)."""
    return {name: _tiny(name, 12, traced=True) for name in NAMES}


def test_names_are_the_contract():
    assert tuple(spec.WORKLOADS) == NAMES == tuple(WORKLOADS)
    assert tuple(m.name for m in spec.END_TO_END) == E2E_NAMES
    doc = json.loads((REPO / "BENCHMARK.json").read_text())
    assert set(doc) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }  # fmt: skip
    assert doc["paths"] == ["benchmarks/core"]
    assert doc["run_seconds"] == spec.RUN_SECONDS
    assert [(w["name"], w["why"]) for w in doc["workloads"]] == [
        (name, spec.WORKLOADS[name]) for name in spec.DRIVER_WORKLOADS
    ]
    assert [(m["name"], m["unit"], m["better"], m["bound"]) for m in doc["end_to_end"]] == [
        (name, spec.E2E[name].unit, spec.E2E[name].better, bound)
        for name, bound in spec.DRIVER_BOUNDS.items()
    ]
    assert [(m["name"], m["unit"], m["better"]) for m in doc["per_layer"]] == (
        spec.per_layer_metrics()
    )


def test_every_workload_verifies_and_reports_its_metrics(traced):
    for name, doc in traced.items():
        assert doc["failed"] == 0 and doc["attempted"] > 0, name
        expected = {m.name for m in spec.END_TO_END if name in m.workloads}
        assert set(doc["metrics"]) == expected, name
        assert all(v > 0 for k, v in doc["metrics"].items() if k != "failed_frac"), name
        # timed metrics are the clock's readings at the reference host's speed
        rate, wall = doc["metrics"]["events_per_s"], doc["wall"]["events_per_s"]
        assert rate == pytest.approx(wall * doc["host_factor"]), name
        assert set(doc["layers"]) >= set(spec.LAYERS), name
        assert (HERE / "out" / f"{name}.trace.json").exists()


def test_wrapper_counts_cohere_with_program_counters(traced):
    for name in ("ingest_event", "churn", "serve_mixed", "update_step"):
        doc = traced[name]
        counts, returns = doc["traced_counts"], doc["returns"]
        assert returns["DegAwareRHH.insert_edge"] == counts["edge_inserts"], name
        assert returns["DegAwareRHH.delete_edge"] == counts["edge_deletes"], name
        pulls = returns["ArrayEventStream.pull"] + returns["ListEventStream.pull"]
        assert pulls == counts["source_events"], name
    assert traced["churn"]["traced_counts"]["edge_deletes"] > 0
    # every callback dispatch is one visit
    for name in ("ingest_event", "churn"):
        doc = traced[name]
        assert doc["layers"]["algorithms"]["calls"] >= doc["traced_counts"]["visits"]


def test_tracing_restores_every_wrapped_attribute():
    programs = WORKLOADS["churn"].programs
    before = {}
    trace = LayerTrace()
    trace.install(programs)
    for target, attr, original in trace.installed():
        before[(target, attr)] = original
        assert vars(target)[attr] is not original
    assert len(before) == sum(len(v) for v in ENTRY_POINTS.values()) + len(programs) * len(
        PROGRAM_CALLBACKS
    )
    trace.uninstall()
    for (target, attr), original in before.items():
        assert vars(target).get(attr, original) is original, (target, attr)
    # inherited callbacks are uncovered again, not shadowed by a copy
    assert "on_update" not in vars(programs[0])


def test_exact_counts_repeat_per_seed_and_inputs_differ_across_seeds():
    def exact(seed: int) -> dict:
        doc = _tiny("serve_mixed", seed)
        return {"visits": doc["counts"]["visits"], "stale": doc["metrics"]["stale_frac"]}

    assert exact(12) == exact(12)
    assert exact(12) != exact(13)
    assert _tiny("churn", 12)["counts"]["visits"] == _tiny("churn", 12)["counts"]["visits"]


def test_layer_split_discriminates(traced):
    event, bulk = traced["ingest_event"]["layers"], traced["ingest_bulk"]["layers"]
    assert event["kernels.frontier"]["calls"] == 0
    assert event["runtime.bulk"]["calls"] == 0
    assert bulk["kernels.frontier"]["calls"] > 0
    # callbacks per source event: a handful per event vs almost none
    # (the init visitor, plus whatever a de-optimized chunk replays)
    per_event = {
        name: traced[name]["layers"]["algorithms"]["calls"]
        / traced[name]["traced_counts"]["source_events"]
        for name in ("ingest_event", "ingest_bulk")
    }
    assert per_event["ingest_event"] > 3
    assert per_event["ingest_bulk"] < 0.05 * per_event["ingest_event"]
    for name in ("ingest_event", "ingest_bulk", "churn", "update_step"):
        assert traced[name]["layers"]["serving.server"]["calls"] == 0
    assert traced["serve_mixed"]["layers"]["serving.server"]["calls"] > 0
    mp = traced["ingest_mp"]["traced_counts"]
    assert mp["parallel.vecapply.kernel_records"] > 0
    assert mp["parallel.codec.wire_records"] > 0


def test_compare_verdicts():
    rate, failed = spec.E2E["events_per_s"], spec.E2E["failed_frac"]
    steady = [100.0, 101.0, 102.0, 103.0, 104.0]
    assert verdict(rate, steady, steady) == "unchanged"
    assert verdict(rate, steady, [v * 0.8 for v in steady]) == "worse"
    assert verdict(rate, steady, [v * 1.2 for v in steady]) == "improved"
    # a difference the sets' own runs span is not a finding
    noisy = [70.0, 85.0, 100.0, 115.0, 130.0]
    assert verdict(rate, noisy, [v * 0.85 for v in noisy]) == "unresolved"
    assert verdict(spec.E2E["query_p99_us"], steady, noisy) == "demoted"
    # one failed run in five shows, whatever the median says
    assert verdict(failed, [0.0] * 5, [0.0, 0.0, 0.0, 0.0, 1.0]) == "worse"


def test_driver_mode_prints_the_contract_object():
    for trace_flag, names in (
        ("0", list(spec.DRIVER_BOUNDS)),
        ("1", [m[0] for m in spec.per_layer_metrics()]),
    ):
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", "ingest_event", "--seed", "3",
             "--seconds", "1", "--trace", trace_flag, "--tiny"],
            capture_output=True, text=True, cwd=REPO, timeout=60,
        )  # fmt: skip
        assert proc.returncode == 0, proc.stderr
        doc = json.loads(proc.stdout.splitlines()[-1])
        assert set(doc) == {"correct", "attempted", "failed", "metrics"}
        assert doc["correct"] is True and doc["failed"] == 0 and doc["attempted"] >= 1
        assert list(doc["metrics"]) == names
        assert all(set(v) == {"value", "unit"} for v in doc["metrics"].values())
