"""The benchmark's one command.

    PYTHONPATH=src python benchmarks/core/run.py \\
        [--workload W] [--seed N] [--repeats R] [--trace] [--json PATH] [--profile]

runs every workload with tracing off, verifies every output against the
static oracle and prints every end-to-end metric by name with its unit.
``--trace`` adds one traced pass per run (per-layer numbers and the
tracing overhead); ``--profile`` cross-checks the wrapper attribution of
``ingest_event`` and ``churn`` against cProfile.

Each (workload, repeat) runs in a fresh child process with a hard
timeout: ``peak_rss_mb`` is per workload, no state leaks between runs,
and a hang is a counted failure instead of a stuck benchmark.  Inside
the child: an untimed tiny warm-up pass, then rounds of ``{set-up, timed
run}`` passes over the run's inputs (``spec.PLAN``) until ``--seconds``
are spent, the RSS reading, and only then verification (so the oracle's
memory is not booked to the program).  The timed metrics are reported at
the reference host's speed (``host_probe``).

Driver mode — ``--workload W --seed N --seconds S --trace 0|1`` — is the
same run of one workload, one child, ending in the one-line JSON object
``BENCHMARK.json`` describes.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import signal
import subprocess
import sys
import time
from dataclasses import asdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
REPO = HERE.parent.parent
OUT = HERE / "out"
sys.path.insert(0, str(HERE))
if (REPO / "src").is_dir():
    sys.path.insert(1, str(REPO / "src"))

import spec  # noqa: E402
from compare import quartiles  # noqa: E402

RESULT_MARK = "@@result "
#: Element kinds that are latencies of single operations (``Pass.elements_ns``).
LATENCY_KINDS = {"query", "update"}


# ----------------------------------------------------------------------
# child: one workload, one process
# ----------------------------------------------------------------------
def _peak_rss_mb(with_children: bool) -> float:
    """``ru_maxrss`` of this process, plus — for the mp workload — the
    largest rank process it waited for (RUSAGE_CHILDREN reports the
    maximum over children, not their sum)."""
    kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if with_children:
        kb += resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return kb / 1024.0


def host_probe():
    """A fixed Python loop, 1.3 ms at the host's best (dict stores,
    tuple allocations, list reads - what the per-event path is made
    of); returns a function that times it three times and returns the
    fastest, in s.

    The reference host's speed moves by up to 1.7x for minutes on end
    (README "Steadiness"), interpreted code being hit hardest, and the
    program and this loop slow alike.  Timed next to every pass and
    reduced the way the passes are - fastest observation per input
    slot, averaged over the slots - it says how slow the host was
    during this run (``host_factor``), and the timed end-to-end
    metrics are reported at the reference speed."""
    keys = [(i * 0x9E3779B97F4A7C15) % (1 << 40) for i in range(1 << 13)]

    def probe() -> float:
        best = float("inf")
        for _ in range(3):
            t0 = time.perf_counter()
            table: dict = {}
            for i, key in enumerate(keys):
                table[key] = (i, table.get(keys[i >> 1]))
            best = min(best, time.perf_counter() - t0)
        return best

    return probe


def child_measure(name: str, seed: int, seconds: float, traced: bool, sizes, inputs: int) -> dict:
    """One run of one workload: ``inputs`` inputs (sub-seeds of
    ``seed``), each passed over once per round, round after round until
    ``seconds`` are spent (a traced run keeps half the time for its
    traced round).  The clock can stop a round between two inputs once
    every input has had ``spec.MIN_ROUNDS`` passes: time decides only
    how often the same work is observed, never what the work is, so
    exact counts repeat for a seed on any host.

    Every metric is defined over the union of the run's inputs.  For
    the throughput clock every timed element of an input (a run call,
    an update) is represented by its fastest observation
    across the rounds: interference on a shared host only ever adds
    time.  Latency percentiles are not minimised: a stall the program
    causes itself (GC, a rehash, an allocator refill) need not land on
    the same element every round and must stay visible, so each round
    gives the percentiles of everything it observed and the run
    reports their median across rounds."""
    import numpy as np

    from workloads import VERIFY_KEYS, WORKLOADS, pooled_counts

    wl = WORKLOADS[name]
    # Warm-up: imports, numpy dispatch, first fork.  Not timed; at HEAD
    # the first mp run of a process is ~40% slower than the next four.
    wl.run(wl.setup(seed, spec.TINY), None)

    budget_s = seconds / 2 if traced else seconds
    seeds = spec.sub_seeds(seed, inputs)
    probe = host_probe()
    best_probe = [float("inf")] * len(seeds)
    kept: list[dict] = [{} for _ in seeds]  # what verify() reads of the set-up
    first: list = [None] * len(seeds)  # round-0 pass, outputs kept
    best: list[dict] = [{} for _ in seeds]  # kind -> fastest ns per element
    best_setup = [float("inf")] * len(seeds)
    diverged = [False] * len(seeds)
    ops = [0] * len(seeds)
    failed_in_run = [0] * len(seeds)
    round_pcts: dict[str, list] = {}  # latency kind -> (p50, p99) ns of each round
    rounds = 0  # complete ones
    deadline = time.perf_counter() + budget_s
    while rounds < spec.MIN_ROUNDS or time.perf_counter() < deadline:
        observed: dict[str, list] = {}
        for j, sub_seed in enumerate(seeds):
            if rounds >= spec.MIN_ROUNDS and time.perf_counter() >= deadline:
                break
            gc.collect()
            best_probe[j] = min(best_probe[j], probe())
            t0 = time.perf_counter()
            ctx = wl.setup(sub_seed, sizes)
            best_setup[j] = min(best_setup[j], time.perf_counter() - t0)
            result = wl.run(ctx, None)
            ops[j] += result.ops
            failed_in_run[j] += min(result.ops, result.failed_ops)
            for kind in LATENCY_KINDS & result.elements_ns.keys():
                observed.setdefault(kind, []).append(result.elements_ns[kind])
            if rounds == 0:
                kept[j] = {k: ctx[k] for k in VERIFY_KEYS if k in ctx}
                first[j] = result
                best[j] = result.elements_ns
            else:
                # Same input, same answer, same elements: one oracle
                # check per input then covers every round.
                same = result.outputs == first[j].outputs and all(
                    len(ns) == len(best[j][kind]) for kind, ns in result.elements_ns.items()
                )
                if same:
                    best[j] = {
                        kind: np.minimum(ns, best[j][kind])
                        for kind, ns in result.elements_ns.items()
                    }
                diverged[j] |= not same
            del ctx, result
        else:
            for kind, arrays in observed.items():
                pcts = np.percentile(np.concatenate(arrays), (50, 99))
                round_pcts.setdefault(kind, []).append(pcts)
            rounds += 1
    peak_rss_mb = _peak_rss_mb(with_children=name == "ingest_mp")

    failed = 0
    for j in range(len(seeds)):
        wrong = diverged[j] or wl.verify(kept[j], first[j]) > 0
        failed += ops[j] if wrong else failed_in_run[j]
    counts = pooled_counts(first)
    timed_s = sum(float(ns.sum()) for b in best for ns in b.values()) / 1e9
    clock_s = sum(float(b[wl.clock].sum()) for b in best) / 1e9
    # > 1: the host ran slower than the reference host at its best.
    host_factor = sum(best_probe) / len(seeds) / spec.PROBE_REF_S
    wall = {"setup_s": sum(best_setup), "events_per_s": sum(p.events for p in first) / clock_s}
    metrics = {
        "setup_s": wall["setup_s"] / host_factor,
        "events_per_s": wall["events_per_s"] * host_factor,
        "peak_rss_mb": peak_rss_mb,
        "failed_frac": failed / sum(ops),
    }
    for kind, pcts in round_pcts.items():
        p50, p99 = np.median(pcts, axis=0)
        metrics[f"{kind}_p50_us"] = float(p50) / 1e3 / host_factor
        metrics[f"{kind}_p99_us"] = float(p99) / 1e3 / host_factor
    if "answers" in counts:
        metrics["stale_frac"] = counts["stale_answers"] / counts["answers"]
    doc = {
        "workload": name,
        "seed": seed,
        "numpy": np.__version__,
        "inputs": inputs,
        "rounds": rounds,
        "attempted": sum(ops),
        "failed": failed,
        "metrics": metrics,
        "host_factor": host_factor,
        "wall": wall,  # the two rates as the clock read them
        "counts": counts,
    }
    if traced:
        doc.update(traced_round(name, seeds, sizes, first, timed_s))
        doc["attempted"] += doc.pop("traced_ops")
        doc["failed"] += doc.pop("traced_failed")
    return doc


def traced_round(name: str, seeds: list[int], sizes, first: list, untraced_s: float) -> dict:
    """One more round over the run's inputs, under the wrappers.  A
    fresh LayerTrace per input, so that set-up (engine build, preload)
    is measured by none."""
    from trace import DRIVER_LAYER, LayerTrace, write_spans
    from workloads import WORKLOADS, pooled_counts

    wl = WORKLOADS[name]
    traces, results = [], []
    failed = 0
    for j, sub_seed in enumerate(seeds):
        trace = LayerTrace()
        trace.install(wl.programs)
        try:
            ctx = wl.setup(sub_seed, sizes)
            trace.reset()
            result = wl.run(ctx, trace)
        finally:
            trace.uninstall()
        del ctx
        if result.outputs != first[j].outputs or result.failed_ops:
            failed += result.ops
        traces.append(trace)
        results.append(result)
    layers: dict[str, dict[str, float]] = {}
    returns: dict[str, int] = {}
    for trace in traces:
        for layer, row in trace.layer_metrics().items():
            into = layers.setdefault(layer, dict.fromkeys(row, 0))
            for key, value in row.items():
                into[key] += value
        for key, value in trace.returns.items():
            returns[key] = returns.get(key, 0) + value
    timed_s = sum(float(ns.sum()) for p in results for ns in p.elements_ns.values()) / 1e9
    real_self = sum(v["self_s"] for k, v in layers.items() if k != DRIVER_LAYER)
    write_spans(OUT / f"{name}.trace.json", name, layers, traces)
    return {
        "layers": layers,
        "returns": returns,
        "traced_counts": pooled_counts(results),
        "trace": {
            "overhead_frac": timed_s / untraced_s - 1.0,
            "coverage_frac": real_self / timed_s,
        },
        "traced_ops": sum(p.ops for p in results),
        "traced_failed": failed,
    }


#: cProfile source file (under repro/) -> layer.  Helper modules outside
#: the table (util.hashing, partition, comm.termination, heapq builtins)
#: stay "(unlayered)": the wrappers book their time to whichever layer
#: called them, which is one reason the two attributions can differ.
PROFILE_LAYERS = {
    "events/stream.py": "events.stream",
    "comm/des.py": "comm.des",
    "runtime/engine.py": "runtime.engine",
    "runtime/program.py": "runtime.program",
    "storage/degaware.py": "storage.degaware",
    "storage/robin_hood.py": "storage.robin_hood",
    "runtime/bulk.py": "runtime.bulk",
    "kernels/frontier.py": "kernels.frontier",
    "serving/server.py": "serving.server",
    "serving/cache.py": "serving.cache",
}


def child_profile(name: str, seed: int, sizes, inputs: int) -> dict:
    """One round under cProfile, ``tottime`` folded by source module
    into the wrapper layers' names."""
    import cProfile
    import pstats

    from workloads import WORKLOADS

    wl = WORKLOADS[name]
    wl.run(wl.setup(seed, spec.TINY), None)
    profiler = cProfile.Profile()
    for sub_seed in spec.sub_seeds(seed, inputs):
        ctx = wl.setup(sub_seed, sizes)
        profiler.enable()
        wl.run(ctx, None)
        profiler.disable()
    folded: dict[str, float] = {}
    for (filename, _line, _fn), row in pstats.Stats(profiler).stats.items():
        rel = filename.replace(os.sep, "/").rpartition("/repro/")[2]
        layer = PROFILE_LAYERS.get(rel)
        if layer is None:
            layer = "algorithms" if rel.startswith("algorithms/") else "(unlayered)"
        folded[layer] = folded.get(layer, 0.0) + row[2]
    return {"workload": name, "profile_self_s": folded}


# ----------------------------------------------------------------------
# parent: launch, contain, account
# ----------------------------------------------------------------------
def _group_size(pgid: int) -> int:
    """Live processes in process group ``pgid`` (Linux /proc)."""
    n = 0
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            stat = Path("/proc", entry, "stat").read_text()
        except OSError:
            continue  # exited while we looked
        fields = stat.rpartition(")")[2].split()
        if int(fields[2]) == pgid and fields[0] != "Z":
            n += 1
    return n


def _shm_segments() -> set[str]:
    try:
        return set(os.listdir("/dev/shm"))
    except OSError:
        return set()


def launch_child(args: list[str]) -> dict:
    """Run one child to completion in its own process group.

    Returns its result document, or ``{"error": ...}`` for a raise, a
    non-zero exit or a timeout.  ``leaks`` counts what the run left
    behind: processes still in its group after a grace period (killed
    here) and ``/dev/shm`` entries that appeared during the run and
    are still there.  The entries are counted, never removed: the
    rings carry default ``psm_*`` names, so nothing here can tell the
    child's segment from one another process on the host created in
    the same seconds (which also makes the count an upper bound)."""
    shm_before = _shm_segments()
    started = time.monotonic()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "run.py"), "--child", *args],
        stdout=subprocess.PIPE,
        text=True,
        start_new_session=True,
    )
    try:
        stdout, _ = proc.communicate(timeout=spec.CHILD_TIMEOUT_S)
        error = None if proc.returncode == 0 else f"exit code {proc.returncode}"
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        stdout, _ = proc.communicate()
        error = f"timeout after {spec.CHILD_TIMEOUT_S}s"
    # multiprocessing's resource tracker outlives its parent by a
    # moment; give the group that long before calling anything a leak.
    deadline = time.monotonic() + 2.0
    while (left := _group_size(proc.pid)) and time.monotonic() < deadline:
        time.sleep(0.05)
    if left:
        os.killpg(proc.pid, signal.SIGKILL)
        while _group_size(proc.pid):
            time.sleep(0.05)
    leaked_shm = _shm_segments() - shm_before
    doc: dict = {}
    for line in stdout.splitlines():
        if line.startswith(RESULT_MARK):
            doc = json.loads(line[len(RESULT_MARK) :])
    if error is None and not doc:
        error = "no result line"
    if error is not None:
        doc = {"error": error}
    doc["leaks"] = {"processes": left, "shm_segments": len(leaked_shm)}
    doc["elapsed_s"] = time.monotonic() - started
    return doc


def provenance() -> dict | None:
    """Commit (+dirty), host and interpreter; None without a git commit
    — a result that cannot say what produced it is not written."""
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=REPO, capture_output=True, text=True
        )
        status = subprocess.run(
            ["git", "status", "--porcelain"], cwd=REPO, capture_output=True, text=True
        )
    except OSError:
        return None
    if commit.returncode != 0 or status.returncode != 0:
        return None
    return {
        "commit": commit.stdout.strip(),
        "dirty": bool(status.stdout.strip()),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "time": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
    }


def summarize(values: list[float]) -> dict:
    q1, med, q3 = quartiles(values)
    return {"median": med, "q1": q1, "q3": q3, "n": len(values), "values": values}


def run_workload(name: str, opts) -> dict:
    """All repeats of one workload -> its block of the result file."""
    runs = []
    for _ in range(opts.repeats):
        child_args = [
            "--workload", name,
            "--seed", str(opts.seed),
            "--seconds", str(opts.seconds),
            "--trace", str(opts.trace),
        ]  # fmt: skip
        if opts.tiny:
            child_args.append("--tiny")
        runs.append(launch_child(child_args))
    good = [r for r in runs if "error" not in r]
    errors = [r["error"] for r in runs if "error" in r]
    block: dict = {"runs": runs, "metrics": {}, "errors": errors}
    for metric in spec.END_TO_END:
        if name not in metric.workloads:
            continue
        if metric.name == "failed_frac":
            # A run that raised or timed out fails all its operations.
            values = [r["metrics"]["failed_frac"] if "error" not in r else 1.0 for r in runs]
        else:
            values = [r["metrics"][metric.name] for r in good]
        if values:
            block["metrics"][metric.name] = {"unit": metric.unit, **summarize(values)}
    block["leaks"] = {
        key: sum(r["leaks"][key] for r in runs) for key in ("processes", "shm_segments")
    }
    traced = [r for r in good if "layers" in r]
    if traced:
        block["layers"] = traced[-1]["layers"]
        block["trace"] = traced[-1]["trace"]
        block["counts"] = traced[-1]["traced_counts"]
    return block


def print_workload(name: str, block: dict) -> None:
    print(f"\n== {name} ==")
    for error in block["errors"]:
        print(f"  run failed: {error}")
    print(f"  {'metric':<16}{'unit':<6}{'median':>14}{'q1':>14}{'q3':>14}{'n':>4}{'iqr/med':>9}")
    for metric, row in block["metrics"].items():
        spread = (row["q3"] - row["q1"]) / row["median"] if row["median"] else 0.0
        print(
            f"  {metric:<16}{row['unit']:<6}{row['median']:>14.6g}"
            f"{row['q1']:>14.6g}{row['q3']:>14.6g}{row['n']:>4}{spread:>9.1%}"
        )
    factors = ", ".join(f"{r['host_factor']:.2f}" for r in block["runs"] if "error" not in r)
    if factors:
        print(f"  host_factor of the runs (timed metrics above are wall x or / this): {factors}")
    if any(block["leaks"].values()):
        print(f"  leaks: {block['leaks']}")
    if "layers" not in block:
        return
    trace = block["trace"]
    print(f"  traced round: overhead {trace['overhead_frac']:+.1%}", end="")
    layers = block["layers"]
    total = sum(v["self_s"] for v in layers.values())
    if total:  # ingest_mp: the ranks are out of the wrappers' reach
        print(f", layers cover {trace['coverage_frac']:.1%} of the timed wall")
        print(f"  {'layer':<22}{'calls':>12}{'busy_s':>12}{'self_s':>12}{'self%':>8}")
        for layer, v in sorted(layers.items(), key=lambda kv: -kv[1]["self_s"]):
            print(
                f"  {layer:<22}{v['calls']:>12,}{v['busy_s']:>12.4f}"
                f"{v['self_s']:>12.4f}{v['self_s'] / total:>8.1%}"
            )
    else:
        print()
    for key, value in block["counts"].items():
        if "." in key and (value or total):
            print(f"  {key:<44}{value:>14.6g}")


def contract_line(name: str, block: dict, traced: bool) -> str:
    """The driver's result object for one run of one workload."""
    run = block["runs"][0]
    if traced:
        flat = {f"{layer}.{k}": v for layer, vs in run["layers"].items() for k, v in vs.items()}
        flat.update(run["traced_counts"])
        flat.update({f"trace.{k}": v for k, v in run["trace"].items()})
        flat["host.factor"] = run["host_factor"]
        flat.update(run["metrics"])
        metrics = {
            metric: {"value": flat.get(metric, 0), "unit": unit}
            for metric, unit, _better in spec.per_layer_metrics()
        }
    else:
        metrics = {
            metric: {"value": run["metrics"][metric], "unit": spec.E2E[metric].unit}
            for metric in spec.DRIVER_BOUNDS
        }
    return json.dumps(
        {
            "correct": run["failed"] == 0,
            "attempted": run["attempted"],
            "failed": run["failed"],
            "metrics": metrics,
        }
    )


def profile_crosscheck(opts) -> None:
    """cProfile vs wrapper attribution on the two callback-heavy
    workloads; disagreement is printed, not hidden."""
    for name in ("ingest_event", "churn"):
        base = ["--workload", name, "--seed", str(opts.seed)] + (["--tiny"] * opts.tiny)
        prof = launch_child(base + ["--profile"])
        traced = launch_child(base + ["--seconds", "0", "--trace", "1"])
        if "error" in prof or "error" in traced:
            error = prof.get("error") or traced.get("error")
            print(f"\n== profile cross-check: {name} == failed: {error}")
            continue
        by_profile = {k: v for k, v in prof["profile_self_s"].items() if k != "(unlayered)"}
        by_wrapper = {
            k: v["self_s"] for k, v in traced["layers"].items() if k in spec.LAYERS
        }
        top = lambda d: sorted(d, key=d.get, reverse=True)[:3]  # noqa: E731
        agree = set(top(by_profile)) == set(top(by_wrapper))
        print(f"\n== profile cross-check: {name} ==")
        print(f"  {'layer':<22}{'cProfile self%':>16}{'wrapper self%':>16}")
        p_total, w_total = sum(prof["profile_self_s"].values()), sum(by_wrapper.values())
        for layer in sorted(set(by_profile) | set(by_wrapper), key=lambda k: -by_wrapper.get(k, 0)):
            print(
                f"  {layer:<22}{by_profile.get(layer, 0) / p_total:>16.1%}"
                f"{by_wrapper.get(layer, 0) / w_total:>16.1%}"
            )
        unlayered = prof["profile_self_s"].get("(unlayered)", 0)
        print(f"  {'(unlayered)':<22}{unlayered / p_total:>16.1%}")
        print(
            f"  top three: cProfile {top(by_profile)} / wrappers {top(by_wrapper)} -> "
            + ("AGREE" if agree else "DISAGREE")
        )


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=list(spec.WORKLOADS))
    ap.add_argument("--seed", type=int, default=spec.DEFAULT_SEED)
    ap.add_argument("--repeats", type=int, default=3)
    ap.add_argument("--seconds", type=float, help="measuring time of a run; given = driver mode")
    ap.add_argument("--trace", nargs="?", type=int, const=1, default=0, choices=(0, 1))
    ap.add_argument("--json", type=Path, help="also write the result document here")
    ap.add_argument("--profile", action="store_true")
    ap.add_argument("--tiny", action="store_true", help="self-check sizes (not a benchmark)")
    ap.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    opts = ap.parse_args(argv)

    sizes = spec.TINY if opts.tiny else spec.FULL
    if opts.child:
        inputs = spec.TINY_PLAN if opts.tiny else spec.PLAN[opts.workload]
        if opts.profile:
            doc = child_profile(opts.workload, opts.seed, sizes, inputs)
        else:
            doc = child_measure(
                opts.workload, opts.seed, opts.seconds, bool(opts.trace), sizes, inputs
            )
        print(RESULT_MARK + json.dumps(doc), flush=True)
        return 0

    driver_mode = opts.seconds is not None
    if driver_mode:
        if opts.workload is None:
            ap.error("--seconds (driver mode) needs --workload")
        opts.repeats = 1
    else:
        opts.seconds = spec.RUN_SECONDS
    names = [opts.workload] if opts.workload else list(spec.WORKLOADS)
    result = {"workloads": {}}
    for name in names:
        block = run_workload(name, opts)
        result["workloads"][name] = block
        print_workload(name, block)
        sys.stdout.flush()
    if opts.profile:
        profile_crosscheck(opts)

    meta = provenance()
    good_runs = [r for b in result["workloads"].values() for r in b["runs"] if "error" not in r]
    if meta is None or not good_runs:
        print("\nno ledger line: not a git checkout or no run finished", file=sys.stderr)
    else:
        meta.update(
            numpy=good_runs[0]["numpy"],
            seed=opts.seed,
            repeats=opts.repeats,
            seconds=opts.seconds,
            trace=opts.trace,
            sizes={"preset": "tiny" if opts.tiny else "full", **asdict(sizes)},
        )
        result = {"meta": meta, **result}
        OUT.mkdir(exist_ok=True)
        with open(OUT / "history.jsonl", "a") as ledger:
            ledger.write(json.dumps(result) + "\n")
        if opts.json:
            opts.json.parent.mkdir(parents=True, exist_ok=True)
            opts.json.write_text(json.dumps(result, indent=1))

    if driver_mode:
        block = result["workloads"][names[0]]
        if block["errors"]:
            print(f"run failed: {block['errors'][0]}", file=sys.stderr)
            return 1
        print(contract_line(names[0], block, bool(opts.trace)))
        return 0
    # Any failed run fails the command (compare.py reads failed_frac
    # the same way: one failed run in five must not hide behind a median).
    failed = any(
        b["errors"] or any(r["metrics"]["failed_frac"] > 0 for r in b["runs"])
        for b in result["workloads"].values()
    )
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
