"""Command-line front end: stream a synthetic graph through the engine.

Usage (also available as ``python -m repro``)::

    python -m repro run --graph twitter --algo bfs --nodes 2
    python -m repro run --graph rmat --scale 12 --algo cc --verify
    python -m repro run --graph friendster --algo st --sources 4 \
        --snapshot-at 0.5 --verify
    python -m repro generate --graph rmat --scale 14 -o stream.txt
    python -m repro run --input stream.txt --algo bfs --verify
    python -m repro run --algo bfs --trace trace.json --metrics m.jsonl \
        --freshness
    python -m repro report --trace trace.json --metrics m.jsonl
    python -m repro run --algo cc --verify \
        --faults drop=0.1,dup=0.02,crash=0.4 --checkpoint-every 0.2
    python -m repro serve --graph rmat --scale 10 --algo bfs \
        --workload ratio=0.2,slice=2048 --reference --verify

``run`` generates the requested workload, ingests it at saturation on a
simulated cluster, optionally takes a versioned global-state snapshot
at a fraction of the (estimated) stream, optionally verifies against
the static oracle, and prints the throughput report.

``serve`` is the on-line mode: the same ingest, but with point queries
(distance / component membership / reachability / widest capacity)
served through the stable-value cache *while* the stream runs, each
answer carrying its ``(value, as_of_vtime, stale)`` envelope; with
``--verify``, every ``stale=False`` answer is differentially checked
against the static oracle on the exact ingested prefix.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from typing import Any, Callable, NamedTuple, NoReturn

import numpy as np

from repro.algorithms import (
    DeterministicBFS,
    IncrementalBFS,
    IncrementalCC,
    IncrementalSSSP,
    MultiSTConnectivity,
    WidestPath,
)
from repro.analytics import static_answer, throughput_report
from repro.analytics.verify import FAMILIES, csr_from_engine, verify_family
from repro.comm.costmodel import CostModel
from repro.events.io import read_edge_npz, read_edge_text, write_edge_npz, write_edge_text
from repro.events.stream import split_streams
from repro.events.types import ADD
from repro.generators import DATASET_PRESETS, generate_preset, rmat_edges
from repro.generators.weights import pairwise_weights
from repro.runtime.engine import EngineConfig
from repro.runtime.lifecycle import EngineBuilder
from repro.runtime.plugins import (
    FaultInjectionPlugin,
    FreshnessPlugin,
    MetricsPlugin,
    TracerPlugin,
)
from repro.storage.csr import CSRGraph
from repro.util.timers import WallTimer

GRAPH_CHOICES = sorted(set(DATASET_PRESETS) | {"rmat"})


class Algo(NamedTuple):
    """One ``--algo`` choice: what to run and which row of
    :data:`repro.analytics.verify.FAMILIES` is its right answer (the
    row's seed shape also says how the program is initialised)."""

    program: type | None = None  # None = construction only
    family: str | None = None
    value_of: Callable[[Any], Any] | None = None  # stored -> the family's value
    weighted: bool = False  # generated streams get pairwise edge weights


ALGOS = {
    "con": Algo(),
    "bfs": Algo(IncrementalBFS, "bfs"),
    "det-bfs": Algo(DeterministicBFS, "bfs", value_of=lambda v: v[0]),
    "sssp": Algo(IncrementalSSSP, "sssp", weighted=True),
    "cc": Algo(IncrementalCC, "cc"),
    "st": Algo(MultiSTConnectivity, "st"),
    "widest": Algo(WidestPath, "widest", weighted=True),
}
# ``serve``'s typed point queries read the family's plain value: it
# offers the programs that store exactly that.
SERVE_ALGOS = [n for n, a in ALGOS.items() if a.program and a.value_of is None]


def _algo(name: str) -> Algo:
    if name not in ALGOS:
        raise ValueError(f"unknown algorithm {name!r} (known: {', '.join(ALGOS)})")
    return ALGOS[name]


def _checked(convert: Callable[[str], Any], ok: Callable[[Any], bool], what: str):
    """An argparse ``type``: a value outside its range is a usage error
    (exit 2, one line), not a traceback from the callee."""

    def parse(text: str):
        value = convert(text)  # a ValueError is argparse's "invalid ... value"
        if not ok(value):
            raise argparse.ArgumentTypeError(f"must be {what}, got {value}")
        return value

    parse.__name__ = convert.__name__
    return parse


# Counts; periods (0 would never advance); a point in the stream.
_positive_int = _checked(int, lambda v: v >= 1, "a positive integer")
_positive_float = _checked(float, lambda v: v > 0, "a positive number")
_fraction = _checked(float, lambda v: 0 <= v <= 1, "a fraction in [0, 1]")


def _add_source_args(parser: argparse.ArgumentParser) -> None:
    """Workload-source and cluster-shape options shared by ``run`` and
    ``serve``."""
    parser.add_argument("--input", default=None, metavar="FILE",
                        help="read events from an edge file (.txt or .npz) "
                             "instead of generating a graph")
    parser.add_argument("--graph", choices=GRAPH_CHOICES, default="rmat")
    parser.add_argument("--scale", type=_positive_int, default=10,
                        help="log2 vertex universe")
    parser.add_argument("--edge-factor", type=_positive_int, default=16)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--ranks", type=_positive_int, default=None, metavar="N",
                        help="total rank count (overrides "
                             "--nodes * --ranks-per-node)")
    parser.add_argument("--nodes", type=_positive_int, default=1)
    parser.add_argument("--ranks-per-node", type=_positive_int, default=4)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Incremental graph processing on a simulated cluster",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    run = sub.add_parser("run", help="stream a synthetic graph through an algorithm")
    _add_source_args(run)
    run.add_argument("--algo", choices=list(ALGOS), default="bfs")
    run.add_argument("--backend", choices=["des", "mp"], default="des",
                     help="des = single-process discrete-event simulation "
                          "(virtual time, default); mp = one real OS "
                          "process per rank over shm rings (wall clock)")
    run.add_argument("--sources", type=_positive_int, default=1,
                     help="S-T source count")
    run.add_argument(
        "--snapshot-at",
        type=_fraction,
        default=None,
        metavar="FRAC",
        help="take a versioned snapshot at this fraction of the stream",
    )
    run.add_argument("--verify", action="store_true", help="check vs static oracle")
    run.add_argument("--json", action="store_true",
                     help="emit the report as one JSON document on stdout "
                          "(progress chatter moves to stderr)")
    obs = run.add_argument_group("telemetry (repro.obs)")
    obs.add_argument("--trace", default=None, metavar="FILE",
                     help="record a trace (virtual time on des, wall clock "
                          "on mp, where all ranks merge into one multi-"
                          "process timeline); .json = Chrome/Perfetto "
                          "trace_event, .jsonl = compact JSONL")
    obs.add_argument("--metrics", default=None, metavar="FILE",
                     help="write sampled time-series metrics as JSONL (on "
                          "mp: the merged cross-rank counters report)")
    obs.add_argument("--trace-per-rank", action="store_true",
                     help="with --backend mp --trace, also write each "
                          "rank's unmerged capture as FILE.rankN.EXT")
    obs.add_argument("--sample-interval", type=_positive_float, default=None,
                     metavar="SECONDS",
                     help="virtual-time sampling period (default: ~1/100 "
                          "of the estimated makespan when sampling is on)")
    obs.add_argument("--freshness", action="store_true",
                     help="probe convergence lag vs the static reference "
                          "at every sample point (implies sampling; every "
                          "algorithm but con)")
    flt = run.add_argument_group("fault injection (repro.faults)")
    flt.add_argument("--faults", default=None, metavar="SPEC",
                     help="run under a fault plan, e.g. "
                          "'drop=0.1,dup=0.02,crash=0.5,seed=7'; crash/stall "
                          "instants are fractions of the estimated makespan")
    flt.add_argument("--checkpoint-every", type=_positive_float, default=None,
                     metavar="FRAC",
                     help="checkpoint period as a fraction of the estimated "
                          "makespan (without it, a crash rolls back to the "
                          "start of the stream)")
    flt.add_argument("--checkpoint-path", default=None, metavar="FILE",
                     help="where the rolling checkpoint lives "
                          "(default: a temp file, removed afterwards)")
    srv = sub.add_parser(
        "serve",
        help="serve point queries against live engine state during ingest",
    )
    _add_source_args(srv)
    srv.add_argument("--algo", choices=SERVE_ALGOS, default="bfs")
    srv.add_argument("--backend", choices=["des", "mp"], default="des",
                     help="des = interleave query batches with ingest slices "
                          "on the simulated cluster (default); mp = run the "
                          "process-parallel backend to quiescence, then "
                          "serve the harvested rank states")
    srv.add_argument("--sources", type=_positive_int, default=2,
                     help="S-T source count")
    srv.add_argument("--workload", default="ratio=0.1,slice=2048",
                     metavar="SPEC",
                     help="query mix: ratio=QUERIES_PER_EVENT,slice=ACTIONS,"
                          "kinds=point:distance,seed=N,max=N "
                          "(default ratio=0.1,slice=2048)")
    srv.add_argument("--queries", type=_positive_int, default=None, metavar="N",
                     help="query count for --backend mp "
                          "(default: ratio * events)")
    srv.add_argument("--reference", action="store_true",
                     help="precompute the static answer on the full stream "
                          "and register it as the monotone bound, enabling "
                          "absorbing (stale-free) cache admission mid-ingest")
    srv.add_argument("--verify", action="store_true",
                     help="differentially check every stale=False answer "
                          "against the static oracle on the ingested prefix")
    srv.add_argument("--json", action="store_true",
                     help="emit the serving report as one JSON document on "
                          "stdout (progress chatter moves to stderr)")
    srv.add_argument("--metrics", default=None, metavar="FILE",
                     help="write the serving layer's metrics registry "
                          "(serve_* counters plus the serve_latency_us "
                          "histogram) as JSONL, renderable by repro report")
    rep = sub.add_parser(
        "report", help="render a trace/metrics capture as text tables"
    )
    rep.add_argument("--trace", default=None, metavar="FILE",
                     help="Chrome trace JSON produced by run --trace")
    rep.add_argument("--metrics", default=None, metavar="FILE",
                     help="metrics JSONL produced by run --metrics")
    gen = sub.add_parser("generate", help="write a synthetic workload to an edge file")
    gen.add_argument("--graph", choices=GRAPH_CHOICES, default="rmat")
    gen.add_argument("--scale", type=_positive_int, default=10)
    gen.add_argument("--edge-factor", type=_positive_int, default=16)
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--weights", action="store_true", help="attach pairwise weights")
    gen.add_argument("-o", "--output", required=True, metavar="FILE",
                     help="destination (.txt or .npz)")
    return parser


def _instantiate(algo: Algo, src: np.ndarray, n_sources: int):
    """A fresh ``(programs, init, seed)`` for one run: the program, its
    ``(name, vertex, payload)`` INITs and the seed its static answer
    takes, all from the stream's first source vertices."""
    if algo.program is None:
        return [], [], None
    prog = algo.program()
    shape = FAMILIES[algo.family].seed
    if shape is None:
        return [prog], [], None
    if shape == "source":
        source = int(src[0])
        return [prog], [(prog.name, source, None)], source
    # The first n distinct sources, in stream order = bit order.
    _, first = np.unique(src, return_index=True)
    seen = src[np.sort(first)[:n_sources]].tolist()
    return [prog], [(prog.name, v, prog.register_source(v)) for v in seen], seen


def _reference(algo: Algo, seed) -> Callable[[Any, str], list[str]]:
    """``(engine, prog) -> mismatches`` against the algorithm's static
    answer: what ``--verify`` asks once and ``--freshness`` per sample."""
    return lambda engine, prog: verify_family(
        algo.family, engine, prog, seed, algo.value_of
    )


def _verify_tail(args, chat, algo: Algo, seed, view, what: str) -> dict:
    """``--verify``: check ``view`` (anything with ``state`` and
    ``edges``), print the verdict and return the ``--json`` document's
    ``verify`` block."""
    mismatches = None
    if args.verify and algo.program is None:
        chat("verify: nothing to verify for construction-only")
    elif args.verify:
        mismatches = _reference(algo, seed)(view, algo.program.name)
        if mismatches:
            chat(
                f"VERIFY FAILED: {len(mismatches)} mismatches, e.g. {mismatches[0]}"
            )
        else:
            chat(f"verify: OK ({what} state equals static oracle)")
    return {
        "requested": bool(args.verify),
        "checked": mismatches is not None,
        "mismatches": len(mismatches or ()),
    }


def _engine(programs, n_ranks: int, cost: CostModel, plugins=()):
    """The DES engine every path builds; plugins set up in list order."""
    return (
        EngineBuilder()
        .with_programs(programs)
        .with_config(EngineConfig(n_ranks=n_ranks))
        .with_cost_model(cost)
        .with_plugins(plugins)
        .build()
    )


def _init_programs(engine, init) -> None:
    for prog, vertex, payload in init:
        engine.init_program(prog, vertex, payload=payload)


def _generate(args: argparse.Namespace, rng: np.random.Generator):
    if args.graph == "rmat":
        src, dst = rmat_edges(args.scale, edge_factor=args.edge_factor, rng=rng)
        label = f"RMAT scale {args.scale}"
    else:
        src, dst, preset = generate_preset(
            args.graph, rng, scale=args.scale, edge_factor=args.edge_factor
        )
        label = preset.describe()
    return src, dst, label


def cmd_generate(args: argparse.Namespace) -> int:
    rng = np.random.default_rng(args.seed)
    src, dst, label = _generate(args, rng)
    weights = pairwise_weights(src, dst, 1, 50) if args.weights else None
    if args.output.endswith(".npz"):
        write_edge_npz(args.output, src, dst, weights)
    else:
        write_edge_text(args.output, src, dst, weights, header=label)
    print(f"wrote {len(src):,} events ({label}) to {args.output}")
    return 0


def _write_mp_obs(args, chat, result, meta) -> None:
    """Write the merged (and optionally per-rank) mp telemetry capture."""
    import os

    from repro.obs import Tracer, write_chrome_trace, write_metrics_jsonl, write_trace_jsonl

    merged = result.obs
    if args.trace is not None and merged.tracer is not None:
        writer = (
            write_trace_jsonl if args.trace.endswith(".jsonl") else write_chrome_trace
        )
        writer(args.trace, merged.tracer, meta)
        chat(
            f"trace: {len(merged.tracer):,} events from "
            f"{len(merged.offsets)} ranks (one pid each) -> {args.trace}"
        )
        if args.trace_per_rank:
            stem, ext = os.path.splitext(args.trace)
            for rank in sorted(merged.offsets):
                sub = Tracer()
                sub.events = [ev for ev in merged.tracer.events if ev[1] == rank]
                path = f"{stem}.rank{rank}{ext}"
                writer(path, sub, {**meta, "rank": rank})
            chat(
                f"trace: per-rank captures -> {stem}.rank*{ext} "
                f"({len(merged.offsets)} files)"
            )
    if args.metrics is not None:
        write_metrics_jsonl(args.metrics, merged.registry, meta)
        chat(
            f"metrics: {len(merged.registry.counters)} cross-rank counters, "
            f"{len(merged.registry.rows('ring_sample')):,} ring samples, "
            f"busy skew {merged.skew():.2f} -> {args.metrics}"
        )


def _run_mp(args, chat, meta, streams, algo, programs, init, seed) -> int:
    """Execute ``run`` on the process-parallel backend."""
    from repro.parallel import ParallelStateView, run_parallel

    des_only = [
        name for name, value in [
            ("--faults", args.faults),
            ("--snapshot-at", args.snapshot_at),
            ("--sample-interval", args.sample_interval),
            ("--freshness", args.freshness or None),
        ] if value is not None
    ]
    if des_only:
        chat(
            f"backend mp: {', '.join(des_only)} need virtual time and are "
            "only available on --backend des"
        )
        return 2
    obs_cfg = None
    if args.trace is not None or args.metrics is not None:
        from repro.obs import ObsConfig

        obs_cfg = ObsConfig(
            trace=args.trace is not None, metrics=args.metrics is not None
        )
    chat(f"backend: mp, {meta['n_ranks']} ranks (one OS process each)")
    result = run_parallel(
        programs,
        streams(),
        config=EngineConfig(n_ranks=meta["n_ranks"]),
        init=init,
        collect_edges=args.verify,
        obs=obs_cfg,
    )
    chat(
        f"mp run: {result.source_events:,} events in "
        f"{result.wall_seconds:.3f}s wall = {result.events_per_second:,.0f} ev/s, "
        f"{result.wire['wire_sent']:,} wire messages in "
        f"{result.wire['frames_sent']:,} frames, "
        f"{result.token_rounds} termination rounds"
    )
    ring = result.ring_health
    chat(
        f"rings: {ring['ring_stalls']:,} push stalls, "
        f"overflow hwm {ring['overflow_hwm_records']:,} records, "
        f"{ring['ring_pad_bytes']:,} PAD bytes, "
        f"{ring['pickle_records']:,} tuple-lane (pickled) messages"
    )

    if result.obs is not None:
        _write_mp_obs(args, chat, result, meta)

    view = ParallelStateView(result) if args.verify else None
    verify_doc = _verify_tail(args, chat, algo, seed, view, "mp")

    if args.json:
        doc = {
            **meta,
            "report": result.to_dict(),
            "per_rank": [
                {
                    "rank": info["rank"],
                    "source_events": info["counters"].source_events,
                    "visits": info["counters"].visits,
                    "num_edges": info["num_edges"],
                    "wire": info["wire"],
                }
                for info in result.per_rank
            ],
            "verify": verify_doc,
            "trace_file": args.trace,
            "metrics_file": args.metrics,
        }
        print(json.dumps(doc, indent=2))
    return 1 if verify_doc["mismatches"] else 0


def _input_error(message: str) -> NoReturn:
    """A bad ``--input`` is a usage error: one line, exit 2."""
    print(f"repro: error: --input: {message}", file=sys.stderr)
    raise SystemExit(2)


def _load_stream(args: argparse.Namespace, chat, rng):
    """Load ``--input`` or generate the synthetic workload; returns
    ``(src, dst, weights, label)``."""
    if args.input is not None:
        reader = read_edge_npz if args.input.endswith(".npz") else read_edge_text
        try:
            src, dst, weights, kinds = reader(args.input).columns()
        except (OSError, ValueError) as exc:
            _input_error(str(exc))  # the readers' messages carry path:lineno
        if kinds is not None:
            # The CLI shuffles its input and verifies against an
            # add-only oracle: a delete must not be replayed as an add.
            row = int(np.flatnonzero(kinds != ADD)[0]) + 1
            _input_error(
                f"{args.input}: event {row} is a delete; the CLI replays add-only "
                "streams — drive deletes through the library API "
                "(ArrayEventStream(kinds=...), repro.generators.churn)"
            )
        if len(src) == 0:
            _input_error(f"{args.input}: no events")
        label = args.input
        chat(f"input: {args.input}, {len(src):,} events")
    else:
        src, dst, label = _generate(args, rng)
        chat(f"graph: {label}, {len(src):,} edges")
        weights = (
            pairwise_weights(src, dst, 1, 50) if _algo(args.algo).weighted else None
        )
    return src, dst, weights, label


def cmd_run(args: argparse.Namespace) -> int:
    # In --json mode stdout carries exactly one JSON document; all
    # human-facing chatter moves to stderr so CI can pipe stdout.
    chat = functools.partial(print, file=sys.stderr) if args.json else print
    rng = np.random.default_rng(args.seed)
    src, dst, weights, label = _load_stream(args, chat, rng)

    algo = _algo(args.algo)
    programs, init, seed = _instantiate(algo, src, args.sources)
    n_ranks = args.ranks or args.nodes * args.ranks_per_node
    # Heads the --json document and every trace / metrics capture.
    meta = {
        "label": label,
        "algo": args.algo,
        "backend": args.backend,
        "n_ranks": n_ranks,
        "events": int(len(src)),
    }

    def streams(rng=rng):
        return split_streams(src, dst, n_ranks, weights=weights, rng=rng)

    if args.backend == "mp":
        return _run_mp(args, chat, meta, streams, algo, programs, init, seed)
    cost = CostModel(ranks_per_node=args.ranks_per_node)
    # Estimated makespan (same formula the snapshot scheduler uses):
    # drives --snapshot-at and the auto sampling period.
    per_event = cost.stream_pull_cpu + 2 * (
        cost.edge_insert_cpu + cost.visit_cpu + cost.send_cpu
    )
    est = len(src) * per_event / n_ranks
    sample_interval = args.sample_interval
    if sample_interval is None and (args.metrics is not None or args.freshness):
        sample_interval = max(est / 100.0, 1e-9)

    def telemetry_plugins():
        # Fresh instances per engine: a crash plan builds one engine
        # per incarnation.
        plugins = []
        if args.trace is not None:
            plugins.append(TracerPlugin())
        if sample_interval is not None:
            plugins.append(MetricsPlugin(sample_interval))
        return plugins

    plan = None
    if args.faults is not None:
        from repro.faults import FaultPlan

        try:
            plan = FaultPlan.from_spec(args.faults, time_scale=est)
        except ValueError as exc:
            chat(f"run: bad --faults spec: {exc}")
            return 2
        if plan.crashes and (args.snapshot_at is not None or args.freshness):
            chat("faults: --snapshot-at/--freshness do not combine with "
                 "crash plans (the snapshot dies with the incarnation)")
            return 2

    fault_result = None
    if plan is not None and plan.crashes:
        # Crash plans go through the fault-tolerant runner: each
        # incarnation rebuilds the engine and streams from scratch, so
        # everything it needs is captured as deterministic factories.
        import os
        import tempfile

        from repro.faults import FaultTolerantRunner

        stream_seed = int(rng.integers(2**31))

        def engine_factory():
            # The runner registers FaultInjectionPlugin per incarnation.
            progs = _instantiate(algo, src, args.sources)[0]
            return _engine(progs, n_ranks, cost, telemetry_plugins())

        ckpt_path = args.checkpoint_path
        ckpt_tmp = ckpt_path is None
        if ckpt_tmp:
            fd, ckpt_path = tempfile.mkstemp(prefix="repro_ckpt_", suffix=".npz")
            os.close(fd)
        try:
            with WallTimer() as timer:
                fault_result = FaultTolerantRunner(
                    engine_factory,
                    lambda: streams(np.random.default_rng(stream_seed)),
                    plan,
                    ckpt_path,
                    checkpoint_interval=(
                        args.checkpoint_every * est
                        if args.checkpoint_every is not None else None
                    ),
                    init_fn=functools.partial(_init_programs, init=init),
                ).run()
        finally:
            if ckpt_tmp and os.path.exists(ckpt_path):
                os.remove(ckpt_path)
        engine = fault_result.engine
    else:
        # Telemetry first (the fault plan and the freshness probe look
        # for the tracer and the sampler at setup), then the extras.
        plugins = telemetry_plugins()
        if plan is not None:
            # Transport must attach before the first message moves.
            plugins.append(FaultInjectionPlugin(plan))
        if args.freshness and not programs:
            chat("freshness: nothing to probe for construction-only")
        elif args.freshness:
            plugins.append(
                FreshnessPlugin(programs[0].name, _reference(algo, seed))
            )
        engine = _engine(programs, n_ranks, cost, plugins)
        _init_programs(engine, init)
        engine.attach_streams(streams())
        if args.snapshot_at is not None and programs:
            engine.request_collection(
                programs[0].name, at_time=args.snapshot_at * est
            )

        with WallTimer() as timer:
            engine.run()
    report = throughput_report(engine, wall_seconds=timer.elapsed)
    chat(report.summary())

    wire = None
    if plan is not None:
        wire = (
            fault_result.wire if fault_result is not None
            else engine.transport.counters()
        )
        line = (
            f"faults: dropped={wire['frames_dropped']:,} "
            f"retransmits={wire['retransmits']:,} "
            f"dup_frames={wire['dup_frames']:,} acks={wire['acks_sent']:,}"
        )
        if fault_result is not None:
            line += (
                f" | recoveries={fault_result.recoveries}"
                f" checkpoints={fault_result.checkpoints}"
                f" replayed={fault_result.events_replayed:,}"
            )
        chat(line)

    for res in engine.collection_results:
        chat(
            f"snapshot #{res.collection_id}: {res.vertices_collected:,} vertices, "
            f"latency {res.latency * 1e6:.0f}us ({res.probe_waves} probe waves)"
        )

    capture_meta = {**meta, "cost_model": cost.to_dict()}
    if args.trace is not None:
        from repro.obs import write_chrome_trace, write_trace_jsonl

        writer = (
            write_trace_jsonl if args.trace.endswith(".jsonl") else write_chrome_trace
        )
        writer(args.trace, engine.tracer, capture_meta)
        chat(f"trace: {len(engine.tracer):,} events -> {args.trace}")
    if args.metrics is not None:
        from repro.obs import write_metrics_jsonl

        write_metrics_jsonl(args.metrics, engine.metrics, capture_meta)
        chat(
            f"metrics: {len(engine.metrics.rows('sample')):,} samples "
            f"({len(engine.metrics.rows('freshness')):,} freshness rows) "
            f"-> {args.metrics}"
        )

    verify_doc = _verify_tail(args, chat, algo, seed, engine, "dynamic")

    if args.json:
        doc = {
            **meta,
            "report": report.to_dict(),
            "collections": [
                # CollectionResult.prog is the engine's program index;
                # the document reads better with the name.
                {**r.to_dict(), "prog": engine.programs[r.prog].name}
                for r in engine.collection_results
            ],
            "verify": verify_doc,
            "trace_file": args.trace,
            "metrics_file": args.metrics,
        }
        if plan is not None:
            doc["faults"] = {
                "plan": plan.describe(),
                "wire": wire,
                "incarnations": (
                    fault_result.incarnations if fault_result else 1
                ),
                "recoveries": fault_result.recoveries if fault_result else 0,
                "checkpoints": fault_result.checkpoints if fault_result else 0,
                "events_replayed": (
                    fault_result.events_replayed if fault_result else 0
                ),
                "virtual_time": (
                    fault_result.virtual_time if fault_result
                    else engine.loop.max_time()
                ),
            }
        print(json.dumps(doc, indent=2))
    return 1 if verify_doc["mismatches"] else 0


def _serve_report(chat, res) -> None:
    cs = res.cache_stats
    chat(
        f"served {res.queries:,} queries against {res.events_ingested:,} "
        f"ingested events"
        + (f" across {res.slices} ingest slices" if res.slices else "")
    )
    chat(
        f"latency: p50 {res.p50_us:.1f}us, p99 {res.p99_us:.1f}us "
        f"({res.qps:,.0f} q/s over pure query time)"
    )
    chat(
        f"cache: {res.hit_rate:.1%} hit rate ({cs.get('hits', 0):,} hits, "
        f"{cs.get('admissions', 0):,} admissions, "
        f"{cs.get('invalidations', 0):,} invalidations)"
    )
    line = (
        f"envelope: {res.stale_served:,} served stale-flagged, "
        f"{res.verified:,} stale-free answers verified vs the static oracle"
    )
    if res.violations:
        line += f", {len(res.violations)} VIOLATIONS"
    chat(line)


def cmd_serve(args: argparse.Namespace) -> int:
    from repro.serving import (
        FrozenBackend,
        MixedWorkloadDriver,
        ServingLayer,
        WorkloadSpec,
    )

    chat = functools.partial(print, file=sys.stderr) if args.json else print
    try:
        spec = WorkloadSpec.from_spec(args.workload)
    except ValueError as exc:
        chat(f"serve: bad --workload spec: {exc}")
        return 2
    rng = np.random.default_rng(args.seed)
    src, dst, weights, label = _load_stream(args, chat, rng)
    algo = _algo(args.algo)
    programs, init, seed = _instantiate(algo, src, args.sources)
    pool = np.unique(np.concatenate([src, dst]))
    # S-T's connected_to queries probe the registered source bits.
    aux = list(range(len(seed))) if FAMILIES[algo.family].seed == "sources" else None
    n_ranks = args.ranks or args.nodes * args.ranks_per_node

    # The static answer on the full stream's final topology: the
    # monotone bound for absorbing cache admission, and the oracle for
    # frozen-harvest verification.
    reference = None
    if args.reference or (args.verify and args.backend == "mp"):
        final = CSRGraph.from_edges(src, dst, weights, symmetrize=True)
        reference = static_answer(algo.family, final, seed)

    streams = split_streams(src, dst, n_ranks, weights=weights, rng=rng)
    n_queries = None  # mp only: no ingest to size the query count from
    if args.backend == "mp":
        from repro.parallel import run_parallel

        chat(
            f"serve: backend mp, {n_ranks} ranks "
            "(run to quiescence, then serve the harvested state)"
        )
        result = run_parallel(
            programs, streams, config=EngineConfig(n_ranks=n_ranks), init=init
        )
        chat(
            f"mp ingest: {result.source_events:,} events in "
            f"{result.wall_seconds:.3f}s wall"
        )
        backend = FrozenBackend.from_parallel_result(result, programs)
        oracle_fn = (lambda: reference) if args.verify else None
        n_queries = (
            args.queries if args.queries is not None
            else spec.max_queries
            if spec.max_queries is not None
            else max(int(len(src) * spec.ratio), 1)
        )
    else:
        chat(
            f"serve: backend des, {n_ranks} ranks, workload {spec.describe()}"
            + (", full-stream reference bound" if args.reference else "")
        )
        engine = backend = _engine(
            programs, n_ranks, CostModel(ranks_per_node=args.ranks_per_node)
        )
        _init_programs(engine, init)
        engine.attach_streams(streams)
        oracle_fn = (
            (lambda: static_answer(algo.family, csr_from_engine(engine), seed))
            if args.verify else None
        )
    serving = ServingLayer(backend)
    if args.reference:
        serving.set_reference(programs[0].name, reference)
    driver = MixedWorkloadDriver(
        serving, spec, pool, algo.family, aux=aux, oracle_fn=oracle_fn
    )
    if n_queries is None:
        res = driver.run()
    else:
        res = driver.serve_only(n_queries)
        res.events_ingested = result.source_events

    _serve_report(chat, res)
    if args.metrics is not None:
        from repro.obs import write_metrics_jsonl

        write_metrics_jsonl(args.metrics, serving.metrics)
        h = serving.metrics.histograms.get("serve_latency_us")
        chat(
            f"metrics: {len(serving.metrics.counters)} counters, "
            f"latency histogram of {h.count if h is not None else 0:,} "
            f"queries -> {args.metrics}"
        )
    if args.json:
        doc = {
            "label": label,
            "algo": args.algo,
            "backend": args.backend,
            "n_ranks": n_ranks,
            "events": len(src),
            "workload": spec.describe(),
            "reference": bool(args.reference),
            "serving": res.to_dict(),
            "stats": serving.stats(),
            "verify": {
                "requested": bool(args.verify),
                "checked": res.verified,
                "violations": len(res.violations),
                "examples": res.violations[:5],
            },
        }
        print(json.dumps(doc, indent=2))
    if res.violations:
        chat(f"ENVELOPE VIOLATION: e.g. {res.violations[0]}")
        return 1
    return 0


def cmd_report(args: argparse.Namespace) -> int:
    from repro.obs import read_jsonl, render_metrics_report, render_trace_report

    if args.trace is None and args.metrics is None:
        print("report: pass --trace and/or --metrics", file=sys.stderr)
        return 2
    sections = []
    if args.trace is not None:
        sections.append(render_trace_report(args.trace))
    if args.metrics is not None:
        sections.append(render_metrics_report(read_jsonl(args.metrics)))
    print("\n\n".join(sections))
    return 0


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "run":
        return cmd_run(args)
    if args.command == "serve":
        return cmd_serve(args)
    if args.command == "report":
        return cmd_report(args)
    if args.command == "generate":
        return cmd_generate(args)
    raise AssertionError("unreachable")  # pragma: no cover


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
