"""The cost ledger, pinned: what the per-event path computes and charges.

The per-event hot path (store -> DES -> dispatch) may be made cheaper
for the interpreter, never different for the model: the same visits,
messages and squashes in the same order, the same store layout, and
rank clocks equal to the last bit — they are sums of cost-model floats,
so a reordered or pre-added ``+=`` shows in ``float.hex()``.

``PINNED`` is regenerated by running this module as a script::

    PYTHONPATH=src python tests/runtime/test_cost_ledger.py

The legs were first generated at commit ``bad94b2`` (the parent of the
hot-path refactor); the legs from ``churn_bench_16x64`` to ``obs_cc``
are the DES runs of the churn, fault, squash and telemetry benches at
REPRO_BENCH_SCALE=0, added at commit ``88b89f3``; they pin every
virtual rate and visits-per-event figure those benches print.  A change
that moves a number here changed what the engine computes or what it
charges — regenerate only for a change that means to.

The whole table was last regenerated when ``DegAwareRHH``'s vertex index
and hub tables became ``dict`` objects.  A promoted vertex now fans out
in insertion order instead of Robin Hood table order.  On most legs with
a promoted vertex that moved the order of its messages, and with it the
clocks, the visit and message counts (-4.2% to +4.7% per leg), the
adjacency order and the collected snapshots; ``churn`` promotes nothing
and moved only by the dropped fields.  The Robin Hood-only ``probe_count``,
``displacement_count`` and ``resize_count`` fields went with the
tables.  Every add-only leg kept its ``state`` hash: the answers did
not move, only the order that reached them.  The generational legs'
raw generation tags and support forest depend on that order.

The add-only legs were regenerated again when the derived add-only
programs stopped echoing an adopted value to its sender (the support
tree's rule 1, applied to Algs. 4-7).  Visits, messages and squashes
fell on every leg that runs an add-only program (``bfs_cc``: 20,720 ->
19,186 visits, 12,528 -> 10,994 messages delivered) and each kept its
``state`` hash.  The collection legs cut later in their streams (fewer
messages ahead of the cut), so their snapshots moved with the prefix.
The generational legs (``churn``, ``churn_bench_*``) did not move.
"""

from __future__ import annotations

import hashlib
import pprint
from dataclasses import astuple, fields

import numpy as np
import pytest

from repro import (
    CallbackProgram,
    DynamicEngine,
    EngineConfig,
    FaultPlan,
    GenerationalBFS,
    GenerationalCC,
    GenerationalSSSP,
    GenerationalST,
    GenerationalWidest,
    IncrementalBFS,
    IncrementalCC,
    IncrementalSSSP,
    MultiSTConnectivity,
    WidestPath,
    split_streams,
)
from repro.comm.costmodel import CostModel
from repro.generators import rmat_edges
from repro.generators.churn import churn_events, flash_crowd_events, split_churn_streams
from repro.generators.weights import pairwise_weights
from repro.runtime.checkpoint import load_checkpoint, save_checkpoint
from repro.runtime.plugins import FaultInjectionPlugin, MetricsPlugin, TracerPlugin


def _sha1(obj) -> str:
    return hashlib.sha1(repr(obj).encode()).hexdigest()


def ledger(engine: DynamicEngine) -> dict:
    """Everything a run charged, counted and stored, in exact form."""
    loop = engine.loop
    total = engine.total_counters()
    counters = {f.name: getattr(total, f.name) for f in fields(total)}
    counters["busy_time"] = counters["busy_time"].hex()
    return {
        "clock": [t.hex() for t in loop.clock],
        "busy": [c.busy_time.hex() for c in engine.counters],
        "loop": {
            "actions_executed": loop.actions_executed,
            "messages_delivered": loop.messages_delivered,
            "messages_squashed": loop.messages_squashed,
            "batch_sends": loop.batch_sends,
            "stall_time": loop.stall_time.hex(),
        },
        "counters": counters,
        "rank_counters": _sha1([astuple(c) for c in engine.counters]),
        "store": {
            "low_degree_scans": sum(s.stats.low_degree_scans for s in engine.stores),
            "promotions": sum(s.stats.promotions for s in engine.stores),
        },
        # list(engine.edges()) is adjacency iteration order: insertion
        # order on both tiers.
        "edges": _sha1(list(engine.edges())),
        "state": {
            p.name: _sha1(sorted(engine.state(p.name).items())) for p in engine.programs
        },
        "collections": [
            (r.cut_version, r.completed_at.hex(), r.probe_waves, _sha1(sorted(r.state.items())))
            for r in engine.collection_results
        ],
    }


# ----------------------------------------------------------------------
# the legs
# ----------------------------------------------------------------------
def _rmat(scale: int):
    src, dst = rmat_edges(scale, edge_factor=8, rng=np.random.default_rng(5))
    return src, dst, int(src[0])


def _bfs_cc(
    scale: int = 9,
    config: EngineConfig | None = None,
    cost: CostModel | None = None,
    plugins: list | None = None,
    max_actions: int | None = None,
) -> DynamicEngine:
    """BFS+CC the way ``benchmarks/core`` builds ``ingest_event``: BFS
    initialised on the empty graph and drained, then the split streams."""
    src, dst, source = _rmat(scale)
    config = config or EngineConfig(n_ranks=4)
    engine = DynamicEngine(
        [IncrementalBFS(), IncrementalCC()], config, cost_model=cost, plugins=plugins
    )
    engine.init_program("bfs", source)
    engine.run()
    engine.attach_streams(
        split_streams(src, dst, config.n_ranks, rng=np.random.default_rng(6))
    )
    engine.run(max_actions=max_actions)
    while not engine.loop.quiescent():
        engine.run(max_actions=max_actions)
    return engine


def _weighted_families() -> DynamicEngine:
    """The add-only SSSP, widest and S-T programs (two sources) on the
    scale-8 input with pair-deterministic weights."""
    src, dst, source = _rmat(8)
    st = MultiSTConnectivity()
    engine = DynamicEngine(
        [IncrementalSSSP(), WidestPath(), st], EngineConfig(n_ranks=4)
    )
    engine.init_program("sssp", source)
    engine.init_program("widest", source)
    engine.init_program("st", source, payload=st.register_source(source))
    engine.init_program("st", int(dst[0]), payload=st.register_source(int(dst[0])))
    engine.attach_streams(
        split_streams(
            src, dst, 4, weights=pairwise_weights(src, dst), rng=np.random.default_rng(6)
        )
    )
    engine.run()
    return engine


def _five_generational() -> DynamicEngine:
    """All five generational programs on 4 ranks, sources initialised."""
    st = GenerationalST()
    st.register_source(0)
    st.register_source(1)
    engine = DynamicEngine(
        [GenerationalBFS(), GenerationalSSSP(), GenerationalCC(), st, GenerationalWidest()],
        EngineConfig(n_ranks=4),
    )
    for init in (
        ("gen-bfs", 0),
        ("gen-sssp", 0),
        ("gen-st", 0, 0),
        ("gen-st", 1, 1),
        ("gen-widest", 0),
    ):
        engine.init_program(*init)
    return engine


def _churn() -> DynamicEngine:
    cols = churn_events(16, 64, 0.25, rng=np.random.default_rng(7))
    engine = _five_generational()
    engine.run()
    engine.attach_streams(split_churn_streams(*cols, 4))
    engine.run()
    return engine


def _echo_program() -> CallbackProgram:
    """A commutative-delta (``replay``) program that writes *and* emits
    on every callback: +1 per incident edge event, +1000 per notify."""

    def on_edge(ctx, nbr, _val, weight):
        ctx.set_value(ctx.value + 1)
        # weight=None on the reverse side: the engine's charged lookup.
        ctx.update_single_nbr(nbr, 1, weight if nbr & 1 else None)

    return CallbackProgram(
        name="echo",
        on_add=on_edge,
        on_reverse_add=on_edge,
        on_update=lambda ctx, _nbr, _val, _w: ctx.set_value(ctx.value + 1000),
    )


def _collection(prog: str) -> DynamicEngine:
    """Add-only ingest with a collection cut mid-stream: the S_prev /
    S_new split, cut-edge relabelling and (for ``echo``) the replay with
    suppressed sends all run while events keep arriving."""
    src, dst, source = _rmat(8)
    engine = DynamicEngine(
        [IncrementalBFS(), _echo_program()],
        EngineConfig(n_ranks=4),
        cost_model=CostModel(ranks_per_node=2),
    )
    engine.init_program("bfs", source)
    engine.attach_streams(split_streams(src, dst, 4, rng=np.random.default_rng(6)))
    engine.request_collection(prog, at_time=6e-4)
    engine.run()
    return engine


def _checkpointed(tmp_path) -> DynamicEngine:
    """The scale-8 input in two halves: ingest the first, checkpoint,
    restore into a fresh engine, ingest the second."""
    src, dst, source = _rmat(8)
    half = len(src) // 2

    def ingest(engine: DynamicEngine, part: slice) -> None:
        engine.attach_streams(
            split_streams(src[part], dst[part], 4, rng=np.random.default_rng(6))
        )
        engine.run()

    first = DynamicEngine([IncrementalBFS(), IncrementalCC()], EngineConfig(n_ranks=4))
    first.init_program("bfs", source)
    first.run()
    ingest(first, slice(0, half))
    path = tmp_path / "half.npz"
    save_checkpoint(first, path)
    second = DynamicEngine([IncrementalBFS(), IncrementalCC()], EngineConfig(n_ranks=4))
    load_checkpoint(second, path)
    ingest(second, slice(half, None))
    return second


# ----------------------------------------------------------------------
# the benchmark tables' deterministic numbers
# ----------------------------------------------------------------------
# These legs rebuild the DES runs of four ``benchmarks/bench_*.py`` at
# REPRO_BENCH_SCALE=0 as those benches build them, so the pinned clocks
# and counters fix every virtual rate (source events / latest clock) and
# visits-per-event figure their tables print.
def _churn_bench(cols) -> DynamicEngine:
    """``bench_churn``: the stream attached before the inits have run."""
    engine = _five_generational()
    engine.attach_streams(split_churn_streams(*cols, 4))
    engine.run()
    return engine


def _churn_steady(n_vertices: int, n_adds: int) -> DynamicEngine:
    rng = np.random.default_rng(0xC4A2)
    return _churn_bench(churn_events(n_vertices, n_adds, 0.25, rng=rng))


def _churn_flash() -> DynamicEngine:
    rng = np.random.default_rng(0xC4A2)
    churn_events(128, 512, 0.25, rng=rng)  # the steady stream draws first
    return _churn_bench(flash_crowd_events(128, 256, 256, decay_ratio=0.6, rng=rng))


def _harness_run(src, dst, programs, n_nodes, init=(), plugins=None, **config):
    """``benchmarks/harness.run_dynamic``: four ranks per node, the
    stream split with shuffle seed 0."""
    n_ranks = 4 * n_nodes
    engine = DynamicEngine(
        programs,
        EngineConfig(n_ranks=n_ranks, **config),
        cost_model=CostModel(ranks_per_node=4),
        plugins=plugins,
    )
    for prog, vertex in init:
        engine.init_program(prog, vertex)
    engine.attach_streams(split_streams(src, dst, n_ranks, rng=np.random.default_rng(0)))
    engine.run()
    return engine


def _faults(plan: FaultPlan | None) -> DynamicEngine:
    """BFS+CC on 8 ranks, coalescing off, optionally under a fault plan."""
    src, dst = rmat_edges(10, edge_factor=8, rng=np.random.default_rng(0xFA17))
    return _harness_run(
        src,
        dst,
        [IncrementalBFS(), IncrementalCC()],
        2,
        init=[("bfs", int(src[0]))],
        plugins=None if plan is None else [FaultInjectionPlugin(plan)],
        coalesce_updates=False,
    )


def _squash(n_nodes: int, coalesce: bool) -> DynamicEngine:
    """``bench_ablation_squash``: 12 hub stars of 400 shuffled spokes,
    then the chain that merges them in ascending label order."""
    n_hubs, n_spokes = 12, 400
    order = np.random.default_rng(0).permutation(n_hubs * n_spokes)
    src = np.repeat(np.arange(1, n_hubs + 1), n_spokes)[order]
    dst = np.arange(n_hubs + 1, n_hubs * (n_spokes + 1) + 1)[order]
    chain = np.arange(1, n_hubs)
    return _harness_run(
        np.concatenate([src, chain]),
        np.concatenate([dst, chain + 1]),
        [IncrementalCC()],
        n_nodes,
        coalesce_updates=coalesce,
    )


def _obs_cc(plugins: list | None = None) -> DynamicEngine:
    """``bench_obs_overhead``'s DES run: CC over 16,384 uniform events."""
    rng = np.random.default_rng(7)
    src = rng.integers(0, 4096, 16384, dtype=np.int64)
    dst = rng.integers(0, 4096, 16384, dtype=np.int64)
    dst = np.where(dst == src, (dst + 1) % 4096, dst)
    return _harness_run(src, dst, [IncrementalCC()], 1, plugins=plugins)


LEGS = {
    "bfs_cc": _bfs_cc,
    "churn": _churn,
    "collect_merge": lambda: _collection("bfs"),
    "collect_replay": lambda: _collection("echo"),
    "unbatched": lambda: _bfs_cc(
        8, EngineConfig(n_ranks=4, coalesce_updates=False)
    ),
    "two_per_node": lambda: _bfs_cc(8, cost=CostModel(ranks_per_node=2)),
    "flow_control": lambda: _bfs_cc(8, cost=CostModel(channel_capacity=16)),
    "whole_scale8": lambda: _bfs_cc(8),
    "weighted_families": _weighted_families,
    "churn_bench_16x64": lambda: _churn_steady(16, 64),
    "churn_bench_128x512": lambda: _churn_steady(128, 512),
    "churn_bench_1024x4096": lambda: _churn_steady(1024, 4096),
    "churn_bench_flash": _churn_flash,
    "faults_off": lambda: _faults(None),
    "squash_4_off": lambda: _squash(1, False),
    "squash_4_on": lambda: _squash(1, True),
    "squash_16_off": lambda: _squash(4, False),
    "squash_16_on": lambda: _squash(4, True),
    "obs_cc": _obs_cc,
}

PINNED: dict = {'bfs_cc': {'clock': ['0x1.51931aa4710f0p-9',
                      '0x1.519675a2c4668p-9',
                      '0x1.51e0477dededap-9',
                      '0x1.51edb3773b4bfp-9'],
            'busy': ['0x1.fa79ae41c7004p-10',
                     '0x1.e8668646d682bp-11',
                     '0x1.b74d08c74ea9ep-10',
                     '0x1.9b5e95b78c9cfp-10'],
            'loop': {'actions_executed': 15094,
                     'messages_delivered': 10994,
                     'messages_squashed': 108,
                     'batch_sends': 663,
                     'stall_time': '0x0.0p+0'},
            'counters': {'source_events': 4096,
                         'edge_inserts': 5616,
                         'edge_deletes': 0,
                         'visits': 19186,
                         'messages_sent_local': 10993,
                         'messages_sent_remote': 0,
                         'control_messages': 0,
                         'busy_time': '0x1.905623f903622p-8',
                         'updates_squashed': 108,
                         'batch_sends': 663,
                         'bulk_chunks': 0,
                         'bulk_events': 0,
                         'fallback_flushes': 0,
                         'deletes_safe': 0,
                         'deletes_unsafe': 0,
                         'vertices_invalidated': 0,
                         'repair_visits': 0},
            'rank_counters': 'a3367f592a28070797c3d56b52493cd51bd6baf4',
            'store': {'low_degree_scans': 6244, 'promotions': 168},
            'edges': '1ca8a56b46439d6e73ec8c3a59295504ee225048',
            'state': {'bfs': '26bbc18b0b21f599653afe6d1b3fb806be4d00a4',
                      'cc': '556b90d2f5699eac0a6b46565b9b61edf8a0ed69'},
            'collections': []},
 'churn': {'clock': ['0x1.ef58e8cf61d92p-13',
                     '0x1.e456564dea74fp-13',
                     '0x1.efa970a7320f3p-13',
                     '0x1.e075203d8d2f8p-13'],
           'busy': ['0x1.cea1b922cbdecp-15',
                    '0x1.b61855615b62cp-14',
                    '0x1.540d9e4e3441ep-13',
                    '0x1.d29dc725c3dcap-14'],
           'loop': {'actions_executed': 1489,
                    'messages_delivered': 1400,
                    'messages_squashed': 0,
                    'batch_sends': 230,
                    'stall_time': '0x0.0p+0'},
           'counters': {'source_events': 85,
                        'edge_inserts': 106,
                        'edge_deletes': 40,
                        'visits': 2080,
                        'messages_sent_local': 1395,
                        'messages_sent_remote': 0,
                        'control_messages': 0,
                        'busy_time': '0x1.c6088d6d3b6cap-12',
                        'updates_squashed': 0,
                        'batch_sends': 230,
                        'bulk_chunks': 0,
                        'bulk_events': 0,
                        'fallback_flushes': 0,
                        'deletes_safe': 194,
                        'deletes_unsafe': 16,
                        'vertices_invalidated': 43,
                        'repair_visits': 492},
           'rank_counters': 'baf7bc4e112c83b14311b17b222ec4bed1eebdd2',
           'store': {'low_degree_scans': 2861, 'promotions': 0},
           'edges': '10e7bf452cb53d3ba4460495965c3c07ca072f86',
           'state': {'gen-bfs': '400709d23a998ab71fae865c8d1549a6bbf4c6ff',
                     'gen-sssp': '788991fbd8f52b13d7cfc319290762e52a32feae',
                     'gen-cc': '2c30d4ba0b65a11224309af660a77a84f3c0cf61',
                     'gen-st': '20a236539db99cff4a6052e77c148ead67d0bd85',
                     'gen-widest': 'dc0f3541e57b11e2f8f792e5845741ab53e31376'},
           'collections': []},
 'collect_merge': {'clock': ['0x1.4ccebab8a30f0p-9',
                             '0x1.4cff62205b850p-9',
                             '0x1.4d0b209a7f379p-9',
                             '0x1.4cfc0722082d7p-9'],
                   'busy': ['0x1.5347a5b0fef44p-10',
                            '0x1.5f04c83bc35d1p-10',
                            '0x1.fd862822b39fep-10',
                            '0x1.badf0e98ca036p-11'],
                   'loop': {'actions_executed': 12152,
                            'messages_delivered': 10100,
                            'messages_squashed': 99,
                            'batch_sends': 298,
                            'stall_time': '0x0.0p+0'},
                   'counters': {'source_events': 2048,
                                'edge_inserts': 2632,
                                'edge_deletes': 0,
                                'visits': 13864,
                                'messages_sent_local': 4981,
                                'messages_sent_remote': 4786,
                                'control_messages': 332,
                                'busy_time': '0x1.63508756f6bcbp-8',
                                'updates_squashed': 99,
                                'batch_sends': 298,
                                'bulk_chunks': 0,
                                'bulk_events': 0,
                                'fallback_flushes': 0,
                                'deletes_safe': 0,
                                'deletes_unsafe': 0,
                                'vertices_invalidated': 0,
                                'repair_visits': 0},
                   'rank_counters': '8c40093972bef99cc2e85ba83cc181d68cafff84',
                   'store': {'low_degree_scans': 5559, 'promotions': 95},
                   'edges': 'd9a792c88d6b76f821878757e4cf53e9e87602a5',
                   'state': {'bfs': '1d57ab3e10aa8194333586a91c79326ee01545c8',
                             'echo': '00267ebdf7eeee6b69e09880afc9a8f12a7f6d6a'},
                   'collections': [(1,
                                    '0x1.9d4118f9f6cdfp-10',
                                    40,
                                    '087364de07bd26baea58755b8000cf7000ce00a2')]},
 'collect_replay': {'clock': ['0x1.4ccb5fba4fb77p-9',
                              '0x1.4cfc0722082d7p-9',
                              '0x1.4d07c59c2be00p-9',
                              '0x1.4cf8ac23b4d5ep-9'],
                    'busy': ['0x1.533383bb0ae6cp-10',
                             '0x1.5ef0a645cf4f9p-10',
                             '0x1.fd7f72260cf0cp-10',
                             '0x1.ba4b6ae276f59p-11'],
                    'loop': {'actions_executed': 12136,
                             'messages_delivered': 10084,
                             'messages_squashed': 97,
                             'batch_sends': 292,
                             'stall_time': '0x0.0p+0'},
                    'counters': {'source_events': 2048,
                                 'edge_inserts': 2632,
                                 'edge_deletes': 0,
                                 'visits': 13848,
                                 'messages_sent_local': 4977,
                                 'messages_sent_remote': 4774,
                                 'control_messages': 332,
                                 'busy_time': '0x1.6332546608a87p-8',
                                 'updates_squashed': 97,
                                 'batch_sends': 292,
                                 'bulk_chunks': 0,
                                 'bulk_events': 0,
                                 'fallback_flushes': 0,
                                 'deletes_safe': 0,
                                 'deletes_unsafe': 0,
                                 'vertices_invalidated': 0,
                                 'repair_visits': 0},
                    'rank_counters': 'c767e635af2f91cf2e00872187be270ca7c26dd1',
                    'store': {'low_degree_scans': 5559, 'promotions': 95},
                    'edges': 'cfa56c5b3dbdc4b3f01ab145bdcea626e091945f',
                    'state': {'bfs': '1d57ab3e10aa8194333586a91c79326ee01545c8',
                              'echo': '00267ebdf7eeee6b69e09880afc9a8f12a7f6d6a'},
                    'collections': [(1,
                                     '0x1.9e40c8472bdfcp-10',
                                     40,
                                     '40b8306c7fd9a3689df13e7964621f38c999f0ba')]},
 'unbatched': {'clock': ['0x1.9a4ecb3f2ddebp-10',
                         '0x1.9a191b59f8656p-10',
                         '0x1.9a70592e6f4a8p-10',
                         '0x1.9ab6d00b4579cp-10'],
               'busy': ['0x1.7ae070ee7fa21p-11',
                        '0x1.9cb17c0e6e583p-11',
                        '0x1.27624498b63c2p-10',
                        '0x1.083dbc233151bp-11'],
               'loop': {'actions_executed': 8232,
                        'messages_delivered': 6180,
                        'messages_squashed': 0,
                        'batch_sends': 0,
                        'stall_time': '0x0.0p+0'},
               'counters': {'source_events': 2048,
                            'edge_inserts': 2632,
                            'edge_deletes': 0,
                            'visits': 10276,
                            'messages_sent_local': 6179,
                            'messages_sent_remote': 0,
                            'control_messages': 0,
                            'busy_time': '0x1.9ba50c9462f11p-9',
                            'updates_squashed': 0,
                            'batch_sends': 0,
                            'bulk_chunks': 0,
                            'bulk_events': 0,
                            'fallback_flushes': 0,
                            'deletes_safe': 0,
                            'deletes_unsafe': 0,
                            'vertices_invalidated': 0,
                            'repair_visits': 0},
               'rank_counters': '64f5e4a1dace04de28129d2271521859e1852401',
               'store': {'low_degree_scans': 3511, 'promotions': 95},
               'edges': 'b3ce2f0c64d10796649fd89c94eefa93b887d4df',
               'state': {'bfs': '1d57ab3e10aa8194333586a91c79326ee01545c8',
                         'cc': '00ef745e216c7952fd71c7aac9e5c5d373012831'},
               'collections': []},
 'two_per_node': {'clock': ['0x1.830583779910ep-10',
                            '0x1.82cfd39263979p-10',
                            '0x1.82dd3f8bb0f5dp-10',
                            '0x1.83489f561be8ap-10'],
                  'busy': ['0x1.77f7886239adap-11',
                           '0x1.994fc7be70126p-11',
                           '0x1.20875f04724ecp-10',
                           '0x1.07faa044ae7a0p-11'],
                  'loop': {'actions_executed': 7934,
                           'messages_delivered': 5882,
                           'messages_squashed': 97,
                           'batch_sends': 356,
                           'stall_time': '0x0.0p+0'},
                  'counters': {'source_events': 2048,
                               'edge_inserts': 2632,
                               'edge_deletes': 0,
                               'visits': 9978,
                               'messages_sent_local': 3026,
                               'messages_sent_remote': 2855,
                               'control_messages': 0,
                               'busy_time': '0x1.96942b9b8f35ep-9',
                               'updates_squashed': 97,
                               'batch_sends': 356,
                               'bulk_chunks': 0,
                               'bulk_events': 0,
                               'fallback_flushes': 0,
                               'deletes_safe': 0,
                               'deletes_unsafe': 0,
                               'vertices_invalidated': 0,
                               'repair_visits': 0},
                  'rank_counters': '3c5f3e1b1a5bc8e3455cba689b655d27e0426a20',
                  'store': {'low_degree_scans': 3502, 'promotions': 95},
                  'edges': 'c9e71e3b69ff136508b098170c0eb2d067ef7792',
                  'state': {'bfs': '1d57ab3e10aa8194333586a91c79326ee01545c8',
                            'cc': '00ef745e216c7952fd71c7aac9e5c5d373012831'},
                  'collections': []},
 'flow_control': {'clock': ['0x1.83f3c000b65b4p-10',
                            '0x1.83be101b80e1fp-10',
                            '0x1.84154deff7c71p-10',
                            '0x1.845bc4cccdf65p-10'],
                  'busy': ['0x1.7184a79a0d58ap-11',
                           '0x1.940ae45f90885p-11',
                           '0x1.1eaae5f237ba1p-10',
                           '0x1.04d551d68c5d2p-11'],
                  'loop': {'actions_executed': 7685,
                           'messages_delivered': 5633,
                           'messages_squashed': 52,
                           'batch_sends': 317,
                           'stall_time': '0x1.0c0978a4ac758p-11'},
                  'counters': {'source_events': 2048,
                               'edge_inserts': 2632,
                               'edge_deletes': 0,
                               'visits': 9729,
                               'messages_sent_local': 5632,
                               'messages_sent_remote': 0,
                               'control_messages': 0,
                               'busy_time': '0x1.91eeaa6d266c8p-9',
                               'updates_squashed': 52,
                               'batch_sends': 317,
                               'bulk_chunks': 0,
                               'bulk_events': 0,
                               'fallback_flushes': 0,
                               'deletes_safe': 0,
                               'deletes_unsafe': 0,
                               'vertices_invalidated': 0,
                               'repair_visits': 0},
                  'rank_counters': 'ce7ca419406899af48ffed68f2ce956083b4f39a',
                  'store': {'low_degree_scans': 3492, 'promotions': 95},
                  'edges': '1523950ab26c1de7c89b668c1a50a2647f1c42f8',
                  'state': {'bfs': '1d57ab3e10aa8194333586a91c79326ee01545c8',
                            'cc': '00ef745e216c7952fd71c7aac9e5c5d373012831'},
                  'collections': []},
 'whole_scale8': {'clock': ['0x1.81d582a8e711dp-10',
                            '0x1.819fd2c3b1988p-10',
                            '0x1.81f71098287dap-10',
                            '0x1.823d8774feacep-10'],
                  'busy': ['0x1.755f27adc3ef6p-11',
                           '0x1.9780baa582dbap-11',
                           '0x1.2036d72ca2190p-10',
                           '0x1.05c6e95dfcff2p-11'],
                  'loop': {'actions_executed': 7878,
                           'messages_delivered': 5826,
                           'messages_squashed': 63,
                           'batch_sends': 341,
                           'stall_time': '0x0.0p+0'},
                  'counters': {'source_events': 2048,
                               'edge_inserts': 2632,
                               'edge_deletes': 0,
                               'visits': 9922,
                               'messages_sent_local': 5825,
                               'messages_sent_remote': 0,
                               'control_messages': 0,
                               'busy_time': '0x1.94c51e82a1ff0p-9',
                               'updates_squashed': 63,
                               'batch_sends': 341,
                               'bulk_chunks': 0,
                               'bulk_events': 0,
                               'fallback_flushes': 0,
                               'deletes_safe': 0,
                               'deletes_unsafe': 0,
                               'vertices_invalidated': 0,
                               'repair_visits': 0},
                  'rank_counters': 'b21c8b6cbbd4ca67115589ca5b33df81050ceb58',
                  'store': {'low_degree_scans': 3529, 'promotions': 95},
                  'edges': '047449d8a080dceb1e9a15c09a04665c0015e71a',
                  'state': {'bfs': '1d57ab3e10aa8194333586a91c79326ee01545c8',
                            'cc': '00ef745e216c7952fd71c7aac9e5c5d373012831'},
                  'collections': []},
 'weighted_families': {'clock': ['0x1.0f7df751b0605p-9',
                                 '0x1.0f6171dfebf7cp-9',
                                 '0x1.0f8ebe4951164p-9',
                                 '0x1.0fb3a736e5d9cp-9'],
                       'busy': ['0x1.1d224fb620b09p-10',
                                '0x1.30a690f8e1128p-10',
                                '0x1.7dbbed8177f7fp-10',
                                '0x1.94185058ddec7p-11'],
                       'loop': {'actions_executed': 19915,
                                'messages_delivered': 17863,
                                'messages_squashed': 1615,
                                'batch_sends': 1908,
                                'stall_time': '0x0.0p+0'},
                       'counters': {'source_events': 2048,
                                    'edge_inserts': 2632,
                                    'edge_deletes': 0,
                                    'visits': 26055,
                                    'messages_sent_local': 17859,
                                    'messages_sent_remote': 0,
                                    'control_messages': 0,
                                    'busy_time': '0x1.25643d973a2c5p-8',
                                    'updates_squashed': 1615,
                                    'batch_sends': 1908,
                                    'bulk_chunks': 0,
                                    'bulk_events': 0,
                                    'fallback_flushes': 0,
                                    'deletes_safe': 0,
                                    'deletes_unsafe': 0,
                                    'vertices_invalidated': 0,
                                    'repair_visits': 0},
                       'rank_counters': '4c3af76a7a43738428dd2c9e9807bb2207d7ac53',
                       'store': {'low_degree_scans': 3491, 'promotions': 95},
                       'edges': '1e8f4121e8fc20ddfb5fa583532be9bc9d9dd992',
                       'state': {'sssp': 'dab07e419d327e0e96ef62fbd0466de832431be3',
                                 'widest': '93df935b27f47c5f8a64c8805828cdf732fabe0e',
                                 'st': '5c0d6ffaece75a7c2eb1c368ad187decc4b01e2f'},
                       'collections': []},
 'churn_bench_16x64': {'clock': ['0x1.649ee609b4ab5p-12',
                                 '0x1.67ec7863bee24p-12',
                                 '0x1.68222848f45b7p-12',
                                 '0x1.67f9e45d0c409p-12'],
                       'busy': ['0x1.114247a32cc0dp-14',
                                '0x1.17a7bc720bb55p-13',
                                '0x1.e888143617ef5p-13',
                                '0x1.ac075a6754a1cp-14'],
                       'loop': {'actions_executed': 2099,
                                'messages_delivered': 2010,
                                'messages_squashed': 0,
                                'batch_sends': 355,
                                'stall_time': '0x0.0p+0'},
                       'counters': {'source_events': 85,
                                    'edge_inserts': 106,
                                    'edge_deletes': 36,
                                    'visits': 2690,
                                    'messages_sent_local': 2005,
                                    'messages_sent_remote': 0,
                                    'control_messages': 0,
                                    'busy_time': '0x1.17b5286b59158p-11',
                                    'updates_squashed': 0,
                                    'batch_sends': 355,
                                    'bulk_chunks': 0,
                                    'bulk_events': 0,
                                    'fallback_flushes': 0,
                                    'deletes_safe': 183,
                                    'deletes_unsafe': 27,
                                    'vertices_invalidated': 85,
                                    'repair_visits': 798},
                       'rank_counters': 'd2a19eca74c198656500c4107b08c92c216c6152',
                       'store': {'low_degree_scans': 4208, 'promotions': 1},
                       'edges': '876f83ca51439f918c7b9fd65a09776136406918',
                       'state': {'gen-bfs': '5a87e06a459081f865bbc4631e85c24cc189ba09',
                                 'gen-sssp': '4f944be799b92060cecf5830c2c655972894a506',
                                 'gen-cc': 'cd81025e740591fa3693e0bb9eb4f4da0c60b4ee',
                                 'gen-st': '89e42a977a5191547c160f63e0b56907a8c06e58',
                                 'gen-widest': '22841a5d38256b9fbe1e219a692dc8d0b6661d68'},
                       'collections': []},
 'churn_bench_128x512': {'clock': ['0x1.3063751a5e21bp-9',
                                   '0x1.3059641f641acp-9',
                                   '0x1.3065229987cd7p-9',
                                   '0x1.3061c79b3475dp-9'],
                         'busy': ['0x1.2c5345217222fp-10',
                                  '0x1.fe288f6b425efp-11',
                                  '0x1.919e229555effp-10',
                                  '0x1.535511aa4c47bp-10'],
                         'loop': {'actions_executed': 20306,
                                  'messages_delivered': 19619,
                                  'messages_squashed': 0,
                                  'batch_sends': 3392,
                                  'stall_time': '0x0.0p+0'},
                         'counters': {'source_events': 683,
                                      'edge_inserts': 1004,
                                      'edge_deletes': 340,
                                      'visits': 25083,
                                      'messages_sent_local': 19614,
                                      'messages_sent_remote': 0,
                                      'control_messages': 0,
                                      'busy_time': '0x1.4416b045ad628p-8',
                                      'updates_squashed': 0,
                                      'batch_sends': 3392,
                                      'bulk_chunks': 0,
                                      'bulk_events': 0,
                                      'fallback_flushes': 0,
                                      'deletes_safe': 1558,
                                      'deletes_unsafe': 152,
                                      'vertices_invalidated': 620,
                                      'repair_visits': 6379},
                         'rank_counters': 'a02ebd5763e0babf12c57dc9761d396d3dcbd836',
                         'store': {'low_degree_scans': 39646, 'promotions': 20},
                         'edges': '63bbcc4d3ccca98d0cf72741e0a48655a668927d',
                         'state': {'gen-bfs': '0957e1d323733f61a55383eca9940092981f6615',
                                   'gen-sssp': 'd5980e1a581caa2663f5007d6fe01f249ec147f1',
                                   'gen-cc': 'c06b14aa3223c5a48863ac6e341dbe79ab59460d',
                                   'gen-st': 'd9702e9377b11efbdad6f3c2e8c3da8b045a0f6d',
                                   'gen-widest': 'a08126ca18aa63312dad956c141bc0ed1336025f'},
                         'collections': []},
 'churn_bench_1024x4096': {'clock': ['0x1.0dd8b60f2079bp-5',
                                     '0x1.0db41da963856p-5',
                                     '0x1.0dd0020b784dep-5',
                                     '0x1.0dca8e2e30df8p-5'],
                           'busy': ['0x1.4571c4687c32ap-6',
                                    '0x1.42e9bf4bdcab9p-6',
                                    '0x1.59a4b70410643p-6',
                                    '0x1.52967019700b7p-6'],
                           'loop': {'actions_executed': 364255,
                                    'messages_delivered': 358790,
                                    'messages_squashed': 0,
                                    'batch_sends': 67039,
                                    'stall_time': '0x0.0p+0'},
                           'counters': {'source_events': 5461,
                                        'edge_inserts': 8150,
                                        'edge_deletes': 2728,
                                        'visits': 402478,
                                        'messages_sent_local': 358785,
                                        'messages_sent_remote': 0,
                                        'control_messages': 0,
                                        'busy_time': '0x1.4d25aab476538p-4',
                                        'updates_squashed': 0,
                                        'batch_sends': 67039,
                                        'bulk_chunks': 0,
                                        'bulk_events': 0,
                                        'fallback_flushes': 0,
                                        'deletes_safe': 11689,
                                        'deletes_unsafe': 1961,
                                        'vertices_invalidated': 16414,
                                        'repair_visits': 144961},
                           'rank_counters': '592050660bd261827a3991eba2de96527d7f78dc',
                           'store': {'low_degree_scans': 643033, 'promotions': 219},
                           'edges': 'd356413f336544812783f01bbf0358bedb0de68a',
                           'state': {'gen-bfs': '8315e3ed1a5b57ff9385f45dafd3ae1a803cd174',
                                     'gen-sssp': '6c02e4624402528f5c9850364b9b980c9c8dfe24',
                                     'gen-cc': 'a0463b8262d4a0ef60b19d4b5cd63a305deeb1a4',
                                     'gen-st': 'd7787ee3bf2d46c71119f119ab7bb70949efbbd0',
                                     'gen-widest': '63e35018aec99f91a7e248221b16a5d7f462d49e'},
                           'collections': []},
 'churn_bench_flash': {'clock': ['0x1.732ecbc565c18p-9',
                                 '0x1.7326684995668p-9',
                                 '0x1.73215fcc18632p-9',
                                 '0x1.732815c8bf127p-9'],
                       'busy': ['0x1.4ea3d201bfd40p-10',
                                '0x1.2a6cbb143d8cep-10',
                                '0x1.b9983ca2476f0p-10',
                                '0x1.f4eaf907bdce1p-10'],
                       'loop': {'actions_executed': 24652,
                                'messages_delivered': 23982,
                                'messages_squashed': 0,
                                'batch_sends': 4623,
                                'stall_time': '0x0.0p+0'},
                       'counters': {'source_events': 666,
                                    'edge_inserts': 716,
                                    'edge_deletes': 180,
                                    'visits': 29310,
                                    'messages_sent_local': 23977,
                                    'messages_sent_remote': 0,
                                    'control_messages': 0,
                                    'busy_time': '0x1.89e4f0b000a78p-8',
                                    'updates_squashed': 0,
                                    'batch_sends': 4623,
                                    'bulk_chunks': 0,
                                    'bulk_events': 0,
                                    'fallback_flushes': 0,
                                    'deletes_safe': 1300,
                                    'deletes_unsafe': 240,
                                    'vertices_invalidated': 1075,
                                    'repair_visits': 9631},
                       'rank_counters': 'd010e9b19c706153036f9f17e5c38be01aaed4e9',
                       'store': {'low_degree_scans': 41613, 'promotions': 10},
                       'edges': '650637caa3dbc0a2a5df9773bcef13f864f406c0',
                       'state': {'gen-bfs': '56334b6cbea180d6acdd0aefb7342645cf9cfc29',
                                 'gen-sssp': 'afa454735ce8edf0e8b3ccce9515cb9e1e949c62',
                                 'gen-cc': 'f46b6c93ad5577b53d3d1bc8e4f9f916f2b627f4',
                                 'gen-st': 'be284f6671aea89e268532638c02a13a7d2c38f3',
                                 'gen-widest': 'd6df0135426abe3d2a716994f3847cd9e82430dd'},
                       'collections': []},
 'faults_off': {'clock': ['0x1.e00d1b7175df8p-9',
                          '0x1.df4722d440af9p-9',
                          '0x1.dfa516a55e441p-9',
                          '0x1.dfd5be0d16ba3p-9',
                          '0x1.dfe17c873a6cbp-9',
                          '0x1.dfcd5a91465f3p-9',
                          '0x1.df77ca3bf925ap-9',
                          '0x1.dfc19c1722acap-9'],
                'busy': ['0x1.570aa8d06e5ebp-9',
                         '0x1.64f97edc7ed30p-10',
                         '0x1.8a25884fc50fdp-10',
                         '0x1.477bbf93ff100p-10',
                         '0x1.c1e7967cae696p-10',
                         '0x1.8c88391f05533p-10',
                         '0x1.61c36976bc019p-10',
                         '0x1.9ff1a26f2afffp-10'],
                'loop': {'actions_executed': 37579,
                         'messages_delivered': 29379,
                         'messages_squashed': 0,
                         'batch_sends': 0,
                         'stall_time': '0x0.0p+0'},
                'counters': {'source_events': 8192,
                             'edge_inserts': 12117,
                             'edge_deletes': 0,
                             'visits': 45763,
                             'messages_sent_local': 14658,
                             'messages_sent_remote': 14720,
                             'control_messages': 0,
                             'busy_time': '0x1.a69a9e7c574dcp-7',
                             'updates_squashed': 0,
                             'batch_sends': 0,
                             'bulk_chunks': 0,
                             'bulk_events': 0,
                             'fallback_flushes': 0,
                             'deletes_safe': 0,
                             'deletes_unsafe': 0,
                             'vertices_invalidated': 0,
                             'repair_visits': 0},
                'rank_counters': 'e0dd0adc0f1c0d0e64aa725129ae2682862f485c',
                'store': {'low_degree_scans': 12035, 'promotions': 346},
                'edges': 'fcc550764c2d0ba495f7196a373d2b0cf9f71fd5',
                'state': {'bfs': 'c1e6c39b47aa053c5747380f369d4aec00c2c46a',
                          'cc': '8d488b717fcda7a185e8b27d01ce2576aae2eaad'},
                'collections': []},
 'squash_4_off': {'clock': ['0x1.67a7af0612520p-8',
                            '0x1.67ad8e43242afp-8',
                            '0x1.67b51aff5fb00p-8',
                            '0x1.6792b650896e4p-8'],
                  'busy': ['0x1.612abd42ebf21p-9',
                           '0x1.8c436fc158e82p-9',
                           '0x1.cf6e67bca7b31p-9',
                           '0x1.756c93a711382p-9'],
                  'loop': {'actions_executed': 31551,
                           'messages_delivered': 26736,
                           'messages_squashed': 0,
                           'batch_sends': 0,
                           'stall_time': '0x0.0p+0'},
                  'counters': {'source_events': 4811,
                               'edge_inserts': 9622,
                               'edge_deletes': 0,
                               'visits': 26736,
                               'messages_sent_local': 26736,
                               'messages_sent_remote': 0,
                               'control_messages': 0,
                               'busy_time': '0x1.8c924a19ff716p-7',
                               'updates_squashed': 0,
                               'batch_sends': 0,
                               'bulk_chunks': 0,
                               'bulk_events': 0,
                               'fallback_flushes': 0,
                               'deletes_safe': 0,
                               'deletes_unsafe': 0,
                               'vertices_invalidated': 0,
                               'repair_visits': 0},
                  'rank_counters': '9c61b79eb91c4aece8e9c707819ba87e7ddcdd13',
                  'store': {'low_degree_scans': 336, 'promotions': 12},
                  'edges': '28a39e22ba09315bb3c7f28c8d15aceb10c7a2ff',
                  'state': {'cc': '31b69ebfd6fbcde6cf395e5a1d0d38b04d70d642'},
                  'collections': []},
 'squash_4_on': {'clock': ['0x1.2b4528283d225p-8',
                           '0x1.2b4b07654efb4p-8',
                           '0x1.2b5294218a805p-8',
                           '0x1.2b302f72b43e9p-8'],
                 'busy': ['0x1.5cbe46f80bf8ap-9',
                          '0x1.89572c36bf9d0p-9',
                          '0x1.c4cb768b778f2p-9',
                          '0x1.724aa0374273dp-9'],
                 'loop': {'actions_executed': 30989,
                          'messages_delivered': 26174,
                          'messages_squashed': 223,
                          'batch_sends': 112,
                          'stall_time': '0x0.0p+0'},
                 'counters': {'source_events': 4811,
                              'edge_inserts': 9622,
                              'edge_deletes': 0,
                              'visits': 26174,
                              'messages_sent_local': 26174,
                              'messages_sent_remote': 0,
                              'control_messages': 0,
                              'busy_time': '0x1.874ae27c61662p-7',
                              'updates_squashed': 223,
                              'batch_sends': 112,
                              'bulk_chunks': 0,
                              'bulk_events': 0,
                              'fallback_flushes': 0,
                              'deletes_safe': 0,
                              'deletes_unsafe': 0,
                              'vertices_invalidated': 0,
                              'repair_visits': 0},
                 'rank_counters': '9954faf312a46f8e774aafd4758cd887d2699da5',
                 'store': {'low_degree_scans': 336, 'promotions': 12},
                 'edges': '6a25fdecc6faebaea8cd6d5deac8b9ffb3bf5379',
                 'state': {'cc': '31b69ebfd6fbcde6cf395e5a1d0d38b04d70d642'},
                 'collections': []},
 'squash_16_off': {'clock': ['0x1.1093cbfa3eda0p-9',
                             '0x1.0ffccd4598748p-9',
                             '0x1.1021b6332d337p-9',
                             '0x1.1104344226cbap-9',
                             '0x1.10f51ac9afc18p-9',
                             '0x1.0e651d910a5e4p-9',
                             '0x1.11530e9acd55fp-9',
                             '0x1.107aa186cdc92p-9',
                             '0x1.10da42d71504dp-9',
                             '0x1.103fe9241b4c4p-9',
                             '0x1.105fc9943307ep-9',
                             '0x1.1089baff44d34p-9',
                             '0x1.10a2e572b5e42p-9',
                             '0x1.0f80a6838ccbap-9',
                             '0x1.1057661862b16p-9',
                             '0x1.0fd2dbda86a92p-9'],
                   'busy': ['0x1.80cd19f9a6398p-11',
                            '0x1.a0ad8a116646fp-11',
                            '0x1.2387c484ffac2p-11',
                            '0x1.a2ab9112e2486p-11',
                            '0x1.b77c02afdd934p-11',
                            '0x1.15592d98bf7f1p-11',
                            '0x1.af11d0e2dbee4p-11',
                            '0x1.9872522cf36c3p-11',
                            '0x1.039332774b93cp-11',
                            '0x1.1f057ec501fb9p-11',
                            '0x1.443188384834fp-10',
                            '0x1.1ec262e67f23bp-11',
                            '0x1.ff7164c729fb8p-12',
                            '0x1.030cfaba45d62p-10',
                            '0x1.b1aa319751ac9p-11',
                            '0x1.0cc001e32f104p-11'],
                   'loop': {'actions_executed': 29664,
                            'messages_delivered': 24837,
                            'messages_squashed': 0,
                            'batch_sends': 0,
                            'stall_time': '0x0.0p+0'},
                   'counters': {'source_events': 4811,
                                'edge_inserts': 9622,
                                'edge_deletes': 0,
                                'visits': 24837,
                                'messages_sent_local': 6221,
                                'messages_sent_remote': 18616,
                                'control_messages': 0,
                                'busy_time': '0x1.78a024ce15966p-7',
                                'updates_squashed': 0,
                                'batch_sends': 0,
                                'bulk_chunks': 0,
                                'bulk_events': 0,
                                'fallback_flushes': 0,
                                'deletes_safe': 0,
                                'deletes_unsafe': 0,
                                'vertices_invalidated': 0,
                                'repair_visits': 0},
                   'rank_counters': '4cab677d7bc8b93b62ac9edcf5c8d217f2b43628',
                   'store': {'low_degree_scans': 336, 'promotions': 12},
                   'edges': '6e3ae96dc172861118a1d87d63125e132ac302ad',
                   'state': {'cc': '31b69ebfd6fbcde6cf395e5a1d0d38b04d70d642'},
                   'collections': []},
 'squash_16_on': {'clock': ['0x1.a16616b54de74p-10',
                            '0x1.a038194c011ccp-10',
                            '0x1.9fc60384ef7b0p-10',
                            '0x1.9eca5b0284d25p-10',
                            '0x1.9da9c99285665p-10',
                            '0x1.9a415f45e0733p-10',
                            '0x1.a0dfdef84837dp-10',
                            '0x1.a133c1ce6bc57p-10',
                            '0x1.a1d1767fb8d9fp-10',
                            '0x1.a0be510906cc3p-10',
                            '0x1.a0ad8a1166160p-10',
                            '0x1.a151f4bf59d9dp-10',
                            '0x1.a18449a63bfb7p-10',
                            '0x1.9f3c70c996745p-10',
                            '0x1.a0ed4af195964p-10',
                            '0x1.9f90539fba01fp-10'],
                  'busy': ['0x1.7d35b5c4727b3p-11',
                           '0x1.970138e523c95p-11',
                           '0x1.209edbf8b9b8cp-11',
                           '0x1.99d5ff7b75b01p-11',
                           '0x1.acb5d61042573p-11',
                           '0x1.12a5f4f1af04ep-11',
                           '0x1.a1e8f374006e1p-11',
                           '0x1.91006de409185p-11',
                           '0x1.ff2e48e8a7245p-12',
                           '0x1.1b0970c209fa2p-11',
                           '0x1.2373a28f0b96ap-10',
                           '0x1.16f940c91deb6p-11',
                           '0x1.fb902eb6ccb66p-12',
                           '0x1.e75a16cccb0d6p-11',
                           '0x1.9f49dcc2e4015p-11',
                           '0x1.0696f2f62c443p-11'],
                  'loop': {'actions_executed': 28283,
                           'messages_delivered': 23456,
                           'messages_squashed': 876,
                           'batch_sends': 91,
                           'stall_time': '0x0.0p+0'},
                  'counters': {'source_events': 4811,
                               'edge_inserts': 9622,
                               'edge_deletes': 0,
                               'visits': 23456,
                               'messages_sent_local': 5839,
                               'messages_sent_remote': 17617,
                               'control_messages': 0,
                               'busy_time': '0x1.6c4750f7694e1p-7',
                               'updates_squashed': 876,
                               'batch_sends': 91,
                               'bulk_chunks': 0,
                               'bulk_events': 0,
                               'fallback_flushes': 0,
                               'deletes_safe': 0,
                               'deletes_unsafe': 0,
                               'vertices_invalidated': 0,
                               'repair_visits': 0},
                  'rank_counters': '6bee7aa50f631e12ec014c3ff3ac981124b88c5f',
                  'store': {'low_degree_scans': 336, 'promotions': 12},
                  'edges': '26226daa7ee4cc4cbbd79442db1f44cd87571ee8',
                  'state': {'cc': '31b69ebfd6fbcde6cf395e5a1d0d38b04d70d642'},
                  'collections': []},
 'obs_cc': {'clock': ['0x1.1da6033467efdp-7',
                      '0x1.1d9d9fb89794ep-7',
                      '0x1.1da9c99285b29p-7',
                      '0x1.1d97551bbb50ap-7'],
            'busy': ['0x1.90b1938b62b7bp-8',
                     '0x1.931876188b292p-8',
                     '0x1.96ff8b65fa46fp-8',
                     '0x1.95f8fb2900c1cp-8'],
            'loop': {'actions_executed': 61996,
                     'messages_delivered': 45608,
                     'messages_squashed': 19,
                     'batch_sends': 6783,
                     'stall_time': '0x0.0p+0'},
            'counters': {'source_events': 16384,
                         'edge_inserts': 32722,
                         'edge_deletes': 0,
                         'visits': 45608,
                         'messages_sent_local': 45608,
                         'messages_sent_remote': 0,
                         'control_messages': 0,
                         'busy_time': '0x1.9430a40cba3a6p-6',
                         'updates_squashed': 19,
                         'batch_sends': 6783,
                         'bulk_chunks': 0,
                         'bulk_events': 0,
                         'fallback_flushes': 0,
                         'deletes_safe': 0,
                         'deletes_unsafe': 0,
                         'vertices_invalidated': 0,
                         'repair_visits': 0},
            'rank_counters': '0451f4b45e1aaaf5beef8e5af226965ee134d836',
            'store': {'low_degree_scans': 88020, 'promotions': 2256},
            'edges': 'bd056dc5baab955048eafafa687900f6e14756c9',
            'state': {'cc': '7c15c69f16f5e1e582e9134e0aedc6344e9201bb'},
            'collections': []},
 'checkpointed': {'clock': ['0x1.6e95091120af3p-11',
                            '0x1.6fbc507dc6cacp-11',
                            '0x1.6e8e53147a000p-11',
                            '0x1.6b5b98ad0a851p-11'],
                  'busy': ['0x1.84216250572d5p-11',
                           '0x1.a5d0df8104773p-11',
                           '0x1.25ae0f7263c11p-10',
                           '0x1.0c7ce604ac2b9p-11'],
                  'loop': {'actions_executed': 3678,
                           'messages_delivered': 2650,
                           'messages_squashed': 0,
                           'batch_sends': 51,
                           'stall_time': '0x0.0p+0'},
                  'counters': {'source_events': 2048,
                               'edge_inserts': 2632,
                               'edge_deletes': 0,
                               'visits': 10544,
                               'messages_sent_local': 6447,
                               'messages_sent_remote': 0,
                               'control_messages': 0,
                               'busy_time': '0x1.a072d1aeb3d48p-9',
                               'updates_squashed': 149,
                               'batch_sends': 453,
                               'bulk_chunks': 0,
                               'bulk_events': 0,
                               'fallback_flushes': 0,
                               'deletes_safe': 0,
                               'deletes_unsafe': 0,
                               'vertices_invalidated': 0,
                               'repair_visits': 0},
                  'rank_counters': '3ab76bd8e14168b4a1281940aed47353d20ba71c',
                  'store': {'low_degree_scans': 3376, 'promotions': 95},
                  'edges': '30facddcfa2422fa787b05e3acaadbe4bc42eebb',
                  'state': {'bfs': '1d57ab3e10aa8194333586a91c79326ee01545c8',
                            'cc': '00ef745e216c7952fd71c7aac9e5c5d373012831'},
                  'collections': []}}


def _check(got: dict, want: dict, leg: str) -> None:
    for key in want:
        assert got[key] == want[key], f"{leg}: {key} moved"
    assert got.keys() == want.keys()


@pytest.mark.parametrize("leg", sorted(LEGS))
def test_ledger_is_pinned(leg):
    _check(ledger(LEGS[leg]()), PINNED[leg], leg)


def test_collection_legs_reach_the_version_split():
    """The pinned collection legs are only worth pinning if the cut
    lands mid-stream: a snapshot that differs from the final state."""
    for prog in ("bfs", "echo"):
        engine = _collection(prog)
        (result,) = engine.collection_results
        assert result.state != engine.state(prog)
        assert 0 < sum(engine.cut_positions[0].values()) < 2048


def test_sliced_run_equals_whole_run():
    """``run(max_actions=512)`` slices — how ``benchmarks/core`` drains —
    execute the same actions in the same order as one call."""
    _check(ledger(_bfs_cc(max_actions=512)), PINNED["bfs_cc"], "bfs_cc sliced")


def test_observers_do_not_move_the_ledger():
    engine = _bfs_cc(plugins=[TracerPlugin(), MetricsPlugin()])
    assert engine.tracer is not None and engine.metrics is not None
    _check(ledger(engine), PINNED["bfs_cc"], "bfs_cc observed")


def test_tracing_does_not_move_the_obs_leg():
    """``bench_obs_overhead`` reports its traced run beside the untraced
    one: both are the ``obs_cc`` ledger."""
    _check(ledger(_obs_cc([TracerPlugin()])), PINNED["obs_cc"], "obs_cc traced")


def test_remote_latency_leg_crosses_nodes():
    assert PINNED["two_per_node"]["counters"]["messages_sent_remote"] > 0
    assert PINNED["bfs_cc"]["counters"]["messages_sent_remote"] == 0


def test_checkpoint_restore_finishes_on_the_same_ledger(tmp_path):
    """Restore mutates the value dicts and stores in place (the contexts
    hold them), and the resumed run lands on the uninterrupted run's
    states, topology and event counters."""
    resumed = ledger(_checkpointed(tmp_path))
    _check(resumed, PINNED["checkpointed"], "checkpointed")
    whole = PINNED["whole_scale8"]
    assert resumed["state"] == whole["state"]
    for name in ("source_events", "edge_inserts", "edge_deletes"):
        assert resumed["counters"][name] == whole["counters"][name], name


if __name__ == "__main__":
    import pathlib
    import tempfile

    out = {leg: ledger(build()) for leg, build in LEGS.items()}
    with tempfile.TemporaryDirectory() as tmp:
        out["checkpointed"] = ledger(_checkpointed(pathlib.Path(tmp)))
    print("PINNED: dict = " + pprint.pformat(out, width=100, sort_dicts=False))
