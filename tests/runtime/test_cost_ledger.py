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

PINNED: dict = {'bfs_cc': {'clock': ['0x1.5b02b0089be0cp-9',
                      '0x1.5b060b06ef384p-9',
                      '0x1.5b4fdce218bf6p-9',
                      '0x1.5b5d48db661dbp-9'],
            'busy': ['0x1.feaec72847d0ep-10',
                     '0x1.ee31a162bbbc2p-11',
                     '0x1.befb52f215243p-10',
                     '0x1.a04c3b41f53e8p-10'],
            'loop': {'actions_executed': 16628,
                     'messages_delivered': 12528,
                     'messages_squashed': 225,
                     'batch_sends': 1642,
                     'stall_time': '0x0.0p+0'},
            'counters': {'source_events': 4096,
                         'edge_inserts': 5616,
                         'edge_deletes': 0,
                         'visits': 20720,
                         'messages_sent_local': 12527,
                         'messages_sent_remote': 0,
                         'control_messages': 0,
                         'busy_time': '0x1.9543c9836c047p-8',
                         'updates_squashed': 225,
                         'batch_sends': 1642,
                         'bulk_chunks': 0,
                         'bulk_events': 0,
                         'fallback_flushes': 0,
                         'deletes_safe': 0,
                         'deletes_unsafe': 0,
                         'vertices_invalidated': 0,
                         'repair_visits': 0},
            'rank_counters': 'ea7ad94534fd2e1826c208e9ae71e7dcb563e8fd',
            'store': {'low_degree_scans': 6251, 'promotions': 168},
            'edges': '74bf06bcaf23ec3a470f4d03c425e2f2dcc8d719',
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
 'collect_merge': {'clock': ['0x1.4e8d00d9ef8fep-9',
                             '0x1.4ebda841a805ep-9',
                             '0x1.4ec966bbcbb87p-9',
                             '0x1.4eba4d4354ae5p-9'],
                   'busy': ['0x1.540590b89f517p-10',
                            '0x1.6021fead6f715p-10',
                            '0x1.febadb88a7184p-10',
                            '0x1.bc03a6d393d8cp-11'],
                   'loop': {'actions_executed': 12525,
                            'messages_delivered': 10473,
                            'messages_squashed': 153,
                            'batch_sends': 472,
                            'stall_time': '0x0.0p+0'},
                   'counters': {'source_events': 2048,
                                'edge_inserts': 2632,
                                'edge_deletes': 0,
                                'visits': 14237,
                                'messages_sent_local': 5168,
                                'messages_sent_remote': 4972,
                                'control_messages': 332,
                                'busy_time': '0x1.64390f961ff1ep-8',
                                'updates_squashed': 153,
                                'batch_sends': 472,
                                'bulk_chunks': 0,
                                'bulk_events': 0,
                                'fallback_flushes': 0,
                                'deletes_safe': 0,
                                'deletes_unsafe': 0,
                                'vertices_invalidated': 0,
                                'repair_visits': 0},
                   'rank_counters': '76a8e2183b358fb3c3876011c6af7228f69d8960',
                   'store': {'low_degree_scans': 5568, 'promotions': 95},
                   'edges': 'f274f5b019104c47bfaba97c10e08a2ce6fb026a',
                   'state': {'bfs': '1d57ab3e10aa8194333586a91c79326ee01545c8',
                             'echo': '00267ebdf7eeee6b69e09880afc9a8f12a7f6d6a'},
                   'collections': [(1,
                                    '0x1.9e0c6ffae4886p-10',
                                    40,
                                    '8d74d83daa3f3154eb9b50c8c683c900a1e95057')]},
 'collect_replay': {'clock': ['0x1.4e93b6d6963f3p-9',
                              '0x1.4ec45e3e4eb53p-9',
                              '0x1.4ed01cb87267cp-9',
                              '0x1.4ec1033ffb5dap-9'],
                    'busy': ['0x1.5446a931bcf4bp-10',
                             '0x1.602559abc2c8ep-10',
                             '0x1.febe3686fa6fep-10',
                             '0x1.bb94403e5e7cfp-11'],
                    'loop': {'actions_executed': 12514,
                             'messages_delivered': 10462,
                             'messages_squashed': 148,
                             'batch_sends': 463,
                             'stall_time': '0x0.0p+0'},
                    'counters': {'source_events': 2048,
                                 'edge_inserts': 2632,
                                 'edge_deletes': 0,
                                 'visits': 14218,
                                 'messages_sent_local': 5160,
                                 'messages_sent_remote': 4961,
                                 'control_messages': 340,
                                 'busy_time': '0x1.643d1660ea5b0p-8',
                                 'updates_squashed': 148,
                                 'batch_sends': 463,
                                 'bulk_chunks': 0,
                                 'bulk_events': 0,
                                 'fallback_flushes': 0,
                                 'deletes_safe': 0,
                                 'deletes_unsafe': 0,
                                 'vertices_invalidated': 0,
                                 'repair_visits': 0},
                    'rank_counters': '1d3417001e1671d561be03fd5c5619f0494bd8c0',
                    'store': {'low_degree_scans': 5573, 'promotions': 95},
                    'edges': 'ab04cecf8b9b67c9eb8b5ff3c1c15df59510101b',
                    'state': {'bfs': '1d57ab3e10aa8194333586a91c79326ee01545c8',
                              'echo': '00267ebdf7eeee6b69e09880afc9a8f12a7f6d6a'},
                    'collections': [(1,
                                     '0x1.a3f3baa252a00p-10',
                                     41,
                                     '91866ab1533725fa99348ba8726c824381269c64')]},
 'unbatched': {'clock': ['0x1.abdbbb7d18f5ep-10',
                         '0x1.aba60b97e37c9p-10',
                         '0x1.abfd496c5a61bp-10',
                         '0x1.ac43c0493090fp-10'],
               'busy': ['0x1.8116ebd4cfce2p-11',
                        '0x1.a360c2b876d51p-11',
                        '0x1.2f4cf4a558df2p-10',
                        '0x1.0e08d73f168abp-11'],
               'loop': {'actions_executed': 9114,
                        'messages_delivered': 7062,
                        'messages_squashed': 0,
                        'batch_sends': 0,
                        'stall_time': '0x0.0p+0'},
               'counters': {'source_events': 2048,
                            'edge_inserts': 2632,
                            'edge_deletes': 0,
                            'visits': 11158,
                            'messages_sent_local': 7061,
                            'messages_sent_remote': 0,
                            'control_messages': 0,
                            'busy_time': '0x1.a4469bc5c3bb1p-9',
                            'updates_squashed': 0,
                            'batch_sends': 0,
                            'bulk_chunks': 0,
                            'bulk_events': 0,
                            'fallback_flushes': 0,
                            'deletes_safe': 0,
                            'deletes_unsafe': 0,
                            'vertices_invalidated': 0,
                            'repair_visits': 0},
               'rank_counters': '4ab4c74089435a980906378b493715a0c650832c',
               'store': {'low_degree_scans': 3492, 'promotions': 95},
               'edges': '05c3de34992718f189cc28430902403f06d5961b',
               'state': {'bfs': '1d57ab3e10aa8194333586a91c79326ee01545c8',
                         'cc': '00ef745e216c7952fd71c7aac9e5c5d373012831'},
               'collections': []},
 'two_per_node': {'clock': ['0x1.8b8889d1d03adp-10',
                            '0x1.8b208505b89fcp-10',
                            '0x1.8b2df0ff05fe0p-10',
                            '0x1.8ba006c6179fdp-10'],
                  'busy': ['0x1.7b81809e200e3p-11',
                           '0x1.9c248e54c1f8ep-11',
                           '0x1.23810e8858f7ap-10',
                           '0x1.0986917f18d93p-11'],
                  'loop': {'actions_executed': 8613,
                           'messages_delivered': 6561,
                           'messages_squashed': 136,
                           'batch_sends': 784,
                           'stall_time': '0x0.0p+0'},
                  'counters': {'source_events': 2048,
                               'edge_inserts': 2632,
                               'edge_deletes': 0,
                               'visits': 10657,
                               'messages_sent_local': 3394,
                               'messages_sent_remote': 3166,
                               'control_messages': 0,
                               'busy_time': '0x1.9a0baf60ab33ep-9',
                               'updates_squashed': 136,
                               'batch_sends': 784,
                               'bulk_chunks': 0,
                               'bulk_events': 0,
                               'fallback_flushes': 0,
                               'deletes_safe': 0,
                               'deletes_unsafe': 0,
                               'vertices_invalidated': 0,
                               'repair_visits': 0},
                  'rank_counters': 'bfcd338eae0346eb656e666821f3323ee0ea85f0',
                  'store': {'low_degree_scans': 3500, 'promotions': 95},
                  'edges': '05e71e23db631e3f61a52eca2d952a93d194ffa6',
                  'state': {'bfs': '1d57ab3e10aa8194333586a91c79326ee01545c8',
                            'cc': '00ef745e216c7952fd71c7aac9e5c5d373012831'},
                  'collections': []},
 'flow_control': {'clock': ['0x1.9a867e89c88b3p-10',
                            '0x1.9a50cea49311ep-10',
                            '0x1.9aa80c7909f70p-10',
                            '0x1.9aee8355e0264p-10'],
                  'busy': ['0x1.7452b833b8909p-11',
                           '0x1.98867422e78b1p-11',
                           '0x1.22ea0fd3b2924p-10',
                           '0x1.073802a5cca21p-11'],
                  'loop': {'actions_executed': 8413,
                           'messages_delivered': 6361,
                           'messages_squashed': 80,
                           'batch_sends': 775,
                           'stall_time': '0x1.7eec9a1ca1512p-11'},
                  'counters': {'source_events': 2048,
                               'edge_inserts': 2632,
                               'edge_deletes': 0,
                               'visits': 10457,
                               'messages_sent_local': 6360,
                               'messages_sent_remote': 0,
                               'control_messages': 0,
                               'busy_time': '0x1.967953a8f4788p-9',
                               'updates_squashed': 80,
                               'batch_sends': 775,
                               'bulk_chunks': 0,
                               'bulk_events': 0,
                               'fallback_flushes': 0,
                               'deletes_safe': 0,
                               'deletes_unsafe': 0,
                               'vertices_invalidated': 0,
                               'repair_visits': 0},
                  'rank_counters': '3d46742351061fc5881219a099d7023f4d18de69',
                  'store': {'low_degree_scans': 3525, 'promotions': 95},
                  'edges': '5c4c3233ea13faae86e607fa469df20c7d173bc4',
                  'state': {'bfs': '1d57ab3e10aa8194333586a91c79326ee01545c8',
                            'cc': '00ef745e216c7952fd71c7aac9e5c5d373012831'},
                  'collections': []},
 'whole_scale8': {'clock': ['0x1.8c0b66908292ap-10',
                            '0x1.8bd5b6ab4d195p-10',
                            '0x1.8c2cf47fc3fe7p-10',
                            '0x1.8c736b5c9a2dbp-10'],
                  'busy': ['0x1.783aa440bc859p-11',
                           '0x1.9c2b445168a85p-11',
                           '0x1.24399b2c40c8dp-10',
                           '0x1.098d477bbf883p-11'],
                  'loop': {'actions_executed': 8605,
                           'messages_delivered': 6553,
                           'messages_squashed': 123,
                           'batch_sends': 779,
                           'stall_time': '0x0.0p+0'},
                  'counters': {'source_events': 2048,
                               'edge_inserts': 2632,
                               'edge_deletes': 0,
                               'visits': 10649,
                               'messages_sent_local': 6552,
                               'messages_sent_remote': 0,
                               'control_messages': 0,
                               'busy_time': '0x1.999999999991fp-9',
                               'updates_squashed': 123,
                               'batch_sends': 779,
                               'bulk_chunks': 0,
                               'bulk_events': 0,
                               'fallback_flushes': 0,
                               'deletes_safe': 0,
                               'deletes_unsafe': 0,
                               'vertices_invalidated': 0,
                               'repair_visits': 0},
                  'rank_counters': '2d3889836a012619d4c3ba7303a7e7e6d43a926d',
                  'store': {'low_degree_scans': 3531, 'promotions': 95},
                  'edges': '9aa6cb5f598327a556677d65057416ec4caad33f',
                  'state': {'bfs': '1d57ab3e10aa8194333586a91c79326ee01545c8',
                            'cc': '00ef745e216c7952fd71c7aac9e5c5d373012831'},
                  'collections': []},
 'weighted_families': {'clock': ['0x1.1addd1d7ce4ddp-9',
                                 '0x1.1ac14c6609e54p-9',
                                 '0x1.1aee98cf6f03cp-9',
                                 '0x1.1b1381bd03c74p-9'],
                       'busy': ['0x1.250649c61ca36p-10',
                                '0x1.373affb04ecadp-10',
                                '0x1.879a93949c8ffp-10',
                                '0x1.a24d9d41c4cd4p-11'],
                       'loop': {'actions_executed': 22244,
                                'messages_delivered': 20192,
                                'messages_squashed': 2189,
                                'batch_sends': 2800,
                                'stall_time': '0x0.0p+0'},
                       'counters': {'source_events': 2048,
                                    'edge_inserts': 2632,
                                    'edge_deletes': 0,
                                    'visits': 28384,
                                    'messages_sent_local': 20188,
                                    'messages_sent_remote': 0,
                                    'control_messages': 0,
                                    'busy_time': '0x1.2d40aaeafa994p-8',
                                    'updates_squashed': 2189,
                                    'batch_sends': 2800,
                                    'bulk_chunks': 0,
                                    'bulk_events': 0,
                                    'fallback_flushes': 0,
                                    'deletes_safe': 0,
                                    'deletes_unsafe': 0,
                                    'vertices_invalidated': 0,
                                    'repair_visits': 0},
                       'rank_counters': 'c24221c6f02fd56431b3e820d8cc60a33300ea9e',
                       'store': {'low_degree_scans': 3480, 'promotions': 95},
                       'edges': '6caa6adc7a04b2d9063530c4b8d883bb811cb8b0',
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
 'faults_off': {'clock': ['0x1.eb80163ad543bp-9',
                          '0x1.eaba1d9da013cp-9',
                          '0x1.eb18116ebda84p-9',
                          '0x1.eb48b8d6761e6p-9',
                          '0x1.eb54775099d0ep-9',
                          '0x1.eb40555aa5c36p-9',
                          '0x1.eaeac5055889dp-9',
                          '0x1.eb3496e08210dp-9'],
                'busy': ['0x1.5bb029fed72e5p-9',
                         '0x1.68af1602a0a3ap-10',
                         '0x1.8eb1df0abcc5cp-10',
                         '0x1.4d112acaaecd9p-10',
                         '0x1.c75818c5c960dp-10',
                         '0x1.9395739a2b611p-10',
                         '0x1.6828de459af46p-10',
                         '0x1.a610a06133c31p-10'],
                'loop': {'actions_executed': 40547,
                         'messages_delivered': 32347,
                         'messages_squashed': 0,
                         'batch_sends': 0,
                         'stall_time': '0x0.0p+0'},
                'counters': {'source_events': 8192,
                             'edge_inserts': 12117,
                             'edge_deletes': 0,
                             'visits': 48731,
                             'messages_sent_local': 16058,
                             'messages_sent_remote': 16288,
                             'control_messages': 0,
                             'busy_time': '0x1.ac9f2fdb8fc1ap-7',
                             'updates_squashed': 0,
                             'batch_sends': 0,
                             'bulk_chunks': 0,
                             'bulk_events': 0,
                             'fallback_flushes': 0,
                             'deletes_safe': 0,
                             'deletes_unsafe': 0,
                             'vertices_invalidated': 0,
                             'repair_visits': 0},
                'rank_counters': '6acb45226505976c37c08b6423df7554f57e20f6',
                'store': {'low_degree_scans': 12010, 'promotions': 346},
                'edges': '65dee40fee6677ad110eec01868ade09ad325d5e',
                'state': {'bfs': 'c1e6c39b47aa053c5747380f369d4aec00c2c46a',
                          'cc': '8d488b717fcda7a185e8b27d01ce2576aae2eaad'},
                'collections': []},
 'squash_4_off': {'clock': ['0x1.f5d27f9434169p-8',
                            '0x1.f5c94558cee57p-8',
                            '0x1.f5d6b1521c43bp-8',
                            '0x1.f5d42d135dc26p-8'],
                  'busy': ['0x1.78e7726a80998p-9',
                           '0x1.b2fec56d5d22dp-9',
                           '0x1.2d24257936395p-8',
                           '0x1.8ca66c0ff3908p-9'],
                  'loop': {'actions_executed': 55164,
                           'messages_delivered': 50349,
                           'messages_squashed': 0,
                           'batch_sends': 0,
                           'stall_time': '0x0.0p+0'},
                  'counters': {'source_events': 4811,
                               'edge_inserts': 9622,
                               'edge_deletes': 0,
                               'visits': 50349,
                               'messages_sent_local': 50349,
                               'messages_sent_remote': 0,
                               'control_messages': 0,
                               'busy_time': '0x1.c4b53bb68f6fep-7',
                               'updates_squashed': 0,
                               'batch_sends': 0,
                               'bulk_chunks': 0,
                               'bulk_events': 0,
                               'fallback_flushes': 0,
                               'deletes_safe': 0,
                               'deletes_unsafe': 0,
                               'vertices_invalidated': 0,
                               'repair_visits': 0},
                  'rank_counters': '2d54468a064845cb60b9bf2ee42ca84964240786',
                  'store': {'low_degree_scans': 336, 'promotions': 12},
                  'edges': '3ab8bdd00a29b6339ea5fbc93a4e03ae1ceabb45',
                  'state': {'cc': '31b69ebfd6fbcde6cf395e5a1d0d38b04d70d642'},
                  'collections': []},
 'squash_4_on': {'clock': ['0x1.8f56f58527144p-8',
                           '0x1.8f49898bd9b5cp-8',
                           '0x1.8f57cc44bbe9ep-8',
                           '0x1.8f58a30450c01p-8'],
                 'busy': ['0x1.714d4a35ae2e4p-9',
                          '0x1.af3003d3ca43dp-9',
                          '0x1.02249d6e3a9d7p-8',
                          '0x1.8b73662929c4dp-9'],
                 'loop': {'actions_executed': 51483,
                          'messages_delivered': 46668,
                          'messages_squashed': 1512,
                          'batch_sends': 21334,
                          'stall_time': '0x0.0p+0'},
                 'counters': {'source_events': 4811,
                              'edge_inserts': 9622,
                              'edge_deletes': 0,
                              'visits': 46668,
                              'messages_sent_local': 46668,
                              'messages_sent_remote': 0,
                              'control_messages': 0,
                              'busy_time': '0x1.ac0e7bc3c5dc7p-7',
                              'updates_squashed': 1512,
                              'batch_sends': 21334,
                              'bulk_chunks': 0,
                              'bulk_events': 0,
                              'fallback_flushes': 0,
                              'deletes_safe': 0,
                              'deletes_unsafe': 0,
                              'vertices_invalidated': 0,
                              'repair_visits': 0},
                 'rank_counters': '4b01e580f2deaa3ad02541bd06f67caf4ddd0edf',
                 'store': {'low_degree_scans': 336, 'promotions': 12},
                 'edges': '660688cced4dadab3cc3ea9c462af12f512063ab',
                 'state': {'cc': '31b69ebfd6fbcde6cf395e5a1d0d38b04d70d642'},
                 'collections': []},
 'squash_16_off': {'clock': ['0x1.cbd3a88920af6p-9',
                             '0x1.cddf1b83ea0dap-9',
                             '0x1.cdce548c49576p-9',
                             '0x1.cdb37c99ae9f1p-9',
                             '0x1.cd2ef25bd29afp-9',
                             '0x1.ccf28c79f66e1p-9',
                             '0x1.cd898b2e9cd83p-9',
                             '0x1.cd756938a8c63p-9',
                             '0x1.cd0bb6ed67832p-9',
                             '0x1.cb48684e9dfd1p-9',
                             '0x1.ccadc31c49ea8p-9',
                             '0x1.cde5d18090bccp-9',
                             '0x1.cbb723175c479p-9',
                             '0x1.ce0fc2eba2840p-9',
                             '0x1.cb6848beb5bd3p-9',
                             '0x1.cdfd4e74d821ep-9'],
                   'busy': ['0x1.b23dd54da4c8cp-11',
                            '0x1.00093a3b65298p-10',
                            '0x1.2cdcd7dccb406p-11',
                            '0x1.f5316fe49465dp-11',
                            '0x1.efa2baaa8b4cfp-11',
                            '0x1.206fe2102aebdp-11',
                            '0x1.3561e19c67904p-10',
                            '0x1.cec347120d385p-11',
                            '0x1.0d3f83a38e0dep-11',
                            '0x1.28b885edeb238p-11',
                            '0x1.15633e93b968bp-9',
                            '0x1.27476ca61b820p-11',
                            '0x1.0bb3926923af6p-11',
                            '0x1.629a290b91d19p-10',
                            '0x1.4d5afca5d84bcp-10',
                            '0x1.16c390e3e86fap-11'],
                   'loop': {'actions_executed': 55395,
                            'messages_delivered': 50568,
                            'messages_squashed': 0,
                            'batch_sends': 0,
                            'stall_time': '0x0.0p+0'},
                   'counters': {'source_events': 4811,
                                'edge_inserts': 9622,
                                'edge_deletes': 0,
                                'visits': 50568,
                                'messages_sent_local': 12810,
                                'messages_sent_remote': 37758,
                                'control_messages': 0,
                                'busy_time': '0x1.d532617c1bc04p-7',
                                'updates_squashed': 0,
                                'batch_sends': 0,
                                'bulk_chunks': 0,
                                'bulk_events': 0,
                                'fallback_flushes': 0,
                                'deletes_safe': 0,
                                'deletes_unsafe': 0,
                                'vertices_invalidated': 0,
                                'repair_visits': 0},
                   'rank_counters': 'a718fbd799bf57231bbb9334b8b5ee4e844fe306',
                   'store': {'low_degree_scans': 336, 'promotions': 12},
                   'edges': '13fb71389a179f24e8e7cd982d3f263195a3839f',
                   'state': {'cc': '31b69ebfd6fbcde6cf395e5a1d0d38b04d70d642'},
                   'collections': []},
 'squash_16_on': {'clock': ['0x1.f5793e5a5835bp-10',
                            '0x1.f52c1180db572p-10',
                            '0x1.f392b44d239a2p-10',
                            '0x1.f388a35229939p-10',
                            '0x1.f154ec6b7819cp-10',
                            '0x1.eddbbb273270fp-10',
                            '0x1.f5c3103581bc5p-10',
                            '0x1.f609871257ebbp-10',
                            '0x1.f5b5a43c345e1p-10',
                            '0x1.f48e5ccf8e42ep-10',
                            '0x1.f57c9958ab8d1p-10',
                            '0x1.f5255b8434a81p-10',
                            '0x1.f56f2d5f5e2ebp-10',
                            '0x1.f371265de22e9p-10',
                            '0x1.f4cac2b16a6b4p-10',
                            '0x1.f3671562e827dp-10'],
                  'busy': ['0x1.90d173fb7a5d0p-11',
                           '0x1.c0a21c1f1a694p-11',
                           '0x1.12a5f4f1af04cp-11',
                           '0x1.bf162ae4b0173p-11',
                           '0x1.baddb6ffdbdf9p-11',
                           '0x1.0539fba450af7p-11',
                           '0x1.bf4bdac9e5805p-11',
                           '0x1.a777a8ae09878p-11',
                           '0x1.e3c2b29797664p-12',
                           '0x1.0edf96d3ec7cbp-11',
                           '0x1.54bf74f575333p-10',
                           '0x1.0b98ba7688f4fp-11',
                           '0x1.e33c7ada91b69p-12',
                           '0x1.1b782b8ac8391p-10',
                           '0x1.c5cc278b5f36bp-11',
                           '0x1.fa83bf3cc1574p-12'],
                  'loop': {'actions_executed': 42053,
                           'messages_delivered': 37226,
                           'messages_squashed': 3634,
                           'batch_sends': 17326,
                           'stall_time': '0x0.0p+0'},
                  'counters': {'source_events': 4811,
                               'edge_inserts': 9622,
                               'edge_deletes': 0,
                               'visits': 37226,
                               'messages_sent_local': 9395,
                               'messages_sent_remote': 27831,
                               'control_messages': 0,
                               'busy_time': '0x1.7eb80163ad434p-7',
                               'updates_squashed': 3634,
                               'batch_sends': 17326,
                               'bulk_chunks': 0,
                               'bulk_events': 0,
                               'fallback_flushes': 0,
                               'deletes_safe': 0,
                               'deletes_unsafe': 0,
                               'vertices_invalidated': 0,
                               'repair_visits': 0},
                  'rank_counters': '857638b46011624632527782a766881cff739403',
                  'store': {'low_degree_scans': 336, 'promotions': 12},
                  'edges': '49c1f982f690f4c2109902c559b522d7d407735f',
                  'state': {'cc': '31b69ebfd6fbcde6cf395e5a1d0d38b04d70d642'},
                  'collections': []},
 'obs_cc': {'clock': ['0x1.330ecb1ef7db4p-7',
                      '0x1.330667a327805p-7',
                      '0x1.3312917d159e0p-7',
                      '0x1.33001d064b3c1p-7'],
            'busy': ['0x1.9e45d0c4a9293p-8',
                     '0x1.a07a5e6aef795p-8',
                     '0x1.a465a57646c3fp-8',
                     '0x1.a2ecff723b9c9p-8'],
            'loop': {'actions_executed': 76381,
                     'messages_delivered': 59993,
                     'messages_squashed': 50,
                     'batch_sends': 13703,
                     'stall_time': '0x0.0p+0'},
            'counters': {'source_events': 16384,
                         'edge_inserts': 32722,
                         'edge_deletes': 0,
                         'visits': 59993,
                         'messages_sent_local': 59993,
                         'messages_sent_remote': 0,
                         'control_messages': 0,
                         'busy_time': '0x1.a184b50606c0cp-6',
                         'updates_squashed': 50,
                         'batch_sends': 13703,
                         'bulk_chunks': 0,
                         'bulk_events': 0,
                         'fallback_flushes': 0,
                         'deletes_safe': 0,
                         'deletes_unsafe': 0,
                         'vertices_invalidated': 0,
                         'repair_visits': 0},
            'rank_counters': 'd663a605a349386627b9fac313d16f1f1c1d005b',
            'store': {'low_degree_scans': 88020, 'promotions': 2256},
            'edges': 'df155571a37dfe96adc7176ec206bbd60149f1f3',
            'state': {'cc': '7c15c69f16f5e1e582e9134e0aedc6344e9201bb'},
            'collections': []},
 'checkpointed': {'clock': ['0x1.717df19d66a2ep-11',
                            '0x1.72a5390a0cbe7p-11',
                            '0x1.71773ba0bff3bp-11',
                            '0x1.6e4481395078cp-11'],
                  'busy': ['0x1.8a3d05440c9cep-11',
                           '0x1.af98089fe1b2ep-11',
                           '0x1.2a0b6c44ccad3p-10',
                           '0x1.1134dba9df56ap-11'],
                  'loop': {'actions_executed': 3782,
                           'messages_delivered': 2754,
                           'messages_squashed': 1,
                           'batch_sends': 105,
                           'stall_time': '0x0.0p+0'},
                  'counters': {'source_events': 2048,
                               'edge_inserts': 2632,
                               'edge_deletes': 0,
                               'visits': 11383,
                               'messages_sent_local': 7286,
                               'messages_sent_remote': 0,
                               'control_messages': 0,
                               'busy_time': '0x1.a7c83085d9c02p-9',
                               'updates_squashed': 344,
                               'batch_sends': 1005,
                               'bulk_chunks': 0,
                               'bulk_events': 0,
                               'fallback_flushes': 0,
                               'deletes_safe': 0,
                               'deletes_unsafe': 0,
                               'vertices_invalidated': 0,
                               'repair_visits': 0},
                  'rank_counters': 'afebe44a7d5770542b9fbd68dd278ec63b65054d',
                  'store': {'low_degree_scans': 3376, 'promotions': 95},
                  'edges': '7a660160ea55bba7abd6027aa462f418d9c1dbed',
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
