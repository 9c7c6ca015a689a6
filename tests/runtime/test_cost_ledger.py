"""The cost ledger, pinned: what the per-event path computes and charges.

The per-event hot path (store -> DES -> dispatch) may be made cheaper
for the interpreter, never different for the model: the same visits,
messages and squashes in the same order, the same store layout, and
rank clocks equal to the last bit — they are sums of cost-model floats,
so a reordered or pre-added ``+=`` shows in ``float.hex()``.

``PINNED`` was generated at commit ``bad94b2`` (the parent of the
hot-path refactor) *before* ``src/`` was touched, by running this module
as a script there::

    PYTHONPATH=src python tests/runtime/test_cost_ledger.py

and has been edited since in one place per leg only: ``probe_count``,
which that refactor lowers by exactly the second vertex-index lookup
``DegAwareRHH.insert_edge`` used to make (the comment on each line
carries the parent's value and the number of probes removed).  A change
that moves any other number here changed what the engine computes or
what it charges — regenerate only for a change that means to.

The legs from ``churn_bench_16x64`` to ``obs_cc`` are the DES runs of
the churn, fault, squash and telemetry benches at REPRO_BENCH_SCALE=0;
they pin every virtual rate and visits-per-event figure those benches
print, and were generated the same way at commit ``88b89f3``.
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
    split_streams,
)
from repro.comm.costmodel import CostModel
from repro.generators import rmat_edges
from repro.generators.churn import churn_events, flash_crowd_events, split_churn_streams
from repro.runtime.checkpoint import load_checkpoint, save_checkpoint
from repro.runtime.plugins import FaultInjectionPlugin, MetricsPlugin, TracerPlugin
from repro.storage.robin_hood import RobinHoodMap


def _sha1(obj) -> str:
    return hashlib.sha1(repr(obj).encode()).hexdigest()


def ledger(engine: DynamicEngine) -> dict:
    """Everything a run charged, counted and stored, in exact form."""
    loop = engine.loop
    total = engine.total_counters()
    tables = [
        m
        for store in engine.stores
        for m in (store._index, *store._adj)
        if isinstance(m, RobinHoodMap)
    ]
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
            "probe_count": sum(m.probe_count for m in tables),
            "displacement_count": sum(m.displacement_count for m in tables),
            "resize_count": sum(m.resize_count for m in tables),
            "low_degree_scans": sum(s.stats.low_degree_scans for s in engine.stores),
            "promotions": sum(s.stats.promotions for s in engine.stores),
        },
        # list(engine.edges()) is adjacency iteration order: insertion
        # order on the low-degree tier, table order once promoted.
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
    """``bench_ablation_faults``: BFS+CC on 8 ranks, coalescing off."""
    src, dst = rmat_edges(10, edge_factor=8, rng=np.random.default_rng(0xFA17))
    return _harness_run(
        src,
        dst,
        [IncrementalBFS(), IncrementalCC()],
        2,
        init=[("bfs", int(src[0]))],
        plugins=None if plan is None else [FaultInjectionPlugin(plan)],
        coalesce_updates=False,
        batch_updates=False,
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
        batch_updates=coalesce,
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
    "directed": lambda: _bfs_cc(8, EngineConfig(n_ranks=4, undirected=False)),
    "unbatched": lambda: _bfs_cc(
        8, EngineConfig(n_ranks=4, batch_updates=False, coalesce_updates=False)
    ),
    "two_per_node": lambda: _bfs_cc(8, cost=CostModel(ranks_per_node=2)),
    "flow_control": lambda: _bfs_cc(8, cost=CostModel(channel_capacity=16)),
    "whole_scale8": lambda: _bfs_cc(8),
    "churn_bench_16x64": lambda: _churn_steady(16, 64),
    "churn_bench_128x512": lambda: _churn_steady(128, 512),
    "churn_bench_1024x4096": lambda: _churn_steady(1024, 4096),
    "churn_bench_flash": _churn_flash,
    "faults_off": lambda: _faults(None),
    "faults_reliable": lambda: _faults(FaultPlan(seed=1)),
    "faults_drop5": lambda: _faults(FaultPlan(drop=0.05, seed=2)),
    "faults_drop20": lambda: _faults(FaultPlan(drop=0.20, seed=2)),
    "squash_4_off": lambda: _squash(1, False),
    "squash_4_on": lambda: _squash(1, True),
    "squash_16_off": lambda: _squash(4, False),
    "squash_16_on": lambda: _squash(4, True),
    "obs_cc": _obs_cc,
}

PINNED: dict = {'bfs_cc': {'clock': ['0x1.5a6db4b95aafdp-9',
                      '0x1.5a710fb7ae075p-9',
                      '0x1.5abae192d78e7p-9',
                      '0x1.5ac84d8c24eccp-9'],
            'busy': ['0x1.fe07017c00b5cp-10',
                     '0x1.ee82293a8bf22p-11',
                     '0x1.bfe98f7b326ecp-10',
                     '0x1.9f7f8ca8195fep-10'],
            'loop': {'actions_executed': 16585,
                     'messages_delivered': 12485,
                     'messages_squashed': 230,
                     'batch_sends': 1633,
                     'stall_time': '0x0.0p+0'},
            'counters': {'source_events': 4096,
                         'edge_inserts': 5616,
                         'edge_deletes': 0,
                         'visits': 20677,
                         'messages_sent_local': 12484,
                         'messages_sent_remote': 0,
                         'control_messages': 0,
                         'busy_time': '0x1.952c4c8f249f6p-8',
                         'updates_squashed': 230,
                         'batch_sends': 1633,
                         'bulk_chunks': 0,
                         'bulk_events': 0,
                         'fallback_flushes': 0,
                         'deletes_safe': 0,
                         'deletes_unsafe': 0,
                         'vertices_invalidated': 0,
                         'repair_visits': 0},
            'rank_counters': '9e44695cd5c95640d8d099b90105904c9e4216f9',
            'store': {'probe_count': 46758,  # parent 64496: 17738 second index lookups gone
                      'displacement_count': 4622,
                      'resize_count': 196,
                      'low_degree_scans': 6267,
                      'promotions': 168},
            'edges': 'cc386659b81ac50858aa21fd43cd80f28ef42559',
            'state': {'bfs': '26bbc18b0b21f599653afe6d1b3fb806be4d00a4',
                      'cc': '556b90d2f5699eac0a6b46565b9b61edf8a0ed69'},
            'collections': []},
 'churn': {'clock': ['0x1.0e95c4f8c2f65p-12',
                     '0x1.08a91bed9c523p-12',
                     '0x1.0ebe08e4ab115p-12',
                     '0x1.03785a84b0d74p-12'],
           'busy': ['0x1.f75104d551d8bp-15',
                    '0x1.d811a46d32306p-14',
                    '0x1.6c10ca529f0b7p-13',
                    '0x1.f212d77318f9ep-14'],
           'loop': {'actions_executed': 1792,
                    'messages_delivered': 1703,
                    'messages_squashed': 0,
                    'batch_sends': 270,
                    'stall_time': '0x0.0p+0'},
           'counters': {'source_events': 85,
                        'edge_inserts': 106,
                        'edge_deletes': 40,
                        'visits': 2383,
                        'messages_sent_local': 1698,
                        'messages_sent_remote': 0,
                        'control_messages': 0,
                        'busy_time': '0x1.e77ba4bc0c8b6p-12',
                        'updates_squashed': 0,
                        'batch_sends': 270,
                        'bulk_chunks': 0,
                        'bulk_events': 0,
                        'fallback_flushes': 0,
                        'deletes_safe': 194,
                        'deletes_unsafe': 16,
                        'vertices_invalidated': 48,
                        'repair_visits': 538},
           'rank_counters': '5627a3f321fd32c0fe0173e69e5c6b497cf84a56',
           'store': {'probe_count': 1737,  # parent 1865: 128 second index lookups gone
                     'displacement_count': 0,
                     'resize_count': 0,
                     'low_degree_scans': 3583,
                     'promotions': 0},
           'edges': '10e7bf452cb53d3ba4460495965c3c07ca072f86',
           'state': {'gen-bfs': '400709d23a998ab71fae865c8d1549a6bbf4c6ff',
                     'gen-sssp': '788991fbd8f52b13d7cfc319290762e52a32feae',
                     'gen-cc': 'a3745680f69f38735527224a24bbbaac77642237',
                     'gen-st': '36b523b06225d1ea3b2f7bf8fd9564ebbedbd688',
                     'gen-widest': 'dc0f3541e57b11e2f8f792e5845741ab53e31376'},
           'collections': []},
 'collect_merge': {'clock': ['0x1.4ea0211d31034p-9',
                             '0x1.4ed0c884e9794p-9',
                             '0x1.4edc86ff0d2bdp-9',
                             '0x1.4ecd6d869621bp-9'],
                   'busy': ['0x1.546b921f51b7fp-10',
                            '0x1.601137b5cebb7p-10',
                            '0x1.fedc6977e8842p-10',
                            '0x1.bc6affd334626p-11'],
                   'loop': {'actions_executed': 12535,
                            'messages_delivered': 10483,
                            'messages_squashed': 153,
                            'batch_sends': 472,
                            'stall_time': '0x0.0p+0'},
                   'counters': {'source_events': 2048,
                                'edge_inserts': 2632,
                                'edge_deletes': 0,
                                'visits': 14239,
                                'messages_sent_local': 5170,
                                'messages_sent_remote': 4972,
                                'control_messages': 340,
                                'busy_time': '0x1.6463accda8ca3p-8',
                                'updates_squashed': 153,
                                'batch_sends': 472,
                                'bulk_chunks': 0,
                                'bulk_events': 0,
                                'fallback_flushes': 0,
                                'deletes_safe': 0,
                                'deletes_unsafe': 0,
                                'vertices_invalidated': 0,
                                'repair_visits': 0},
                   'rank_counters': 'aba0650fc705abcfc22691d6d6a8a817e7d58ba5',
                   'store': {'probe_count': 26955,  # parent 34121: 7166 second index lookups gone
                             'displacement_count': 1830,
                             'resize_count': 100,
                             'low_degree_scans': 5568,
                             'promotions': 95},
                   'edges': '48224fe4cbfced4862387ddf8066b7fd5c433bae',
                   'state': {'bfs': '1d57ab3e10aa8194333586a91c79326ee01545c8',
                             'echo': '00267ebdf7eeee6b69e09880afc9a8f12a7f6d6a'},
                   'collections': [(1,
                                    '0x1.a3ae9b5e6a93cp-10',
                                    41,
                                    'b55822830111ef48eee662eb6180d28ba05a2e0f')]},
 'collect_replay': {'clock': ['0x1.4e996b208a543p-9',
                              '0x1.4eca128842ca3p-9',
                              '0x1.4ed5d102667ccp-9',
                              '0x1.4ec6b789ef72ap-9'],
                    'busy': ['0x1.5446a931bcf4ap-10',
                             '0x1.6003cbbc815d1p-10',
                             '0x1.fecba28047ce5p-10',
                             '0x1.bbd0a6203aa56p-11'],
                    'loop': {'actions_executed': 12517,
                             'messages_delivered': 10465,
                             'messages_squashed': 148,
                             'batch_sends': 463,
                             'stall_time': '0x0.0p+0'},
                    'counters': {'source_events': 2048,
                                 'edge_inserts': 2632,
                                 'edge_deletes': 0,
                                 'visits': 14221,
                                 'messages_sent_local': 5162,
                                 'messages_sent_remote': 4962,
                                 'control_messages': 340,
                                 'busy_time': '0x1.643f9a9fa8dcbp-8',
                                 'updates_squashed': 148,
                                 'batch_sends': 463,
                                 'bulk_chunks': 0,
                                 'bulk_events': 0,
                                 'fallback_flushes': 0,
                                 'deletes_safe': 0,
                                 'deletes_unsafe': 0,
                                 'vertices_invalidated': 0,
                                 'repair_visits': 0},
                    'rank_counters': '5b31533d7ed1489a993dde94b82a4bf614846685',
                    'store': {'probe_count': 26945,  # parent 34115: 7170 second index lookups gone
                              'displacement_count': 1830,
                              'resize_count': 100,
                              'low_degree_scans': 5573,
                              'promotions': 95},
                    'edges': 'c62c57527de336e3014dccfc7639a257a799a107',
                    'state': {'bfs': '1d57ab3e10aa8194333586a91c79326ee01545c8',
                              'echo': '00267ebdf7eeee6b69e09880afc9a8f12a7f6d6a'},
                    'collections': [(1,
                                     '0x1.a3a7e561c3e61p-10',
                                     41,
                                     'fe80c3e413e3f2318b11670ba58d51b3893d2872')]},
 'directed': {'clock': ['0x1.15e21487a1649p-10',
                        '0x1.15e21487a164bp-10',
                        '0x1.15f6367d95722p-10',
                        '0x1.15f9917be8c9dp-10'],
              'busy': ['0x1.b7fb84703c8c4p-12',
                       '0x1.f52ab9e7ed963p-12',
                       '0x1.4b8f4a8b3e837p-11',
                       '0x1.466bf51ba0675p-12'],
              'loop': {'actions_executed': 9361,
                       'messages_delivered': 7309,
                       'messages_squashed': 203,
                       'batch_sends': 423,
                       'stall_time': '0x0.0p+0'},
              'counters': {'source_events': 2048,
                           'edge_inserts': 1511,
                           'edge_deletes': 0,
                           'visits': 9357,
                           'messages_sent_local': 7308,
                           'messages_sent_remote': 0,
                           'control_messages': 0,
                           'busy_time': '0x1.e2ac322291e43p-10',
                           'updates_squashed': 203,
                           'batch_sends': 423,
                           'bulk_chunks': 0,
                           'bulk_events': 0,
                           'fallback_flushes': 0,
                           'deletes_safe': 0,
                           'deletes_unsafe': 0,
                           'vertices_invalidated': 0,
                           'repair_visits': 0},
              'rank_counters': '826b0d5ace0455be9eb16fbba1f50223bf7f27dc',
              'store': {'probe_count': 9013,  # parent 12096: 3083 second index lookups gone
                        'displacement_count': 746,
                        'resize_count': 46,
                        'low_degree_scans': 2395,
                        'promotions': 56},
              'edges': 'e77299df48502ed446deeef3effec2dc9644cff9',
              'state': {'bfs': '7e5ff4e93a734aad33326f372f425a8ceb3afe2d',
                        'cc': 'd47f143fc9892a209019d909bab38fe5880acb7b'},
              'collections': []},
 'unbatched': {'clock': ['0x1.a887732668100p-10',
                         '0x1.a851c3413296bp-10',
                         '0x1.a8a90115a97bdp-10',
                         '0x1.a8ef77f27fab1p-10'],
               'busy': ['0x1.7f84449dbebfcp-11',
                        '0x1.a07e9028d7901p-11',
                        '0x1.2d81428abf007p-10',
                        '0x1.0d1df5b44c97cp-11'],
               'loop': {'actions_executed': 9027,
                        'messages_delivered': 6975,
                        'messages_squashed': 0,
                        'batch_sends': 0,
                        'stall_time': '0x0.0p+0'},
               'counters': {'source_events': 2048,
                            'edge_inserts': 2632,
                            'edge_deletes': 0,
                            'visits': 11071,
                            'messages_sent_local': 6974,
                            'messages_sent_remote': 0,
                            'control_messages': 0,
                            'busy_time': '0x1.a208d3e4183a1p-9',
                            'updates_squashed': 0,
                            'batch_sends': 0,
                            'bulk_chunks': 0,
                            'bulk_events': 0,
                            'fallback_flushes': 0,
                            'deletes_safe': 0,
                            'deletes_unsafe': 0,
                            'vertices_invalidated': 0,
                            'repair_visits': 0},
               'rank_counters': 'f959f096541ab71a25a5e624e6d1248c7b9dc0f4',
               'store': {'probe_count': 20678,  # parent 27827: 7149 second index lookups gone
                         'displacement_count': 1839,
                         'resize_count': 100,
                         'low_degree_scans': 3495,
                         'promotions': 95},
               'edges': '1c8626020bde7b45c342c03f8aa193c5a21a91d7',
               'state': {'bfs': '1d57ab3e10aa8194333586a91c79326ee01545c8',
                         'cc': '00ef745e216c7952fd71c7aac9e5c5d373012831'},
               'collections': []},
 'two_per_node': {'clock': ['0x1.8c3908e02339bp-10',
                            '0x1.8bd104140b9eap-10',
                            '0x1.8bde700d58fcep-10',
                            '0x1.8c5085d46a9ebp-10'],
                  'busy': ['0x1.7b1620d3b51b6p-11',
                           '0x1.9e4ad94226156p-11',
                           '0x1.23d4f15e7c856p-10',
                           '0x1.0b48329eb8b1bp-11'],
                  'loop': {'actions_executed': 8631,
                           'messages_delivered': 6579,
                           'messages_squashed': 147,
                           'batch_sends': 815,
                           'stall_time': '0x0.0p+0'},
                  'counters': {'source_events': 2048,
                               'edge_inserts': 2632,
                               'edge_deletes': 0,
                               'visits': 10675,
                               'messages_sent_local': 3400,
                               'messages_sent_remote': 3178,
                               'control_messages': 0,
                               'busy_time': '0x1.9b14c3dc633b5p-9',
                               'updates_squashed': 147,
                               'batch_sends': 815,
                               'bulk_chunks': 0,
                               'bulk_events': 0,
                               'fallback_flushes': 0,
                               'deletes_safe': 0,
                               'deletes_unsafe': 0,
                               'vertices_invalidated': 0,
                               'repair_visits': 0},
                  'rank_counters': '76fc1d3eb3aa2b784a389c6d1b5e0477052cd792',
                  'store': {'probe_count': 20607,  # parent 27725: 7118 second index lookups gone
                            'displacement_count': 1825,
                            'resize_count': 100,
                            'low_degree_scans': 3516,
                            'promotions': 95},
                  'edges': '0f249fd679c31b0a1a92f782fd6239b732a6d68c',
                  'state': {'bfs': '1d57ab3e10aa8194333586a91c79326ee01545c8',
                            'cc': '00ef745e216c7952fd71c7aac9e5c5d373012831'},
                  'collections': []},
 'flow_control': {'clock': ['0x1.9eaad078a8a78p-10',
                            '0x1.9e752093732e3p-10',
                            '0x1.9ecc5e67ea135p-10',
                            '0x1.9f12d544c0429p-10'],
                  'busy': ['0x1.7389649830094p-11',
                           '0x1.981b14587c983p-11',
                           '0x1.225d221a0633cp-10',
                           '0x1.071674b68b362p-11'],
                  'loop': {'actions_executed': 8395,
                           'messages_delivered': 6343,
                           'messages_squashed': 102,
                           'batch_sends': 768,
                           'stall_time': '0x1.9b3db394c2798p-11'},
                  'counters': {'source_events': 2048,
                               'edge_inserts': 2632,
                               'edge_deletes': 0,
                               'visits': 10439,
                               'messages_sent_local': 6342,
                               'messages_sent_remote': 0,
                               'control_messages': 0,
                               'busy_time': '0x1.95dd4c76d10fcp-9',
                               'updates_squashed': 102,
                               'batch_sends': 768,
                               'bulk_chunks': 0,
                               'bulk_events': 0,
                               'fallback_flushes': 0,
                               'deletes_safe': 0,
                               'deletes_unsafe': 0,
                               'vertices_invalidated': 0,
                               'repair_visits': 0},
                  'rank_counters': 'd4949d3eb91f0670a50666881deb246553ed5ff4',
                  'store': {'probe_count': 20416,  # parent 27551: 7135 second index lookups gone
                            'displacement_count': 1795,
                            'resize_count': 100,
                            'low_degree_scans': 3523,
                            'promotions': 95},
                  'edges': '85ea5698d7c1fbe5f8243fe596cb931c327b3064',
                  'state': {'bfs': '1d57ab3e10aa8194333586a91c79326ee01545c8',
                            'cc': '00ef745e216c7952fd71c7aac9e5c5d373012831'},
                  'collections': []},
 'whole_scale8': {'clock': ['0x1.8a674c9559bd3p-10',
                            '0x1.8a319cb02443ep-10',
                            '0x1.8a88da849b290p-10',
                            '0x1.8acf516171584p-10'],
                  'busy': ['0x1.78c0dbfdc234dp-11',
                           '0x1.9a9f5316fe48cp-11',
                           '0x1.231253bf9aad9p-10',
                           '0x1.090059c213299p-11'],
                  'loop': {'actions_executed': 8582,
                           'messages_delivered': 6530,
                           'messages_squashed': 119,
                           'batch_sends': 759,
                           'stall_time': '0x0.0p+0'},
                  'counters': {'source_events': 2048,
                               'edge_inserts': 2632,
                               'edge_deletes': 0,
                               'visits': 10626,
                               'messages_sent_local': 6529,
                               'messages_sent_remote': 0,
                               'control_messages': 0,
                               'busy_time': '0x1.98a14c1582408p-9',
                               'updates_squashed': 119,
                               'batch_sends': 759,
                               'bulk_chunks': 0,
                               'bulk_events': 0,
                               'fallback_flushes': 0,
                               'deletes_safe': 0,
                               'deletes_unsafe': 0,
                               'vertices_invalidated': 0,
                               'repair_visits': 0},
                  'rank_counters': 'b5bd92542def83fa0c1283423be7311d0c3e2231',
                  'store': {'probe_count': 20508,  # parent 27608: 7100 second index lookups gone
                            'displacement_count': 1815,
                            'resize_count': 100,
                            'low_degree_scans': 3529,
                            'promotions': 95},
                  'edges': 'ce6d4e3a63e3b78794d025ac9542dce1365477dd',
                  'state': {'bfs': '1d57ab3e10aa8194333586a91c79326ee01545c8',
                            'cc': '00ef745e216c7952fd71c7aac9e5c5d373012831'},
                  'collections': []},
 'churn_bench_16x64': {'clock': ['0x1.51a437824d462p-12',
                                 '0x1.56acb4ff50a62p-12',
                                 '0x1.56efd0ddd37dap-12',
                                 '0x1.56ba20f89e047p-12'],
                       'busy': ['0x1.df68b0c381cc1p-15',
                                '0x1.1050b01bbc1dap-13',
                                '0x1.cea1b922cbe17p-13',
                                '0x1.977a04a8dc2c2p-14'],
                       'loop': {'actions_executed': 2129,
                                'messages_delivered': 2040,
                                'messages_squashed': 0,
                                'batch_sends': 351,
                                'stall_time': '0x0.0p+0'},
                       'counters': {'source_events': 85,
                                    'edge_inserts': 106,
                                    'edge_deletes': 36,
                                    'visits': 2720,
                                    'messages_sent_local': 2035,
                                    'messages_sent_remote': 0,
                                    'control_messages': 0,
                                    'busy_time': '0x1.08a265f0f5a20p-11',
                                    'updates_squashed': 0,
                                    'batch_sends': 351,
                                    'bulk_chunks': 0,
                                    'bulk_events': 0,
                                    'fallback_flushes': 0,
                                    'deletes_safe': 183,
                                    'deletes_unsafe': 27,
                                    'vertices_invalidated': 75,
                                    'repair_visits': 654},
                       'rank_counters': 'bf45ec64fd124eb04d2786810dd79ec2256b7f51',
                       'store': {'probe_count': 2267,
                                 'displacement_count': 1,
                                 'resize_count': 0,
                                 'low_degree_scans': 4279,
                                 'promotions': 2},
                       'edges': '769b8a74b0a66cad07309d4ae6e48b32ac114793',
                       'state': {'gen-bfs': 'd560f76733afe21979979181de7e5c72bc225509',
                                 'gen-sssp': '656ce5f379495131ee0b8c5ef982e2cf24d1d672',
                                 'gen-cc': '516248c5bf85c9d77a7bab4d2b3730890897f4a6',
                                 'gen-st': '91b7c5b1e2eb15d686c9ead0eb305d51dcb94a38',
                                 'gen-widest': 'c454f037a74c3cf6f47534f0c32aeed649dd83ab'},
                       'collections': []},
 'churn_bench_128x512': {'clock': ['0x1.3b2646bba6129p-9',
                                   '0x1.3b22ebbd52baep-9',
                                   '0x1.3abae6f13b1f7p-9',
                                   '0x1.3acd5b680581bp-9'],
                         'busy': ['0x1.3dbb4c71c871dp-10',
                                  '0x1.0ad977d5fa65fp-10',
                                  '0x1.9b00a1e66edd8p-10',
                                  '0x1.578374942662bp-10'],
                         'loop': {'actions_executed': 23287,
                                  'messages_delivered': 22600,
                                  'messages_squashed': 0,
                                  'batch_sends': 3704,
                                  'stall_time': '0x0.0p+0'},
                         'counters': {'source_events': 683,
                                      'edge_inserts': 1004,
                                      'edge_deletes': 340,
                                      'visits': 28064,
                                      'messages_sent_local': 22595,
                                      'messages_sent_remote': 0,
                                      'control_messages': 0,
                                      'busy_time': '0x1.4ec636b096060p-8',
                                      'updates_squashed': 0,
                                      'batch_sends': 3704,
                                      'bulk_chunks': 0,
                                      'bulk_events': 0,
                                      'fallback_flushes': 0,
                                      'deletes_safe': 1575,
                                      'deletes_unsafe': 135,
                                      'vertices_invalidated': 638,
                                      'repair_visits': 6720},
                         'rank_counters': '75748123cf361ca0d83ab8eaa7f8320366d40a82',
                         'store': {'probe_count': 34129,
                                   'displacement_count': 31,
                                   'resize_count': 0,
                                   'low_degree_scans': 47006,
                                   'promotions': 20},
                         'edges': 'ee4287990f4d20a128b5c817ed5af4ca6ccaa44a',
                         'state': {'gen-bfs': '0757b4d6296fc42ea8ac3120737391d3106c006d',
                                   'gen-sssp': 'caa7da601981b531a832da6193c55b34dd6e3c02',
                                   'gen-cc': '962b70ef524f7e58fabffc4f5d337367bbd6ca84',
                                   'gen-st': 'f9021501907c01e388c59ec6e584f46b71a9abab',
                                   'gen-widest': '803b1ad66a7de53c11fa5994d8116d73e0daab01'},
                         'collections': []},
 'churn_bench_1024x4096': {'clock': ['0x1.20db41da9bc63p-5',
                                     '0x1.20b92db39d536p-5',
                                     '0x1.20cfb9105d484p-5',
                                     '0x1.20d77b7c7e032p-5'],
                           'busy': ['0x1.57e4c3639a126p-6',
                                    '0x1.50536a0a621b5p-6',
                                    '0x1.6a605b8a6db03p-6',
                                    '0x1.6574637f2e887p-6'],
                           'loop': {'actions_executed': 430616,
                                    'messages_delivered': 425151,
                                    'messages_squashed': 0,
                                    'batch_sends': 71398,
                                    'stall_time': '0x0.0p+0'},
                           'counters': {'source_events': 5461,
                                        'edge_inserts': 8150,
                                        'edge_deletes': 2728,
                                        'visits': 468839,
                                        'messages_sent_local': 425146,
                                        'messages_sent_remote': 0,
                                        'control_messages': 0,
                                        'busy_time': '0x1.5e033b1de619ap-4',
                                        'updates_squashed': 0,
                                        'batch_sends': 71398,
                                        'bulk_chunks': 0,
                                        'bulk_events': 0,
                                        'fallback_flushes': 0,
                                        'deletes_safe': 12005,
                                        'deletes_unsafe': 1645,
                                        'vertices_invalidated': 14040,
                                        'repair_visits': 139388},
                           'rank_counters': 'ff13a327f8c4b6ac06905958ec0dc2d29b99bfc9',
                           'store': {'probe_count': 723559,
                                     'displacement_count': 1816,
                                     'resize_count': 16,
                                     'low_degree_scans': 790161,
                                     'promotions': 221},
                           'edges': '8b58688ce79414f0137118aff51ff7f3dae0dee1',
                           'state': {'gen-bfs': '0b8b9ed8215ac819beddd98689d6259705fbf96f',
                                     'gen-sssp': 'e8488bc59c061a507bd14992e50c9eeb4cf69992',
                                     'gen-cc': '34d7cb44eaa9b3c44b44c932f4f1e046b9e01294',
                                     'gen-st': '2f004531083842c40746f60607220257b519a97a',
                                     'gen-widest': 'f7c1395d2fa79decddf7124ab63ec437bf0df2f9'},
                           'collections': []},
 'churn_bench_flash': {'clock': ['0x1.854a573c26f6cp-9',
                                 '0x1.84fed7e1d3c3fp-9',
                                 '0x1.854046412cefdp-9',
                                 '0x1.850232e0271b9p-9'],
                       'busy': ['0x1.6092110f1bd60p-10',
                                '0x1.3388c3888055dp-10',
                                '0x1.d13363da9a957p-10',
                                '0x1.ffcbfd99f3ae1p-10'],
                       'loop': {'actions_executed': 28866,
                                'messages_delivered': 28196,
                                'messages_squashed': 0,
                                'batch_sends': 5374,
                                'stall_time': '0x0.0p+0'},
                       'counters': {'source_events': 666,
                                    'edge_inserts': 716,
                                    'edge_deletes': 180,
                                    'visits': 33524,
                                    'messages_sent_local': 28191,
                                    'messages_sent_remote': 0,
                                    'control_messages': 0,
                                    'busy_time': '0x1.99468d830a9bdp-8',
                                    'updates_squashed': 0,
                                    'batch_sends': 5374,
                                    'bulk_chunks': 0,
                                    'bulk_events': 0,
                                    'fallback_flushes': 0,
                                    'deletes_safe': 1306,
                                    'deletes_unsafe': 234,
                                    'vertices_invalidated': 918,
                                    'repair_visits': 8422},
                       'rank_counters': '289a3b8f2cb2170dab04d0eb0730b408608e19c3',
                       'store': {'probe_count': 43114,
                                 'displacement_count': 109,
                                 'resize_count': 2,
                                 'low_degree_scans': 50841,
                                 'promotions': 10},
                       'edges': 'b5303d6dfcc0a476dc6341c4be2d631cfca1bd12',
                       'state': {'gen-bfs': 'fe14b8815a38804c0f44fec3eeb97fef173efa85',
                                 'gen-sssp': '46c44f2043d417b401ded9e9a7a84f2567dfccaf',
                                 'gen-cc': 'bdcc109bfd7f82aef843ea439257414070534d80',
                                 'gen-st': '9415a2e0766027e0defbc8b33d74ad57c283a0e1',
                                 'gen-widest': 'bc5c1b00969cd02241ae33dd1be426a98e29ebe8'},
                       'collections': []},
 'faults_off': {'clock': ['0x1.f1b9ec1f78ccep-9',
                          '0x1.f0f3f382439cfp-9',
                          '0x1.f151e75361317p-9',
                          '0x1.f1828ebb19a79p-9',
                          '0x1.f18e4d353d5a1p-9',
                          '0x1.f17a2b3f494c9p-9',
                          '0x1.f1249ae9fc130p-9',
                          '0x1.f16e6cc5259a0p-9'],
                'busy': ['0x1.5f478e340aef7p-9',
                         '0x1.6b54e2b063bf2p-10',
                         '0x1.9373e5aae9f62p-10',
                         '0x1.502fc33c2a3a6p-10',
                         '0x1.ca4101520f540p-10',
                         '0x1.968512231803dp-10',
                         '0x1.6b4ad1b569b87p-10',
                         '0x1.ab3aabcd788edp-10'],
                'loop': {'actions_executed': 41262,
                         'messages_delivered': 33062,
                         'messages_squashed': 0,
                         'batch_sends': 0,
                         'stall_time': '0x0.0p+0'},
                'counters': {'source_events': 8192,
                             'edge_inserts': 12117,
                             'edge_deletes': 0,
                             'visits': 49446,
                             'messages_sent_local': 16430,
                             'messages_sent_remote': 16631,
                             'control_messages': 0,
                             'busy_time': '0x1.b09a671ef2edcp-7',
                             'updates_squashed': 0,
                             'batch_sends': 0,
                             'bulk_chunks': 0,
                             'bulk_events': 0,
                             'fallback_flushes': 0,
                             'deletes_safe': 0,
                             'deletes_unsafe': 0,
                             'vertices_invalidated': 0,
                             'repair_visits': 0},
                'rank_counters': '2a133495ae8abf87f5dbaadd338fd069082f950d',
                'store': {'probe_count': 91669,
                          'displacement_count': 9540,
                          'resize_count': 411,
                          'low_degree_scans': 12024,
                          'promotions': 346},
                'edges': 'c25943c204a5c301bc7e07a7bcd3b971f4f2df9a',
                'state': {'bfs': 'c1e6c39b47aa053c5747380f369d4aec00c2c46a',
                          'cc': '8d488b717fcda7a185e8b27d01ce2576aae2eaad'},
                'collections': []},
 'faults_reliable': {'clock': ['0x1.ffcdab191e324p-9',
                               '0x1.fea25ce1adacfp-9',
                               '0x1.ff62a134eec80p-9',
                               '0x1.ff8c3cb9c5062p-9',
                               '0x1.ff9b004c00878p-9',
                               '0x1.ff781ac3d0f89p-9',
                               '0x1.ff2bef9d06b44p-9',
                               '0x1.ff781ac3d0f89p-9'],
                     'busy': ['0x1.5dc908f2eded3p-9',
                              '0x1.692486c8059cfp-10',
                              '0x1.90d829f820e06p-10',
                              '0x1.4cd169ea7f4d1p-10',
                              '0x1.c69c31238e383p-10',
                              '0x1.955714b9cb38ap-10',
                              '0x1.6843b63835b15p-10',
                              '0x1.a6322e50752ecp-10'],
                     'loop': {'actions_executed': 40833,
                              'messages_delivered': 32633,
                              'messages_squashed': 0,
                              'batch_sends': 0,
                              'stall_time': '0x0.0p+0'},
                     'counters': {'source_events': 8192,
                                  'edge_inserts': 12117,
                                  'edge_deletes': 0,
                                  'visits': 49017,
                                  'messages_sent_local': 16209,
                                  'messages_sent_remote': 16423,
                                  'control_messages': 0,
                                  'busy_time': '0x1.ad992aded0beap-7',
                                  'updates_squashed': 0,
                                  'batch_sends': 0,
                                  'bulk_chunks': 0,
                                  'bulk_events': 0,
                                  'fallback_flushes': 0,
                                  'deletes_safe': 0,
                                  'deletes_unsafe': 0,
                                  'vertices_invalidated': 0,
                                  'repair_visits': 0},
                     'rank_counters': '701e0d1adbac5842e53d827d4fbb6e40ca9ef3f9',
                     'store': {'probe_count': 91556,
                               'displacement_count': 9525,
                               'resize_count': 411,
                               'low_degree_scans': 12010,
                               'promotions': 346},
                     'edges': '6821f2de16f40fa7a0e0948a887d058adc1db55b',
                     'state': {'bfs': 'c1e6c39b47aa053c5747380f369d4aec00c2c46a',
                               'cc': '8d488b717fcda7a185e8b27d01ce2576aae2eaad'},
                     'collections': []},
 'faults_drop5': {'clock': ['0x1.b719873a9c5bdp-8',
                            '0x1.b70c1b414efd8p-8',
                            '0x1.b6528ceab4927p-8',
                            '0x1.b6b080bbd226ap-8',
                            '0x1.b6e128238a9c8p-8',
                            '0x1.b72fd78913623p-8',
                            '0x1.b6b8e437a2819p-8',
                            '0x1.b7d0e738b3d01p-8'],
                  'busy': ['0x1.895c34b43cf91p-9',
                           '0x1.9ac79702e623ap-10',
                           '0x1.c70e46ea9fc9ap-10',
                           '0x1.7ea0190f9b49cp-10',
                           '0x1.0016a634b25ccp-9',
                           '0x1.c7a8a09d998cep-10',
                           '0x1.915450ba2c7f0p-10',
                           '0x1.dc004676dc810p-10'],
                  'loop': {'actions_executed': 51389,
                           'messages_delivered': 43189,
                           'messages_squashed': 0,
                           'batch_sends': 0,
                           'stall_time': '0x0.0p+0'},
                  'counters': {'source_events': 8192,
                               'edge_inserts': 12117,
                               'edge_deletes': 0,
                               'visits': 59573,
                               'messages_sent_local': 21645,
                               'messages_sent_remote': 21543,
                               'control_messages': 0,
                               'busy_time': '0x1.e50b1c93b44e0p-7',
                               'updates_squashed': 0,
                               'batch_sends': 0,
                               'bulk_chunks': 0,
                               'bulk_events': 0,
                               'fallback_flushes': 0,
                               'deletes_safe': 0,
                               'deletes_unsafe': 0,
                               'vertices_invalidated': 0,
                               'repair_visits': 0},
                  'rank_counters': '80e2568196806eca3107f86618599bcb75518606',
                  'store': {'probe_count': 93425,
                            'displacement_count': 9766,
                            'resize_count': 411,
                            'low_degree_scans': 12048,
                            'promotions': 346},
                  'edges': '840606ea8611e52306fb17f0c5a3acbcc256340c',
                  'state': {'bfs': 'c1e6c39b47aa053c5747380f369d4aec00c2c46a',
                            'cc': '8d488b717fcda7a185e8b27d01ce2576aae2eaad'},
                  'collections': []},
 'faults_drop20': {'clock': ['0x1.9f792c91ae54bp-7',
                             '0x1.a5a54096c9027p-7',
                             '0x1.d0f08868c4bccp-7',
                             '0x1.e640664c9028ep-7',
                             '0x1.9ce2237626cd9p-7',
                             '0x1.e7f3595383618p-7',
                             '0x1.84ccee5abc0d7p-7',
                             '0x1.9c5f313de5925p-7'],
                   'busy': ['0x1.c48f10a99bc21p-9',
                            '0x1.dc5e3a47f9ebap-10',
                            '0x1.ff0cbaf965374p-10',
                            '0x1.baa8071aa61d0p-10',
                            '0x1.204295a6c5cedp-9',
                            '0x1.049235f8095b6p-9',
                            '0x1.dc50ce4eac99dp-10',
                            '0x1.1238e7a81a541p-9'],
                   'loop': {'actions_executed': 65176,
                            'messages_delivered': 56976,
                            'messages_squashed': 0,
                            'batch_sends': 0,
                            'stall_time': '0x0.0p+0'},
                   'counters': {'source_events': 8192,
                                'edge_inserts': 12117,
                                'edge_deletes': 0,
                                'visits': 73360,
                                'messages_sent_local': 28392,
                                'messages_sent_remote': 28583,
                                'control_messages': 0,
                                'busy_time': '0x1.1699d528bbc5ap-6',
                                'updates_squashed': 0,
                                'batch_sends': 0,
                                'bulk_chunks': 0,
                                'bulk_events': 0,
                                'fallback_flushes': 0,
                                'deletes_safe': 0,
                                'deletes_unsafe': 0,
                                'vertices_invalidated': 0,
                                'repair_visits': 0},
                   'rank_counters': '11e71d3c01c990213b317bece79be26743f37897',
                   'store': {'probe_count': 92783,
                             'displacement_count': 9674,
                             'resize_count': 414,
                             'low_degree_scans': 12003,
                             'promotions': 346},
                   'edges': 'aee3130315f803eb4587759d2b3729c261e1e86d',
                   'state': {'bfs': 'c1e6c39b47aa053c5747380f369d4aec00c2c46a',
                             'cc': '8d488b717fcda7a185e8b27d01ce2576aae2eaad'},
                   'collections': []},
 'squash_4_off': {'clock': ['0x1.fae7924aeffdbp-8',
                            '0x1.fade580f8acc9p-8',
                            '0x1.faebc408d82adp-8',
                            '0x1.fae93fca19a98p-8'],
                  'busy': ['0x1.79547fb41537cp-9',
                           '0x1.b2d681817507ap-9',
                           '0x1.30171f00762ffp-8',
                           '0x1.8d5b9db58809ep-9'],
                  'loop': {'actions_executed': 55358,
                           'messages_delivered': 50543,
                           'messages_squashed': 0,
                           'batch_sends': 0,
                           'stall_time': '0x0.0p+0'},
                  'counters': {'source_events': 4811,
                               'edge_inserts': 9622,
                               'edge_deletes': 0,
                               'visits': 50543,
                               'messages_sent_local': 50543,
                               'messages_sent_remote': 0,
                               'control_messages': 0,
                               'busy_time': '0x1.c66d373affaa4p-7',
                               'updates_squashed': 0,
                               'batch_sends': 0,
                               'bulk_chunks': 0,
                               'bulk_events': 0,
                               'fallback_flushes': 0,
                               'deletes_safe': 0,
                               'deletes_unsafe': 0,
                               'vertices_invalidated': 0,
                               'repair_visits': 0},
                  'rank_counters': '40136f0d36929fe74adb93dee9e42759c9e6ae78',
                  'store': {'probe_count': 118827,
                            'displacement_count': 18635,
                            'resize_count': 80,
                            'low_degree_scans': 336,
                            'promotions': 12},
                  'edges': '103c528a6b007ba5e5ca91f9103dd43e33b5e992',
                  'state': {'cc': '31b69ebfd6fbcde6cf395e5a1d0d38b04d70d642'},
                  'collections': []},
 'squash_4_on': {'clock': ['0x1.8e4ee2bc21aabp-8',
                           '0x1.8e4176c2d44c3p-8',
                           '0x1.8e4fb97bb6805p-8',
                           '0x1.8e50903b4b568p-8'],
                 'busy': ['0x1.703013c402191p-9',
                          '0x1.ae03b3e9a724ep-9',
                          '0x1.017e85411d2f6p-8',
                          '0x1.8a207fd248360p-9'],
                 'loop': {'actions_executed': 51254,
                          'messages_delivered': 46439,
                          'messages_squashed': 1670,
                          'batch_sends': 21219,
                          'stall_time': '0x0.0p+0'},
                 'counters': {'source_events': 4811,
                              'edge_inserts': 9622,
                              'edge_deletes': 0,
                              'visits': 46439,
                              'messages_sent_local': 46439,
                              'messages_sent_remote': 0,
                              'control_messages': 0,
                              'busy_time': '0x1.aad454808af4bp-7',
                              'updates_squashed': 1670,
                              'batch_sends': 21219,
                              'bulk_chunks': 0,
                              'bulk_events': 0,
                              'fallback_flushes': 0,
                              'deletes_safe': 0,
                              'deletes_unsafe': 0,
                              'vertices_invalidated': 0,
                              'repair_visits': 0},
                 'rank_counters': 'bb6be1e9c44faa71b12d182aa9274ab5c92b875e',
                 'store': {'probe_count': 118107,
                           'displacement_count': 18419,
                           'resize_count': 80,
                           'low_degree_scans': 336,
                           'promotions': 12},
                 'edges': '53a8b74d1421c8fbe8cf87afda2816c0d61a4b5c',
                 'state': {'cc': '31b69ebfd6fbcde6cf395e5a1d0d38b04d70d642'},
                 'collections': []},
 'squash_16_off': {'clock': ['0x1.c6484e4d6afbfp-9',
                             '0x1.c664d3bf2f64dp-9',
                             '0x1.c6525f4865030p-9',
                             '0x1.c576973612173p-9',
                             '0x1.c4f20cf83614fp-9',
                             '0x1.c560c7c0f4604p-9',
                             '0x1.c6682ebd82b9cp-9',
                             '0x1.c6a99d1cdbe80p-9',
                             '0x1.c67fabb1ca212p-9',
                             '0x1.c5b4aa9717ebap-9',
                             '0x1.c646a0ce414dep-9',
                             '0x1.c66b89bbd613fp-9',
                             '0x1.c63e3d5270f2ep-9',
                             '0x1.c6957b26e7dadp-9',
                             '0x1.c5ef62f9ca688p-9',
                             '0x1.c684b42f4724ep-9'],
                   'busy': ['0x1.a91e71db0eaa9p-11',
                            '0x1.fa54c554327a8p-11',
                            '0x1.219ddf7977b63p-11',
                            '0x1.df8388b61c7e2p-11',
                            '0x1.e31436eea98b8p-11',
                            '0x1.15592d98bf7c6p-11',
                            '0x1.2ea52ef911b61p-10',
                            '0x1.c52b17dbbec91p-11',
                            '0x1.031a66b393404p-11',
                            '0x1.1f3478ad90c22p-11',
                            '0x1.11ffdcc491726p-9',
                            '0x1.19ce075f6fce8p-11',
                            '0x1.030644bd9f330p-11',
                            '0x1.547fb41545ba7p-10',
                            '0x1.3b1c35c0ac132p-10',
                            '0x1.0dedff4c7bd8ap-11'],
                   'loop': {'actions_executed': 53113,
                            'messages_delivered': 48286,
                            'messages_squashed': 0,
                            'batch_sends': 0,
                            'stall_time': '0x0.0p+0'},
                   'counters': {'source_events': 4811,
                                'edge_inserts': 9622,
                                'edge_deletes': 0,
                                'visits': 48286,
                                'messages_sent_local': 12268,
                                'messages_sent_remote': 36018,
                                'control_messages': 0,
                                'busy_time': '0x1.c73bfeb3cf8d7p-7',
                                'updates_squashed': 0,
                                'batch_sends': 0,
                                'bulk_chunks': 0,
                                'bulk_events': 0,
                                'fallback_flushes': 0,
                                'deletes_safe': 0,
                                'deletes_unsafe': 0,
                                'vertices_invalidated': 0,
                                'repair_visits': 0},
                   'rank_counters': 'c0bcc1623409aab5dce0feeca4447b32ab01eda1',
                   'store': {'probe_count': 109878,
                             'displacement_count': 16516,
                             'resize_count': 108,
                             'low_degree_scans': 336,
                             'promotions': 12},
                   'edges': '319a079919ed72c021a367f97f2c70ea4a160cc5',
                   'state': {'cc': '31b69ebfd6fbcde6cf395e5a1d0d38b04d70d642'},
                   'collections': []},
 'squash_16_on': {'clock': ['0x1.f488529f5ea58p-10',
                            '0x1.f43b25c5e1c6fp-10',
                            '0x1.f2a1c8922a09fp-10',
                            '0x1.f297b79730036p-10',
                            '0x1.f06400b07e899p-10',
                            '0x1.eceacf6c38e0cp-10',
                            '0x1.f4d2247a882c2p-10',
                            '0x1.f5189b575e5b8p-10',
                            '0x1.f4c4b8813acdep-10',
                            '0x1.f39d711494b2bp-10',
                            '0x1.f48bad9db1fcep-10',
                            '0x1.f4346fc93b17ep-10',
                            '0x1.f47e41a4649e8p-10',
                            '0x1.f2803aa2e89e6p-10',
                            '0x1.f3d9d6f670db1p-10',
                            '0x1.f27629a7ee97ap-10'],
                  'busy': ['0x1.8f81e8a2ec269p-11',
                           '0x1.bfe6347cdf407p-11',
                           '0x1.12556d19dececp-11',
                           '0x1.be46214c80e0fp-11',
                           '0x1.b98775aaa6f9ep-11',
                           '0x1.0498ebf4b0435p-11',
                           '0x1.bc9f581f7bb58p-11',
                           '0x1.a5b6078e69aedp-11',
                           '0x1.e3c2b29797664p-12',
                           '0x1.0eb752e80461cp-11',
                           '0x1.545770295d981p-10',
                           '0x1.0bc7b45f17bf2p-11',
                           '0x1.e29b6b2af14a8p-12',
                           '0x1.1b1a37b9aaa48p-10',
                           '0x1.c49774256bbcdp-11',
                           '0x1.f9419fdd807efp-12'],
                  'loop': {'actions_executed': 41948,
                           'messages_delivered': 37121,
                           'messages_squashed': 3562,
                           'batch_sends': 17253,
                           'stall_time': '0x0.0p+0'},
                  'counters': {'source_events': 4811,
                               'edge_inserts': 9622,
                               'edge_deletes': 0,
                               'visits': 37121,
                               'messages_sent_local': 9382,
                               'messages_sent_remote': 27739,
                               'control_messages': 0,
                               'busy_time': '0x1.7de4316d604a6p-7',
                               'updates_squashed': 3562,
                               'batch_sends': 17253,
                               'bulk_chunks': 0,
                               'bulk_events': 0,
                               'fallback_flushes': 0,
                               'deletes_safe': 0,
                               'deletes_unsafe': 0,
                               'vertices_invalidated': 0,
                               'repair_visits': 0},
                  'rank_counters': '830ffff5f9b9cdad8859b705d991b1af7896af48',
                  'store': {'probe_count': 106520,
                            'displacement_count': 16587,
                            'resize_count': 108,
                            'low_degree_scans': 336,
                            'promotions': 12},
                  'edges': 'df36c43c1cd9c5510a4692560d4a348af9baac0e',
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
            'store': {'probe_count': 153070,
                      'displacement_count': 13502,
                      'resize_count': 150,
                      'low_degree_scans': 88020,
                      'promotions': 2256},
            'edges': '366cc8c98ace5f961359da8bb3860debbd2907ef',
            'state': {'cc': '7c15c69f16f5e1e582e9134e0aedc6344e9201bb'},
            'collections': []},
 'checkpointed': {'clock': ['0x1.717df19d66a2ep-11',
                            '0x1.72a5390a0cbe7p-11',
                            '0x1.71773ba0bff3bp-11',
                            '0x1.6e4481395078cp-11'],
                  'busy': ['0x1.89ec7d6c3c66ep-11',
                           '0x1.afd46e81bddb7p-11',
                           '0x1.29ed3953de98ep-10',
                           '0x1.10f875c8032e1p-11'],
                  'loop': {'actions_executed': 3782,
                           'messages_delivered': 2754,
                           'messages_squashed': 1,
                           'batch_sends': 105,
                           'stall_time': '0x0.0p+0'},
                  'counters': {'source_events': 2048,
                               'edge_inserts': 2632,
                               'edge_deletes': 0,
                               'visits': 11372,
                               'messages_sent_local': 7275,
                               'messages_sent_remote': 0,
                               'control_messages': 0,
                               'busy_time': '0x1.a7a4f5176ea88p-9',
                               'updates_squashed': 323,
                               'batch_sends': 999,
                               'bulk_chunks': 0,
                               'bulk_events': 0,
                               'fallback_flushes': 0,
                               'deletes_safe': 0,
                               'deletes_unsafe': 0,
                               'vertices_invalidated': 0,
                               'repair_visits': 0},
                  'rank_counters': 'a442b00159ffdbfebf53339aa2dd9db0d27eea6f',
                  'store': {'probe_count': 19428,  # parent 25078: 5650 second index lookups gone
                            'displacement_count': 1178,
                            'resize_count': 101,
                            'low_degree_scans': 3376,
                            'promotions': 95},
                  'edges': 'c374e3b15175a3f80c5ac3ac16d49081131d327e',
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
