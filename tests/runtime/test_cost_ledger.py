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

The five generational legs (``churn`` and the four ``churn_bench_*``)
were regenerated once since, whole, when the support tree's rule 1
stopped echoing an adopted value to the neighbour it came from: fewer
messages move every clock, and the changed interleaving moves the
support forest, the generation tags and the adjacency order.
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
           'store': {'probe_count': 1447,
                     'displacement_count': 0,
                     'resize_count': 0,
                     'low_degree_scans': 2861,
                     'promotions': 0},
           'edges': '10e7bf452cb53d3ba4460495965c3c07ca072f86',
           'state': {'gen-bfs': '400709d23a998ab71fae865c8d1549a6bbf4c6ff',
                     'gen-sssp': '788991fbd8f52b13d7cfc319290762e52a32feae',
                     'gen-cc': '2c30d4ba0b65a11224309af660a77a84f3c0cf61',
                     'gen-st': '20a236539db99cff4a6052e77c148ead67d0bd85',
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
 'churn_bench_16x64': {'clock': ['0x1.63baba7b91678p-12',
                                 '0x1.67f9e45d0c409p-12',
                                 '0x1.682f944241b9cp-12',
                                 '0x1.68075056599eep-12'],
                       'busy': ['0x1.114247a32cc0dp-14',
                                '0x1.19553b9bb7805p-13',
                                '0x1.e8a2ec28b2ac0p-13',
                                '0x1.ac72ba31bf948p-14'],
                       'loop': {'actions_executed': 2103,
                                'messages_delivered': 2014,
                                'messages_squashed': 0,
                                'batch_sends': 355,
                                'stall_time': '0x0.0p+0'},
                       'counters': {'source_events': 85,
                                    'edge_inserts': 106,
                                    'edge_deletes': 36,
                                    'visits': 2694,
                                    'messages_sent_local': 2009,
                                    'messages_sent_remote': 0,
                                    'control_messages': 0,
                                    'busy_time': '0x1.1834aa2bb815cp-11',
                                    'updates_squashed': 0,
                                    'batch_sends': 355,
                                    'bulk_chunks': 0,
                                    'bulk_events': 0,
                                    'fallback_flushes': 0,
                                    'deletes_safe': 183,
                                    'deletes_unsafe': 27,
                                    'vertices_invalidated': 85,
                                    'repair_visits': 798},
                       'rank_counters': '4c7e5504b255a285bff09483a9543bf9d38c358c',
                       'store': {'probe_count': 2164,
                                 'displacement_count': 0,
                                 'resize_count': 0,
                                 'low_degree_scans': 4218,
                                 'promotions': 1},
                       'edges': '9cfa945462a0f458eda977828320ab37181a2efe',
                       'state': {'gen-bfs': '5a87e06a459081f865bbc4631e85c24cc189ba09',
                                 'gen-sssp': '4f944be799b92060cecf5830c2c655972894a506',
                                 'gen-cc': 'cd81025e740591fa3693e0bb9eb4f4da0c60b4ee',
                                 'gen-st': '89e42a977a5191547c160f63e0b56907a8c06e58',
                                 'gen-widest': '22841a5d38256b9fbe1e219a692dc8d0b6661d68'},
                       'collections': []},
 'churn_bench_128x512': {'clock': ['0x1.312e76351055ap-9',
                                   '0x1.3124653a164ebp-9',
                                   '0x1.313023b43a016p-9',
                                   '0x1.312cc8b5e6a9cp-9'],
                         'busy': ['0x1.313d8fad876c9p-10',
                                  '0x1.fca3542d7eaf6p-11',
                                  '0x1.93194cd81f987p-10',
                                  '0x1.54ab52ff812cfp-10'],
                         'loop': {'actions_executed': 20428,
                                  'messages_delivered': 19741,
                                  'messages_squashed': 0,
                                  'batch_sends': 3415,
                                  'stall_time': '0x0.0p+0'},
                         'counters': {'source_events': 683,
                                      'edge_inserts': 1004,
                                      'edge_deletes': 340,
                                      'visits': 25205,
                                      'messages_sent_local': 19736,
                                      'messages_sent_remote': 0,
                                      'control_messages': 0,
                                      'busy_time': '0x1.45d4f666f9e27p-8',
                                      'updates_squashed': 0,
                                      'batch_sends': 3415,
                                      'bulk_chunks': 0,
                                      'bulk_events': 0,
                                      'fallback_flushes': 0,
                                      'deletes_safe': 1558,
                                      'deletes_unsafe': 152,
                                      'vertices_invalidated': 630,
                                      'repair_visits': 6460},
                         'rank_counters': '5bd3502f75d6c7afbc8fe4e62ab98bde1910c274',
                         'store': {'probe_count': 31196,
                                   'displacement_count': 32,
                                   'resize_count': 0,
                                   'low_degree_scans': 39978,
                                   'promotions': 20},
                         'edges': '2be28bb8efae0710055807805b0c8d63cf8c41d6',
                         'state': {'gen-bfs': '5b61242154d79dd6841105ced0f742eaf9c8bd7e',
                                   'gen-sssp': '7f87ad0c64901427fb9f0a9dedbf4d9063b9aad1',
                                   'gen-cc': '919c9b7404b633664574ceb53172f47a919025a0',
                                   'gen-st': 'a76fbb880d67273e82ff44f5be972e5ee6bdacd7',
                                   'gen-widest': 'd6d2180f4e0bc1b34a8e7b361c92260443319a79'},
                         'collections': []},
 'churn_bench_1024x4096': {'clock': ['0x1.190950e19f534p-5',
                                     '0x1.19085f4a17e27p-5',
                                     '0x1.190844722547bp-5',
                                     '0x1.18fca0cff42fap-5'],
                           'busy': ['0x1.53ed1cce6f5f0p-6',
                                    '0x1.4babcffd0529ep-6',
                                    '0x1.68be652b002e0p-6',
                                    '0x1.6270d8b032cf3p-6'],
                           'loop': {'actions_executed': 379849,
                                    'messages_delivered': 374384,
                                    'messages_squashed': 0,
                                    'batch_sends': 67703,
                                    'stall_time': '0x0.0p+0'},
                           'counters': {'source_events': 5461,
                                        'edge_inserts': 8150,
                                        'edge_deletes': 2728,
                                        'visits': 418072,
                                        'messages_sent_local': 374379,
                                        'messages_sent_remote': 0,
                                        'control_messages': 0,
                                        'busy_time': '0x1.5ab20aa9a9e19p-4',
                                        'updates_squashed': 0,
                                        'batch_sends': 67703,
                                        'bulk_chunks': 0,
                                        'bulk_events': 0,
                                        'fallback_flushes': 0,
                                        'deletes_safe': 11689,
                                        'deletes_unsafe': 1961,
                                        'vertices_invalidated': 17057,
                                        'repair_visits': 156285},
                           'rank_counters': '36dd8909843709ff3cf764f0256d3ad029e0a15a',
                           'store': {'probe_count': 639101,
                                     'displacement_count': 1786,
                                     'resize_count': 16,
                                     'low_degree_scans': 663825,
                                     'promotions': 222},
                           'edges': '8210e08d7bfb08154c67a805c937345d0785c3ab',
                           'state': {'gen-bfs': '437b3a6d18745c0ee9f970b8913ad6c4a0202c1c',
                                     'gen-sssp': '114894a52eb3466e5eb634789db18e77232e83c6',
                                     'gen-cc': '91444ca502436af394277a568149588a341fd095',
                                     'gen-st': 'e3814e22bd261a0bf3715a20dc2233f4a084b3de',
                                     'gen-widest': '78ef9d94d628c926b68559411a7f27d9d6694d9a'},
                           'collections': []},
 'churn_bench_flash': {'clock': ['0x1.6ef9b2dee4ecdp-9',
                                 '0x1.6efb605e0e98ap-9',
                                 '0x1.6ef657e091954p-9',
                                 '0x1.6ee8ebe744370p-9'],
                       'busy': ['0x1.4987328ec8667p-10',
                                '0x1.252121b8b755ap-10',
                                '0x1.b4245f5ad91d4p-10',
                                '0x1.eee6d3084fc6bp-10'],
                       'loop': {'actions_executed': 24303,
                                'messages_delivered': 23633,
                                'messages_squashed': 0,
                                'batch_sends': 4543,
                                'stall_time': '0x0.0p+0'},
                       'counters': {'source_events': 666,
                                    'edge_inserts': 716,
                                    'edge_deletes': 180,
                                    'visits': 28961,
                                    'messages_sent_local': 23628,
                                    'messages_sent_remote': 0,
                                    'control_messages': 0,
                                    'busy_time': '0x1.846ce1aaaa280p-8',
                                    'updates_squashed': 0,
                                    'batch_sends': 4543,
                                    'bulk_chunks': 0,
                                    'bulk_events': 0,
                                    'fallback_flushes': 0,
                                    'deletes_safe': 1300,
                                    'deletes_unsafe': 240,
                                    'vertices_invalidated': 1064,
                                    'repair_visits': 9537},
                       'rank_counters': '2c9918e265261a246c081b276324f4e04d312c48',
                       'store': {'probe_count': 35999,
                                 'displacement_count': 124,
                                 'resize_count': 2,
                                 'low_degree_scans': 40940,
                                 'promotions': 10},
                       'edges': '0ef32c948d728b733a1345d4178b58c700aa26b0',
                       'state': {'gen-bfs': 'c8e26dec54867d910f348c87909ca77867c9701e',
                                 'gen-sssp': 'd010b472f1e16a7d9f4d955f1eeb8093e920480b',
                                 'gen-cc': 'aa16e7d0857fe106a2aba42f58b9212fb8e09801',
                                 'gen-st': '90fd1d43a52b71f8b97a76da31a4fb717dc4636d',
                                 'gen-widest': '250ce97cb85d8a6b589d305532d4a8374aa63f81'},
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
