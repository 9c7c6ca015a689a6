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
from repro.generators.churn import churn_events, split_churn_streams
from repro.runtime.checkpoint import load_checkpoint, save_checkpoint
from repro.runtime.plugins import MetricsPlugin, TracerPlugin
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


def _churn() -> DynamicEngine:
    cols = churn_events(16, 64, 0.25, rng=np.random.default_rng(7))
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
