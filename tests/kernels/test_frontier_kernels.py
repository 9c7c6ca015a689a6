"""Unit tests of the array frontier kernels (repro.kernels.frontier),
through the rows the programs declare."""

import numpy as np
import pytest

from repro import IncrementalBFS, IncrementalCC, IncrementalSSSP
from repro.algorithms.base import INF
from repro.algorithms.cc import component_label
from repro.kernels import DenseState, build_csr, relax_to_fixpoint

BFS = IncrementalBFS.bulk_kernel
SSSP = IncrementalSSSP.bulk_kernel
CC = IncrementalCC.bulk_kernel


def csr_of(edges, n):
    """Directed adjacency from (tail, head, weight) triples."""
    t = np.array([e[0] for e in edges], dtype=np.int64)
    h = np.array([e[1] for e in edges], dtype=np.int64)
    w = np.array([e[2] for e in edges], dtype=np.int64)
    return build_csr(n, t, h, w)


# ----------------------------------------------------------------------
# CSR helpers
# ----------------------------------------------------------------------
def test_build_csr_groups_edges_by_tail():
    adj = csr_of([(2, 0, 5), (0, 1, 1), (0, 2, 2)], 3)
    ((heads, weights, tails),) = adj.gather(np.arange(3), 3, np.arange(3))
    assert tails.tolist() == [0, 0, 2]
    assert heads.tolist() == [1, 2, 0]
    assert weights.tolist() == [1, 2, 5]


def test_build_csr_rejects_endpoints_outside_the_vertex_range():
    with pytest.raises(ValueError, match="outside"):
        csr_of([(0, 3, 1)], 3)


# ----------------------------------------------------------------------
# min-plus relaxation (BFS / SSSP)
# ----------------------------------------------------------------------
def test_bfs_levels_on_a_path():
    # 0 - 1 - 2 - 3 as two directed edges each.
    edges = []
    for a, b in ((0, 1), (1, 2), (2, 3)):
        edges += [(a, b, 1), (b, a, 1)]
    adj = csr_of(edges, 4)
    kernel = BFS
    values = kernel.init_values(np.arange(4))
    values[0] = 1  # source level, as Alg. 4's init
    rounds, relaxations = relax_to_fixpoint(
        adj, values, np.array([0]), kernel
    )
    assert values.tolist() == [1, 2, 3, 4]
    assert rounds == 4  # 3 improving waves + the final no-change one
    assert relaxations > 0


def test_sssp_prefers_cheap_two_hop_over_heavy_direct():
    edges = [(0, 1, 10), (0, 2, 1), (2, 1, 2)]
    adj = csr_of(edges, 3)
    kernel = SSSP
    values = kernel.init_values(np.arange(3))
    values[0] = 1
    relax_to_fixpoint(adj, values, np.array([0]), kernel)
    assert values.tolist() == [1, 4, 2]  # 1 reached via 0->2->1


def test_min_kernel_inf_frontier_emits_nothing():
    adj = csr_of([(0, 1, 1)], 2)
    kernel = BFS
    values = kernel.init_values(np.arange(2))  # all INF, no source
    rounds, relaxations = relax_to_fixpoint(
        adj, values, np.array([0, 1]), kernel
    )
    assert rounds == 0 and relaxations == 0
    assert values.tolist() == [INF, INF]


def test_empty_frontier_is_a_noop():
    adj = csr_of([(0, 1, 1)], 2)
    kernel = CC
    values = kernel.init_values(np.arange(2))
    before = values.copy()
    rounds, relaxations = relax_to_fixpoint(
        adj, values, np.empty(0, dtype=np.int64), kernel
    )
    assert rounds == 0 and relaxations == 0
    assert (values == before).all()


def test_min_kernel_merge_dense_treats_zero_as_unset():
    kernel = SSSP
    dense = np.array([5, INF, 3], dtype=np.int64)
    incoming = np.array([0, 7, 2], dtype=np.int64)
    assert kernel.merge_dense(dense, incoming).tolist() == [5, 7, 2]


# ----------------------------------------------------------------------
# max-label relaxation (CC)
# ----------------------------------------------------------------------
def test_max_label_init_matches_component_label():
    ids = np.array([0, 1, 7, 123456], dtype=np.int64)
    labels = CC.init_values(ids)
    assert labels.dtype == np.uint64
    assert labels.tolist() == [component_label(int(v)) for v in ids.tolist()]


def test_cc_floods_max_label_per_component():
    # Two components over dense ids: {0,1,2} and {3,4}.
    edges = []
    for a, b in ((0, 1), (1, 2), (3, 4)):
        edges += [(a, b, 1), (b, a, 1)]
    adj = csr_of(edges, 5)
    kernel = CC
    ids = np.array([10, 11, 12, 20, 21], dtype=np.int64)  # original ids
    values = kernel.init_values(ids)
    relax_to_fixpoint(
        adj, values, np.arange(5), kernel
    )
    left = max(component_label(v) for v in (10, 11, 12))
    right = max(component_label(v) for v in (20, 21))
    assert values.tolist() == [left, left, left, right, right]


def test_max_label_merge_dense_is_elementwise_max():
    kernel = CC
    dense = np.array([5, 9], dtype=np.uint64)
    incoming = np.array([7, 2], dtype=np.uint64)
    assert kernel.merge_dense(dense, incoming).tolist() == [7, 9]


def test_self_loop_does_not_diverge():
    adj = csr_of([(0, 0, 1), (0, 1, 1)], 2)
    kernel = BFS
    values = kernel.init_values(np.arange(2))
    values[0] = 1
    rounds, _ = relax_to_fixpoint(
        adj, values, np.array([0]), kernel
    )
    assert values.tolist() == [1, 2]
    assert rounds <= 2  # self-relaxation must not loop forever


# ----------------------------------------------------------------------
# the restricted loop: local heads scatter, the rest go to ``remote``
# ----------------------------------------------------------------------
BOTH_KERNELS = pytest.mark.parametrize(
    "kernel", [SSSP, CC], ids=["min-plus", "max-label"]
)


def random_undirected(n, m, seed):
    rng = np.random.default_rng(seed)
    a, b = rng.integers(0, n, m), rng.integers(0, n, m)
    w = rng.integers(1, 9, m)
    return np.concatenate([a, b]), np.concatenate([b, a]), np.concatenate([w, w])


def seeded_values(kernel, n):
    """First-touch values with vertex 0 offered 1 (an SSSP source; a
    label kernel ignores so small an offer)."""
    values = kernel.init_values(np.arange(n))
    kernel.scatter(values, np.array([0]), np.array([1], dtype=kernel.dtype))
    return values


@BOTH_KERNELS
def test_an_all_true_local_mask_is_the_four_argument_call(kernel):
    n = 60
    adj = build_csr(n, *random_undirected(n, 150, seed=3))
    plain, masked = seeded_values(kernel, n), seeded_values(kernel, n)
    written, remote = np.zeros(n, dtype=bool), []
    want = relax_to_fixpoint(adj, plain, np.arange(n), kernel)
    got = relax_to_fixpoint(
        adj, masked, np.arange(n), kernel, np.ones(n, dtype=bool), written, remote
    )
    assert got == want and want[0] > 1
    assert masked.tolist() == plain.tolist()
    assert remote == []
    # Delivery seeds: every adopter is written, and only edge heads are.
    assert written[masked != seeded_values(kernel, n)].all()
    assert set(np.flatnonzero(written)) <= set(adj.edges()[1].tolist())


@BOTH_KERNELS
def test_two_sides_exchanging_remote_blocks_reach_the_global_fixpoint(kernel):
    """The mp exchange in one process: each side stores the edges whose
    tail it owns, relaxes its own heads and hands the other side's to it
    through ``DenseState.offer``."""
    n = 40
    t, h, w = random_undirected(n, 90, seed=5)
    want = seeded_values(kernel, n)
    relax_to_fixpoint(build_csr(n, t, h, w), want, np.arange(n), kernel)

    sides = []
    for rank in (0, 1):
        side = DenseState([kernel], lambda vids: np.asarray(vids) % 2, rank)
        side.resolve(np.arange(n))  # positions are the ids on both sides
        mine = side.local[t]
        side.edges.insert(t[mine], h[mine], w[mine])
        sides.append(side)
    sides[0].offer(0, np.array([0]), np.array([1], dtype=kernel.dtype))
    frontiers = [np.flatnonzero(side.local) for side in sides]
    exchanges = 0
    while any(f.size for f in frontiers):
        for rank, side in enumerate(sides):
            remote = []
            relax_to_fixpoint(
                side.edges, side.values[0], frontiers[rank], kernel,
                side.local, side.written[0], remote,
            )
            frontiers[rank] = np.empty(0, dtype=np.int64)
            for heads, _tails, _tail_vals, _weights, candidates in remote:
                assert not side.local[heads].any()
                adopted = sides[1 - rank].offer(0, heads, candidates)
                frontiers[1 - rank] = np.concatenate([frontiers[1 - rank], adopted])
                exchanges += 1
    assert exchanges > 2  # the fixpoint needed both directions
    for side in sides:
        assert side.values[0][side.local].tolist() == want[side.local].tolist()
