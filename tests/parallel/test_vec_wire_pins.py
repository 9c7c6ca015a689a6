"""What a two-rank vectorized run carries, pinned exactly.

One fixed BFS+CC input, ingested in chunks of 8,192 events by two
``VecCluster`` ranks (deterministic: stepped by hand in one process).
Per rank, the records a drain applied, the records put on the wire, the
relaxation rounds and rows, the first inserts and a SHA-1 of the
harvested value dicts must equal the pins.  A change to the record
layout moves no record, and a change to how ids reach positions moves
no position, value or count — either would show here first.  To
regenerate for a change that *means* to move them:
``PYTHONPATH=src python tests/parallel/test_vec_wire_pins.py``.
"""

import numpy as np
import pytest

from repro import IncrementalBFS, IncrementalCC
from repro.generators.rmat import rmat_edges
from vec_cluster import VecCluster

N_RANKS = 2
CHUNK = 8192


def programs():
    return [IncrementalBFS(), IncrementalCC()]


def columns():
    src, dst = rmat_edges(13, edge_factor=8, rng=np.random.default_rng(30))
    w = np.ones(src.size, dtype=np.int64)
    perm = np.random.default_rng(31).permutation(src.size)
    src, dst = src[perm], dst[perm]
    return [(src[r::N_RANKS], dst[r::N_RANKS], w[r::N_RANKS]) for r in range(N_RANKS)]


def measure():
    cols = columns()
    cluster = VecCluster(programs, [("bfs", int(cols[0][0][0]))], CHUNK)
    try:
        cluster.run(cols)
        per_rank = []
        for rank, applier in enumerate(cluster.appliers):
            stats = applier.stats
            per_rank.append(
                {
                    "kernel_records": stats["kernel_records"],
                    "wire_sent": cluster.loops[rank].wire_sent,
                    "kernel_rounds": stats["kernel_rounds"],
                    "kernel_relaxations": stats["kernel_relaxations"],
                    "edge_inserts": cluster.engines[rank].counters[rank].edge_inserts,
                }
            )
        return per_rank, cluster.state_digest()
    finally:
        cluster.close()


# Measured at the last change that moved them (see the module docstring).
PINNED = (
    [
        {
            "kernel_records": 90669,
            "wire_sent": 60766,
            "kernel_rounds": 31,
            "kernel_relaxations": 66825,
            "edge_inserts": 57256,
        },
        {
            "kernel_records": 76402,
            "wire_sent": 73398,
            "kernel_rounds": 26,
            "kernel_relaxations": 61536,
            "edge_inserts": 53627,
        },
    ],
    "9b6859f590525d0ea58c2e17e8c936e623d5e019",
)


@pytest.fixture(scope="module")
def measured():
    return measure()


def test_each_rank_moves_the_pinned_records(measured):
    per_rank, _digest = measured
    assert per_rank == PINNED[0]


def test_the_harvested_states_hash_to_the_pin(measured):
    _per_rank, digest = measured
    assert digest == PINNED[1]


if __name__ == "__main__":
    print(measure())
