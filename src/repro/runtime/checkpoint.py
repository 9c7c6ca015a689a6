"""Quiescent-state checkpointing: suspend and resume an engine.

A long-lived on-line analytics deployment needs to survive restarts
without replaying the whole history.  At quiescence (all streams
drained, no messages in flight), the engine's durable state is exactly:

* the topology (every rank's stored directed edges + weights),
* each program's vertex values,
* the stream-version / snapshot counters,
* the per-rank event counters (source events, edge inserts/deletes),

which this module serialises to a compressed ``.npz`` plus a pickled
side-car for non-integer program values (tuples, bitsets).  Restoring
builds a fresh engine with the same configuration and programs and
reloads that state; virtual clocks restart at zero (wall-clock history
is not part of the algorithmic state).

Delete-safety (§VI-B): the generational programs' entire delete state
— per-vertex generation, value and support pointer — lives *inside*
the vertex value tuples, so it rides the values side-car with no
separate table.  No vertex is frozen at quiescence (a repair wave is
in-flight messages until it completes), so a checkpoint taken there is
a consistent generational cut of live triples: the support forest is
final for the prefix, and replaying a delete-carrying suffix repairs it
from the restored pointers exactly as an uninterrupted run would.  The
per-rank counters must round-trip too, or ``edge_deletes`` and the
per-cause delete counters silently undercount after every recovery.

Security note: the values side-car uses :mod:`pickle`; only restore
checkpoints you produced.
"""

from __future__ import annotations

import pickle
from pathlib import Path

import numpy as np

from repro.runtime.engine import DynamicEngine


class NotQuiescentError(RuntimeError):
    """Raised when checkpointing an engine with work still in flight."""


def save_checkpoint(
    engine: DynamicEngine, path: str | Path, extra: dict | None = None
) -> None:
    """Serialise a quiescent engine's durable state to ``path``.

    ``extra`` is an optional picklable dict stored alongside the engine
    state — the fault-tolerant runner uses it to record stream replay
    positions so recovery can resume ingestion at the right suffix.

    Raises :class:`NotQuiescentError` if streams or messages remain —
    checkpoints of a mid-flight cluster would need the whole message
    state, which neither we nor the paper attempt.
    """
    if not engine.loop.quiescent():
        raise NotQuiescentError(
            "engine has unfinished work; run() to quiescence before saving"
        )
    if engine.active_collection is not None:
        raise NotQuiescentError("a global state collection is still active")
    srcs, dsts, weights = [], [], []
    for s, d, w in engine.edges():
        srcs.append(s)
        dsts.append(d)
        weights.append(w)
    # np.array() infers the dtype from the values: int64 for integer
    # weights, float64 when any weight is a float (SSSP / widest-path
    # workloads) — forcing int64 here would silently truncate them.
    weight_arr = np.array(weights) if weights else np.empty(0, dtype=np.int64)
    values = [
        {vid: val for rank_vals in engine.values for vid, val in rank_vals[p].items()}
        for p in range(len(engine.programs))
    ]
    payload = {
        "program_names": [p.name for p in engine.programs],
        "values": values,
        "stream_version": list(engine.stream_version),
        "next_version": engine._next_version,
        "counters": list(engine.counters),
        "extra": dict(extra) if extra else {},
    }
    path = Path(path)
    np.savez_compressed(
        path,
        src=np.array(srcs, dtype=np.int64),
        dst=np.array(dsts, dtype=np.int64),
        weights=weight_arr,
        sidecar=np.frombuffer(pickle.dumps(payload), dtype=np.uint8),
    )


def load_checkpoint(engine: DynamicEngine, path: str | Path) -> dict:
    """Restore a checkpoint into a *fresh* engine.

    The engine must have been constructed with the same program list
    (matched by name, in order) as the one that saved the checkpoint,
    and must not have processed any events yet.  Returns the ``extra``
    dict the checkpoint was saved with (empty for plain checkpoints).
    """
    if engine.num_edges or engine.loop.actions_executed:
        raise RuntimeError("restore target must be a fresh engine")
    with np.load(Path(path)) as data:
        payload = pickle.loads(data["sidecar"].tobytes())
        srcs, dsts, weights = data["src"], data["dst"], data["weights"]
    names = [p.name for p in engine.programs]
    if names != payload["program_names"]:
        raise ValueError(
            f"program mismatch: checkpoint has {payload['program_names']}, "
            f"engine has {names}"
        )
    # Topology: stored edges are already direction-expanded; place each
    # at its owner directly (no events, no message traffic).
    for s, d, w in zip(srcs, dsts, weights):
        rank = engine.partitioner.owner(int(s))
        # .item() preserves the stored weight dtype (int stays int,
        # float stays float) instead of truncating through int().
        engine.stores[rank].insert_edge(int(s), int(d), w.item())
    # Program values at their owners.
    for p, vals in enumerate(payload["values"]):
        for vid, val in vals.items():
            rank = engine.partitioner.owner(vid)
            engine.values[rank][p][vid] = val
    engine.stream_version = list(payload["stream_version"])
    engine._next_version = payload["next_version"]
    # Per-rank counters resume where the saved incarnation left off
    # (older checkpoints carry none — those start from zero, as before).
    # Restoring into a different rank count repartitions the topology,
    # so per-rank attribution is meaningless there; the merged totals
    # land on rank 0 to keep every aggregate (edge_deletes and friends)
    # exact across the recovery.
    saved_counters = payload.get("counters")
    if saved_counters is not None:
        if len(saved_counters) == len(engine.counters):
            engine.counters = list(saved_counters)
        else:
            total = saved_counters[0]
            for c in saved_counters[1:]:
                total = total.merge(c)
            engine.counters[0] = total
    # Older checkpoints (pre-fault-tolerance) carry no extra payload.
    return payload.get("extra", {})
