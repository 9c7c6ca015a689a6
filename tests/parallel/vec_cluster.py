"""Vectorized mp ranks stepped by hand in one process.

``VecCluster`` builds one ``VecApplier`` per rank over real ``ShmLoop``
rings — the worker's data path minus the processes — and steps them in
a fixed order, so a run is deterministic: its records, counts and
states are exact functions of the code and the input.  After
``ingest`` a rank drains whenever slabs arrived *or* its applier holds
local rows, as the worker does.
"""

from __future__ import annotations

import hashlib

from repro import DynamicEngine, EngineConfig
from repro.parallel.codec import Codec
from repro.parallel.loop import ShmLoop
from repro.parallel.shm import create_ring
from repro.parallel.vecapply import VecApplier


class VecCluster:
    """Every rank of a vectorized run, stepped by hand.

    ``programs`` builds a fresh program list, ``init`` names the
    ``(program, vertex)`` seeds, and ``chunk`` is the number of stream
    events a rank ingests per turn.
    """

    def __init__(self, programs, init, chunk, n_ranks=2, batch_max=64):
        self.n_ranks, self.chunk = n_ranks, chunk
        self.rings = {
            (a, b): create_ring(1 << 22)
            for a in range(n_ranks)
            for b in range(n_ranks)
            if a != b
        }
        self.engines, self.appliers, self.loops = [], [], []
        for rank in range(n_ranks):
            engine = DynamicEngine(programs(), EngineConfig(n_ranks=n_ranks))
            codec = Codec(engine.programs)
            loop = ShmLoop(
                rank, n_ranks, lambda dst, frame: None,
                {o: self.rings[(rank, o)] for o in range(n_ranks) if o != rank},
                codec, engine.partitioner, batch_max=batch_max,
            )
            # As in the worker: a rank's INITs run first (seeds through
            # the real write path), then its applier folds the dicts.
            mine = [(n, v) for n, v in init if engine.partitioner.owner(v) == rank]
            for name, vertex in mine:
                engine.init_program(name, vertex)
            if mine:
                engine.run()
            self.engines.append(engine)
            self.appliers.append(VecApplier(engine, rank, codec))
            self.loops.append(loop)
        self.slab_kinds = [set() for _ in range(n_ranks)]

    def close(self):
        for ring in self.rings.values():
            ring.destroy()

    def deliver(self) -> bool:
        """One turn of every rank: flush, then one drain of what arrived
        together with the local rows its last ingest held."""
        moved = False
        for loop in self.loops:
            loop.flush_all()
            loop.pump()
        for rank, applier in enumerate(self.appliers):
            rings, slabs = [], []
            for other in range(self.n_ranks):
                if other != rank:
                    rings.append(self.rings[(other, rank)])
                    slabs += rings[-1].pop_slabs()
            if slabs or applier.holding:
                self.slab_kinds[rank].update(kind for kind, *_ in slabs)
                applier.drain(slabs, self.loops[rank])
                moved = True
            for ring in rings:
                ring.commit()
        return moved or any(loop.outbuffered for loop in self.loops)

    def run(self, columns):
        """Ingest ``columns[rank] = (src, dst, weights)`` to quiescence,
        then write back: the harvest reads the value dicts from here on."""
        cursors = [0] * self.n_ranks
        live = True
        while live:
            live = False
            for rank, (src, dst, w) in enumerate(columns):
                lo = cursors[rank]
                if lo < len(src):
                    hi = cursors[rank] = lo + self.chunk
                    self.appliers[rank].ingest(
                        src[lo:hi], dst[lo:hi], w[lo:hi], self.loops[rank]
                    )
                    self.engines[rank].counters[rank].source_events += len(src[lo:hi])
                    live = True
            live = self.deliver() or live
        for applier in self.appliers:
            applier.write_back()

    def state(self, name):
        """The harvested ``vertex -> value`` map of program ``name``."""
        out = {}
        for rank, engine in enumerate(self.engines):
            out.update(engine.values[rank][engine.prog_index(name)])
        return out

    def edges(self):
        """Every rank's stored directed edges (what the checkers read)."""
        return [e for applier in self.appliers for e in applier.edges()]

    def state_digest(self) -> str:
        """SHA-1 over every rank's harvested value dicts, in sorted order."""
        h = hashlib.sha1()
        for rank, engine in enumerate(self.engines):
            for values in engine.values[rank]:
                h.update(repr(sorted(values.items())).encode())
        return h.hexdigest()
