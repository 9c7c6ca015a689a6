"""Control frames, run configuration and sender plumbing of the mp backend.

Visitor data travels as slabs over shm rings
(:mod:`repro.parallel.shm`, :mod:`repro.parallel.loop`); the
per-(src,dst) duplex pipe mesh carries only control frames — small
picklable tuples with a one-character tag first, one pickle per frame
(``multiprocessing.Connection.send``):

========= ==========================================================
tag       payload
========= ==========================================================
``"T"``   ``("T", round, sent_sum, recv_sum, all_idle)`` — the
          termination token (:mod:`repro.parallel.termination`)
``"S"``   ``("S",)`` — stop: rank 0 concluded termination
``"D"``   ``("D", sender_rank)`` — doorbell: the sender's shm ring to
          this rank went empty→nonempty (wakes a receiver blocked in
          ``Connection.poll``)
========= ==========================================================

Worker → parent frames (on the dedicated parent pipe):

========= ==========================================================
``"R"``   ``("R", result_dict)`` — the rank's final state harvest
``"E"``   ``("E", rank, traceback_str)`` — the worker died
========= ==========================================================

Every worker sends through one background :class:`Sender` thread fed by
an unbounded queue, so the main thread never blocks on a full pipe
buffer.  ``Connection.send`` blocks once the OS buffer fills; with
direct sends, a cycle of ranks all blocked sending into each other
deadlocks even though every rank would eventually drain.  The thread
preserves enqueue order, so each (src, dst) control channel stays FIFO.
"""

from __future__ import annotations

import queue
import threading
from dataclasses import dataclass

from repro.kernels import BULK_CHUNK

FRAME_TOKEN = "T"
FRAME_STOP = "S"
FRAME_RESULT = "R"
FRAME_ERROR = "E"
FRAME_DOORBELL = "D"


@dataclass(frozen=True)
class WireConfig:
    """Knobs of the shm data plane and the worker processes."""

    batch_max: int = 512  # outbuffer flush threshold (messages)
    jitter_seed: int | None = None  # randomize flush thresholds (tests)
    start_method: str = "spawn"  # multiprocessing context
    kind: str = "shm"  # accepted for callers that name the wire; not an option
    ring_capacity: int = 1 << 20  # bytes per (src,dst) shm ring
    vectorize: bool = True  # apply slabs via bulk kernels when eligible
    ingest_chunk: int = BULK_CHUNK  # stream events per bulk-ingest chunk (vec only)

    def __post_init__(self) -> None:
        if self.batch_max < 1:
            raise ValueError(f"batch_max must be >= 1, got {self.batch_max}")
        if self.kind != "shm":
            raise ValueError(
                f"wire kind {self.kind!r} is not available: the pickled-pipe "
                "data plane was removed, shm rings are the only wire"
            )
        if self.ring_capacity < 4096:
            raise ValueError(f"ring_capacity must be >= 4096, got {self.ring_capacity}")
        if self.ingest_chunk < 1:
            raise ValueError(f"ingest_chunk must be >= 1, got {self.ingest_chunk}")


class Sender(threading.Thread):
    """The per-worker background send thread.

    ``put(dst, frame)`` never blocks; frames to one destination leave in
    put order.  A wire error (peer died) is captured and re-raised in
    the worker's main thread at the next :meth:`check`.
    """

    def __init__(self, conns: dict[int, object]):
        super().__init__(name="repro-mp-sender", daemon=True)
        self._conns = conns
        self._queue: queue.SimpleQueue = queue.SimpleQueue()
        self._error: BaseException | None = None

    def put(self, dst_rank: int, frame: tuple) -> None:
        self._queue.put((dst_rank, frame))

    def run(self) -> None:
        while True:
            item = self._queue.get()
            if item is None:
                return
            dst_rank, frame = item
            try:
                self._conns[dst_rank].send(frame)  # type: ignore[attr-defined]
            except BaseException as exc:  # noqa: BLE001 - reported to main thread
                self._error = exc
                return

    def check(self) -> None:
        """Re-raise (in the caller) any error the thread hit."""
        if self._error is not None:
            raise RuntimeError("wire send failed") from self._error

    def close(self) -> None:
        """Flush outstanding frames and stop the thread."""
        self._queue.put(None)
        self.join(timeout=30.0)
        self.check()
