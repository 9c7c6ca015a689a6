"""Single-producer/single-consumer slab rings over POSIX shared memory.

The mp backend's *data plane*: one :class:`ShmRing` per ordered
``(src, dst)`` rank pair, carved out of a ``multiprocessing.shared_memory``
segment the parent creates before spawning workers.  The producer
copies a slab payload in — a vec rank's record columns or a per-event
rank's pickled tuple batch (:mod:`repro.parallel.codec`; a run carries
one of the two, never both) — and commits it with a single tail-pointer
store; the consumer reads it *directly over the shared pages*, as numpy
column views or one ``pickle.loads`` per slab, with no socket syscalls.
Pipes remain for the control plane only (token ring, doorbells, stop,
harvest).

Layout of one segment (offsets in bytes)::

    0    tail  (int64, producer-written monotone byte counter)
    64   head  (int64, consumer-written monotone byte counter)
    128  data region of ``capacity`` bytes, used = tail - head

Tail and head live on separate cache lines so the two writers never
share one.  Slabs are contiguous in the data region and 32-byte
aligned::

    +0   seq        (u8)  ring position the slab was committed at
    +8   kind       (u4)  K_PAD / K_PICKLE / K_UPDATE / K_ADD / K_RADD
    +12  n_records  (u4)
    +16  nbytes     (u8)  payload length (excluding header + padding)
    +24  sender     (u8)  producing rank (redundant check field)
    +32  payload ...

A slab that would straddle the end of the data region is preceded by a
``K_PAD`` slab consuming the remainder, so payload views are always
contiguous.  The ``seq`` stamp must equal the head counter at which the
consumer finds the slab — a mismatch means a torn or misframed write
and raises :class:`RingCorruption` (the property tests corrupt stamps
deliberately to prove the detector trips).

Memory-ordering argument: CPython executes the payload stores and the
tail store under the GIL with real memory accesses in program order on
x86 (TSO) and emits the tail store last; the consumer reads ``tail``
before touching any slab bytes, so it never observes an uncommitted
slab.  Backpressure is non-blocking by design: ``try_push`` returns
False on a full ring and the caller keeps the slab in an overflow
queue (a blocking push could deadlock a cycle of mutually-full rings,
the same hazard the pipe Sender thread exists to avoid).

Spawn-safety: children attach by segment *name*.  On CPython < 3.13
``SharedMemory`` attach registers the segment with the child's
``resource_tracker``, which would unlink it (with a spurious leak
warning) when the first child exits — while other ranks still map it.
:func:`attach_ring` therefore unregisters the child's handle; the
parent alone owns the unlink (:meth:`ShmRing.destroy`).
"""

from __future__ import annotations

from multiprocessing import resource_tracker, shared_memory

import numpy as np

HEADER_BYTES = 128  # tail @ 0, head @ 64 (separate cache lines)
SLAB_HEADER = 32
SLAB_ALIGN = 32

# Bounded seq re-reads before a mismatch is declared corruption.
_TORN_REREADS = 3

K_PAD = 0
K_PICKLE = 1
K_UPDATE = 2
K_ADD = 3
K_RADD = 4
RECORD_KINDS = (K_UPDATE, K_ADD, K_RADD)  # the array lane; K_PICKLE is the tuple lane
KIND_NAMES = {
    K_PAD: "K_PAD",
    K_PICKLE: "K_PICKLE",
    K_UPDATE: "K_UPDATE",
    K_ADD: "K_ADD",
    K_RADD: "K_RADD",
}

_SLAB_HDR_DTYPE = np.dtype(
    [
        ("seq", "<u8"),
        ("kind", "<u4"),
        ("n_records", "<u4"),
        ("nbytes", "<u8"),
        ("sender", "<u8"),
    ]
)
assert _SLAB_HDR_DTYPE.itemsize == SLAB_HEADER


class RingCorruption(RuntimeError):
    """A slab failed its sequence-stamp or framing check."""


def _align(n: int) -> int:
    return (n + SLAB_ALIGN - 1) & ~(SLAB_ALIGN - 1)


class ShmRing:
    """One SPSC byte ring over a shared-memory segment.

    Exactly one process may call the producer surface (:meth:`try_push`)
    and exactly one the consumer surface (:meth:`pop_slabs` /
    :meth:`commit`); the parent that created the segment calls neither.
    """

    def __init__(self, shm: shared_memory.SharedMemory, owns: bool):
        self._shm = shm
        self._owns = owns  # created (parent) vs attached (worker)
        self.capacity = shm.size - HEADER_BYTES
        if self.capacity < 2 * SLAB_ALIGN or self.capacity % SLAB_ALIGN:
            raise ValueError(f"ring capacity {self.capacity} invalid")
        self._ptrs = np.ndarray(
            2, dtype=np.int64, buffer=shm.buf, offset=0, strides=(64,)
        )
        self._data = np.ndarray(
            self.capacity, dtype=np.uint8, buffer=shm.buf, offset=HEADER_BYTES
        )
        # Consumer-side head position staged by pop_slabs until commit.
        self._pending_head: int | None = None
        self.pushes = 0
        self.push_stalls = 0  # try_push refusals (ring full)
        self.hwm_bytes = 0  # high-water occupancy observed by producer
        self.pad_slabs = 0  # K_PAD slabs written at region ends
        self.pad_bytes = 0  # bytes burnt on PAD framing (header + fill)
        self.torn_retries = 0  # consumer seq re-reads before a match/raise

    # -- lifecycle -----------------------------------------------------
    @property
    def name(self) -> str:
        return self._shm.name

    def close(self) -> None:
        """Drop this process's mapping (the segment itself survives)."""
        self._ptrs = None  # type: ignore[assignment]
        self._data = None  # type: ignore[assignment]
        self._shm.close()

    def destroy(self) -> None:
        """Parent-side teardown: unmap and unlink the segment."""
        self.close()
        try:
            self._shm.unlink()
        except FileNotFoundError:  # pragma: no cover - double teardown
            pass

    # -- pointers ------------------------------------------------------
    @property
    def tail(self) -> int:
        return int(self._ptrs[0])

    @property
    def head(self) -> int:
        return int(self._ptrs[1])

    def used(self) -> int:
        return self.tail - self.head

    def health(self) -> dict[str, int]:
        """Ring-level health counters (cheap ints, always maintained).

        Producer side: ``pushes`` / ``push_stalls`` (``try_push``
        refusals on a full ring) / ``hwm_bytes`` / ``pad_slabs`` /
        ``pad_bytes``.  Consumer side: ``torn_retries``.  ``used`` is
        the instantaneous occupancy at the call.
        """
        return {
            "pushes": self.pushes,
            "push_stalls": self.push_stalls,
            "hwm_bytes": self.hwm_bytes,
            "pad_slabs": self.pad_slabs,
            "pad_bytes": self.pad_bytes,
            "torn_retries": self.torn_retries,
            "used": self.used(),
            "capacity": self.capacity,
        }

    # -- producer ------------------------------------------------------
    @property
    def max_payload(self) -> int:
        """Largest payload :meth:`try_push` accepts: a slab of half the
        ring always fits an empty ring, wherever the write cursor is
        (``pad + slab < 2 * slab <= capacity``)."""
        return (self.capacity // 2) // SLAB_ALIGN * SLAB_ALIGN - SLAB_HEADER

    def try_push(
        self,
        kind: int,
        n_records: int,
        payload: bytes | memoryview | np.ndarray,
        sender: int,
    ) -> bool:
        """Append one slab; False (and no write) if it does not fit
        right now.  Raises for a payload above :attr:`max_payload`.

        ``payload`` may be any contiguous buffer; it is copied into the
        ring with one bulk assignment.
        """
        payload = np.frombuffer(payload, dtype=np.uint8)
        nbytes = payload.nbytes
        slab = _align(SLAB_HEADER + nbytes)
        if slab > self.capacity // 2:
            # A larger slab may need more than the whole ring once the
            # PAD before it is counted, and would be refused forever.
            raise ValueError(
                f"slab of {slab} bytes exceeds ring capacity {self.capacity} // 2"
            )
        tail, head = self.tail, self.head
        pos = tail % self.capacity
        remain = self.capacity - pos
        pad = remain if remain < slab else 0
        if tail + pad + slab - head > self.capacity:
            self.push_stalls += 1
            return False
        if pad:
            self._write_header(pos, tail, K_PAD, 0, pad - SLAB_HEADER)
            self.pad_slabs += 1
            self.pad_bytes += pad
            tail += pad
            pos = 0
        self._write_header(pos, tail, kind, n_records, nbytes, sender)
        if nbytes:
            self._data[pos + SLAB_HEADER : pos + SLAB_HEADER + nbytes] = payload
        tail += slab
        self._ptrs[0] = tail  # publish: single int64 store, last
        self.pushes += 1
        used = tail - head
        if used > self.hwm_bytes:
            self.hwm_bytes = used
        return True

    def _write_header(
        self,
        pos: int,
        seq: int,
        kind: int,
        n_records: int,
        nbytes: int,
        sender: int = 0,
    ) -> None:
        hdr = np.ndarray((), dtype=_SLAB_HDR_DTYPE, buffer=self._data.data, offset=pos)
        hdr["seq"] = seq
        hdr["kind"] = kind
        hdr["n_records"] = n_records
        hdr["nbytes"] = nbytes
        hdr["sender"] = sender

    # -- consumer ------------------------------------------------------
    def pop_slabs(self) -> list[tuple[int, int, int, np.ndarray]]:
        """Read every committed slab as ``(kind, n_records, sender,
        payload_view)`` without advancing ``head``.

        The payload views alias the shared pages (the zero-copy read
        path): decode and apply them, then call :meth:`commit` to
        release the space back to the producer.  PAD slabs are skipped.
        """
        tail, head = self.tail, self.head
        out: list[tuple[int, int, int, np.ndarray]] = []
        while head < tail:
            pos = head % self.capacity
            hdr = np.ndarray(
                (), dtype=_SLAB_HDR_DTYPE, buffer=self._data.data, offset=pos
            )
            seq = int(hdr["seq"])
            if seq != head:
                # On TSO hardware the tail store is published last, so a
                # mismatch here is corruption; on a weaker machine it can
                # also be a header store the consumer raced ahead of.  A
                # bounded re-read separates the transient from the fatal
                # and counts how often it happened (health telemetry).
                for _ in range(_TORN_REREADS):
                    self.torn_retries += 1
                    seq = int(hdr["seq"])
                    if seq == head:
                        break
            if seq != head:
                raise RingCorruption(
                    f"slab at ring offset {pos} stamped seq={seq}, "
                    f"expected {head} (torn or misframed write)"
                )
            kind = int(hdr["kind"])
            nbytes = int(hdr["nbytes"])
            slab = (
                _align(SLAB_HEADER + nbytes)
                if kind != K_PAD
                else SLAB_HEADER + nbytes
            )
            if pos + SLAB_HEADER + nbytes > self.capacity:
                raise RingCorruption(
                    f"slab at ring offset {pos} claims {nbytes} payload bytes "
                    "past the region end"
                )
            if kind != K_PAD:
                view = self._data[pos + SLAB_HEADER : pos + SLAB_HEADER + nbytes]
                out.append((kind, int(hdr["n_records"]), int(hdr["sender"]), view))
            head += slab
        self._pending_head = head
        return out

    def commit(self) -> None:
        """Release everything returned by the last :meth:`pop_slabs`.

        Must only be called once no payload view from that pop is still
        referenced — the producer may overwrite the space immediately.
        """
        if self._pending_head is not None:
            self._ptrs[1] = self._pending_head
            self._pending_head = None


def create_ring(capacity: int) -> ShmRing:
    """Parent-side: allocate one ring segment (unlink via ``destroy``)."""
    if capacity < 2 * SLAB_ALIGN or capacity % SLAB_ALIGN:
        raise ValueError(
            f"ring capacity must be a positive multiple of {SLAB_ALIGN}, "
            f"got {capacity}"
        )
    shm = shared_memory.SharedMemory(create=True, size=HEADER_BYTES + capacity)
    shm.buf[:HEADER_BYTES] = b"\x00" * HEADER_BYTES
    return ShmRing(shm, owns=True)


def attach_ring(name: str) -> ShmRing:
    """Worker-side: map an existing ring by segment name.

    The attach must not register with the resource tracker — the parent
    owns the segment's lifetime, and on CPython < 3.13 (no ``track=``
    parameter) an attach-side registration would have the tracker unlink
    the segment at the first worker's exit, tearing the ring out from
    under its peers (spawn) or double-unregistering at parent teardown
    (fork, where the tracker process is shared).  Registration is
    suppressed for the duration of the attach; workers are
    single-threaded when they attach.
    """
    orig_register = resource_tracker.register
    resource_tracker.register = lambda *a, **k: None  # type: ignore[assignment]
    try:
        shm = shared_memory.SharedMemory(name=name)
    finally:
        resource_tracker.register = orig_register  # type: ignore[assignment]
    return ShmRing(shm, owns=False)
