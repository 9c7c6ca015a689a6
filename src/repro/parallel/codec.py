"""Visitor-batch wire codec: tuples ⇄ structured numpy record slabs.

The shm wire packs visitor batches into fixed-layout little-endian
record arrays that travel as ring slabs (:mod:`repro.parallel.shm`) and
decode as zero-copy numpy views.  Three record layouts cover the hot
visitor types:

========== ===========================================================
K_ADD      ``src i8, dst i8, weight i8, ver u4``             (28 B)
K_RADD     ``dst i8, src i8, weight i8, ver u4, vals u8×P``  (28+8P B)
K_UPDATE   ``prog u2, target i8, sender i8, value u8, weight i8,
           ver u4``                                          (38 B)
K_DEL      ``src i8, dst i8, ver u4``                        (20 B)
========== ===========================================================

``P`` is the number of loaded programs (RADD carries one value per
program, like the tuple format).  Algorithm values are stored as 64-bit
*bit patterns*: a program is **packable** when it declares a
``bulk_kernel``, whose dtype fixes the value domain (int64 for min-plus
costs, uint64 for max-label hashes).  Programs without a kernel (S-T
bitmaps of unbounded width, widest-path) keep arbitrary Python values —
their UPDATEs, and every RADD in a run that loads any such program,
fall back to a ``K_PICKLE`` slab (a pickled tuple list riding the same
ring, so per-channel FIFO is preserved; the pipe still carries only
control frames).

``K_DEL`` carries edge retirements (the §VI-B delete extension on the
mp backend): a DEL names only the edge and the stream version, so it is
*always* packable regardless of program mix.  The reverse-delete
(VT_RDEL) carries one value per program, which for the generational
programs are arbitrary Python tuples — it rides K_PICKLE, exactly like
generational UPDATEs.

:meth:`Codec.encode_batch` splits a batch into *consecutive runs* of
one slab kind — order within the batch is never permuted, which is what
keeps the §III-C per-channel FIFO guarantee intact across the codec.
:meth:`Codec.decode_to_tuples` restores native-int visitor tuples that
are indistinguishable from the ones the sender encoded (the per-event
path); the ``*_view`` helpers expose the raw record arrays for the
vectorized drain path.
"""

from __future__ import annotations

import pickle
from typing import Any, Sequence

import numpy as np

from repro.parallel.shm import K_ADD, K_DEL, K_PICKLE, K_RADD, K_UPDATE
from repro.runtime.visitor import VT_ADD, VT_DEL, VT_RADD, VT_UPDATE

_MASK64 = (1 << 64) - 1
_SIGN_BIT = 1 << 63

ADD_DTYPE = np.dtype(
    [("src", "<i8"), ("dst", "<i8"), ("weight", "<i8"), ("ver", "<u4")]
)

UPDATE_DTYPE = np.dtype(
    [
        ("prog", "<u2"),
        ("target", "<i8"),
        ("sender", "<i8"),
        ("value", "<u8"),
        ("weight", "<i8"),
        ("ver", "<u4"),
    ]
)

DEL_DTYPE = np.dtype([("src", "<i8"), ("dst", "<i8"), ("ver", "<u4")])


def radd_dtype(n_programs: int) -> np.dtype:
    """RADD record layout for a run loading ``n_programs`` programs."""
    return np.dtype(
        [
            ("dst", "<i8"),
            ("src", "<i8"),
            ("weight", "<i8"),
            ("ver", "<u4"),
            ("vals", "<u8", (n_programs,)),
        ]
    )


def _fold_signed(raw: int) -> int:
    """u64 bit pattern back to the Python int an i8 domain stored."""
    return raw - (1 << 64) if raw >= _SIGN_BIT else raw


class Codec:
    """Wire codec bound to one run's program list.

    Both ends construct it from the same ``programs`` sequence (workers
    receive the list in their spawn args), so program indices, RADD
    record width and per-program value signedness agree by construction.
    """

    def __init__(self, programs: Sequence[Any]):
        self.programs = list(programs)
        self.n_programs = len(self.programs)
        kernels = [getattr(p, "bulk_kernel", None) for p in self.programs]
        self.packable = tuple(k is not None for k in kernels)
        self.signed = tuple(k is not None and k.dtype.kind == "i" for k in kernels)
        self.all_packable = all(self.packable) and self.n_programs > 0
        self.radd_dtype = radd_dtype(self.n_programs)

    # -- encode --------------------------------------------------------
    def slab_kind(self, msg: tuple) -> int:
        """The slab kind this visitor tuple packs into."""
        vt = msg[0]
        if vt == VT_ADD:
            return K_ADD
        if vt == VT_DEL:
            return K_DEL
        if vt == VT_RADD and self.all_packable:
            return K_RADD
        if vt == VT_UPDATE and self.packable[msg[1]]:
            return K_UPDATE
        return K_PICKLE

    def encode_batch(self, msgs: Sequence[tuple]) -> list[tuple[int, int, bytes]]:
        """Pack a visitor batch into ``(kind, n_records, payload)`` slabs.

        Consecutive tuples of the same slab kind share one slab; batch
        order is preserved exactly.
        """
        slabs: list[tuple[int, int, bytes]] = []
        run: list[tuple] = []
        run_kind = -1
        for msg in msgs:
            kind = self.slab_kind(msg)
            if kind != run_kind and run:
                slabs.append(self._pack_run(run_kind, run))
                run = []
            run_kind = kind
            run.append(msg)
        if run:
            slabs.append(self._pack_run(run_kind, run))
        return slabs

    def _pack_run(self, kind: int, run: list[tuple]) -> tuple[int, int, bytes]:
        n = len(run)
        if kind == K_PICKLE:
            return (K_PICKLE, n, pickle.dumps(run, protocol=pickle.HIGHEST_PROTOCOL))
        if kind == K_ADD:
            arr = np.empty(n, dtype=ADD_DTYPE)
            arr["src"] = [m[1] for m in run]
            arr["dst"] = [m[2] for m in run]
            arr["weight"] = [m[3] for m in run]
            arr["ver"] = [m[4] for m in run]
            return (K_ADD, n, arr.tobytes())
        if kind == K_RADD:
            arr = np.empty(n, dtype=self.radd_dtype)
            arr["dst"] = [m[1] for m in run]
            arr["src"] = [m[2] for m in run]
            arr["weight"] = [m[4] for m in run]
            arr["ver"] = [m[5] for m in run]
            arr["vals"] = np.array(
                [[v & _MASK64 for v in m[3]] for m in run], dtype=np.uint64
            ).reshape(n, self.n_programs)
            return (K_RADD, n, arr.tobytes())
        if kind == K_UPDATE:
            arr = np.empty(n, dtype=UPDATE_DTYPE)
            arr["prog"] = [m[1] for m in run]
            arr["target"] = [m[2] for m in run]
            arr["sender"] = [m[3] for m in run]
            arr["value"] = [m[4] & _MASK64 for m in run]
            arr["weight"] = [m[5] for m in run]
            arr["ver"] = [m[6] for m in run]
            return (K_UPDATE, n, arr.tobytes())
        if kind == K_DEL:
            arr = np.empty(n, dtype=DEL_DTYPE)
            arr["src"] = [m[1] for m in run]
            arr["dst"] = [m[2] for m in run]
            arr["ver"] = [m[3] for m in run]
            return (K_DEL, n, arr.tobytes())
        raise ValueError(f"unknown slab kind {kind}")

    # -- decode: zero-copy record views (vectorized drain) -------------
    def add_view(self, payload: np.ndarray) -> np.ndarray:
        return np.frombuffer(payload, dtype=ADD_DTYPE)

    def radd_view(self, payload: np.ndarray) -> np.ndarray:
        return np.frombuffer(payload, dtype=self.radd_dtype)

    def update_view(self, payload: np.ndarray) -> np.ndarray:
        return np.frombuffer(payload, dtype=UPDATE_DTYPE)

    def del_view(self, payload: np.ndarray) -> np.ndarray:
        return np.frombuffer(payload, dtype=DEL_DTYPE)

    # -- decode: native visitor tuples (per-event fallback) ------------
    def decode_to_tuples(self, kind: int, payload: np.ndarray | bytes) -> list[tuple]:
        """Restore the visitor tuples a slab was packed from.

        Values come back as native Python ints with the signedness of
        the owning program's kernel domain, so downstream per-event
        dispatch sees exactly the tuples the sender's engine emitted.
        """
        if kind == K_PICKLE:
            return pickle.loads(bytes(payload))
        if kind == K_ADD:
            return [
                (VT_ADD, src, dst, weight, ver)
                for src, dst, weight, ver in self.add_view(payload).tolist()
            ]
        if kind == K_RADD:
            signed = self.signed
            out = []
            for dst, src, weight, ver, vals in self.radd_view(payload).tolist():
                # ``tolist`` leaves subarray fields as numpy scalars;
                # force native ints before the sign fold.
                vals = tuple(
                    _fold_signed(int(v)) if signed[i] else int(v)
                    for i, v in enumerate(vals)
                )
                out.append((VT_RADD, dst, src, vals, weight, ver))
            return out
        if kind == K_UPDATE:
            signed = self.signed
            return [
                (
                    VT_UPDATE,
                    prog,
                    target,
                    sender,
                    _fold_signed(value) if signed[prog] else value,
                    weight,
                    ver,
                )
                for prog, target, sender, value, weight, ver in self.update_view(
                    payload
                ).tolist()
            ]
        if kind == K_DEL:
            return [
                (VT_DEL, src, dst, ver)
                for src, dst, ver in self.del_view(payload).tolist()
            ]
        raise ValueError(f"unknown slab kind {kind}")
