"""What rides a ring slab: pickled tuple batches or numpy record arrays.

An mp run speaks exactly one of two wire formats, decided for every
rank before the first event (:func:`repro.parallel.vecapply.vec_eligible`):

* **Per-event ranks exchange tuples.**  A flushed visitor batch travels
  as one ``K_PICKLE`` slab — the pickled tuple list, any visitor type,
  any payload (generational tuples, S-T bitmaps of unbounded width).
  The list is the batch, so order within it — the §III-C per-channel
  FIFO guarantee — is preserved by construction.
* **Vec ranks exchange arrays.**  The vectorized drain
  (:mod:`repro.parallel.vecapply`) queues structured record arrays that
  are copied onto the ring as they are and decode as zero-copy views
  over the shared pages; no tuple exists on either end:

  ========== =========================================================
  K_ADD      ``src i8, dst i8, weight i8, ver u4``            (28 B)
  K_RADD     ``dst i8, src i8, weight i8, ver u4, vals u8×P`` (28+8P B)
  K_UPDATE   ``prog u2, target i8, sender i8, value u8, weight i8,
             ver u4``                                         (38 B)
  ========== =========================================================

  ``P`` is the number of loaded programs (RADD carries one value per
  program).  Values are 64-bit *bit patterns* of the owning program's
  ``bulk_kernel`` dtype (int64 min-plus costs, uint64 max-label hashes).

Fixed records pay where one end is an array; between two Python tuple
ends they measured 3x (one kind) to 27x (alternating kinds) slower than
the pickle they duplicated, so the tuple lane has no record form.  The
receiving worker checks each slab's kind against its rank's mode
(:mod:`repro.parallel.worker`): a tuple slab at a vec rank, or a record
slab at a per-event one, is an error.
"""

from __future__ import annotations

import pickle
from typing import Any, Sequence

import numpy as np

from repro.parallel.shm import K_PICKLE

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


class Codec:
    """Wire codec bound to one run's program list.

    Both ends build it from the same ``programs`` list (workers get it
    in their spawn args), so the RADD record width agrees by construction.
    """

    def __init__(self, programs: Sequence[Any]):
        self.n_programs = len(programs)
        self.radd_dtype = radd_dtype(self.n_programs)

    # -- tuple lane (per-event ranks) ----------------------------------
    def encode_batch(self, msgs: list[tuple]) -> tuple[int, int, bytes]:
        """One ``(K_PICKLE, n_records, payload)`` slab for a visitor batch."""
        payload = pickle.dumps(msgs, protocol=pickle.HIGHEST_PROTOCOL)
        return (K_PICKLE, len(msgs), payload)

    def decode_to_tuples(self, payload: np.ndarray | bytes) -> list[tuple]:
        """The visitor tuples a ``K_PICKLE`` slab was packed from."""
        return pickle.loads(payload)

    # -- array lane (vec ranks): zero-copy record views ----------------
    def add_view(self, payload: np.ndarray) -> np.ndarray:
        return np.frombuffer(payload, dtype=ADD_DTYPE)

    def radd_view(self, payload: np.ndarray) -> np.ndarray:
        return np.frombuffer(payload, dtype=self.radd_dtype)

    def update_view(self, payload: np.ndarray) -> np.ndarray:
        return np.frombuffer(payload, dtype=UPDATE_DTYPE)
