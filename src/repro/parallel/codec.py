"""What rides a ring slab: pickled tuple batches or int64 record columns.

An mp run speaks exactly one of two wire formats, decided for every
rank before the first event (:func:`repro.parallel.vecapply.vec_eligible`):

* **Per-event ranks exchange tuples.**  A flushed visitor batch travels
  as one ``K_PICKLE`` slab — the pickled tuple list, any visitor type,
  any payload (generational tuples, S-T bitmaps of unbounded width).
  The list is the batch, so order within it — the §III-C per-channel
  FIFO guarantee — is preserved by construction.
* **Vec ranks exchange arrays.**  The vectorized drain
  (:mod:`repro.parallel.vecapply`) queues record batches as C contiguous
  little-endian int64 column blocks, which are copied onto the ring as
  they are and decode as zero-copy ``(C, n)`` views over the shared
  pages (row ``c`` is column ``c`` of ``n`` records); no tuple exists on
  either end:

  ========== ================================================ ========
  K_ADD      ``src, dst, weight``                             24 B
  K_RADD     ``dst, src, weight, value × P``                  24+8P B
  K_UPDATE   ``prog, target, sender, value, weight``          40 B
  ========== ================================================ ========

  ``P`` is the number of loaded programs (RADD carries one value per
  program).  A value is the 64-bit *bit pattern* of the owning program's
  ``bulk_kernel`` dtype (int64 min-plus costs, uint64 max-label hashes),
  read back with ``.view(dtype)``.  There is no version column: a vec
  run has no stream cut, so every version is 0 (the tuple lane carries
  one).

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

#: Columns of each record kind, in row order; RADD appends one value
#: row per program.
ADD_COLUMNS = ("src", "dst", "weight")
RADD_COLUMNS = ("dst", "src", "weight")
UPDATE_COLUMNS = ("prog", "target", "sender", "value", "weight")


def _columns(payload: np.ndarray | bytes, n_columns: int) -> np.ndarray:
    return np.frombuffer(payload, dtype="<i8").reshape(n_columns, -1)


class Codec:
    """Wire codec bound to one run's program list.

    Both ends build it from the same ``programs`` list (workers get it
    in their spawn args), so the RADD column count agrees by construction.
    """

    def __init__(self, programs: Sequence[Any]):
        self.n_programs = len(programs)
        self.radd_columns = len(RADD_COLUMNS) + self.n_programs

    # -- tuple lane (per-event ranks) ----------------------------------
    def encode_batch(self, msgs: list[tuple]) -> tuple[int, int, bytes]:
        """One ``(K_PICKLE, n_records, payload)`` slab for a visitor batch."""
        payload = pickle.dumps(msgs, protocol=pickle.HIGHEST_PROTOCOL)
        return (K_PICKLE, len(msgs), payload)

    def decode_to_tuples(self, payload: np.ndarray | bytes) -> list[tuple]:
        """The visitor tuples a ``K_PICKLE`` slab was packed from."""
        return pickle.loads(payload)

    # -- array lane (vec ranks): zero-copy (columns, n) views ----------
    def add_view(self, payload: np.ndarray | bytes) -> np.ndarray:
        return _columns(payload, len(ADD_COLUMNS))

    def radd_view(self, payload: np.ndarray | bytes) -> np.ndarray:
        return _columns(payload, self.radd_columns)

    def update_view(self, payload: np.ndarray | bytes) -> np.ndarray:
        return _columns(payload, len(UPDATE_COLUMNS))
