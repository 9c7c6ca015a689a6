"""An open-addressing hash map with Robin Hood displacement.

DegAwareRHH [18] stores adjacency data in "open addressing and compact
hash tables with Robin Hood Hashing", which keeps the *variance* of probe
distances small: on insertion, a key that has probed further than the
resident key steals the slot ("takes from the rich"), and the resident is
re-inserted further along.  Deletion uses backward shifting, so no
tombstones accumulate and lookups can terminate early at the first slot
whose displacement is smaller than the probe distance.

The map stores ``int64 -> int64`` in three parallel typed slot arrays
(``array('q')`` keys and values, a ``bytearray`` of 8-bit
displacement+occupancy metadata: 17 bytes per slot).  The table is read
one slot at a time, and these containers hand back plain Python ints —
a NumPy array of the same layout boxes every access in a NumPy scalar,
which measured 3x slower per slot.  It reproduces the data-structure
behaviour the paper describes — probe distances, displacement work,
load-factor-driven resizes — and surfaces each as a counter for the
storage ablation bench to report.

Keys may be any int64 value (including negatives); there is no reserved
"empty key" because occupancy lives in the metadata byte.

The map is a standalone structure: ``DegAwareRHH`` keeps its vertex
index and hub tables in CPython ``dict`` objects (DESIGN §14), and this map
serves the storage ablation's probe profile.
"""

from __future__ import annotations

from array import array
from typing import Iterator

from repro.util.hashing import fibonacci_hash, mix64
from repro.util.validate import check_in_range, check_power_of_two

_EMPTY = 0xFF  # metadata byte marking an unoccupied slot
_MAX_DISP = 0xFE  # displacements are capped; hitting the cap forces a resize


class RobinHoodMap:
    """Open-addressing int64→int64 map with Robin Hood displacement.

    Parameters
    ----------
    initial_capacity:
        Starting table size; rounded up to a power of two, minimum 8.
    max_load_factor:
        Resize threshold in ``(0, 1)``; DegAwareRHH-style compactness
        favours high load factors (default 0.85), which Robin Hood
        tolerates because probe-length variance stays low.

    Notes
    -----
    Instrumentation counters (``probe_count``, ``displacement_count``,
    ``resize_count``) accumulate over the map's lifetime and are read by
    the ablation benches; they are not reset by ``clear()`` resizes.
    """

    __slots__ = (
        "_keys",
        "_values",
        "_meta",
        "_shift",
        "_mask",
        "_size",
        "_limit",
        "_max_load_factor",
        "probe_count",
        "displacement_count",
        "resize_count",
    )

    def __init__(
        self,
        initial_capacity: int = 8,
        max_load_factor: float = 0.85,
    ):
        cap = 8
        while cap < initial_capacity:
            cap <<= 1
        check_power_of_two("initial_capacity (rounded)", cap)
        check_in_range("max_load_factor", max_load_factor, 0.1, 0.97)
        self._max_load_factor = float(max_load_factor)
        self._allocate(cap)
        self._size = 0
        self.probe_count = 0
        self.displacement_count = 0
        self.resize_count = 0

    # ------------------------------------------------------------------
    # internal helpers
    # ------------------------------------------------------------------
    def _allocate(self, capacity: int) -> None:
        self._keys = array("q", bytes(8 * capacity))
        self._values = array("q", bytes(8 * capacity))
        self._meta = bytearray([_EMPTY]) * capacity
        self._shift = 64 - (capacity.bit_length() - 1)
        self._mask = capacity - 1
        # put() resizes when size + 1 > lf * capacity, i.e. (size an
        # int) when size >= floor(lf * capacity): the same float
        # product, taken once per allocation.
        self._limit = int(self._max_load_factor * capacity)

    def _home(self, key: int) -> int:
        """``key``'s home slot: the top bits of its Fibonacci hash."""
        return fibonacci_hash(mix64(key), 64 - self._shift)

    def _resize(self, new_capacity: int) -> None:
        old_keys, old_values, old_meta = self._keys, self._values, self._meta
        self._allocate(new_capacity)
        self._size = 0
        self.resize_count += 1
        for key, value, slot_meta in zip(old_keys, old_values, old_meta):
            if slot_meta != _EMPTY:
                self._insert(key, value)

    def _insert(self, key: int, value: int) -> bool:
        """Core Robin Hood insertion; returns True iff the key was new."""
        keys, values, meta, mask = self._keys, self._values, self._meta, self._mask
        idx = self._home(key)
        disp = 0
        probes = 0
        while True:
            probes += 1
            slot_meta = meta[idx]
            if slot_meta == _EMPTY:
                keys[idx] = key
                values[idx] = value
                meta[idx] = disp
                self._size += 1
                self.probe_count += probes
                return True
            if keys[idx] == key:
                values[idx] = value
                self.probe_count += probes
                return False
            if slot_meta < disp:
                # Robin Hood: the resident is "richer" (closer to home);
                # swap it out and keep walking with the evicted entry.
                self.displacement_count += 1
                key, keys[idx] = keys[idx], key
                value, values[idx] = values[idx], value
                disp, meta[idx] = slot_meta, disp
            disp += 1
            if disp >= _MAX_DISP:
                self.probe_count += probes
                self._resize(len(self._keys) * 2)
                return self._insert(key, value)
            idx = (idx + 1) & mask

    def _find_slot(self, key: int) -> int:
        """Return the slot index holding ``key``, or -1 if absent."""
        keys, meta, mask = self._keys, self._meta, self._mask
        idx = self._home(key)
        disp = 0
        while True:
            slot_meta = meta[idx]
            # Early termination: if the resident is closer to home than our
            # probe distance, Robin Hood ordering guarantees key is absent.
            if slot_meta == _EMPTY or slot_meta < disp:
                self.probe_count += disp + 1
                return -1
            if keys[idx] == key:
                self.probe_count += disp + 1
                return idx
            disp += 1
            idx = (idx + 1) & mask

    # ------------------------------------------------------------------
    # public API
    # ------------------------------------------------------------------
    def put(self, key: int, value: int) -> bool:
        """Insert or overwrite; returns True iff ``key`` was not present."""
        if self._size >= self._limit:
            self._resize(len(self._keys) * 2)
        return self._insert(int(key), int(value))

    def get(self, key: int, default: int | None = None) -> int | None:
        """Return the value for ``key``, or ``default`` if absent."""
        idx = self._find_slot(int(key))
        if idx < 0:
            return default
        return self._values[idx]

    def delete(self, key: int) -> bool:
        """Remove ``key`` using backward-shift deletion; True iff removed."""
        idx = self._find_slot(int(key))
        if idx < 0:
            return False
        keys, values, meta, mask = self._keys, self._values, self._meta, self._mask
        nxt = (idx + 1) & mask
        # Shift the following cluster back one slot until we hit an empty
        # slot or an entry already sitting at its home position.
        while (slot_meta := meta[nxt]) != _EMPTY and slot_meta > 0:
            keys[idx] = keys[nxt]
            values[idx] = values[nxt]
            meta[idx] = slot_meta - 1
            idx = nxt
            nxt = (nxt + 1) & mask
        meta[idx] = _EMPTY
        self._size -= 1
        return True

    def __contains__(self, key: int) -> bool:
        return self._find_slot(int(key)) >= 0

    def __len__(self) -> int:
        return self._size

    def __getitem__(self, key: int) -> int:
        idx = self._find_slot(int(key))
        if idx < 0:
            raise KeyError(key)
        return self._values[idx]

    def __setitem__(self, key: int, value: int) -> None:
        self.put(key, value)

    def items(self) -> Iterator[tuple[int, int]]:
        """Iterate (key, value) pairs in table order.

        Mutation during iteration is undefined behaviour (as for dict).
        """
        for key, value, slot_meta in zip(self._keys, self._values, self._meta):
            if slot_meta != _EMPTY:
                yield key, value

    def keys(self) -> Iterator[int]:
        for k, _ in self.items():
            yield k

    @property
    def capacity(self) -> int:
        return len(self._keys)

    @property
    def load_factor(self) -> float:
        return self._size / len(self._keys)

    def mean_probe_distance(self) -> float:
        """Average displacement of resident entries (0 = everyone at home)."""
        if self._size == 0:
            return 0.0
        return sum(m for m in self._meta if m != _EMPTY) / self._size

    def max_probe_distance(self) -> int:
        """Largest displacement of any resident entry."""
        return max((m for m in self._meta if m != _EMPTY), default=0)

    def check_invariants(self) -> None:
        """Verify the Robin Hood layout invariants (used by tests).

        * every resident's recorded displacement matches its actual
          distance from home;
        * along any probe cluster, displacement increases by at most one
          per step (the Robin Hood ordering property).
        """
        meta, keys, mask = self._meta, self._keys, self._mask
        n_occ = 0
        for idx in range(len(keys)):
            if meta[idx] == _EMPTY:
                continue
            n_occ += 1
            home = self._home(int(keys[idx]))
            actual = (idx - home) & mask
            if actual != int(meta[idx]):
                raise AssertionError(
                    f"slot {idx}: recorded displacement {int(meta[idx])} != actual {actual}"
                )
            prev = (idx - 1) & mask
            if meta[prev] == _EMPTY:
                if meta[idx] != 0:
                    raise AssertionError(
                        f"slot {idx}: displacement {int(meta[idx])} follows an empty slot"
                    )
            elif int(meta[idx]) > int(meta[prev]) + 1:
                raise AssertionError(
                    f"slot {idx}: displacement jumps {int(meta[prev])} -> {int(meta[idx])}"
                )
        if n_occ != self._size:
            raise AssertionError(f"size {self._size} != occupied slots {n_occ}")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"RobinHoodMap(size={self._size}, capacity={self.capacity}, "
            f"load={self.load_factor:.2f})"
        )
