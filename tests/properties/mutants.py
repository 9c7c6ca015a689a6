"""The mutant catalogue: fixed bugs re-opened, one patch each.

Benchmarks pin what the code costs; this file pins what the tests catch.
Each :class:`Mutant` re-opens one bug that a change fixed and a test
pins, or one planted to prove a check of the engine-contract machine, as
an ``(owner class, attribute, replacement)`` patch.  A patch on a class
attribute reaches every importer, so no test needs a factory seam and
``src/`` needs no hook.  One format serves three readers:

* ``test_engine_contract.py::test_the_machine_finds_a_planted_bug``:
  the machine, derandomised at its tier-1 budget, fails under each
  gated mutant;
* ``test_engine_contract.py``'s ``__main__``: the report on the one
  ungated mutant, rule 9's missing fence;
* this file's ``__main__``, the kill matrix: for each mutant, the
  machine and each hand-built module it restates, killed or not::

      PYTHONPATH=src python tests/properties/mutants.py

  A report, not a gate: a module's deletion quotes its row.  Each cell
  is pytest in a fresh interpreter, and only a failed test (exit code
  1) is a kill.  The machine column runs the whole machine; the tier-1
  test narrows it to each mutant's ``modes``.
"""

from __future__ import annotations

import contextlib
import glob
import subprocess
import sys
import tempfile
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Any, Callable, Iterator

from repro.algorithms.generations import _SupportTree
from repro.comm.des import DiscreteEventLoop
from repro.kernels.mirror import DenseState
from repro.runtime.bulk import BulkIngestor
from repro.runtime.engine import DynamicEngine
from repro.runtime.queries import TriggerManager
from repro.runtime.visitor import CTRL_HARVEST
from repro.serving.cache import StableValueCache
from repro.serving.server import ServingLayer


@contextlib.contextmanager
def patched(*patches: tuple[type, str, Any]) -> Iterator[None]:
    """Set each ``owner.attribute`` to its replacement; restore on exit
    (an inherited attribute is deleted again)."""
    saved = [(owner, attr, owner.__dict__.get(attr)) for owner, attr, _ in patches]
    try:
        for owner, attr, replacement in patches:
            setattr(owner, attr, replacement)
        yield
    finally:
        for owner, attr, old in reversed(saved):
            if old is None:
                delattr(owner, attr)
            else:
                setattr(owner, attr, old)


@dataclass(frozen=True)
class Mutant:
    """``owner.attribute`` replaced.  ``modes`` names the machine's modes
    that run the code it breaks (empty: every mode); ``gate=False``: a
    report only."""

    name: str
    owner: type
    attribute: str
    replacement: Callable
    modes: tuple[str, ...] = ()
    gate: bool = True

    def applied(self) -> contextlib.AbstractContextManager:
        return patched((self.owner, self.attribute, self.replacement))


# The originals each wrapper calls, captured before any patch.
_rebuild_topology = BulkIngestor._rebuild_topology
_resolve = DenseState.resolve
_loop_run = DiscreteEventLoop.run
_on_control = DynamicEngine._on_control
_write_value = DynamicEngine._write_value
_flush_values = BulkIngestor.flush_values
_point = ServingLayer.point
_add_trigger = TriggerManager.add


def _resync_marks_nothing(self):
    """PR 49's review: the resync admits a stored edge's endpoints but
    leaves them unwritten, so a chunk's gain there is never flushed
    (pinned: ``test_chunk_gain_reaches_an_endpoint_whose_reverse_add_is_in_flight``)."""
    before = [w.copy() for w in self.state.written]
    _rebuild_topology(self)
    for written, old in zip(self.state.written, before):
        written[:] = False
        written[: old.size] = old


def _resolve_writes_every_new_id(self, raw):
    """PR 49: a new id is written for every program, so bulk holds
    entries (an init-only vertex's BFS ``INF``, CC own label) that the
    per-event path never writes (pinned: ``test_mirror.py``'s model)."""
    known = self.owner.size
    pos = _resolve(self, raw)
    for written in self.written:
        written[known:] = True
    return pos


def _zero_actions_run_one(self, max_virtual_time=None, max_actions=None):
    """PR 48: ``run(max_actions=0)`` ran one action (pinned:
    ``test_des.py::TestKernelBookkeeping``)."""
    return _loop_run(self, max_virtual_time, 1 if max_actions == 0 else max_actions)


def _harvest_unrecorded(self, rank, msg):
    """PR 46: a rank that sent its part kept splitting until the
    collection ended, and the next one harvested the leak (pinned:
    ``test_collection_splits.py``)."""
    harvested = self._harvested[rank]
    _on_control(self, rank, msg)
    self._harvested[rank] = harvested


def _no_post_cut_relabel(self, rank, vertex, nbr, ver):
    """A prev-version UPDATE crosses an edge inserted after the cut into
    the harvested S_prev (pinned: ``test_snapshot_cut_edges.py``)."""
    return ver


def _write_skips_caches(self, rank, prog, vertex, value, view_prev):
    """A per-event write that leaves the serving caches holding the
    old value (pinned: ``test_server.py::TestAdmissionAndInvalidation``)."""
    caches, self._serve_caches = self._serve_caches, ()
    try:
        _write_value(self, rank, prog, vertex, value, view_prev)
    finally:
        self._serve_caches = caches


def _flush_keeps_settled(self, prog, keep_absorbing=True):
    """A bulk flush that drops absorbing entries only, under deletes:
    settled ones survive a rewrite of their value (pinned:
    ``test_cache.py``)."""
    entries = self._entries[prog]
    for v in [v for v, e in entries.items() if e[2] and not keep_absorbing]:
        del entries[v]


def _flush_skips_last_program(self, count_fallback=True):
    """PR 49, planted: a bulk flush that drops one program's entries."""
    stale, last = self.state.stale, len(self.kernels) - 1
    self.state.stale = lambda p: stale(p)[:0] if p == last else stale(p)
    try:
        _flush_values(self, count_fallback)
    finally:
        del self.state.stale


def _point_never_stale(self, prog, vertex):
    """PR 49, planted: a point read stamped fresh without ``drained()``."""
    return replace(_point(self, prog, vertex), stale=False)


def _harvest_reads_s_new(self, rank, msg):
    """PR 49, planted: a collection part that reads S_new, not S_prev."""
    if msg[1] == CTRL_HARVEST:
        self._prev_vals[rank] = {}
    _on_control(self, rank, msg)


def _trigger_refires(self, prog, predicate, callback, vertex=None, once=True):
    """PR 49, planted: a once-trigger that fires on every change."""
    return _add_trigger(self, prog, predicate, callback, vertex, once=False)


def _unfenced(self, ctx, vis_id, vis_val, weight):
    """DESIGN §12 b: the reverse-delete side sends no ``F`` (pinned:
    ``test_support_tree.py``'s breakers, up to 19 vertices and 7 ranks)."""
    self._edge_removed(ctx, vis_id)


CATALOGUE = (
    Mutant("resync_leaves_endpoints_unwritten", BulkIngestor, "_rebuild_topology",
           _resync_marks_nothing, ("handover",)),
    Mutant("resolve_writes_every_new_id", DenseState, "resolve",
           _resolve_writes_every_new_id, ("kernel",)),
    Mutant("zero_actions_run_one", DiscreteEventLoop, "run", _zero_actions_run_one),
    Mutant("harvest_unrecorded", DynamicEngine, "_on_control", _harvest_unrecorded,
           ("harvest",)),
    Mutant("no_post_cut_relabel", DynamicEngine, "_emit_version", _no_post_cut_relabel,
           ("harvest",)),
    Mutant("write_skips_serving_caches", DynamicEngine, "_write_value",
           _write_skips_caches),
    Mutant("bulk_flush_keeps_settled_entries", StableValueCache, "flush_prog",
           _flush_keeps_settled, ("handover",)),
    Mutant("bulk_flush_skips_a_program", BulkIngestor, "flush_values",
           _flush_skips_last_program, ("kernel",)),
    Mutant("point_read_ignores_drained", ServingLayer, "point", _point_never_stale),
    Mutant("harvest_reads_s_new", DynamicEngine, "_on_control", _harvest_reads_s_new),
    Mutant("once_trigger_refires", TriggerManager, "add", _trigger_refires),
    Mutant("unfenced_support_tree", _SupportTree, "on_reverse_delete", _unfenced,
           ("churn",), gate=False),
)  # fmt: skip
MUTANTS = {m.name: m for m in CATALOGUE}

# The columns: the whole machine, and the hand-built modules it restates
# (CHANGES, PR 49's table), as pytest targets under ``tests/``.
TESTS = Path(__file__).resolve().parents[1]
COLUMNS = {
    "machine": "properties/test_engine_contract.py::TestEngineContract",
    "remo_props": "properties/test_remo_props.py",
    "bulk_props": "properties/test_bulk_props.py",
    "generational_props": "properties/test_generational_props.py",
    "extension_props": "properties/test_extension_props.py",
    "differential": "properties/test_differential.py",
    "snapshot*": "runtime/test_snapshot*.py",
    "queries": "runtime/test_queries.py",
    "bulk_ingest": "runtime/test_bulk_ingest.py",
    "serving_differential": "serving/test_serving_differential.py",
}
# One cell's interpreter: argv is this directory, the mutant, the targets.
CELL = (
    "import sys; sys.path.insert(0, sys.argv[1]); import mutants; "
    "sys.exit(mutants.cell(*sys.argv[2:]))"
)


def cell(name: str, *targets: str) -> int:
    """pytest's exit code on ``targets`` with mutant ``name`` applied, in
    this process: 1 when a test failed, 2-4 when the run broke."""
    import pytest
    from hypothesis import configuration

    args = [*targets, "-x", "-q", "-p", "no:cacheprovider", "-W", "ignore"]
    with tempfile.TemporaryDirectory() as home, MUTANTS[name].applied():
        # Examples that fail under a mutant stay out of the suite's database.
        configuration.set_hypothesis_home_dir(home)
        return pytest.main(args)


def kill_cell(mutant: Mutant, column: str) -> str:
    """``K`` when pytest fails a test of ``column`` under ``mutant`` in a
    fresh interpreter, ``.`` when every test passes, ``E`` otherwise."""
    path, sep, node = COLUMNS[column].partition("::")
    targets = [p + sep + node for p in sorted(glob.glob(str(TESTS / path)))]
    if not targets:
        raise FileNotFoundError(path)
    here = str(Path(__file__).parent)
    argv = [sys.executable, "-c", CELL, here, mutant.name, *targets]
    quiet = {"stdout": subprocess.DEVNULL, "stderr": subprocess.DEVNULL}
    code = subprocess.run(argv, **quiet).returncode
    return {0: ".", 1: "K"}.get(code, "E")


def main() -> None:
    print("K = a test failed, . = every test passed, E = the run broke (no kill)")
    print("machine: the whole machine, derandomised, tier-1 budget")
    print(f"{'mutant':36}", *COLUMNS)
    for mutant in CATALOGUE:
        cells = [kill_cell(mutant, c).center(len(c)) for c in COLUMNS]
        gated = "" if mutant.gate else "(not gated)"
        print(f"{mutant.name:36}", *cells, gated, flush=True)


if __name__ == "__main__":
    main()
