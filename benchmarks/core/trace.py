"""Outside-in tracing: timing wrappers on the layers' public entry points.

Nothing under ``src/`` knows about this file.  :class:`LayerTrace`
replaces each entry point in :data:`ENTRY_POINTS` (a class method or a
module-level function) with a wrapper that times the call, and puts the
original object back on :meth:`LayerTrace.uninstall`.  Wrappers must go
in *before* the engine is built: bound methods captured at construction
(the serving layer hands ``cache.invalidate`` to the engine's hook
registry) would otherwise bypass them.

A per-thread stack links every call to the call that caused it.  A
layer's ``self_s`` is its calls' duration minus the part covered by
wrapped calls they made; ``busy_s`` is its inclusive time with nested
re-entry (``engine.run`` -> ``loop.run`` -> ``engine.on_message``)
counted once.  Entry points above the per-event level are kept as full
spans ``(id, parent, layer, name, t0, dur)``; per-call entry points
only aggregate, because 10^6 span tuples would cost more than the work
they describe.

The wrapper's own cost lands in the caller's self time (the callee's
clock starts after, and stops before, the bookkeeping), so a layer that
makes many cheap wrapped calls reads high; ``run.py --profile`` is the
cross-check.
"""

from __future__ import annotations

import importlib
import json
import threading
import time
from pathlib import Path
from typing import Any, Callable

#: layer -> [(module, owner class or None, attribute, keep full spans)].
#: The ``algorithms`` layer is per run: the callbacks of the program
#: classes actually loaded (see :meth:`LayerTrace.install`).
ENTRY_POINTS: dict[str, list[tuple[str, str | None, str, bool]]] = {
    "events.stream": [
        ("repro.events.stream", "ArrayEventStream", "pull", False),
        ("repro.events.stream", "ArrayEventStream", "pull_chunk", True),
        ("repro.events.stream", "ListEventStream", "pull", False),
    ],
    "comm.des": [
        ("repro.comm.des", "DiscreteEventLoop", "run", True),
        ("repro.comm.des", "DiscreteEventLoop", "send", False),
        ("repro.comm.des", "DiscreteEventLoop", "send_many", False),
        ("repro.comm.des", "DiscreteEventLoop", "schedule_alarm", False),
    ],
    "runtime.engine": [
        ("repro.runtime.engine", "DynamicEngine", "on_message", False),
        ("repro.runtime.engine", "DynamicEngine", "pull_source", False),
        ("repro.runtime.engine", "DynamicEngine", "attach_stream", False),
        ("repro.runtime.engine", "DynamicEngine", "run", True),
    ],
    "runtime.program": [
        ("repro.runtime.program", "VertexContext", "set_value", False),
        ("repro.runtime.program", "VertexContext", "update_nbrs", False),
        ("repro.runtime.program", "VertexContext", "update_single_nbr", False),
        ("repro.runtime.program", "VertexContext", "has_edge", False),
        ("repro.runtime.program", "VertexContext", "neighbors", False),
    ],
    "storage.degaware": [
        ("repro.storage.degaware", "DegAwareRHH", "insert_edge", False),
        ("repro.storage.degaware", "DegAwareRHH", "delete_edge", False),
        ("repro.storage.degaware", "DegAwareRHH", "has_edge", False),
        ("repro.storage.degaware", "DegAwareRHH", "edge_weight", False),
        ("repro.storage.degaware", "DegAwareRHH", "degree", False),
        ("repro.storage.degaware", "DegAwareRHH", "neighbors", False),
        ("repro.storage.degaware", "DegAwareRHH", "neighbors_arrays", False),
        ("repro.storage.degaware", "DegAwareRHH", "ensure_vertex", False),
        ("repro.storage.degaware", "DegAwareRHH", "bulk_append_edges", True),
        ("repro.storage.degaware", "DegAwareRHH", "flush_bulk", True),
    ],
    "storage.robin_hood": [
        ("repro.storage.robin_hood", "RobinHoodMap", "get", False),
        ("repro.storage.robin_hood", "RobinHoodMap", "put", False),
        ("repro.storage.robin_hood", "RobinHoodMap", "delete", False),
    ],
    "runtime.bulk": [
        ("repro.runtime.bulk", "BulkIngestor", "process_chunk", True),
        ("repro.runtime.bulk", "BulkIngestor", "flush_values", True),
        ("repro.runtime.bulk", "BulkIngestor", "deoptimize", True),
    ],
    "kernels.frontier": [
        ("repro.kernels.frontier", None, "relax_to_fixpoint", True),
        ("repro.kernels.frontier", None, "build_csr", True),
        # runtime.bulk imported the kernel by name; its binding is the
        # one the chunk loop actually calls.
        ("repro.runtime.bulk", None, "relax_to_fixpoint", True),
    ],
    "serving.server": [
        ("repro.serving.server", "ServingLayer", "point", False),
    ],
    "serving.cache": [
        ("repro.serving.cache", "StableValueCache", "lookup", False),
        ("repro.serving.cache", "StableValueCache", "admit", False),
        ("repro.serving.cache", "StableValueCache", "invalidate", False),
        ("repro.serving.cache", "StableValueCache", "flush_prog", True),
    ],
}
PROGRAM_CALLBACKS = (
    "on_init",
    "on_add",
    "on_reverse_add",
    "on_update",
    "on_delete",
    "on_reverse_delete",
)
#: Entry points whose successful returns (not None, not False) are
#: counted, so the self-check can hold the wrappers' view against the
#: program's own counters (edge_inserts, source_events, edge_deletes).
COUNT_RETURNS = frozenset(
    {
        "DegAwareRHH.insert_edge",
        "DegAwareRHH.delete_edge",
        "ArrayEventStream.pull",
        "ListEventStream.pull",
    }
)
#: Pseudo-layer for the benchmark's own loops (query batches, the
#: update loop): harness time between wrapped calls gets a name.
DRIVER_LAYER = "bench.driver"
_ABSENT = object()


class _Stack(threading.local):
    def __init__(self) -> None:
        self.child_s: list[float] = []  # per open call: wrapped-callee time
        self.span_ids: list[int] = []  # open full spans


class LayerTrace:
    """One traced pass: install, run the workload, uninstall, read."""

    def __init__(self) -> None:
        self.layers: list[str] = []
        self.calls: list[int] = []
        self.self_s: list[float] = []
        self.busy_s: list[float] = []
        self._depth: list[int] = []
        #: (id, parent id or -1, layer, name, t0, dur), t0 on perf_counter.
        self.spans: list[tuple[int, int, str, str, float, float] | None] = []
        self.returns: dict[str, int] = {name: 0 for name in COUNT_RETURNS}
        self._stack = _Stack()
        self._installed: list[tuple[Any, str, Any]] = []

    # -- install / uninstall --------------------------------------------
    def install(self, program_classes: tuple[type, ...] = ()) -> None:
        for layer, points in ENTRY_POINTS.items():
            for module, owner, attr, full in points:
                target = importlib.import_module(module)
                if owner is not None:
                    target = getattr(target, owner)
                self._replace(layer, target, f"{owner or module}.{attr}", attr, full)
        for cls in program_classes:
            for cb in PROGRAM_CALLBACKS:
                self._replace("algorithms", cls, f"{cls.__name__}.{cb}", cb, False)

    def _replace(self, layer: str, target: Any, name: str, attr: str, full: bool) -> None:
        self._installed.append((target, attr, vars(target).get(attr, _ABSENT)))
        setattr(target, attr, self.wrap(layer, name, getattr(target, attr), full))

    def uninstall(self) -> None:
        for target, attr, original in reversed(self._installed):
            if original is _ABSENT:
                delattr(target, attr)  # was inherited: uncover the base's
            else:
                setattr(target, attr, original)
        self._installed.clear()

    def reset(self) -> None:
        """Forget everything measured so far (called between set-up and
        the timed run, with no wrapped call open)."""
        for series in (self.calls, self.self_s, self.busy_s):
            series[:] = [0] * len(series)
        self.spans.clear()
        for name in self.returns:
            self.returns[name] = 0

    def installed(self) -> list[tuple[Any, str, Any]]:
        """``(owner, attribute, original)`` for every replaced attribute."""
        return list(self._installed)

    # -- the wrapper ------------------------------------------------------
    def wrap(self, layer: str, name: str, fn: Callable, full: bool = True) -> Callable:
        """``fn`` timed under ``layer``.  Also used directly by the
        workloads for their own loops (``DRIVER_LAYER``)."""
        if layer not in self.layers:
            self.layers.append(layer)
            self.calls.append(0)
            self.self_s.append(0.0)
            self.busy_s.append(0.0)
            self._depth.append(0)
        li = self.layers.index(layer)
        perf = time.perf_counter
        stack = self._stack
        calls, self_s, busy_s, depth = self.calls, self.self_s, self.busy_s, self._depth
        spans, returns = self.spans, self.returns
        count = name in COUNT_RETURNS

        def wrapper(*args: Any, **kwargs: Any) -> Any:
            child_s = stack.child_s
            child_s.append(0.0)
            depth[li] += 1
            if full:
                span_ids = stack.span_ids
                parent = span_ids[-1] if span_ids else -1
                span_id = len(spans)
                spans.append(None)  # reserve the slot: ids follow start order
                span_ids.append(span_id)
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = perf() - t0
                calls[li] += 1
                self_s[li] += dur - child_s.pop()
                depth[li] -= 1
                if not depth[li]:
                    busy_s[li] += dur
                if child_s:
                    child_s[-1] += dur
                if full:
                    span_ids.pop()
                    spans[span_id] = (span_id, parent, layer, name, t0, dur)
            if count and result is not None and result is not False:
                returns[name] += 1
            return result

        return wrapper

    # -- results ----------------------------------------------------------
    def layer_metrics(self) -> dict[str, dict[str, float]]:
        return {
            layer: {
                "calls": self.calls[i],
                "busy_s": self.busy_s[i],
                "self_s": self.self_s[i],
            }
            for i, layer in enumerate(self.layers)
        }


def write_spans(
    path: Path, workload: str, layers: dict, traces: list[LayerTrace]
) -> None:
    """Dump the full spans of a run's traced passes (one ``tid`` per
    input) as a Chrome/Perfetto trace; ``args.id``/``args.parent``
    carry the causal links within an input."""
    events = []
    for tid, trace in enumerate(traces):
        done = [s for s in trace.spans if s is not None]
        t_base = min((s[4] for s in done), default=0.0)
        events.extend(
            {
                "name": name,
                "cat": layer,
                "ph": "X",
                "pid": 0,
                "tid": tid,
                "ts": (t0 - t_base) * 1e6,
                "dur": dur * 1e6,
                "args": {"id": span_id, "parent": parent},
            }
            for span_id, parent, layer, name, t0, dur in done
        )
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(
        json.dumps({"workload": workload, "layers": layers, "traceEvents": events})
    )
