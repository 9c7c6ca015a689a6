"""A clock-free budget on the per-event path: Python calls per source event.

Wall-clock gains erode one helper call at a time, and no timing test can
hold a line on a shared CI host.  The number of Python-level function
calls ``engine.run()`` makes is exact for a given input and interpreter
version, so it can.  On CPython 3.11 the hot-path refactor took the
BFS+CC input below (5.05 visits per event) from 194.9 calls per source
event to 77.6, and the five-program churn input (28 visits per event)
from 1,125.3 to 597.7.  The store's hash memo (no ``_home`` frame per
probe sequence) then took them to 72.7 and 577.9, counted warm (a cold
first leg reads 73.1 and 597.4; see ``_calls_per_event``).  Churn's
offer path (one probe and two compares per offer, no echo of an adopted
value to its sender) then took churn to 389.4 on 24.5 visits per event.
The store's hash tables becoming ``dict`` objects (no Robin Hood probe
loop in Python) then took them to 59.0 and 337.0.  Deriving all ten REMO
programs from one algebra row per family then read 55.1 and 333.4 (the
reverse side of an add is the update callback itself, not a frame that
calls it; the derived update compares through ``operator.lt``/``gt``,
C calls that are not counted).  The ceilings keep ~16% headroom above the counts: room for the spread
across CPython 3.10-3.13 (3.12 inlines comprehensions, which only
lowers the count) and for a small honest addition — not for a per-visit
helper chain coming back.  ``python tests/runtime/test_hot_path_budget.py``
prints both counts.
"""

from __future__ import annotations

import gc
import sys
from collections import Counter

from test_cost_ledger import LEGS


def _calls_per_event(build) -> tuple[float, Counter]:
    """Python ``call`` events per source event over a whole leg, warm.

    The leg runs once unprofiled first.  A cold leg books whatever the
    process imports lazily on first use (``numpy.random`` pulls in
    ``secrets`` and ``hmac``) to the first leg a process measures: +0.4
    calls per event on ``bfs_cc``, +19.5 on ``churn``.  The collector is
    off while profiling: a collection runs other modules' gc callbacks
    (hypothesis registers one) wherever earlier tests left it due.  What
    is left is the leg's own engine and stream set-up beside its run.
    """
    build()
    gc.collect()
    calls: Counter = Counter()

    def profiler(frame, event, _arg):
        if event == "call":
            code = frame.f_code
            calls[f"{code.co_filename.rsplit('/', 1)[-1]}:{code.co_name}"] += 1

    gc.disable()
    sys.setprofile(profiler)
    try:
        engine = build()
    finally:
        sys.setprofile(None)
        gc.enable()
    events = sum(c.source_events for c in engine.counters)
    return sum(calls.values()) / events, calls


def _assert_within(leg: str, ceiling: float) -> None:
    per_event, calls = _calls_per_event(LEGS[leg])
    top = "\n".join(f"  {n:>8}  {name}" for name, n in calls.most_common(10))
    assert per_event <= ceiling, (
        f"{leg}: {per_event:.1f} Python calls per source event > {ceiling}; "
        f"most called:\n{top}"
    )


def test_add_only_visit_budget():
    _assert_within("bfs_cc", 70)


def test_churn_visit_budget():
    _assert_within("churn", 395)


def test_a_count_does_not_depend_on_what_ran_before():
    """Two measurements in one process are equal, whichever leg was first."""
    for leg in ("churn", "bfs_cc"):
        assert _calls_per_event(LEGS[leg])[0] == _calls_per_event(LEGS[leg])[0], leg


if __name__ == "__main__":
    for leg in ("bfs_cc", "churn"):
        print(f"{leg}: {_calls_per_event(LEGS[leg])[0]:.1f} Python calls per source event")
