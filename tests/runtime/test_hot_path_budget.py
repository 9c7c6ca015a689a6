"""A clock-free budget on the per-event path: Python calls per source event.

Wall-clock gains erode one helper call at a time, and no timing test can
hold a line on a shared CI host.  The number of Python-level function
calls ``engine.run()`` makes is exact for a given input and interpreter
version, so it can.  On CPython 3.11 the hot-path refactor took the
BFS+CC input below (5.05 visits per event) from 194.9 calls per source
event to 77.6, and the five-program churn input (28 visits per event)
from 1,125.3 to 597.7.  The ceilings leave room for the spread across
CPython 3.10-3.13 (3.12 inlines comprehensions, which only lowers the
count) and for a small honest addition — not for a per-visit helper
chain coming back.
"""

from __future__ import annotations

import sys
from collections import Counter

from test_cost_ledger import LEGS


def _calls_per_event(build) -> tuple[float, Counter]:
    """Python ``call`` events per source event over a whole leg (set-up
    included: it is a few hundred calls against ~10^5)."""
    calls: Counter = Counter()

    def profiler(frame, event, _arg):
        if event == "call":
            code = frame.f_code
            calls[f"{code.co_filename.rsplit('/', 1)[-1]}:{code.co_name}"] += 1

    sys.setprofile(profiler)
    try:
        engine = build()
    finally:
        sys.setprofile(None)
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
    _assert_within("bfs_cc", 90)


def test_churn_visit_budget():
    _assert_within("churn", 700)
