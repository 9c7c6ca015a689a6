"""A clock-free budget on the per-event path: Python calls and bytecode
instructions per source event.

Wall-clock gains erode one helper call at a time, and no timing test can
hold a line on a shared CI host.  The number of Python-level function
calls ``engine.run()`` makes is exact for a given input and interpreter
version, so it can.  On CPython 3.11 the hot-path refactor took the
BFS+CC input below (5.05 visits per event) from 194.9 calls per source
event to 77.6, and the five-program churn input (28 visits per event)
from 1,125.3 to 597.7.  The store's hash memo (no ``_home`` frame per
probe sequence) then took them to 72.7 and 577.9, counted warm (a cold
first leg reads 73.1 and 597.4; see ``_run_hooked``).  Churn's
offer path (one probe and two compares per offer, no echo of an adopted
value to its sender) then took churn to 389.4 on 24.5 visits per event.
The store's hash tables becoming ``dict`` objects (no Robin Hood probe
loop in Python) then took them to 59.0 and 337.0.  Deriving all ten REMO
programs from one algebra row per family then read 55.1 and 333.4 (the
reverse side of an add is the update callback itself, not a frame that
calls it; the derived update compares through ``operator.lt``/``gt``,
C calls that are not counted).  The call ceilings were set ~16% above
the counts of their day: room for the spread across CPython 3.10-3.13
(3.12 inlines comprehensions, which only lowers the count) and for a
small honest addition — not for a per-visit helper chain coming back.

Frames are not wall time: cutting calls per event by a fifth once moved
neither workload's wall.  Executed instructions are closer to it, so
the same legs also count bytecode instructions (``opcode`` trace events)
per source event.  Before the DES action was trimmed they read 3,008.3
(``bfs_cc``) and 15,859.1 (``churn``).  The trimmed action (alarms
tested only when one is pending, counters in locals, per-sender channel
dicts, no ``__init__`` frame per coalescible message, the visit charges
resolved once) read 2,880.5 and 15,239.0 (calls 52.9 and 319.0), and the
add-only programs' adopter skip (no echo of an adopted value to its
sender: 20,720 -> 19,186 visits) took ``bfs_cc`` to 2,622.5 (48.8
calls).  Instruction ceilings keep ~10% headroom.  Bytecode is not
stable across interpreter versions, so they hold on CPython 3.11 only;
``python tests/runtime/test_hot_path_budget.py`` prints all four counts
on any version.
"""

from __future__ import annotations

import gc
import sys
from collections import Counter

import pytest
from test_cost_ledger import LEGS


def _run_hooked(build, set_hook, hook) -> int:
    """Run a leg under ``set_hook(hook)``, warm; returns its source events.

    The leg runs once unhooked first.  A cold leg books whatever the
    process imports lazily on first use (``numpy.random`` pulls in
    ``secrets`` and ``hmac``) to the first leg a process measures: +0.4
    calls per event on ``bfs_cc``, +19.5 on ``churn``.  The collector is
    off while hooked: a collection runs other modules' gc callbacks
    (hypothesis registers one) wherever earlier tests left it due.  What
    is left is the leg's own engine and stream set-up beside its run.
    """
    build()
    gc.collect()
    gc.disable()
    set_hook(hook)
    try:
        engine = build()
    finally:
        set_hook(None)
        gc.enable()
    return sum(c.source_events for c in engine.counters)


def _name(code) -> str:
    return f"{code.co_filename.rsplit('/', 1)[-1]}:{code.co_name}"


def _calls_per_event(build) -> tuple[float, Counter]:
    """Python ``call`` events per source event over a whole leg."""
    calls: Counter = Counter()

    def profiler(frame, event, _arg):
        if event == "call":
            calls[_name(frame.f_code)] += 1

    events = _run_hooked(build, sys.setprofile, profiler)
    return sum(calls.values()) / events, calls


def _instructions_per_event(build) -> tuple[float, Counter]:
    """Bytecode instructions executed per source event over a whole leg
    (``opcode`` trace events), booked to their function when its frame
    returns or yields."""
    executed: Counter = Counter()

    def tracer(frame, _event, _arg):
        frame.f_trace_opcodes = True
        frame.f_trace_lines = False
        n = 0

        def count(frame, event, _arg):
            nonlocal n
            if event == "opcode":
                n += 1
            elif event == "return":
                executed[_name(frame.f_code)] += n
                n = 0
            return count

        return count

    events = _run_hooked(build, sys.settrace, tracer)
    return sum(executed.values()) / events, executed


def _assert_within(leg: str, ceiling: float, measure=_calls_per_event) -> None:
    per_event, counts = measure(LEGS[leg])
    top = "\n".join(f"  {n:>8}  {name}" for name, n in counts.most_common(10))
    what = "Python calls" if measure is _calls_per_event else "instructions"
    assert per_event <= ceiling, (
        f"{leg}: {per_event:.1f} {what} per source event > {ceiling}; "
        f"most {what}:\n{top}"
    )


def test_add_only_visit_budget():
    _assert_within("bfs_cc", 70)


def test_churn_visit_budget():
    _assert_within("churn", 395)


on_measured_interpreter = pytest.mark.skipif(
    sys.version_info[:2] != (3, 11),
    reason="instruction ceilings are measured on CPython 3.11",
)


@on_measured_interpreter
def test_add_only_instruction_budget():
    _assert_within("bfs_cc", 2_900, _instructions_per_event)


@on_measured_interpreter
def test_churn_instruction_budget():
    _assert_within("churn", 16_800, _instructions_per_event)


def test_a_count_does_not_depend_on_what_ran_before():
    """Two measurements in one process are equal, whichever leg was first."""
    for measure in (_calls_per_event, _instructions_per_event):
        for leg in ("churn", "bfs_cc"):
            assert measure(LEGS[leg])[0] == measure(LEGS[leg])[0], leg


if __name__ == "__main__":
    for leg in ("bfs_cc", "churn"):
        print(f"{leg}: {_calls_per_event(LEGS[leg])[0]:.1f} Python calls per source event")
        print(f"{leg}: {_instructions_per_event(LEGS[leg])[0]:.1f} instructions per source event")
