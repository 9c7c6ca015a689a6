"""Unit tests for FaultPlan: event order, victims, spec parsing."""

import pytest

from repro.faults import FaultPlan, RankCrash, RankStall

US = 1e-6


class TestValidation:
    def test_events_sorted_by_time(self):
        plan = FaultPlan(
            crashes=[RankCrash(time=3.0), RankCrash(time=1.0)],
            stalls=[RankStall(time=2.0), RankStall(time=0.5)],
        )
        assert [c.time for c in plan.crashes] == [1.0, 3.0]
        assert [s.time for s in plan.stalls] == [0.5, 2.0]


class TestFate:
    def test_pick_rank_in_range(self):
        plan = FaultPlan(seed=4)
        assert all(0 <= plan.pick_rank(6) < 6 for _ in range(100))

    def test_picks_are_seed_deterministic(self):
        a, b = FaultPlan(seed=9), FaultPlan(seed=9)
        assert [a.pick_rank(8) for _ in range(50)] == [
            b.pick_rank(8) for _ in range(50)
        ]


class TestSpec:
    def test_parse_full_spec(self):
        plan = FaultPlan.from_spec("seed=7,crash=0.5,stall=0.3", time_scale=2.0)
        assert plan.seed == 7
        assert [c.time for c in plan.crashes] == [1.0]  # 0.5 * time_scale
        assert [s.time for s in plan.stalls] == [0.6]

    def test_repeated_crashes_and_stall_duration(self):
        plan = FaultPlan.from_spec("crash=0.2,crash=0.6,stall=0.1:500")
        assert [c.time for c in plan.crashes] == [0.2, 0.6]
        [stall] = plan.stalls
        assert stall.duration == pytest.approx(500 * US)

    def test_default_stall_duration(self):
        [stall] = FaultPlan.from_spec("stall=0.4").stalls
        assert stall.duration == pytest.approx(RankStall.duration)

    def test_unknown_key_rejected(self):
        # The channels never lose a frame, so frame fates are unknown too.
        for key in ("explode", "drop", "dup", "delay", "delay_scale"):
            with pytest.raises(ValueError, match=f"unknown fault spec key '{key}'"):
                FaultPlan.from_spec(f"{key}=0.1")

    def test_missing_equals_rejected(self):
        with pytest.raises(ValueError, match="key=value"):
            FaultPlan.from_spec("crash")

    def test_empty_items_skipped(self):
        plan = FaultPlan.from_spec("seed=3,,")
        assert plan.seed == 3

    def test_describe_is_json_safe(self):
        import json

        plan = FaultPlan.from_spec("crash=0.5,stall=0.2", time_scale=1.0)
        doc = json.loads(json.dumps(plan.describe()))
        assert doc["seed"] == 0
        assert doc["crashes"] == [[0.5, -1]]
