"""Tests for repro.util.timers and repro.util.validate."""

import pytest

from repro.util.timers import WallTimer, format_rate, format_seconds
from repro.util.validate import (
    check_in_range,
    check_positive,
    check_power_of_two,
)


class TestWallTimer:
    def test_context_manager_measures(self):
        with WallTimer() as t:
            sum(range(1000))
        assert t.elapsed > 0
        assert not t.running

    def test_stop_without_start_raises(self):
        with pytest.raises(RuntimeError):
            WallTimer().stop()

    def test_accumulates_across_segments(self):
        t = WallTimer()
        t.start()
        first = t.stop()
        t.start()
        second = t.stop()
        assert second >= first

    def test_reset(self):
        t = WallTimer().start()
        t.stop()
        t.reset()
        assert t.elapsed == 0.0

    def test_elapsed_while_running(self):
        t = WallTimer().start()
        assert t.running
        assert t.elapsed >= 0.0
        t.stop()


class TestFormatting:
    @pytest.mark.parametrize(
        "seconds,expect_sub",
        [(5e-7, "us"), (5e-3, "ms"), (5.0, "s"), (125.0, "m")],
    )
    def test_format_seconds_units(self, seconds, expect_sub):
        assert expect_sub in format_seconds(seconds)

    def test_format_seconds_negative(self):
        assert format_seconds(-0.5).startswith("-")

    @pytest.mark.parametrize(
        "count,secs,prefix",
        [(1.3e9, 1.0, "G"), (4.2e8, 1.0, "M"), (4.2e5, 1.0, "K"), (42, 1.0, "")],
    )
    def test_format_rate_prefixes(self, count, secs, prefix):
        assert f"{prefix}ev/s" in format_rate(count, secs)

    def test_format_rate_zero_time(self):
        assert "inf" in format_rate(100, 0.0)


class TestValidate:
    def test_check_positive(self):
        check_positive("n", 1)
        with pytest.raises(ValueError):
            check_positive("n", 0)

    def test_check_in_range(self):
        check_in_range("f", 0.5, 0.0, 1.0)
        with pytest.raises(ValueError):
            check_in_range("f", 1.5, 0.0, 1.0)

    @pytest.mark.parametrize("good", [1, 2, 4, 1024])
    def test_check_power_of_two_accepts(self, good):
        check_power_of_two("c", good)

    @pytest.mark.parametrize("bad", [0, -2, 3, 12])
    def test_check_power_of_two_rejects(self, bad):
        with pytest.raises(ValueError):
            check_power_of_two("c", bad)
