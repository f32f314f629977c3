"""Sparkline rendering (the telemetry report's timelines)."""

from repro.stats import sparkline


class TestSparkline:
    def test_empty(self):
        assert sparkline([]) == ""

    def test_length_preserved_when_short(self):
        assert len(sparkline([1, 2, 3])) == 3

    def test_pooled_to_width(self):
        assert len(sparkline(range(1000), width=60)) == 60

    def test_monotone_mapping(self):
        line = sparkline([0, 5, 10], max_value=10)
        assert line[0] <= line[1] <= line[2] or line[0] == " "

    def test_all_zero(self):
        assert set(sparkline([0, 0, 0])) == {" "}

    def test_explicit_max(self):
        capped = sparkline([1, 1], max_value=100)
        assert set(capped) <= set(" .:")
