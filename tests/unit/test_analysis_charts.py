"""Units for the plain-text chart renderers."""

import pytest

from repro.analysis.charts import bar_chart, savings_chart
from repro.errors import ConfigurationError


class TestBarChart:
    def test_bars_scale(self):
        text = bar_chart({"a": 1.0, "b": 2.0}, width=10)
        lines = text.splitlines()
        assert lines[0].count("#") == 5
        assert lines[1].count("#") == 10

    def test_negative_values_marked(self):
        text = bar_chart({"loss": -0.5, "gain": 1.0}, width=10)
        assert "-" in text.splitlines()[0]

    def test_title_and_unit(self):
        text = bar_chart({"x": 3.0}, title="T", unit="%")
        assert text.startswith("T")
        assert "3%" in text

    def test_empty(self):
        assert "(no data)" in bar_chart({})

    def test_zero_values(self):
        text = bar_chart({"a": 0.0})
        assert "#" not in text

    def test_bad_width(self):
        with pytest.raises(ConfigurationError):
            bar_chart({"a": 1.0}, width=0)


class TestSavingsChart:
    def test_percent_scaling(self):
        text = savings_chart({0.1: 0.25}, title="S")
        assert "25" in text

    def test_sorted_by_x(self):
        text = savings_chart({0.3: 0.1, 0.1: 0.2}, title="S")
        lines = text.splitlines()[1:]
        assert lines[0].startswith("0.1")
