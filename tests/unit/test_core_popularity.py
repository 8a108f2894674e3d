"""Units for the per-page popularity tracker (Section 4.2.1)."""

import pytest

from repro.core.popularity import PopularityTracker
from repro.errors import ConfigurationError


class TestRecording:
    def test_counts_accumulate(self):
        tracker = PopularityTracker()
        tracker.record(5, 3)
        tracker.record(5, 2)
        assert tracker.count(5) == 5
        assert tracker.count(6) == 0

    def test_saturation(self):
        tracker = PopularityTracker(counter_bits=4)
        tracker.record(1, 100)
        assert tracker.count(1) == 15

    def test_zero_or_negative_ignored(self):
        tracker = PopularityTracker()
        tracker.record(1, 0)
        tracker.record(1, -5)
        assert tracker.count(1) == 0

    def test_total_recorded(self):
        tracker = PopularityTracker()
        tracker.record(1, 3)
        tracker.record(2, 4)
        assert tracker.total_recorded == 7


class TestAging:
    def test_shift_halves(self):
        tracker = PopularityTracker(aging_shift=1)
        tracker.record(1, 8)
        tracker.age()
        assert tracker.count(1) == 4

    def test_shift_drops_ones(self):
        tracker = PopularityTracker(aging_shift=1)
        tracker.record(1, 1)
        tracker.age()
        assert tracker.count(1) == 0
        assert tracker.ranked_pages() == []

    def test_reset_mode(self):
        tracker = PopularityTracker(aging_shift=0)
        tracker.record(1, 200)
        tracker.age()
        assert tracker.count(1) == 0


class TestRanking:
    def test_ranked_by_count_then_page(self):
        tracker = PopularityTracker()
        tracker.record(3, 5)
        tracker.record(1, 10)
        tracker.record(2, 5)
        assert tracker.ranked_pages() == [(1, 10), (2, 5), (3, 5)]


class TestHistogram:
    def test_histogram_monotone(self):
        tracker = PopularityTracker()
        for page in range(100):
            tracker.record(page, 100 - page)
        points = tracker.histogram(bins=10)
        xs = [x for x, _ in points]
        ys = [y for _, y in points]
        assert xs == sorted(xs)
        assert ys == sorted(ys)
        assert points[-1][1] == pytest.approx(1.0)

    def test_skew_visible(self):
        """A 20-80-style workload shows up in the histogram."""
        tracker = PopularityTracker(counter_bits=16)
        for page in range(10):
            tracker.record(page, 80)
        for page in range(10, 100):
            tracker.record(page, 2)
        points = dict(tracker.histogram(bins=10))
        assert points[0.1] == pytest.approx(800 / 980, abs=0.01)

    def test_empty(self):
        assert PopularityTracker().histogram() == []


class TestValidation:
    def test_bad_counter_bits(self):
        with pytest.raises(ConfigurationError):
            PopularityTracker(counter_bits=0)

    def test_bad_aging(self):
        with pytest.raises(ConfigurationError):
            PopularityTracker(aging_shift=-1)
