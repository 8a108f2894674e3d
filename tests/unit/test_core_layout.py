"""Units for popularity-group construction (Section 4.2.1)."""

import pytest

from repro.config import PopularityLayoutConfig
from repro.core.layout import PopularityGrouper, hot_group_sizes


def config(**overrides):
    defaults = dict(num_groups=2, hot_access_fraction=0.6,
                    min_hot_references=1)
    defaults.update(overrides)
    return PopularityLayoutConfig(**defaults)


def ranking(counts):
    """Build a ranked list [(page, count), ...] from descending counts."""
    return [(page, count) for page, count in enumerate(counts)]


class TestGroupSizes:
    def test_exponential_progression(self):
        assert hot_group_sizes(7, 3) == [1, 2, 4]

    def test_last_group_absorbs_remainder(self):
        assert hot_group_sizes(10, 3) == [1, 2, 7]

    def test_two_groups_single_hot(self):
        assert hot_group_sizes(5, 1) == [5]

    def test_small_hot_set_drops_groups(self):
        assert hot_group_sizes(2, 5) == [1, 1]

    def test_zero(self):
        assert hot_group_sizes(0, 3) == []


class TestHotPageCount:
    def test_covers_access_fraction(self):
        grouper = PopularityGrouper(4, 8, config())
        # Counts: 50, 30, 10, 5, 5 -> total 100; 60% needs the top two.
        ranked = ranking([50, 30, 10, 5, 5])
        assert grouper.hot_page_count(ranked) == 2

    def test_min_references_cuts_noise(self):
        grouper = PopularityGrouper(4, 8, config(min_hot_references=5))
        ranked = ranking([50, 4, 4, 4, 4, 4])
        # Only the first page qualifies, despite not reaching 60%.
        assert grouper.hot_page_count(ranked) == 1

    def test_empty(self):
        grouper = PopularityGrouper(4, 8, config())
        assert grouper.hot_page_count([]) == 0


class TestBuildPlan:
    def test_two_group_plan(self):
        grouper = PopularityGrouper(4, 8, config())
        ranked = ranking([50, 30, 10, 5, 5])
        plan = grouper.build_plan(ranked)
        assert len(plan.groups) == 2
        hot, cold = plan.groups
        assert hot.chips == (0,)
        assert not hot.is_cold and cold.is_cold
        assert set(hot.pages) == {0, 1}
        assert plan.page_group.get(0, cold.index) == 0
        assert plan.page_group.get(4, cold.index) == 1
        assert plan.page_group.get(999, cold.index) == 1  # untracked -> cold

    def test_hot_chips_property(self):
        grouper = PopularityGrouper(4, 8, config())
        plan = grouper.build_plan(ranking([50, 30, 10, 5, 5]))
        assert plan.hot_chips == {0}

    def test_multi_group_plan(self):
        grouper = PopularityGrouper(num_chips=16, pages_per_chip=1,
                                    config=config(num_groups=4,
                                                  hot_access_fraction=0.9))
        counts = [100] * 10 + [1] * 10
        plan = grouper.build_plan(ranking(counts))
        sizes = [len(g.chips) for g in plan.groups[:-1]]
        assert sizes[0] == 1 and sizes[1] == 2
        assert plan.groups[-1].is_cold

    def test_cold_group_always_exists(self):
        grouper = PopularityGrouper(2, 4, config())
        plan = grouper.build_plan(ranking([10] * 8))
        assert plan.groups[-1].is_cold
        assert len(plan.groups[-1].chips) >= 1

    def test_candidates_recorded(self):
        grouper = PopularityGrouper(4, 8, config())
        plan = grouper.build_plan(ranking([50, 30, 10]))
        assert plan.candidates == {0, 1}


class TestHysteresisAndConfirmation:
    def test_entry_requires_two_intervals(self):
        grouper = PopularityGrouper(4, 8, config())
        ranked = ranking([50, 30, 10])
        first = grouper.build_plan(ranked, previous_hot=set(),
                                   previous_candidates=set())
        # Pages 0 and 1 rank hot but were not candidates before: filtered.
        cold = first.groups[-1].index
        assert first.page_group.get(0, cold) == cold
        second = grouper.build_plan(ranked, previous_hot=set(),
                                    previous_candidates=first.candidates)
        assert second.page_group.get(0, second.groups[-1].index) == 0

    def test_retention_zone_keeps_previous_hot(self):
        grouper = PopularityGrouper(4, 8, config(hysteresis_factor=3.0))
        # Page 9 used to be hot; it now ranks just below the boundary.
        ranked = ranking([50, 30, 9, 5])
        plan = grouper.build_plan(ranked, previous_hot={2})
        assert plan.page_group.get(2, plan.groups[-1].index) == 0

    def test_far_fallen_page_released(self):
        grouper = PopularityGrouper(4, 8, config(hysteresis_factor=1.5))
        ranked = ranking([50, 30] + [5] * 10)
        plan = grouper.build_plan(ranked, previous_hot={11})
        cold = plan.groups[-1].index
        assert plan.page_group.get(11, cold) == cold

    def test_first_interval_without_history(self):
        grouper = PopularityGrouper(4, 8, config())
        plan = grouper.build_plan(ranking([50, 30]), previous_hot=None,
                                  previous_candidates=None)
        # No confirmation required.
        assert plan.page_group.get(0, plan.groups[-1].index) == 0
