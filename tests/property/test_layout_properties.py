"""Property tests for layouts, migration, and the popularity machinery."""

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.config import PopularityLayoutConfig
from repro.core.layout import (Group, GroupPlan, PopularityGrouper,
                               hot_group_sizes)
from repro.core.migration import MigrationPlanner
from repro.core.popularity import PopularityTracker
from repro.memory.address import (InterleavedLayout, MutableLayout,
                                  RandomLayout, SequentialLayout)

NUM_CHIPS, PAGES_PER_CHIP = 4, 16
TOTAL = NUM_CHIPS * PAGES_PER_CHIP


counts_strategy = st.dictionaries(
    st.integers(min_value=0, max_value=TOTAL - 1),
    st.integers(min_value=1, max_value=200),
    min_size=0, max_size=30)


@given(st.integers(min_value=0, max_value=64),
       st.integers(min_value=1, max_value=6))
def test_hot_group_sizes_partition(n_hot, groups):
    sizes = hot_group_sizes(n_hot, groups)
    assert sum(sizes) == n_hot
    assert all(s > 0 for s in sizes)


@given(counts_strategy)
@settings(max_examples=50)
def test_plan_is_a_partition(counts):
    cfg = PopularityLayoutConfig(num_groups=2, min_hot_references=1)
    grouper = PopularityGrouper(NUM_CHIPS, PAGES_PER_CHIP, cfg)
    ranked = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))
    plan = grouper.build_plan(ranked)
    # Chips partition exactly into the groups.
    all_chips = sorted(c for g in plan.groups for c in g.chips)
    assert all_chips == list(range(NUM_CHIPS))
    # Every tracked page has exactly one group.
    seen = set()
    for group in plan.groups:
        for page in group.pages:
            assert page not in seen
            seen.add(page)


@given(counts_strategy, st.integers(min_value=0, max_value=99))
@settings(max_examples=50, deadline=None)
def test_migration_preserves_occupancy_and_placement(counts, seed):
    cfg = PopularityLayoutConfig(num_groups=2, min_hot_references=1)
    grouper = PopularityGrouper(NUM_CHIPS, PAGES_PER_CHIP, cfg)
    planner = MigrationPlanner(cfg)
    layout = MutableLayout(RandomLayout(NUM_CHIPS, PAGES_PER_CHIP, seed=seed))
    ranked = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))
    plan = grouper.build_plan(ranked)
    migration = planner.plan_and_apply(plan, layout)
    # Occupancy is conserved (swaps) and within capacity.
    for chip in range(NUM_CHIPS):
        assert 0 <= layout.occupancy(chip) <= PAGES_PER_CHIP
    assert sum(layout.occupancy(c) for c in range(NUM_CHIPS)) == TOTAL
    # Every hot page ended up on a hot chip.
    hot_chips = plan.hot_chips
    for group in plan.groups:
        if group.is_cold:
            continue
        for page in group.pages:
            assert layout.chip_of(page) in hot_chips


@given(counts_strategy, st.integers(min_value=0, max_value=99))
@settings(max_examples=30, deadline=None)
def test_migration_is_idempotent(counts, seed):
    """Applying the same plan twice must do nothing the second time."""
    cfg = PopularityLayoutConfig(num_groups=2, min_hot_references=1)
    grouper = PopularityGrouper(NUM_CHIPS, PAGES_PER_CHIP, cfg)
    planner = MigrationPlanner(cfg)
    layout = MutableLayout(RandomLayout(NUM_CHIPS, PAGES_PER_CHIP, seed=seed))
    ranked = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))
    plan = grouper.build_plan(ranked)
    planner.plan_and_apply(plan, layout)
    second = planner.plan_and_apply(plan, layout)
    assert second.num_moves == 0


@given(st.lists(st.tuples(st.integers(min_value=0, max_value=TOTAL - 1),
                          st.integers(min_value=1, max_value=300)),
                max_size=50))
@settings(max_examples=50)
def test_tracker_counts_bounded(events):
    tracker = PopularityTracker(counter_bits=8)
    for page, count in events:
        tracker.record(page, count)
    for page, count in tracker.ranked_pages():
        assert 0 < count <= 255
    # Aging halves (rounding down) every counter.
    before = dict(tracker.ranked_pages())
    tracker.age()
    for page, count in tracker.ranked_pages():
        assert count == before[page] >> 1


# --- swap pool: vectorised scan against a per-page reference --------------

POOL_CHIPS, POOL_PAGES = 6, 8
POOL_TOTAL = POOL_CHIPS * POOL_PAGES


def reference_swap_pool(plan, layout, chip_group):
    """Per-page scan: every page on a hot chip whose target group is not
    that chip's group, in ascending page order."""
    pool = {chip: [] for chip in plan.hot_chips}
    cold = plan.groups[-1].index
    for page in range(layout.total_pages):
        chip = layout.chip_of(page)
        if chip in pool and plan.page_group.get(page, cold) != chip_group[chip]:
            pool[chip].append(page)
    return pool


def make_plan(hot_chips, page_group, num_groups=2):
    """A GroupPlan over POOL_CHIPS: ``hot_chips`` split into exponentially
    sized hot groups, the other chips cold; ``page_group`` as given."""
    chip_sets, start = [], 0
    for size in hot_group_sizes(len(hot_chips), num_groups - 1):
        chip_sets.append(tuple(hot_chips[start:start + size]))
        start += size
    cold = len(chip_sets)
    chip_sets.append(tuple(sorted(set(range(POOL_CHIPS)) - set(hot_chips))))
    groups = [Group(index, chips,
                    tuple(p for p, g in page_group.items() if g == index),
                    is_cold=index == cold)
              for index, chips in enumerate(chip_sets)]
    return GroupPlan(groups, dict(page_group))


@st.composite
def group_plans(draw):
    order = draw(st.permutations(range(POOL_CHIPS)))
    hot_chips = order[:draw(st.integers(0, POOL_CHIPS - 1))]
    num_groups = draw(st.integers(2, 4))
    cold = len(hot_group_sizes(len(hot_chips), num_groups - 1))
    page_group = draw(st.dictionaries(st.integers(0, POOL_TOTAL - 1),
                                      st.integers(0, cold),
                                      max_size=POOL_TOTAL))
    return make_plan(hot_chips, page_group, num_groups)


def base_layout(kind, seed):
    if kind == "sequential":
        return SequentialLayout(POOL_CHIPS, POOL_PAGES)
    if kind == "interleaved":
        return InterleavedLayout(POOL_CHIPS, POOL_PAGES)
    return RandomLayout(POOL_CHIPS, POOL_PAGES, seed=seed)


@given(st.sampled_from(["random", "sequential", "interleaved"]),
       st.integers(min_value=0, max_value=9),
       st.lists(group_plans(), max_size=3), group_plans())
@example("sequential", 0, [], make_plan([], {3: 0}))        # no hot chip
@example("interleaved", 0, [], make_plan([1, 4], {}))       # no tracked page
@example("random", 2, [make_plan([0, 1, 2], {5: 0, 9: 1, 30: 0})],
         make_plan([0, 1], {}, num_groups=3))
@settings(max_examples=80, deadline=None)
def test_swap_pool_matches_reference_scan(kind, seed, history, plan):
    layout = MutableLayout(base_layout(kind, seed))
    planner = MigrationPlanner(PopularityLayoutConfig())
    for earlier in history:
        planner.plan_and_apply(earlier, layout)
    chip_group = MigrationPlanner._chip_groups(plan, POOL_CHIPS)
    pool = MigrationPlanner._build_swap_pool(plan, layout, chip_group)
    expected = reference_swap_pool(plan, layout, chip_group)
    assert pool == expected
    assert all(type(page) is int for victims in pool.values()
               for page in victims)
