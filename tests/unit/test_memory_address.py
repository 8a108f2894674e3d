"""Units for page layouts."""

import random

import numpy as np
import pytest

from repro.errors import LayoutError
from repro.memory.address import (
    InterleavedLayout,
    MutableLayout,
    RandomLayout,
    SequentialLayout,
)


def reference_random_map(num_chips, pages_per_chip, seed):
    """The random layout as a per-page list, shuffled the documented way."""
    chips = [page // pages_per_chip
             for page in range(num_chips * pages_per_chip)]
    random.Random(seed).shuffle(chips)
    return chips


class TestSequential:
    def test_fills_chip_by_chip(self):
        layout = SequentialLayout(num_chips=4, pages_per_chip=8)
        assert layout.chip_of(0) == 0
        assert layout.chip_of(7) == 0
        assert layout.chip_of(8) == 1
        assert layout.chip_of(31) == 3

    def test_out_of_range(self):
        layout = SequentialLayout(num_chips=4, pages_per_chip=8)
        with pytest.raises(LayoutError):
            layout.chip_of(32)
        with pytest.raises(LayoutError):
            layout.chip_of(-1)


class TestInterleaved:
    def test_round_robin(self):
        layout = InterleavedLayout(num_chips=4, pages_per_chip=8)
        assert [layout.chip_of(p) for p in range(6)] == [0, 1, 2, 3, 0, 1]


class TestChipMap:
    @pytest.mark.parametrize("cls", [SequentialLayout, InterleavedLayout])
    @pytest.mark.parametrize("chips, pages", [(4, 8), (3, 5), (32, 4096)])
    def test_static_map_matches_chip_of(self, cls, chips, pages):
        layout = cls(chips, pages)
        chip_map = layout.chip_map()
        assert chip_map.dtype == np.int32
        assert chip_map.tolist() == [layout.chip_of(page)
                                     for page in range(chips * pages)]

    def test_mutable_map_follows_edits_read_only(self):
        layout = MutableLayout(SequentialLayout(4, 8))
        chip_map = layout.chip_map()
        layout.swap(0, 31)
        assert chip_map[0] == 3 and chip_map[31] == 0
        with pytest.raises(ValueError):
            chip_map[0] = 1


class TestRandom:
    def test_deterministic_per_seed(self):
        a = RandomLayout(4, 8, seed=42)
        b = RandomLayout(4, 8, seed=42)
        assert [a.chip_of(p) for p in range(32)] == \
               [b.chip_of(p) for p in range(32)]

    def test_different_seeds_differ(self):
        a = RandomLayout(8, 64, seed=1)
        b = RandomLayout(8, 64, seed=2)
        assert [a.chip_of(p) for p in range(512)] != \
               [b.chip_of(p) for p in range(512)]

    def test_capacity_respected(self):
        layout = RandomLayout(4, 8, seed=0)
        counts = [0] * 4
        for page in range(32):
            counts[layout.chip_of(page)] += 1
        assert counts == [8, 8, 8, 8]

    @pytest.mark.parametrize("seed", [0, 1, 7])
    def test_production_map_matches_shuffle(self, seed):
        layout = RandomLayout(32, 4096, seed=seed)
        expected = reference_random_map(32, 4096, seed)
        assert layout.chip_map().tolist() == expected
        assert [layout.chip_of(page) for page in (0, 4095, 131071)] == \
               [expected[0], expected[4095], expected[131071]]
        assert type(layout.chip_of(5)) is int

    def test_shared_map_is_read_only(self):
        layout = RandomLayout(4, 8, seed=3)
        with pytest.raises(ValueError):
            layout.chip_map()[0] = 1
        assert layout.chip_map().tolist() == reference_random_map(4, 8, 3)

    def test_one_shuffle_per_key(self, monkeypatch):
        calls = []
        shuffle = random.Random.shuffle

        def counting_shuffle(rng, values):
            calls.append(len(values))
            shuffle(rng, values)

        monkeypatch.setattr(random.Random, "shuffle", counting_shuffle)
        # A geometry no other test builds, so the key starts cold.
        layouts = [RandomLayout(5, 7, seed=1411) for _ in range(11)]
        assert calls == [35]
        assert all(layout.chip_map() is layouts[0].chip_map()
                   for layout in layouts)
        RandomLayout(5, 7, seed=1412)
        assert calls == [35, 35]

    @pytest.mark.parametrize("seed", [None, 1.0, "0", np.int64(0)])
    def test_non_int_seed_rejected(self, seed):
        with pytest.raises(LayoutError, match="seed must be an int"):
            RandomLayout(4, 8, seed=seed)


class TestMutable:
    @pytest.fixture
    def layout(self):
        return MutableLayout(SequentialLayout(num_chips=4, pages_per_chip=8))

    def test_starts_full(self, layout):
        assert layout.occupancy(0) == 8
        assert layout.free_frames(0) == 0

    def test_move_updates_occupancy(self):
        # Build a layout with head-room by moving pages off chip 0 first.
        layout = MutableLayout(SequentialLayout(4, 8))
        layout.swap(0, 8)  # page 0 <-> page 8 (chips 0 and 1)
        assert layout.chip_of(0) == 1
        assert layout.chip_of(8) == 0
        assert layout.occupancy(0) == 8  # swaps conserve occupancy

    def test_move_rejects_full_destination(self, layout):
        with pytest.raises(LayoutError):
            layout.move(0, 1)

    def test_move_to_same_chip_is_noop(self, layout):
        assert layout.move(0, 0) == 0
        assert layout.occupancy(0) == 8

    def test_swap_is_capacity_safe(self, layout):
        layout.swap(0, 31)
        assert layout.chip_of(0) == 3
        assert layout.chip_of(31) == 0
        assert all(layout.occupancy(c) == 8 for c in range(4))

    def test_move_out_of_range_chip(self, layout):
        with pytest.raises(LayoutError):
            layout.move(0, 9)

    def test_occupancy_out_of_range(self, layout):
        with pytest.raises(LayoutError):
            layout.occupancy(17)

    def test_answers_are_python_ints(self):
        layout = MutableLayout(RandomLayout(4, 8, seed=5))
        assert [layout.occupancy(chip) for chip in range(4)] == [8] * 4
        assert type(layout.occupancy(0)) is int
        assert type(layout.chip_of(0)) is int
        assert type(layout.move(0, layout.chip_of(0))) is int

    @pytest.mark.parametrize("seed", [0, 7])
    def test_edits_leave_base_and_shared_map_alone(self, seed):
        base = RandomLayout(32, 4096, seed=seed)
        before = base.chip_map().tolist()
        layout = MutableLayout(base)
        for page in (0, 1, 2):
            other = next(p for p in range(layout.total_pages)
                         if layout.chip_of(p) != layout.chip_of(page))
            layout.swap(page, other)
        assert layout.move(3, layout.chip_of(3)) == before[3]
        with pytest.raises(LayoutError):
            layout.move(3, (layout.chip_of(3) + 1) % 32)  # every chip full
        assert layout.chip_map().tolist() != before
        assert base.chip_map().tolist() == before
        assert RandomLayout(32, 4096, seed=seed).chip_map().tolist() == before
