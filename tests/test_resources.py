"""Resizable window resources (paper Figure 3 semantics)."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.config import LEVEL_TABLE
from repro.pipeline import WindowResource, WindowSet


class TestWindowResource:
    def test_validation(self):
        with pytest.raises(ValueError):
            WindowResource("x", capacity=0, max_capacity=4)
        with pytest.raises(ValueError):
            WindowResource("x", capacity=8, max_capacity=4)

    def test_allocate_release(self):
        r = WindowResource("x", 4, 8)
        r.allocate(3)
        assert r.occupancy == 3 and r.free == 1
        r.release(2)
        assert r.occupancy == 1

    def test_overflow_raises(self):
        r = WindowResource("x", 2, 8)
        r.allocate(2)
        with pytest.raises(RuntimeError):
            r.allocate()

    def test_underflow_raises(self):
        r = WindowResource("x", 2, 8)
        with pytest.raises(RuntimeError):
            r.release()

    def test_is_full_is_a_pure_query(self):
        """Observation and recording are split: any number of is_full()
        calls must leave the stall signal untouched."""
        r = WindowResource("x", 1, 8)
        assert not r.is_full()
        r.allocate()
        for __ in range(5):
            assert r.is_full()
        assert r.full_events == 0
        r.note_full()
        assert r.full_events == 1

    def test_release_count_tracked(self):
        r = WindowResource("x", 4, 8)
        r.allocate(3)
        r.release(2)
        assert r.alloc_count == 3
        assert r.release_count == 2
        assert r.alloc_count - r.release_count == r.occupancy

    def test_peak_occupancy(self):
        r = WindowResource("x", 4, 8)
        r.allocate(3)
        r.release(3)
        r.allocate(1)
        assert r.peak_occupancy == 3

    def test_grow(self):
        r = WindowResource("x", 4, 8)
        r.resize(8)
        assert r.capacity == 8
        with pytest.raises(ValueError):
            r.resize(9)

    def test_shrink_requires_vacancy(self):
        r = WindowResource("x", 8, 8)
        r.allocate(6)
        assert not r.can_shrink_to(4)
        with pytest.raises(RuntimeError):
            r.resize(4)
        r.release(3)
        assert r.can_shrink_to(4)
        r.resize(4)
        assert r.capacity == 4


class TestWindowSet:
    def test_level_sizes_applied(self):
        w = WindowSet(LEVEL_TABLE, level=2)
        assert w.iq.capacity == 160
        assert w.rob.capacity == 320
        assert w.lsq.capacity == 160

    def test_physical_max_defaults_to_top(self):
        w = WindowSet(LEVEL_TABLE, level=1)
        assert w.iq.max_capacity == 256
        assert w.rob.max_capacity == 512

    def test_physical_max_override(self):
        w = WindowSet(LEVEL_TABLE, level=1, max_level=1)
        assert w.iq.max_capacity == 64

    def test_resize_to_level(self):
        w = WindowSet(LEVEL_TABLE, level=1)
        w.resize_to(3)
        assert w.iq.capacity == 256
        w.resize_to(1)
        assert w.iq.capacity == 64

    def test_shrink_check_is_joint(self):
        """Figure 5 line 16: ALL three resources must be shrinkable
        simultaneously."""
        w = WindowSet(LEVEL_TABLE, level=2)
        w.rob.allocate(200)     # > level-1 ROB of 128
        assert not w.can_shrink_to(1)
        w.rob.release(100)      # now 100 <= 128
        assert w.can_shrink_to(1)

    def test_has_room(self):
        w = WindowSet(LEVEL_TABLE, level=1)
        assert w.has_room(1, 1, 1)
        w.iq.allocate(64)
        assert not w.has_room(1, 1, 0)

    def test_has_room_never_mutates(self):
        """Querying fullness twice in one cycle must not double-count
        the stall-rate signal the resizing policies consume."""
        w = WindowSet(LEVEL_TABLE, level=1)
        w.iq.allocate(64)
        for __ in range(3):
            assert not w.has_room(1, 1, 0)
        assert w.iq.full_events == 0
        assert w.rob.full_events == 0
        assert w.lsq.full_events == 0

    def test_note_alloc_stall_charges_lacking_resources(self):
        w = WindowSet(LEVEL_TABLE, level=1)
        w.iq.allocate(64)
        w.lsq.allocate(64)
        w.note_alloc_stall(1, 1, 1)
        assert w.iq.full_events == 1
        assert w.lsq.full_events == 1
        assert w.rob.full_events == 0       # the ROB had room
        w.note_alloc_stall(1, 1, 0)         # non-mem op: LSQ not needed
        assert w.iq.full_events == 2
        assert w.lsq.full_events == 1

    def test_try_allocate_refuses_without_side_effects(self):
        w = WindowSet(LEVEL_TABLE, level=1)
        assert w.try_allocate(1)
        assert (w.rob.occupancy, w.iq.occupancy, w.lsq.occupancy) == (1, 1, 1)
        w.lsq.allocate(63)                  # LSQ now full
        assert w.try_allocate(0)            # a non-mem op needs no LSQ entry
        assert not w.try_allocate(1)
        assert (w.rob.occupancy, w.iq.occupancy, w.lsq.occupancy) == (2, 2, 64)
        assert (w.rob.alloc_count, w.iq.alloc_count) == (2, 2)
        assert w.lsq.full_events == 0       # the caller records the stall

    def test_release_frees_rob_plus_named_entries(self):
        w = WindowSet(LEVEL_TABLE, level=1)
        w.try_allocate(1)
        w.try_allocate(1)
        w.release(0, 1)                     # commit: IQ entry went at issue
        assert (w.rob.occupancy, w.iq.occupancy, w.lsq.occupancy) == (1, 2, 1)
        w.release(1, 0)
        assert (w.rob.occupancy, w.iq.occupancy, w.lsq.occupancy) == (0, 1, 1)
        with pytest.raises(RuntimeError, match="ROB: release underflow"):
            w.release(1, 1)


class TestOccupancyInvariant:
    @given(st.lists(st.sampled_from(["alloc", "release", "grow", "shrink"]),
                    min_size=1, max_size=300))
    @settings(max_examples=60, deadline=None)
    def test_never_violates_bounds(self, actions):
        """Property: under any interleaving of legal operations,
        0 <= occupancy <= capacity <= max_capacity."""
        r = WindowResource("x", 4, 16)
        for action in actions:
            if action == "alloc" and r.free > 0:
                r.allocate()
            elif action == "release" and r.occupancy > 0:
                r.release()
            elif action == "grow" and r.capacity < r.max_capacity:
                r.resize(r.capacity + 2 if r.capacity + 2 <= 16 else 16)
            elif action == "shrink" and r.can_shrink_to(max(1, r.capacity - 2)):
                if r.capacity - 2 >= 1:
                    r.resize(r.capacity - 2)
            assert 0 <= r.occupancy <= r.capacity <= r.max_capacity
