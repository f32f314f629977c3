"""The MLP-aware resizing policy — a line-by-line check of paper Fig 5,
plus the level-transition scenario of paper Fig 6."""

import pytest

from repro.config import LEVEL_TABLE
from repro.core import MLPAwarePolicy
from repro.pipeline import WindowSet

MEM_LAT = 300


@pytest.fixture
def policy():
    return MLPAwarePolicy(max_level=3, memory_latency=MEM_LAT)


@pytest.fixture
def window():
    return WindowSet(LEVEL_TABLE, level=1)


def tick_through(policy, window, start, end):
    """Tick every cycle in [start, end); applies level changes."""
    decisions = []
    for cycle in range(start, end):
        d = policy.tick(cycle, window)
        if d.new_level is not None:
            window.resize_to(d.new_level)
            decisions.append((cycle, d.new_level))
    return decisions


class TestEnlarge:
    def test_miss_enlarges_one_level(self, policy, window):
        policy.on_l2_miss(10)
        d = policy.tick(10, window)
        assert d.new_level == 2
        assert policy.level == 2

    def test_saturates_at_max(self, policy, window):
        for cycle in (10, 20, 30, 40):
            policy.on_l2_miss(cycle)
            d = policy.tick(cycle, window)
            if d.new_level:
                window.resize_to(d.new_level)
        assert policy.level == 3

    def test_same_cycle_misses_coalesce(self, policy, window):
        policy.on_l2_miss(10)
        policy.on_l2_miss(10)
        d = policy.tick(10, window)
        assert d.new_level == 2
        assert policy.tick(11, window).new_level is None

    def test_miss_at_max_rearms_timer(self, policy, window):
        """Fig 5 lines 8-10 run on every miss, even at max level."""
        for cycle in (0, 1, 2):
            policy.on_l2_miss(cycle)
            d = policy.tick(cycle, window)
            if d.new_level:
                window.resize_to(d.new_level)
        policy.on_l2_miss(100)
        policy.tick(100, window)
        assert policy.shrink_timing == 100 + MEM_LAT


class TestShrink:
    def _grow_to(self, policy, window, level):
        for cycle in range(level - 1):
            policy.on_l2_miss(cycle)
            d = policy.tick(cycle, window)
            window.resize_to(d.new_level)

    def test_shrinks_after_memory_latency(self, policy, window):
        self._grow_to(policy, window, 2)
        changes = tick_through(policy, window, 1, MEM_LAT + 10)
        assert changes == [(MEM_LAT, 1)]

    def test_shrink_timer_reset_by_new_miss(self, policy, window):
        self._grow_to(policy, window, 2)
        assert tick_through(policy, window, 1, 200) == []
        policy.on_l2_miss(200)
        policy.tick(200, window)            # re-arm (level stays 2->3)
        window.resize_to(policy.level)
        changes = tick_through(policy, window, 201, 200 + MEM_LAT + 5)
        assert changes and changes[0][0] == 200 + MEM_LAT

    def test_shrink_postponed_until_vacant(self, policy, window):
        """Fig 5 lines 16-22: shrinking waits (stalling allocation)
        until the regions to be removed are vacant."""
        self._grow_to(policy, window, 2)
        window.rob.allocate(200)            # too full for level 1 (128)
        d = policy.tick(MEM_LAT, window)
        assert d.new_level is None
        assert d.stop_alloc                  # stop_alloc() called
        # drain below the level-1 size: shrink proceeds
        window.rob.release(150)
        d = policy.tick(MEM_LAT + 1, window)
        assert d.new_level == 1

    def test_never_shrinks_below_one(self, policy, window):
        changes = tick_through(policy, window, 0, 2 * MEM_LAT)
        assert changes == []
        assert policy.level == 1

    def test_consecutive_shrinks_spaced_by_latency(self, policy, window):
        self._grow_to(policy, window, 3)
        changes = tick_through(policy, window, 2, 3 + 3 * MEM_LAT)
        assert [lvl for __, lvl in changes] == [2, 1]
        assert changes[1][0] - changes[0][0] == MEM_LAT


class TestFig6Scenario:
    def test_level_trace(self, policy, window):
        """The Figure 6 walkthrough: three misses (t0, t1, t2) ramp the
        level to the max; after the last miss plus one memory latency the
        level steps back down one per latency."""
        events = {5: "miss", 40: "miss", 90: "miss"}
        trace = {}
        for cycle in range(0, 90 + 3 * MEM_LAT):
            if events.get(cycle) == "miss":
                policy.on_l2_miss(cycle)
            d = policy.tick(cycle, window)
            if d.new_level is not None:
                window.resize_to(d.new_level)
            trace[cycle] = policy.level
        assert trace[5] == 2
        assert trace[40] == 3
        assert trace[90] == 3                       # saturated
        assert trace[90 + MEM_LAT - 1] == 3
        assert trace[90 + MEM_LAT] == 2             # t4: first shrink
        assert trace[90 + 2 * MEM_LAT] == 1         # t6: second shrink


class TestTimers:
    def test_next_timer_exposes_shrink_timing(self, policy, window):
        policy.on_l2_miss(10)
        policy.tick(10, window)
        window.resize_to(policy.level)
        assert policy.next_timer() == 10 + MEM_LAT

    def test_next_timer_none_when_idle(self, policy):
        assert policy.next_timer() is None

    def test_pending_miss_is_a_timer(self, policy):
        policy.on_l2_miss(50)
        assert policy.next_timer() == 50


class TestValidation:
    def test_bad_args(self):
        with pytest.raises(ValueError):
            MLPAwarePolicy(max_level=0, memory_latency=100)
        with pytest.raises(ValueError):
            MLPAwarePolicy(max_level=3, memory_latency=0)

    def test_custom_shrink_latency(self, window):
        p = MLPAwarePolicy(max_level=3, memory_latency=300,
                           shrink_latency=50)
        p.on_l2_miss(0)
        p.tick(0, window)
        window.resize_to(p.level)
        changes = tick_through(p, window, 1, 100)
        assert changes == [(50, 1)]


class TestPendingMissQueue:
    """Distinct-cycle misses each count; same-cycle misses coalesce —
    including when notifications arrive out of order."""

    def test_two_distinct_cycles_two_levels(self, policy, window):
        policy.on_l2_miss(10)
        policy.on_l2_miss(11)
        d = policy.tick(11, window)
        assert d.new_level == 3          # both processed by cycle 11
        window.resize_to(3)

    def test_out_of_order_notifications(self, policy, window):
        policy.on_l2_miss(20)
        policy.on_l2_miss(10)            # late notification, earlier cycle
        assert policy.next_timer() == 10
        d = policy.tick(20, window)
        assert d.new_level == 3

    def test_duplicate_cycle_not_double_counted(self, policy, window):
        policy.on_l2_miss(20)
        policy.on_l2_miss(10)
        policy.on_l2_miss(10)
        d = policy.tick(25, window)
        assert d.new_level == 3          # 2 distinct cycles, not 3

    def test_duplicate_in_the_middle_not_double_counted(self, policy):
        policy.on_l2_miss(10)
        policy.on_l2_miss(30)
        policy.on_l2_miss(20)
        policy.on_l2_miss(20)            # duplicate of a middle entry
        assert list(policy._pending_misses) == [10, 20, 30]

    def test_insertion_matches_sorted_unique_reference(self, policy):
        """The O(k) tail-splice insertion must leave exactly the queue
        the old sort-the-whole-deque code produced: ascending, no
        duplicates — for arbitrary notification orders."""
        import random
        rng = random.Random(42)
        seen = []
        for _ in range(500):
            cycle = rng.randrange(64)
            policy.on_l2_miss(cycle)
            seen.append(cycle)
            assert list(policy._pending_misses) == sorted(set(seen))

    def test_future_miss_not_processed_early(self, policy, window):
        policy.on_l2_miss(100)
        assert policy.tick(50, window).new_level is None
        assert policy.tick(100, window).new_level == 2

    def test_enlarge_counter_counts_levels(self, policy, window):
        policy.on_l2_miss(10)
        policy.on_l2_miss(11)
        policy.tick(11, window)
        assert policy.enlarges == 2
