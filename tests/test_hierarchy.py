"""Memory hierarchy: level walk, latencies, MSHR merging, Fig 11 hooks."""

import pytest

from repro.config import base_config
from repro.memory import AccessPath, MemoryHierarchy


@pytest.fixture
def mem():
    return MemoryHierarchy(base_config())


class TestLoadPath:
    def test_l1_hit_latency(self, mem):
        mem.l1d.install(0x1000, ready_at=0)
        res = mem.load(0x1000, cycle=100, pc=0x400)
        assert res.l1_hit
        assert res.complete_cycle == 102    # 2-cycle L1D

    def test_l2_hit_latency(self, mem):
        mem.l2.install(0x1000, ready_at=0)
        res = mem.load(0x1000, cycle=100, pc=0x400)
        assert not res.l1_hit and res.l2_hit
        assert res.complete_cycle == 114    # 2 (L1) + 12 (L2)

    def test_memory_latency(self, mem):
        res = mem.load(0x1000, cycle=100, pc=0x400)
        assert res.l2_miss
        assert res.complete_cycle == 100 + 2 + 12 + 300

    def test_miss_fills_both_levels(self, mem):
        mem.load(0x1000, cycle=0, pc=0x400)
        assert mem.l1d.contains(0x1000)
        assert mem.l2.contains(0x1000)

    def test_pending_fill_merges(self, mem):
        first = mem.load(0x1000, cycle=0, pc=0x400)
        again = mem.load(0x1008, cycle=10, pc=0x404)   # same L1 line
        assert not again.l1_hit
        assert again.complete_cycle == first.complete_cycle
        assert not again.l2_miss    # merged, no second DRAM request

    def test_mshr_merge_distinct_l1_lines_same_l2_line(self, mem):
        first = mem.load(0x1000, cycle=0, pc=0x400)
        other = mem.load(0x1020, cycle=1, pc=0x404)    # same 64B L2 line
        assert other.complete_cycle >= first.complete_cycle
        assert mem.memory.requests == 1

    def test_parallel_misses_overlap(self, mem):
        a = mem.load(0x10000, cycle=0, pc=0x400)
        b = mem.load(0x20000, cycle=0, pc=0x404)
        assert abs(b.complete_cycle - a.complete_cycle) <= \
            mem.memory.transfer_cycles


class TestL2MissListener:
    def test_listener_fires_on_demand_miss(self, mem):
        events = []
        mem.add_l2_miss_listener(events.append)
        mem.load(0x1000, cycle=0, pc=0x400)
        assert len(events) == 1
        assert events[0] == 0 + 2 + 12    # detection at L2 lookup time

    def test_no_event_on_hit(self, mem):
        events = []
        mem.add_l2_miss_listener(events.append)
        mem.l2.install(0x1000, ready_at=0)
        mem.load(0x1000, cycle=0, pc=0x400)
        assert not events

    def test_merged_miss_fires_once(self, mem):
        events = []
        mem.add_l2_miss_listener(events.append)
        mem.load(0x1000, cycle=0, pc=0x400)
        mem.load(0x1008, cycle=1, pc=0x404)
        assert len(events) == 1


class TestStoresAndIfetch:
    def test_store_write_allocates(self, mem):
        mem.store(0x1000, cycle=0)
        assert mem.l1d.contains(0x1000)

    def test_store_marks_dirty(self, mem):
        mem.l1d.install(0x1000, ready_at=0)
        mem.store(0x1000, cycle=5)
        assert mem.l1d.lookup(0x1000, update_lru=False).dirty

    def test_ifetch_hit(self, mem):
        mem.l1i.install(0x400, ready_at=0)
        assert mem.ifetch(0x400, cycle=10) == 11   # 1-cycle L1I

    def test_ifetch_miss_goes_to_l2(self, mem):
        done = mem.ifetch(0x400, cycle=0)
        assert done >= 300
        assert mem.l1i.contains(0x400)
        assert mem.l2.contains(0x400)


class TestLoadLatencyMeter:
    def test_average_load_latency(self, mem):
        mem.l1d.install(0x1000, ready_at=0)
        mem.load(0x1000, cycle=0, pc=0x400)            # 2 cycles
        mem.load(0x90000, cycle=0, pc=0x404)           # 314 cycles
        assert mem.average_load_latency() == pytest.approx((2 + 314) / 2)

    def test_wrong_path_loads_excluded(self, mem):
        mem.load(0x90000, cycle=0, pc=0x400, path=AccessPath.WRONG)
        assert mem.load_count == 0


class TestLineUsage:
    def test_wrong_path_untouched_is_useless(self, mem):
        mem.load(0x90000, cycle=0, pc=0x400, path=AccessPath.WRONG)
        usage = mem.line_usage().as_dict()
        assert usage["wrongpath_useless"] == 1
        assert usage["wrongpath_useful"] == 0

    def test_wrong_path_then_correct_touch_is_useful(self, mem):
        mem.load(0x90000, cycle=0, pc=0x400, path=AccessPath.WRONG)
        mem.load(0x90000, cycle=500, pc=0x404, path=AccessPath.CORRECT)
        usage = mem.line_usage().as_dict()
        assert usage["wrongpath_useful"] == 1

    def test_correct_path_counts(self, mem):
        mem.load(0x90000, cycle=0, pc=0x400)
        usage = mem.line_usage().as_dict()
        assert usage["corrpath_useful"] == 1

    def test_prefetch_classification(self, mem):
        # steady stride then a miss triggers prefetches into the L2
        for i in range(4):
            mem.load(0x50000 + i * 64, cycle=i * 400, pc=0x400)
        usage = mem.line_usage().as_dict()
        assert usage["prefetch_useful"] + usage["prefetch_useless"] > 0
        assert mem.prefetch_fills > 0

    def test_prefetched_line_becomes_useful_when_touched(self, mem):
        for i in range(4):
            mem.load(0x50000 + i * 64, cycle=i * 400, pc=0x400)
        before = mem.line_usage().as_dict()["prefetch_useful"]
        mem.load(0x50000 + 4 * 64, cycle=5_000, pc=0x404)
        after = mem.line_usage().as_dict()["prefetch_useful"]
        assert after >= before


class TestTouchOnUnbuiltL2Set:
    """A correct-path L1D hit leaves an unbuilt L2 set unbuilt: such a
    set holds only prewarm lines, which the Figure 11 accounting skips."""

    LINE = 0x100040     # inside both prewarmed regions below

    @staticmethod
    def _prewarmed():
        mem = MemoryHierarchy(base_config())
        mem.l2.install_span(0x100000, 0x10000)
        mem.l1d.install_span(0x100000, 0x1000)
        return mem

    @staticmethod
    def _l2_picture(mem):
        # the lines of every built set, set by set in LRU order;
        # ``touched`` is left out: on a prewarm line nothing reads it
        return [(line.line_addr, line.ready_at, line.brought_by, line.dirty)
                for line in mem.l2.built_lines()]

    def test_l1d_hit_builds_no_l2_set(self):
        mem = self._prewarmed()
        ref = self._prewarmed()
        ref.l2.lookup(self.LINE, update_lru=False)   # built first
        for hierarchy in (mem, ref):
            assert hierarchy.load(self.LINE, cycle=100, pc=0x400).l1_hit
        assert list(mem.l2.built_lines()) == []
        # demand traffic elsewhere, so the accounting is not all zeros
        for hierarchy in (mem, ref):
            hierarchy.load(0x900000, cycle=200, pc=0x404)
            hierarchy.load(0x940000, cycle=200, pc=0x408,
                           path=AccessPath.WRONG)
        assert mem.line_usage().as_dict() == ref.line_usage().as_dict()
        assert mem.line_usage().total() == 2
        # a later build replays the same spans into the same LRU order
        mem.l2.lookup(self.LINE, update_lru=False)
        assert self._l2_picture(mem) == self._l2_picture(ref)
