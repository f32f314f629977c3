"""Set-associative cache: placement, LRU, pending fills, eviction hook."""

from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from repro.config import CacheConfig
from repro.memory import Cache


def small_cache(assoc=2, sets=4, line=64, hook=None):
    cfg = CacheConfig(size_bytes=assoc * sets * line, assoc=assoc,
                      line_bytes=line, hit_latency=1)
    return Cache(cfg, name="test", evict_hook=hook)


class TestPlacement:
    def test_line_addr(self):
        c = small_cache()
        assert c.line_addr(0) == 0
        assert c.line_addr(63) == 0
        assert c.line_addr(64) == 64
        assert c.line_addr(130) == 128

    def test_miss_then_hit(self):
        c = small_cache()
        assert c.lookup(0x100) is None
        c.install(0x100, ready_at=0)
        line = c.lookup(0x100)
        assert line is not None and line.line_addr == 0x100

    def test_same_line_shares_entry(self):
        c = small_cache()
        c.install(0x100, ready_at=0)
        assert c.lookup(0x100 + 63) is not None

    def test_install_existing_returns_resident(self):
        c = small_cache()
        first = c.install(0x100, ready_at=5)
        second = c.install(0x100, ready_at=99)
        assert first is second
        assert second.ready_at == 5   # fill never downgrades

    def test_contains_does_not_touch_lru(self):
        c = small_cache(assoc=2, sets=1)
        c.install(0x000, ready_at=0)
        c.install(0x040, ready_at=0)
        c.contains(0x000)             # must NOT refresh LRU
        c.install(0x080, ready_at=0)  # evicts true LRU = 0x000
        assert not c.contains(0x000)
        assert c.contains(0x040)


class TestLRU:
    def test_evicts_least_recently_used(self):
        c = small_cache(assoc=2, sets=1)
        c.install(0x000, ready_at=0)
        c.install(0x040, ready_at=0)
        c.lookup(0x000)               # refresh 0x000
        c.install(0x080, ready_at=0)  # evicts 0x040
        assert c.contains(0x000)
        assert not c.contains(0x040)
        assert c.evictions == 1

    def test_eviction_hook_called(self):
        victims = []
        c = small_cache(assoc=1, sets=1, hook=victims.append)
        c.install(0x000, ready_at=0)
        c.install(0x040, ready_at=0)
        assert len(victims) == 1 and victims[0].line_addr == 0x000

    def test_invalidate_all_skips_hook(self):
        victims = []
        c = small_cache(hook=victims.append)
        c.install(0x000, ready_at=0)
        c.install_span(0x040, 3 * 64)   # recorded for sets not built yet
        c.invalidate_all()
        assert not victims
        assert not c.contains(0x000)
        assert not list(c.resident_lines())


class TestStats:
    def test_miss_rate(self):
        c = small_cache()
        assert c.miss_rate() == 0.0
        c.hits, c.misses = 3, 1
        assert c.miss_rate() == 0.25
        assert c.accesses == 4

    def test_resident_lines_iteration(self):
        c = small_cache()
        c.install(0x000, ready_at=0)
        c.install(0x100, ready_at=0)
        assert {l.line_addr for l in c.resident_lines()} == {0x000, 0x100}


class TestLRUProperty:
    @given(st.lists(st.integers(min_value=0, max_value=15), min_size=1,
                    max_size=200))
    @settings(max_examples=50, deadline=None)
    def test_occupancy_never_exceeds_assoc(self, accesses):
        """Property: each set holds at most `assoc` lines, and the most
        recently installed line is always resident."""
        c = small_cache(assoc=2, sets=2)
        for idx in accesses:
            addr = idx * 64
            c.install(addr, ready_at=0)
            assert c.contains(addr)
        per_set = Counter(line.line_addr // 64 % 2
                          for line in c.resident_lines())
        assert all(n <= 2 for n in per_set.values())

    @given(st.lists(st.integers(min_value=0, max_value=7), min_size=3,
                    max_size=100))
    @settings(max_examples=50, deadline=None)
    def test_hit_after_recent_install_within_assoc(self, indices):
        """The last `assoc` distinct lines of a set are always present."""
        assoc, sets = 4, 1
        c = small_cache(assoc=assoc, sets=sets)
        for idx in indices:
            c.install(idx * 64, ready_at=0)
        recent = []
        for idx in reversed(indices):
            if idx not in recent:
                recent.append(idx)
            if len(recent) == assoc:
                break
        for idx in recent:
            assert c.contains(idx * 64)


def _state(line):
    return (line.line_addr, line.ready_at, line.brought_by, line.touched,
            line.dirty)


_ADDR = st.tuples(st.integers(0, 23), st.integers(0, 63))
#: (base as (line index, byte offset) or None to continue the previous
#: span, length in bytes, touched)
_SPAN = st.tuples(st.just("span"), st.none() | _ADDR,
                  st.integers(0, 26 * 64), st.booleans())
_OP = st.one_of(
    _SPAN,
    st.tuples(st.just("install"), _ADDR, st.integers(0, 50),
              st.integers(-1, 2)),
    st.tuples(st.just("lookup"), _ADDR, st.booleans(),
              st.sampled_from((None, "dirty", "touched"))),
    st.tuples(st.just("contains"), _ADDR),
)


class TestInstallSpanContract:
    """``install_span`` behaves exactly like ``install`` once per line.

    The reference cache installs every span line with ``install``.  A
    set of the span cache that is not built yet takes a span when it
    is built, so its prewarm victims reach the hook then: victims are
    compared per set, in order, and, across sets, in order for those
    the hierarchy's hooks act on (dirty or brought in during the run).
    """

    @pytest.mark.parametrize("line", [64, 48])
    @given(prewarm=st.lists(_SPAN, max_size=4),
           ops=st.lists(_OP, max_size=40))
    @settings(max_examples=150, deadline=None)
    def test_matches_per_line_install(self, line, prewarm, ops):
        caches, victims = [], []
        for __ in range(2):
            seen = []
            victims.append(seen)
            caches.append(small_cache(
                assoc=2, sets=4, line=line,
                hook=lambda v, seen=seen: seen.append(_state(v))))
        spanned, reference = caches
        span_end = 0
        observed = [[], []]
        for op in prewarm + ops:
            kind, where = op[0], op[1]
            addr = span_end if where is None else where[0] * line + where[1]
            if kind == "span":
                __, ___, size, touched = op
                span_end = addr + size
                spanned.install_span(addr, size, touched=touched)
                for a in range(addr, addr + size, line):
                    resident = reference.install(a, ready_at=0,
                                                 brought_by=-1)
                    if touched:
                        resident.touched = True
                continue
            for cache, seen in zip(caches, observed):
                if kind == "contains":
                    seen.append(cache.contains(addr))
                    continue
                if kind == "install":
                    found = cache.install(addr, op[2], op[3])
                else:
                    found = cache.lookup(addr, update_lru=op[2])
                    if found is None:
                        cache.misses += 1
                    else:
                        cache.hits += 1
                        if op[3] is not None:
                            setattr(found, op[3], True)
                seen.append(None if found is None else _state(found))
        assert observed[0] == observed[1]
        assert ([_state(l) for l in spanned.resident_lines()]
                == [_state(l) for l in reference.resident_lines()])
        assert (spanned.hits, spanned.misses, spanned.evictions) == (
            reference.hits, reference.misses, reference.evictions)

        def by_set(seen):
            return sorted(seen, key=lambda v: v[0] // line % 4)

        def acted_on(seen):
            return [v for v in seen if v[4] or v[2] >= 0]

        assert by_set(victims[0]) == by_set(victims[1])
        assert acted_on(victims[0]) == acted_on(victims[1])
