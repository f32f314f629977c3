"""The full memory hierarchy: L1I + L1D + unified L2 + main memory.

This is the component the pipeline talks to.  Loads, stores and
instruction fetches enter here with the cycle at which the access starts;
the hierarchy walks the levels, consults MSHRs, schedules DRAM transfers,
triggers the stride prefetcher and reports back the completion cycle.

Two observation hooks matter for the paper:

* ``l2_miss_listener`` fires once per demand L2 (LLC) miss — this is the
  signal that drives the MLP-aware resizing controller (paper Figure 5,
  line 7) and the miss-interval histogram of Figure 4.
* every L2 line records who brought it in (correct path / wrong path /
  prefetch) and whether a correct-path access later touched it, feeding
  the cache-pollution breakdown of Figure 11.
"""

from __future__ import annotations

from enum import IntEnum
from typing import Callable

from repro.config import ProcessorConfig
from repro.memory.cache import Cache, CacheLine
from repro.memory.dram import MainMemory
from repro.memory.mshr import MSHRFile
from repro.memory.prefetchers import make_prefetcher


class AccessPath(IntEnum):
    """Who performed (or caused) a memory access."""

    CORRECT = 0
    WRONG = 1
    PREFETCH = 2


class AccessResult:
    """Outcome of one data access."""

    __slots__ = ("complete_cycle", "l1_hit", "l2_hit", "l2_miss")

    def __init__(self, complete_cycle: int, l1_hit: bool, l2_hit: bool,
                 l2_miss: bool) -> None:
        self.complete_cycle = complete_cycle
        self.l1_hit = l1_hit
        self.l2_hit = l2_hit
        self.l2_miss = l2_miss

    def __repr__(self) -> str:
        kind = "L1" if self.l1_hit else ("L2" if self.l2_hit else "MEM")
        return f"<AccessResult {kind} done@{self.complete_cycle}>"


class LineUsageStats:
    """Counts of L2 lines brought in, by source and usefulness (Fig 11)."""

    __slots__ = ("useful", "useless")

    def __init__(self) -> None:
        self.useful = [0, 0, 0]   # indexed by AccessPath
        self.useless = [0, 0, 0]

    def record(self, line: CacheLine) -> None:
        if line.brought_by < 0:
            return   # prewarmed line: not "brought in" during the run
        bucket = self.useful if line.touched else self.useless
        bucket[line.brought_by] += 1

    def total(self) -> int:
        return sum(self.useful) + sum(self.useless)

    def as_dict(self) -> dict[str, int]:
        names = ("corrpath", "wrongpath", "prefetch")
        out: dict[str, int] = {}
        for idx, name in enumerate(names):
            out[f"{name}_useful"] = self.useful[idx]
            out[f"{name}_useless"] = self.useless[idx]
        return out


class MemoryHierarchy:
    """Cache/memory system of Table 1 of the paper."""

    def __init__(self, config: ProcessorConfig,
                 shared_l2: Cache | None = None,
                 shared_l2_mshr: MSHRFile | None = None,
                 shared_memory=None) -> None:
        """Private L1s always; pass ``shared_l2``/``shared_l2_mshr``/
        ``shared_memory`` to build one core of a multi-core system with a
        shared LLC and channel (see :mod:`repro.multicore`)."""
        self.config = config
        self._line_usage = LineUsageStats()
        # which structures this facade owns (vs. shares with other
        # cores): reset_measurement only touches owned counters
        self._owns_l2 = shared_l2 is None
        self._owns_memory = shared_memory is None
        self.l1i = Cache(config.l1i, name="L1I")
        self.l1d = Cache(config.l1d, name="L1D",
                         evict_hook=self._on_l1d_evict)
        if shared_l2 is not None:
            self.l2 = shared_l2
        else:
            self.l2 = Cache(config.l2, name="L2",
                            evict_hook=self._on_l2_evict)
        self._writebacks_enabled = config.memory.model_writebacks
        self._now_hint = 0
        self.l2_writebacks = 0
        self.l1d_mshr = MSHRFile(config.l1d.mshr_entries, name="L1D-MSHR")
        self.l2_mshr = shared_l2_mshr or MSHRFile(config.l2.mshr_entries,
                                                  name="L2-MSHR")
        if shared_memory is not None:
            self.memory = shared_memory
        elif config.memory.organisation == "banked":
            from repro.memory.dram_banked import BankedMemory
            self.memory = BankedMemory(config.memory,
                                       line_bytes=config.l2.line_bytes)
        elif config.memory.organisation == "flat":
            self.memory = MainMemory(config.memory,
                                     line_bytes=config.l2.line_bytes)
        else:
            raise ValueError(
                f"unknown memory organisation "
                f"{config.memory.organisation!r}; known: flat, banked")
        self.prefetcher = make_prefetcher(
            config.prefetcher, line_bytes=config.l2.line_bytes)
        self.l2_miss_listeners: list[Callable[[int], None]] = []
        self.demand_l2_misses = 0
        self.prefetch_fills = 0
        self.load_latency_sum = 0
        self.load_count = 0
        # hit latencies, hoisted out of the per-access paths
        self._l1d_lat = config.l1d.hit_latency
        self._l1i_lat = config.l1i.hit_latency
        self._l2_lat = config.l2.hit_latency

    # ------------------------------------------------------------------
    # eviction handling

    def _on_l1d_evict(self, line: CacheLine) -> None:
        """A dirty L1D victim writes back into the L2 (no extra timing:
        the L2 write port absorbs it)."""
        if line.dirty:
            resident = self.l2.lookup(line.line_addr, update_lru=False)
            if resident is not None:
                resident.dirty = True

    def _on_l2_evict(self, line: CacheLine) -> None:
        """A dirty L2 victim occupies the memory channel for one line
        transfer (when writeback modelling is enabled)."""
        self._line_usage.record(line)
        if self._writebacks_enabled and line.dirty:
            self.l2_writebacks += 1
            self.memory.schedule(self._now_hint, line.line_addr)

    # ------------------------------------------------------------------
    # observation hooks

    def add_l2_miss_listener(self, listener: Callable[[int], None]) -> None:
        """Register a callback fired at each demand L2 miss detection."""
        self.l2_miss_listeners.append(listener)

    def _notify_l2_miss(self, cycle: int) -> None:
        self.demand_l2_misses += 1
        for listener in self.l2_miss_listeners:
            listener(cycle)

    # ------------------------------------------------------------------
    # data-side access

    def load(self, addr: int, cycle: int, pc: int,
             path: AccessPath = AccessPath.CORRECT) -> AccessResult:
        """A load starting its L1D access at ``cycle``."""
        result = self._data_access(addr, cycle, path, is_write=False)
        candidates = self.prefetcher.train(pc, addr, miss=not result.l1_hit)
        if candidates:
            self._issue_prefetches(candidates, cycle)
        if path is AccessPath.CORRECT:
            self.load_count += 1
            self.load_latency_sum += result.complete_cycle - cycle
        return result

    def store(self, addr: int, cycle: int,
              path: AccessPath = AccessPath.CORRECT) -> AccessResult:
        """A committed store retiring to the L1D (write-allocate)."""
        return self._data_access(addr, cycle, path, is_write=True)

    def _data_access(self, addr: int, cycle: int, path: AccessPath,
                     is_write: bool) -> AccessResult:
        if cycle > self._now_hint:
            self._now_hint = cycle
        l1_lat = self._l1d_lat
        l1d = self.l1d
        line = l1d.lookup(addr)
        if line is not None:
            if is_write:
                line.dirty = True
            self._touch_l2(addr, path)
            if line.ready_at <= cycle:
                l1d.hits += 1
                return AccessResult(cycle + l1_lat, True, False, False)
            # Line still being filled: merge into the outstanding miss.
            l1d.misses += 1
            return AccessResult(max(line.ready_at, cycle + l1_lat),
                                False, False, False)
        l1d.misses += 1
        mshr = self.l1d_mshr
        line_addr = l1d.line_addr(addr)
        pending = mshr.lookup(line_addr)
        if pending is not None and pending > cycle:
            done = mshr.merge(line_addr)
            self._touch_l2(addr, path)
            return AccessResult(max(done, cycle + l1_lat), False, False, False)
        wait = mshr.allocate_delay(cycle)
        l2_start = cycle + wait + l1_lat
        l2_done, l2_hit, l2_line_addr = self._l2_access(addr, l2_start, path)
        mshr.allocate(line_addr, l2_done, cycle=cycle + wait)
        filled = l1d.install(addr, l2_done)
        filled.dirty = is_write
        return AccessResult(l2_done, False, l2_hit, not l2_hit)

    def ifetch(self, pc: int, cycle: int) -> int:
        """Instruction fetch of the line containing ``pc``.

        Returns the completion cycle.  L1I misses go to the unified L2.
        """
        if cycle > self._now_hint:
            self._now_hint = cycle
        l1_lat = self._l1i_lat
        line = self.l1i.lookup(pc)
        if line is not None:
            if line.ready_at <= cycle:
                self.l1i.hits += 1
                return cycle + l1_lat
            self.l1i.misses += 1
            return max(line.ready_at, cycle + l1_lat)
        self.l1i.misses += 1
        done, __, ___ = self._l2_access(pc, cycle + l1_lat, AccessPath.CORRECT)
        self.l1i.install(pc, done)
        return done

    # ------------------------------------------------------------------
    # L2 / memory internals

    def _touch_l2(self, addr: int, path: AccessPath) -> None:
        """Mark the L2 copy of a correct-path L1D hit touched (Fig 11).

        An L2 set not built yet is left alone, unbuilt.  It holds only
        clean prewarm lines: :meth:`LineUsageStats.record` skips their
        ``brought_by`` of -1, so their ``touched`` flag is never read,
        and a later build replays the same spans into the same LRU
        order this lookup (which leaves LRU as it is) would have seen.
        """
        if path is not AccessPath.CORRECT:
            return
        line = self.l2.peek(addr)
        if line is not None:
            line.touched = True

    def _l2_access(self, addr: int, cycle: int,
                   path: AccessPath) -> tuple[int, bool, int]:
        """Access the L2 at ``cycle``; returns (done, l2_hit, line_addr)."""
        l2_lat = self._l2_lat
        line_addr = self.l2.line_addr(addr)
        line = self.l2.lookup(addr)
        if line is not None:
            if path is AccessPath.CORRECT:
                line.touched = True
            if line.ready_at <= cycle:
                self.l2.hits += 1
                return cycle + l2_lat, True, line_addr
            self.l2.misses += 1
            return max(line.ready_at, cycle + l2_lat), False, line_addr
        self.l2.misses += 1
        pending = self.l2_mshr.lookup(line_addr)
        if pending is not None and pending > cycle:
            done = self.l2_mshr.merge(line_addr)
            return max(done, cycle + l2_lat), False, line_addr
        self._notify_l2_miss(cycle + l2_lat)
        wait = self.l2_mshr.allocate_delay(cycle)
        done = self.memory.schedule(cycle + wait + l2_lat, line_addr)
        self.l2_mshr.allocate(line_addr, done, cycle=cycle + wait)
        filled = self.l2.install(addr, done, brought_by=int(path))
        if path is AccessPath.CORRECT:
            filled.touched = True
        return done, False, line_addr

    #: speculative fills (prefetch, runahead) are dropped rather than
    #: queued once the channel backlog exceeds this many cycles.
    SPECULATIVE_QUEUE_LIMIT = 96

    def mshr_room(self, cycle: int) -> bool:
        """Whether the L1D miss buffers can take a new fill right now.

        A pure observation (``full_stalls`` does not move): runahead
        polls this to gate speculative fills, and a query must not skew
        the demand-side stall statistics."""
        return self.l1d_mshr.has_room(cycle)

    def _issue_prefetches(self, candidates: list[int], cycle: int) -> None:
        """Bring prefetch candidate lines into the L2.

        Prefetches are best-effort: like fills beyond the speculative
        queue limit, they are dropped — never queued — when the L2 miss
        buffers are full, so they cannot overflow the MSHR file the way
        the unguarded allocation historically could."""
        if self.memory.queue_delay(cycle) > self.SPECULATIVE_QUEUE_LIMIT:
            return
        for line_addr in candidates:
            if self.l2.contains(line_addr):
                continue
            if self.l2_mshr.lookup(line_addr) is not None:
                continue
            if not self.l2_mshr.can_reserve(cycle):
                # no free entry (counting queued demand claims): drop the
                # prefetch rather than overflow or steal a promised slot
                break
            done = self.memory.schedule(cycle + self.config.l2.hit_latency,
                                        line_addr)
            self.l2_mshr.allocate(line_addr, done, cycle=cycle)
            self.l2.install(line_addr, done, brought_by=int(AccessPath.PREFETCH))
            self.prefetch_fills += 1

    # ------------------------------------------------------------------
    # measurement boundary

    def reset_measurement(self) -> None:
        """Zero the per-measurement counters at the warmup boundary.

        Only counters of structures this facade *owns* are touched.  In
        a multi-core system the L2 and the memory channel are shared
        between N facades; resetting them here would zero the shared
        counters once per core (harmless for plain zeroing, but wrong
        the moment any system-level reset anchors derived state, and
        misleading in any case).  :meth:`repro.multicore.MultiCoreSystem.
        reset_measurement` resets the shared structures exactly once.
        """
        self.load_latency_sum = 0
        self.load_count = 0
        self.demand_l2_misses = 0
        caches = [self.l1i, self.l1d]
        if self._owns_l2:
            caches.append(self.l2)
        for cache in caches:
            cache.hits = 0
            cache.misses = 0
            cache.evictions = 0
        if self._owns_memory:
            self.memory.requests = 0
            self.memory.busy_cycles = 0

    # ------------------------------------------------------------------
    # end-of-run statistics

    def average_load_latency(self) -> float:
        """Average correct-path load latency in cycles (Table 3 metric)."""
        if not self.load_count:
            return 0.0
        return self.load_latency_sum / self.load_count

    def line_usage(self) -> LineUsageStats:
        """Finalised Fig 11 accounting: evicted lines plus resident ones.

        L2 sets never built are skipped: they hold only prewarm lines,
        which the accounting ignores."""
        final = LineUsageStats()
        final.useful = list(self._line_usage.useful)
        final.useless = list(self._line_usage.useless)
        for line in self.l2.built_lines():
            final.record(line)
        return final
