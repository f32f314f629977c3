"""Set-associative cache timing model with LRU replacement.

A :class:`Cache` stores :class:`CacheLine` bookkeeping records, not data.
Lines installed by an in-flight fill carry ``ready_at``: a subsequent
access before the fill arrives observes the remaining fill time rather
than a fresh miss (this is how MSHR merges become visible to the core).

The L2 additionally tags every line with *who brought it* (correct path,
wrong path, or prefetch) and whether a correct-path access ever *touched*
it — the raw material of Figure 11 of the paper (cache pollution study).
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Callable, Iterable

from repro.config import CacheConfig


class CacheLine:
    """Replacement/bookkeeping state of one resident cache line."""

    __slots__ = ("line_addr", "ready_at", "brought_by", "touched", "dirty")

    def __init__(self, line_addr: int, ready_at: int, brought_by: int = 0) -> None:
        self.line_addr = line_addr
        self.ready_at = ready_at
        self.brought_by = brought_by
        self.touched = False
        self.dirty = False


class Cache:
    """One level of cache: geometry from a :class:`CacheConfig`.

    The cache is purely administrative; the surrounding
    :class:`~repro.memory.hierarchy.MemoryHierarchy` sequences lookups,
    fills and the MSHR file.

    Sets are built lazily, because a run touches a small share of a
    large cache's sets.  A set is ``None`` until :meth:`lookup`,
    :meth:`install` or :meth:`contains` first reaches it; building it
    replays the recorded prewarm spans that map to it, in order, with
    the per-line :meth:`install` semantics, so the built set is exactly
    the set an eager prewarm would have left.  A prewarm eviction is
    therefore counted in ``evictions`` (and passed to the eviction
    hook) when its set is built, not when the span is installed.
    """

    def __init__(self, config: CacheConfig, name: str = "cache",
                 evict_hook: Callable[[CacheLine], None] | None = None) -> None:
        self.config = config
        self.name = name
        self.num_sets = config.num_sets
        self.line_bytes = config.line_bytes
        self.assoc = config.assoc
        self._set_mask = self.num_sets - 1
        # Power-of-two line sizes (every shipped geometry) take a
        # mask/shift fast path; ``&``/``>>`` floor exactly like
        # ``%``/``//`` on Python ints, so the two paths are
        # bit-identical for any address.
        if self.line_bytes & (self.line_bytes - 1) == 0:
            self._line_mask: int | None = ~(self.line_bytes - 1)
            self._line_shift = self.line_bytes.bit_length() - 1
        else:
            self._line_mask = None
            self._line_shift = 0
        self._sets: list[OrderedDict[int, CacheLine] | None] = (
            [None] * self.num_sets)
        self._built = 0
        # prewarm spans as (first line index, line count, touched), in
        # install order: what a set not yet built still has to replay
        self._spans: list[tuple[int, int, bool]] = []
        self._evict_hook = evict_hook
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def line_addr(self, addr: int) -> int:
        """Line-aligned address containing ``addr``."""
        if self._line_mask is not None:
            return addr & self._line_mask
        return addr - (addr % self.line_bytes)

    def lookup(self, addr: int, update_lru: bool = True) -> CacheLine | None:
        """Find the resident line containing ``addr``; None on miss.

        Does not count hit/miss statistics — the hierarchy does, because a
        'hit' on a still-filling line is accounted as part of the original
        miss.
        """
        if self._line_mask is not None:
            laddr = addr & self._line_mask
            index = (laddr >> self._line_shift) & self._set_mask
        else:
            line_bytes = self.line_bytes
            laddr = addr - (addr % line_bytes)
            index = (laddr // line_bytes) & self._set_mask
        cset = self._sets[index]
        if cset is None:
            cset = self._build_set(index)
        line = cset.get(laddr)
        if line is not None and update_lru:
            cset.move_to_end(laddr)
        return line

    def install(self, addr: int, ready_at: int, brought_by: int = 0) -> CacheLine:
        """Install the line containing ``addr``, evicting LRU if needed.

        Returns the installed line.  If the line is already resident, its
        LRU position is refreshed and the resident record returned
        unchanged (a fill never downgrades an existing line).
        """
        if self._line_mask is not None:
            laddr = addr & self._line_mask
            index = (laddr >> self._line_shift) & self._set_mask
        else:
            line_bytes = self.line_bytes
            laddr = addr - (addr % line_bytes)
            index = (laddr // line_bytes) & self._set_mask
        cset = self._sets[index]
        if cset is None:
            cset = self._build_set(index)
        existing = cset.get(laddr)
        if existing is not None:
            cset.move_to_end(laddr)
            return existing
        if len(cset) >= self.assoc:
            __, victim = cset.popitem(last=False)
            self.evictions += 1
            if self._evict_hook is not None:
                self._evict_hook(victim)
        line = CacheLine(laddr, ready_at, brought_by)
        cset[laddr] = line
        return line

    def install_span(self, base: int, span: int, touched: bool = False) -> None:
        """Prewarm every line of ``[base, base + span)``: ready at cycle
        0, brought in by no one (``brought_by`` -1).

        Behaves exactly like calling :meth:`install` once per line (and,
        when ``touched``, marking the resulting line touched), except
        that a set not built yet takes the span when it is built.  Sets
        already built take it at once.  A span that continues the
        previous one is merged into it, so line-at-a-time prewarm costs
        a set build no more than one span does.
        """
        line_bytes = self.line_bytes
        # the lines of base, base + line_bytes, ... (base need not be
        # aligned): (base + k * line_bytes) // line_bytes == first + k
        first = base // line_bytes
        count = len(range(base, base + span, line_bytes))
        if not count:
            return
        if self._built:
            sets = self._sets
            set_mask = self._set_mask
            for line_index in range(first, first + count):
                cset = sets[line_index & set_mask]
                if cset is not None:
                    self._replay(cset, (line_index,), touched)
        spans = self._spans
        if spans:
            last_first, last_count, last_touched = spans[-1]
            if last_touched == touched and last_first + last_count == first:
                spans[-1] = (last_first, last_count + count, touched)
                return
        spans.append((first, count, touched))

    def _build_set(self, index: int) -> OrderedDict[int, CacheLine]:
        """Build set ``index`` on its first touch: replay the recorded
        spans' lines that map to it, span by span, in address order."""
        cset: OrderedDict[int, CacheLine] = OrderedDict()
        self._sets[index] = cset
        self._built += 1
        set_mask = self._set_mask
        num_sets = self.num_sets
        for first, count, touched in self._spans:
            start = first + ((index - first) & set_mask)
            end = first + count
            if start < end:
                self._replay(cset, range(start, end, num_sets), touched)
        return cset

    def _replay(self, cset: OrderedDict[int, CacheLine],
                line_indices: Iterable[int], touched: bool) -> None:
        """:meth:`install` the prewarm lines ``line_indices``, all of
        set ``cset``, in order."""
        line_bytes = self.line_bytes
        for line_index in line_indices:
            laddr = line_index * line_bytes
            existing = cset.get(laddr)
            if existing is not None:
                cset.move_to_end(laddr)
                if touched:
                    existing.touched = True
                continue
            if len(cset) >= self.assoc:
                __, victim = cset.popitem(last=False)
                self.evictions += 1
                if self._evict_hook is not None:
                    self._evict_hook(victim)
            line = CacheLine(laddr, 0, -1)
            line.touched = touched
            cset[laddr] = line

    def contains(self, addr: int) -> bool:
        """True if the line containing ``addr`` is resident (ignores LRU)."""
        return self.lookup(addr, update_lru=False) is not None

    def resident_lines(self):
        """Iterate over all resident lines, building every set."""
        sets = self._sets
        for index in range(self.num_sets):
            cset = sets[index]
            if cset is None:
                cset = self._build_set(index)
            yield from cset.values()

    def built_lines(self):
        """Iterate over the resident lines of the sets built so far.

        A set never built holds only prewarm lines, so accounting that
        ignores those (Figure 11) can skip it without building it."""
        for cset in self._sets:
            if cset is not None:
                yield from cset.values()

    def invalidate_all(self) -> None:
        """Drop all lines and recorded prewarm spans without firing the
        eviction hook."""
        self._sets = [None] * self.num_sets
        self._built = 0
        self._spans = []

    @property
    def accesses(self) -> int:
        return self.hits + self.misses

    def miss_rate(self) -> float:
        """Demand miss rate observed so far (0.0 if never accessed)."""
        total = self.accesses
        return self.misses / total if total else 0.0
