"""Baer–Chen style stride prefetcher.

Table 1 of the paper: "stride-based, 4K-entry, 4-way table, 16-data
prefetch to L2 cache on miss".  The table is indexed by load PC; each
entry tracks the last address and last stride with a 2-bit confidence
state.  When a load misses and its entry is in the *steady* state, the
prefetcher requests the next ``degree`` lines along the stride into the
L2.

The prefetcher only produces *candidate addresses*; the hierarchy decides
which are already resident/pending and charges DRAM bandwidth for the
rest.
"""

from __future__ import annotations

from collections import OrderedDict, defaultdict

from repro.config import PrefetcherConfig

# 2-bit confidence automaton states (classic Baer–Chen FSM).
_INIT, _TRANSIENT, _STEADY, _NOPRED = range(4)


class _StrideEntry:
    __slots__ = ("tag", "last_addr", "stride", "state")

    def __init__(self, tag: int, last_addr: int) -> None:
        self.tag = tag
        self.last_addr = last_addr
        self.stride = 0
        self.state = _INIT


class StridePrefetcher:
    """PC-indexed stride detection table."""

    def __init__(self, config: PrefetcherConfig, line_bytes: int = 64) -> None:
        self.config = config
        self.line_bytes = line_bytes
        # hot-path mirrors: train() runs once per L1D load access, so
        # the per-call config attribute chains are worth caching
        self._enabled = config.enabled
        self._assoc = config.table_assoc
        self._degree = config.degree
        self.num_sets = max(1, config.table_entries // config.table_assoc)
        #: set index -> that set's entries by pc, in LRU order; a set is
        #: built by the first load that reaches it (a run trains a few
        #: dozen PCs of the table's thousand sets)
        self._sets: defaultdict[int, OrderedDict[int, _StrideEntry]] = (
            defaultdict(OrderedDict))
        self.trained = 0
        self.issued = 0

    def _entry_for(self, pc: int) -> _StrideEntry:
        index = (pc >> 2) % self.num_sets
        cset = self._sets[index]
        entry = cset.get(pc)
        if entry is None:
            if len(cset) >= self._assoc:
                cset.popitem(last=False)
            entry = _StrideEntry(pc, 0)
            cset[pc] = entry
        else:
            cset.move_to_end(pc)
        return entry

    def train(self, pc: int, addr: int, miss: bool) -> list[int]:
        """Observe a load; return prefetch candidate addresses (may be []).

        Called for every L1D load access so strides are learned from the
        full stream; prefetches are only *issued* on a miss, per Table 1.
        """
        if not self._enabled:
            return []
        self.trained += 1
        entry = self._entry_for(pc)
        new_stride = addr - entry.last_addr
        if entry.state == _INIT:
            entry.state = _TRANSIENT if new_stride else _STEADY
            entry.stride = new_stride
        elif new_stride == entry.stride:
            entry.state = _STEADY
        else:
            if entry.state == _STEADY:
                entry.state = _INIT
            else:
                entry.state = _NOPRED if entry.state == _NOPRED else _TRANSIENT
            entry.stride = new_stride
        entry.last_addr = addr

        if not miss or entry.state != _STEADY or entry.stride == 0:
            return []
        # Prefetch the next `degree` *data items* along the stride (Table 1
        # of the paper: "16-data prefetch to L2 cache on miss").  The
        # lookahead is therefore degree * stride bytes — a handful of
        # lines for small strides, which is deliberately NOT enough to
        # hide a 300-cycle memory latency for a fast-moving stream.  That
        # limitation is what leaves MLP on the table for the large window
        # to harvest (libquantum's 247-cycle Table 3 latency).
        candidates = []
        seen = set()
        for k in range(1, self._degree + 1):
            target = addr + k * entry.stride
            if target < 0:
                break
            line = target - (target % self.line_bytes)
            if line not in seen:
                seen.add(line)
                candidates.append(line)
        self.issued += len(candidates)
        return candidates

    def reset(self) -> None:
        self._sets.clear()
        self.trained = 0
        self.issued = 0
