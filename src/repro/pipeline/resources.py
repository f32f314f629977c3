"""Resizable FIFO window resources (paper Figure 3).

Each of the ROB, IQ and LSQ is a FIFO structure whose *active region*
spans ``capacity`` physical entries out of ``max_capacity``.  Allocation
claims an entry at the tail, deallocation releases one (in order for the
ROB/LSQ, out of order for the IQ — the occupancy count is what matters
for resizing).

Shrinking from S to S' requires the region [S', S) to be vacant.  With
in-order allocation and mostly-in-order release, the occupied region is a
contiguous window of at most ``occupancy`` entries, so the model uses
``occupancy <= S'`` as the vacancy condition.  This is at most a few
cycles optimistic versus tracking exact physical slot indices (the paper
itself stalls allocation until the region drains, which the controller
also does here via ``stop_alloc``); the approximation is noted in
DESIGN.md §5.
"""

from __future__ import annotations


class WindowResource:
    """Occupancy tracking of one resizable FIFO resource."""

    def __init__(self, name: str, capacity: int, max_capacity: int) -> None:
        if not 0 < capacity <= max_capacity:
            raise ValueError(
                f"{name}: need 0 < capacity <= max_capacity, "
                f"got {capacity}/{max_capacity}")
        self.name = name
        self.capacity = capacity
        self.max_capacity = max_capacity
        self.occupancy = 0
        self.peak_occupancy = 0
        self.alloc_count = 0
        self.release_count = 0
        #: stalled-allocation cycles charged to this resource.  Strictly
        #: a *recording* counter: only :meth:`note_full` bumps it, never
        #: the query methods, so observing fullness any number of times
        #: per cycle cannot skew the stall-rate signal policies derive
        #: from it (see OccupancyPolicy).
        self.full_events = 0

    @property
    def free(self) -> int:
        return self.capacity - self.occupancy

    def is_full(self) -> bool:
        """Pure query: no counters move (see :meth:`note_full`)."""
        return self.occupancy >= self.capacity

    def note_full(self, cycles: int = 1) -> None:
        """Record ``cycles`` allocation-blocked cycles.  Call exactly
        once per cycle (or run of cycles) allocation stalled on it."""
        self.full_events += cycles

    def allocate(self, n: int = 1) -> None:
        occupancy = self.occupancy + n
        if occupancy > self.capacity:
            raise RuntimeError(
                f"{self.name}: allocation overflow "
                f"({self.occupancy}+{n} > {self.capacity})")
        self.occupancy = occupancy
        self.alloc_count += n
        if occupancy > self.peak_occupancy:
            self.peak_occupancy = occupancy

    def release(self, n: int = 1) -> None:
        occupancy = self.occupancy - n
        if occupancy < 0:
            raise RuntimeError(f"{self.name}: release underflow")
        self.occupancy = occupancy
        self.release_count += n

    def can_shrink_to(self, new_capacity: int) -> bool:
        """True if the region beyond ``new_capacity`` is vacant."""
        return self.occupancy <= new_capacity

    def resize(self, new_capacity: int) -> None:
        """Change the active region size (grow or shrink)."""
        if not 0 < new_capacity <= self.max_capacity:
            raise ValueError(
                f"{self.name}: capacity {new_capacity} outside "
                f"1..{self.max_capacity}")
        if new_capacity < self.occupancy:
            raise RuntimeError(
                f"{self.name}: cannot shrink to {new_capacity} with "
                f"{self.occupancy} occupants")
        self.capacity = new_capacity

    def __repr__(self) -> str:
        return (f"<{self.name} {self.occupancy}/{self.capacity} "
                f"(max {self.max_capacity})>")


class WindowSet:
    """The three window resources, resized together by level."""

    def __init__(self, levels, level: int, max_level: int | None = None) -> None:
        """``max_level`` bounds the *physical* provisioning: a fixed-size
        processor only builds its own level's resources, while the dynamic
        model physically provisions the top level (paper Section 5.1)."""
        top = levels[(len(levels) if max_level is None else max_level) - 1]
        cfg = levels[level - 1]
        self.levels = levels
        self.rob = WindowResource("ROB", cfg.rob_entries, top.rob_entries)
        self.iq = WindowResource("IQ", cfg.iq_entries, top.iq_entries)
        self.lsq = WindowResource("LSQ", cfg.lsq_entries, top.lsq_entries)
        #: micro-ops retired so far, kept current by the processor's
        #: commit stage — the commit-throughput input of the feedback
        #: policies (see ContributionPolicy), which receive the WindowSet
        #: every tick but must not reach into processor internals.
        self.committed = 0

    def can_shrink_to(self, level: int) -> bool:
        """True if *all three* resources can shrink simultaneously
        (paper Figure 5, line 16)."""
        cfg = self.levels[level - 1]
        return (self.rob.can_shrink_to(cfg.rob_entries)
                and self.iq.can_shrink_to(cfg.iq_entries)
                and self.lsq.can_shrink_to(cfg.lsq_entries))

    def resize_to(self, level: int) -> None:
        cfg = self.levels[level - 1]
        self.rob.resize(cfg.rob_entries)
        self.iq.resize(cfg.iq_entries)
        self.lsq.resize(cfg.lsq_entries)

    def has_room(self, need_rob: int, need_iq: int, need_lsq: int) -> bool:
        """Pure query: whether all three resources can take the request.

        Deliberately mutates nothing — observation and recording are
        split so any number of callers per cycle (dispatch, policies,
        the sanitizer) see the same answer without corrupting the
        ``full_events`` stall signal.  The dispatch stage calls
        :meth:`note_alloc_stall` once per cycle it actually stalls.
        """
        # hot path: read occupancy/capacity directly rather than through
        # the `free` property (a function call per resource per cycle)
        rob = self.rob
        iq = self.iq
        lsq = self.lsq
        return (rob.capacity - rob.occupancy >= need_rob
                and iq.capacity - iq.occupancy >= need_iq
                and lsq.capacity - lsq.occupancy >= need_lsq)

    def try_allocate(self, lsq: int) -> bool:
        """Claim one op's entries — one ROB and one IQ entry plus ``lsq``
        (0 or 1) LSQ entries — if all three resources have room; else
        return False and change nothing (the caller records the stall
        with :meth:`note_alloc_stall`).  Dispatch's one call per op."""
        if not self.has_room(1, 1, lsq):
            return False
        self.rob.allocate()
        self.iq.allocate()
        if lsq:
            self.lsq.allocate()
        return True

    def release(self, iq: int, lsq: int) -> None:
        """Free one op's ROB entry plus ``iq`` and ``lsq`` (0 or 1 each)
        IQ and LSQ entries: the one call per op of commit (``iq=0``, the
        IQ entry went at issue) and squash."""
        self.rob.release()
        if iq:
            self.iq.release()
        if lsq:
            self.lsq.release()

    def note_alloc_stall(self, need_rob: int, need_iq: int,
                         need_lsq: int, cycles: int = 1) -> None:
        """Record ``cycles`` stalled-allocation cycles against every
        resource that lacked room for the request.  The caller must
        invoke this at most once per stalled cycle (or frozen run of
        them, like an idle jump), so ``full_events`` stays equal to the
        number of cycles the resource blocked allocation."""
        rob = self.rob
        if rob.capacity - rob.occupancy < need_rob:
            rob.note_full(cycles)
        iq = self.iq
        if iq.capacity - iq.occupancy < need_iq:
            iq.note_full(cycles)
        lsq = self.lsq
        if lsq.capacity - lsq.occupancy < need_lsq:
            lsq.note_full(cycles)
