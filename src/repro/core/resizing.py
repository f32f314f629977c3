"""MLP-aware dynamic instruction window resizing (paper Figure 5).

The policy predicts that once an L2 cache miss occurs, more misses will
follow shortly (misses cluster in time — paper Figure 4), so MLP is
exploitable and the window should grow; once a full memory latency passes
without a miss, the cluster is over, ILP matters more, and the window
should shrink.

The pseudo-code from the paper, reproduced for reference::

    foreach cycle {
      if (L2_miss) {
        level = min(level + 1, max_level);          // enlarge
        shrink_timing = cycle + memory_latency;
        do_shrink = 0;
      } else if (cycle == shrink_timing) {
        do_shrink = 1;
      }
      if (level > 1 && do_shrink) {
        if (is_shrinkable(level)) {
          level = level - 1;                        // shrink
          shrink_timing = cycle + memory_latency;
          do_shrink = 0;
        } else {
          stop_alloc();   // drain the region to be removed
        }
      }
    }
"""

from __future__ import annotations

from collections import deque

from repro.core.policies import ResizeDecision, ResizingPolicy
from repro.pipeline.resources import WindowSet


class MLPAwarePolicy(ResizingPolicy):
    """The paper's LLC-miss-driven resizing policy.

    Invariants maintained across ticks:

    * ``1 <= level <= max_level`` always; growth saturates at
      ``max_level``, shrink stops at 1.
    * Level changes are unit steps per *decision* — a cycle with several
      pending misses can raise the level by more than one, but each
      shrink lowers it by exactly one, and a shrink is only granted
      after ``window.can_shrink_to`` confirms the vacated region is
      empty (until then the decision is ``stop_alloc``: drain).
    * ``shrink_timing`` is re-armed by every miss *and* by every granted
      shrink, so one miss-free memory latency is required per level on
      the way down (the paper's staircase descent, Figure 6).
    * ``_pending_misses`` stays sorted and duplicate-free; misses are
      coalesced per detection cycle (the pseudo-code's per-cycle
      ``L2_miss`` test).

    Observability: the policy itself carries only the ``enlarges`` /
    ``shrinks`` totals.  Per-event timelines come from the telemetry
    layer, which observes the applied transitions on the processor's
    ``on_level`` hook (``grow``/``shrink`` events) and the trigger
    stream via the hierarchy's L2-miss listener — nothing here needs
    instrumenting (see ``docs/observability.md``).
    """

    def __init__(self, max_level: int, memory_latency: int,
                 shrink_latency: int | None = None) -> None:
        """``shrink_latency`` overrides the shrink timer duration (the
        paper uses the memory latency; the ablation benches sweep it)."""
        if max_level < 1:
            raise ValueError("max_level must be >= 1")
        if memory_latency < 1:
            raise ValueError("memory_latency must be >= 1")
        self.max_level = max_level
        self.memory_latency = memory_latency
        self.shrink_latency = (memory_latency if shrink_latency is None
                               else shrink_latency)
        self.level = 1
        self.shrink_timing = -1
        self.do_shrink = False
        #: distinct cycles with >= 1 pending demand L2 miss, in order
        self._pending_misses: deque[int] = deque()
        self.enlarges = 0
        self.shrinks = 0

    # ------------------------------------------------------------------

    def on_l2_miss(self, cycle: int) -> None:
        """Note a demand L2 miss detected at ``cycle``.

        Misses are coalesced per *cycle*: the pseudo-code tests a
        per-cycle ``L2_miss`` condition, so several misses detected in
        the same cycle raise the level only once — but misses in
        distinct cycles each count.
        """
        pending = self._pending_misses
        if not pending or cycle > pending[-1]:
            pending.append(cycle)
        elif cycle < pending[-1]:
            # Out-of-order notification within the same tick window:
            # peel the (few) younger entries off the tail, splice the
            # new cycle in unless it is already present, and push the
            # tail back.  O(k) in the number of younger entries instead
            # of the old O(n) membership scan plus full re-sort; the
            # resulting deque (sorted, duplicate-free) is identical.
            tail = []
            while pending and pending[-1] > cycle:
                tail.append(pending.pop())
            if not pending or pending[-1] != cycle:
                pending.append(cycle)
            while tail:
                pending.append(tail.pop())

    def tick(self, cycle: int, window: WindowSet) -> ResizeDecision:
        """One controller cycle; returns the decision for the processor."""
        pending = self._pending_misses
        processed = 0
        last_miss = -1
        while pending and pending[0] <= cycle:
            last_miss = pending.popleft()
            processed += 1
        if processed:
            new_level = min(self.level + processed, self.max_level)
            self.shrink_timing = last_miss + self.shrink_latency
            self.do_shrink = False
            if new_level != self.level:
                self.enlarges += new_level - self.level
                self.level = new_level
                return ResizeDecision(new_level=new_level)
            return ResizeDecision()
        if self.shrink_timing >= 0 and cycle >= self.shrink_timing:
            self.do_shrink = True
            self.shrink_timing = -1
        if self.level > 1 and self.do_shrink:
            if window.can_shrink_to(self.level - 1):
                self.level -= 1
                self.shrinks += 1
                self.shrink_timing = cycle + self.shrink_latency
                self.do_shrink = False
                return ResizeDecision(new_level=self.level)
            return ResizeDecision(stop_alloc=True)
        return ResizeDecision()

    def next_timer(self) -> int | None:
        """Next cycle at which this policy needs to run even if the
        pipeline is otherwise idle (lets the simulator fast-forward).
        A shrink waiting for its region to drain needs none: the
        vacancy check cannot change before the machine moves."""
        candidates = []
        if self._pending_misses:
            candidates.append(self._pending_misses[0])
        if self.shrink_timing >= 0:
            candidates.append(self.shrink_timing)
        return min(candidates) if candidates else None
