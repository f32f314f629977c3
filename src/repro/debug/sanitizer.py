"""The invariant sanitizer (see the package docstring for the list).

The sanitizer registers on two of the processor's observer hooks:
``on_step`` runs the per-cycle checks at the end of every evaluated
cycle and ``on_level`` judges each level transition.  A processor built
with ``sanitize=False`` has empty hook lists, and a sanitized one pays
only at cycle granularity, never inside the stages.

Checks never mutate simulation state: MSHR occupancy is observed with
the non-reaping :meth:`~repro.memory.mshr.MSHRFile.in_flight`, window
queries are pure, and the slot trackers are passive mirrors.  A
sanitized run therefore produces bit-identical cycle counts to an
unsanitized one (``tests/test_sanitizer.py`` locks this in).
"""

from __future__ import annotations

from collections import Counter

from repro.debug.errors import SanitizerError
from repro.debug.events import EventTrace
from repro.debug.slots import CamSlotTracker, FifoSlotTracker

#: Every invariant the sanitizer evaluates, under the name it is
#: counted by in :attr:`Sanitizer.checks`.  A clean run must evaluate
#: each one at least once: the mutation harness's control run fails
#: otherwise, because an invariant never evaluated guards nothing.
INVARIANTS: tuple[str, ...] = (
    "occupancy_bounds", "counter_conservation", "level_capacity",
    "ground_truth_occupancy", "mshr_bound", "timer_liveness",
    "rob_program_order", "in_order_commit", "event_schedule",
    "shrink_slot_vacancy",
)


class Sanitizer:
    """Per-cycle invariant checking + event tracing for one processor."""

    def __init__(self, proc, trace_capacity: int = 4096) -> None:
        self.proc = proc
        self.events = EventTrace(trace_capacity)
        #: invariant name -> number of times it was evaluated
        self.checks: Counter[str] = Counter()
        self.cycles_checked = 0
        window = proc.window
        self.rob_slots = FifoSlotTracker("ROB", window.rob.capacity)
        self.iq_slots = CamSlotTracker("IQ", window.iq.capacity)
        self.lsq_slots = FifoSlotTracker("LSQ", window.lsq.capacity)
        self._last_commit_seq = -1
        self._last_committed_total = proc.committed_total
        self._max_seq = proc._seq
        self._last_dispatch_stalls = 0
        self._last_stop_alloc = 0
        self._stale_timer: int | None = None
        proc.on_step.append(self._check_cycle)
        proc.on_level.append(self._on_level)

    # ------------------------------------------------------------------
    # per-cycle verification

    def _check_cycle(self) -> None:
        proc = self.proc
        self.cycles_checked += 1
        now = proc.cycle
        window = proc.window
        checks = self.checks
        for res in (window.rob, window.iq, window.lsq):
            checks["occupancy_bounds"] += 1
            if not 0 <= res.occupancy <= res.capacity <= res.max_capacity:
                self._fail(
                    f"{res.name}: occupancy bounds violated "
                    f"(occupancy {res.occupancy}, capacity {res.capacity}, "
                    f"max {res.max_capacity})")
            checks["counter_conservation"] += 1
            if res.alloc_count - res.release_count != res.occupancy:
                self._fail(
                    f"{res.name}: conservation violated "
                    f"({res.alloc_count} allocs - {res.release_count} "
                    f"releases != occupancy {res.occupancy})")
        cfg = proc.config.level_config(proc.level)
        checks["level_capacity"] += 1
        if (window.rob.capacity != cfg.rob_entries
                or window.iq.capacity != cfg.iq_entries
                or window.lsq.capacity != cfg.lsq_entries):
            self._fail(
                f"window capacities {window.rob.capacity}/"
                f"{window.iq.capacity}/{window.lsq.capacity} do not match "
                f"level {proc.level} configuration {cfg.rob_entries}/"
                f"{cfg.iq_entries}/{cfg.lsq_entries}")
        # ground truth: the counters must agree with the actual machine
        # contents.  A release() call that is *skipped* leaves every
        # counter self-consistent — only this cross-check can see it.
        rob_truth = mem_truth = iq_truth = 0
        for op in proc.rob:
            rob_truth += 1
            if op.uop.is_mem:
                mem_truth += 1
            if op.in_iq:
                iq_truth += 1
        checks["ground_truth_occupancy"] += 1
        if window.rob.occupancy != rob_truth:
            self._fail(f"ROB occupancy counter {window.rob.occupancy} != "
                       f"{rob_truth} ops actually resident")
        if window.lsq.occupancy != mem_truth:
            self._fail(f"LSQ occupancy counter {window.lsq.occupancy} != "
                       f"{mem_truth} memory ops actually resident")
        if window.iq.occupancy != iq_truth:
            self._fail(f"IQ occupancy counter {window.iq.occupancy} != "
                       f"{iq_truth} unissued ops actually resident")
        h = proc.hierarchy
        for mshr in (h.l1d_mshr, h.l2_mshr):
            checks["mshr_bound"] += 1
            live = mshr.in_flight(now)
            if live > mshr.entries:
                self._fail(f"{mshr.name}: {live} fills in flight exceeds "
                           f"{mshr.entries} entries")
        # _process_events popped every event due by now, and the idle
        # jump never passes the heap head: an older event left in the
        # heap can only have been scheduled in the past
        checks["event_schedule"] += 1
        events = proc._events
        if events and events[0][0] < now:
            self._fail(f"event kind {events[0][2]} scheduled in the past: "
                       f"{events[0][0]} < {now}")
        # a next_timer() value in the past must not survive a tick: the
        # policy either consumes it (pending miss, shrink retry) or it
        # is stale and the fast-forward logic would never fire it again
        checks["timer_liveness"] += 1
        timer = proc.policy.next_timer()
        if timer is not None and timer <= now:
            if self._stale_timer == timer:
                self._fail(f"stale policy timer: next_timer()={timer} "
                           f"still pending after a full tick")
            self._stale_timer = timer
        else:
            self._stale_timer = None
        self._sync_trackers()
        self._emit_stall_events()

    def _sync_trackers(self) -> None:
        proc = self.proc
        rob_ops = list(proc.rob)
        seqs = []
        mem_seqs = []
        iq_seqs = []
        prev = -1
        now = proc.cycle
        events = self.events
        for op in rob_ops:
            seq = op.seq
            if seq <= prev:
                self._fail(f"ROB out of program order: seq {seq} "
                           f"follows seq {prev}")
            prev = seq
            seqs.append(seq)
            if op.uop.is_mem:
                mem_seqs.append(seq)
            if op.in_iq:
                iq_seqs.append(seq)
            if op.issue_cycle == now and op.issued:
                events.emit(now, "issue", seq, op.uop.op.name)
        self.checks["rob_program_order"] += 1
        fresh = []
        for op in reversed(rob_ops):
            if op.seq <= self._max_seq:
                break
            fresh.append(op)
        for op in reversed(fresh):
            events.emit(op.fetch_cycle, "fetch", op.seq, op.uop.op.name)
            events.emit(op.dispatch_cycle, "dispatch", op.seq,
                        op.uop.op.name)
            self._max_seq = op.seq
        commits_delta = proc.committed_total - self._last_committed_total
        self._last_committed_total = proc.committed_total
        committed = self.rob_slots.sync(seqs, commits_hint=commits_delta)
        self.checks["in_order_commit"] += 1
        for seq in committed:
            if seq <= self._last_commit_seq:
                self._fail(f"out-of-order commit: seq {seq} retired after "
                           f"seq {self._last_commit_seq}")
            self._last_commit_seq = seq
            events.emit(now, "commit", seq, "")
        self.lsq_slots.sync(mem_seqs, commits_hint=None)
        self.iq_slots.sync(iq_seqs)

    def _emit_stall_events(self) -> None:
        proc = self.proc
        stats = proc.stats
        if stats.dispatch_stall_cycles != self._last_dispatch_stalls:
            self._last_dispatch_stalls = stats.dispatch_stall_cycles
            w = proc.window
            self.events.emit(
                proc.cycle, "stall", -1,
                f"dispatch blocked (rob {w.rob.occupancy}/{w.rob.capacity} "
                f"iq {w.iq.occupancy}/{w.iq.capacity} "
                f"lsq {w.lsq.occupancy}/{w.lsq.capacity} "
                f"stop_alloc={proc._stop_alloc})")
        if stats.stop_alloc_cycles != self._last_stop_alloc:
            self._last_stop_alloc = stats.stop_alloc_cycles
            self.events.emit(proc.cycle, "stall", -1,
                             "stop_alloc: draining for shrink")

    def _on_level(self, old_level: int, new_level: int) -> None:
        proc = self.proc
        shrink = new_level < old_level
        if shrink:
            # fold in this cycle's commits/issues before judging the
            # vacated region; exact after the resize, because the
            # trackers never read window capacity
            self._sync_trackers()
        cfg = proc.config.level_config(new_level)
        straddle = (self.rob_slots.resize(cfg.rob_entries)
                    + self.iq_slots.resize(cfg.iq_entries)
                    + self.lsq_slots.resize(cfg.lsq_entries))
        if shrink:
            self.checks["shrink_slot_vacancy"] += 1
            detail = (f"shrink to level {new_level}"
                      + (f" with {straddle} slot(s) straddling the "
                         f"vacated region" if straddle else ""))
        else:
            detail = f"enlarge to level {new_level}"
        self.events.emit(proc.cycle, "level", -1, detail)

    # ------------------------------------------------------------------

    def final_check(self) -> None:
        """Re-verify everything once the run is over."""
        self._check_cycle()

    def detach(self) -> None:
        """Unregister from the processor and drop the reference to it,
        which holds this sanitizer as ``debug``: the two would otherwise
        form a reference cycle.  The counts and the event trace stay
        readable; no check runs after this."""
        proc = self.proc
        proc.on_step.remove(self._check_cycle)
        proc.on_level.remove(self._on_level)
        self.proc = None

    def shrink_divergences(self) -> dict[str, int]:
        """Per-resource count of shrinks whose vacated region was still
        physically occupied (the documented approximation's optimism)."""
        return {"ROB": self.rob_slots.divergences,
                "IQ": self.iq_slots.divergences,
                "LSQ": self.lsq_slots.divergences}

    def summary(self) -> dict:
        """Machine-readable account of what was verified."""
        return {
            "cycles_checked": self.cycles_checked,
            "invariant_checks": dict(self.checks),
            "shrink_divergences": self.shrink_divergences(),
            "max_straddle": {"ROB": self.rob_slots.max_straddle,
                             "IQ": self.iq_slots.max_straddle,
                             "LSQ": self.lsq_slots.max_straddle},
            "events": self.events.counts(),
        }

    def _fail(self, message: str) -> None:
        raise SanitizerError(
            f"cycle {self.proc.cycle}: {message}\n"
            f"last events:\n{self.events.render(last=24)}")
