"""Cycle-level out-of-order processor model.

This is the SimpleScalar-replacement substrate of the reproduction: a
4-wide P6-style superscalar core with

* fetch from a dynamic trace, gshare/BTB prediction, taken-branch fetch
  bubbles, I-cache timing and synthesized wrong-path fetch after a
  misprediction;
* rename through a map table onto ROB entries (P6: each ROB entry holds
  the physical register);
* dispatch into the resizable ROB / IQ / LSQ window resources;
* oldest-first wakeup/select issue with a *pipeline-depth-dependent*
  wakeup delay: at IQ depth ``d``, dependent instructions cannot issue
  back-to-back — the consumer sees the broadcast ``d - 1`` cycles late
  (the paper's central ILP cost of a large window);
* function-unit contention per Table 1, load/store queue with
  store→load forwarding and conservative memory disambiguation;
* non-blocking memory access through the cache hierarchy (MLP!);
* in-order commit, branch misprediction recovery with a level-dependent
  penalty, and the level-transition machinery of the resizing scheme.

:meth:`Processor.run` is the main loop.  It is cycle-driven but
*fast-forwards* over provably idle cycles (long memory stalls), which
keeps memory-bound simulations fast without changing observable timing
(DESIGN.md §6 states the two quiescence obligations behind the jump).
"""

from __future__ import annotations

import heapq
from collections import deque
from heapq import heappop as _heappop, heappush as _heappush
from typing import TYPE_CHECKING

from repro.config import ModelKind, ProcessorConfig
from repro.core.policies import ResizingPolicy, StaticPolicy
from repro.core.resizing import MLPAwarePolicy
from repro.debug.errors import DeadlockError
from repro.isa import EXEC_LATENCY, MicroOp, OpClass, REG_INVALID
from repro.memory import AccessPath, MemoryHierarchy
from repro.frontend import BranchPredictor
from repro.pipeline.resources import WindowSet
from repro.stats import SimStats, SimulationResult, mlp_from_intervals

if TYPE_CHECKING:
    from repro.workloads.trace import Trace

#: fetch-to-dispatch latency in cycles (decode/rename front-end depth).
DECODE_LATENCY = 3
#: fetch/decode buffer capacity in micro-ops.
FETCH_BUFFER = 24
#: per-thread address spaces: thread ``t``'s data addresses are offset by
#: ``t * DATA_OFFSET`` and its PCs by ``t * PC_OFFSET`` wherever it meets
#: the shared hierarchy, so the threads of an SMT core see disjoint,
#: non-aliasing streams (thread 0's offsets are zero)
DATA_OFFSET = 0x100_0000_0000
PC_OFFSET = 0x10_0000

#: Version tag of the simulator's *timing behaviour*.  The on-disk result
#: cache (:mod:`repro.experiments.cache`) keys on it, so bump it whenever
#: a change can alter any simulated cycle count; host-speed optimisations
#: that leave timing identical must NOT bump it.
SIM_VERSION = "3"   # 3: comparator policies fixed (commit wiring, rate
#                        denominators) — contribution/occupancy runs change

# function-unit pools
_FU_POOL = {
    OpClass.NOP: "int_alu",
    OpClass.IALU: "int_alu",
    OpClass.BRANCH: "int_alu",
    OpClass.IMUL: "int_mul_div",
    OpClass.IDIV: "int_mul_div",
    OpClass.FPALU: "fp_alu",
    OpClass.FPMUL: "fp_mul_div",
    OpClass.FPDIV: "fp_mul_div",
    OpClass.LOAD: "mem_ports",
    OpClass.STORE: "mem_ports",
}

#: pool order for the per-cycle usage vector (indices into _FU_INDEX)
_FU_POOLS = ("int_alu", "int_mul_div", "mem_ports", "fp_alu", "fp_mul_div")
#: OpClass (an IntEnum) -> pool index, for dict-free hot-path lookups
_FU_INDEX = tuple(_FU_POOLS.index(_FU_POOL[OpClass(i)])
                  for i in range(len(OpClass)))

#: access paths, read once (an enum member lookup is a descriptor call)
_CORRECT = AccessPath.CORRECT
_WRONG = AccessPath.WRONG

# event kinds
_EV_COMPLETE = 0
_EV_WAKE = 1
_EV_RA_EXIT = 2


class InFlightOp:
    """Pipeline state of one in-flight micro-op of one :class:`Thread`,
    named by its index ``tid`` (the thread holds its ops, so a reference
    back to it would make a cycle)."""

    __slots__ = (
        "seq", "uop", "trace_idx", "wrong_path", "tid",
        "pending_srcs", "consumers", "ready_cycle",
        "issued", "complete", "squashed", "in_iq",
        "issue_cycle", "complete_cycle", "woken_at",
        "branch_token", "mispredicted", "l2_miss",
        "inv", "inherit_inv", "addr_known_cycle", "forwarded",
        "fwd_waiters", "fetch_cycle", "dispatch_cycle",
    )

    def __init__(self, seq: int, uop: MicroOp, trace_idx: int,
                 wrong_path: bool, tid: int) -> None:
        self.seq = seq
        self.uop = uop
        self.trace_idx = trace_idx
        self.wrong_path = wrong_path
        self.tid = tid
        self.pending_srcs = 0
        self.consumers: list[InFlightOp] | None = None
        self.ready_cycle = 0
        self.issued = False
        self.complete = False
        self.squashed = False
        self.in_iq = False
        self.issue_cycle = -1
        self.complete_cycle = -1
        self.woken_at = -1        # -1: not yet known
        self.branch_token = None
        self.mispredicted = False
        self.l2_miss = False
        self.inv = False          # runahead INV result
        self.inherit_inv = False  # a source was INV
        self.addr_known_cycle = -1
        self.forwarded = False
        self.fwd_waiters: list[InFlightOp] | None = None
        self.fetch_cycle = -1
        self.dispatch_cycle = -1

    def __repr__(self) -> str:
        flags = "".join(c for c, f in (
            ("W", self.wrong_path), ("I", self.issued), ("C", self.complete),
            ("X", self.squashed), ("V", self.inv)) if f)
        return f"<op#{self.seq} {self.uop.op.name} {flags}>"


class Thread:
    """One hardware thread: the state that follows one instruction
    stream through the stages, which act on one thread at a time
    (:class:`Processor` has one, the SMT core one per trace).

    ``window`` and ``memory`` take the thread's
    :class:`~repro.pipeline.resources.WindowSet` and
    :class:`~repro.memory.MemoryHierarchy` calls: a single-thread core
    passes its window set and hierarchy themselves, the SMT core a
    quota-gated share of the window and an address-offsetting port.
    """

    __slots__ = (
        "tid", "trace", "predictor", "stats", "window", "memory",
        "trace_idx", "wrong_mode", "wrong_branch", "wrong_base_pc",
        "wrong_k", "fetch_stall_until", "last_fetch_line", "decode_q",
        "map", "rob", "pending_stores",
        "level", "extra_wakeup_delay", "extra_branch_penalty",
        "alloc_stall_until", "committed",
    )

    def __init__(self, tid: int, trace: "Trace", predictor: BranchPredictor,
                 stats: SimStats, window, memory) -> None:
        self.tid = tid
        self.trace = trace
        self.predictor = predictor
        self.stats = stats
        self.window = window
        self.memory = memory
        # fetch state
        self.trace_idx = 0
        self.wrong_mode = False
        self.wrong_branch: InFlightOp | None = None
        self.wrong_base_pc = 0
        self.wrong_k = 0
        self.fetch_stall_until = 0
        self.last_fetch_line = -1
        self.decode_q: deque[tuple[int, InFlightOp]] = deque()
        # backend state
        self.map: dict[int, InFlightOp] = {}
        self.rob: deque[InFlightOp] = deque()
        #: word address -> youngest in-flight store to that word, kept
        #: from dispatch to commit (perfect memory disambiguation, as in
        #: the paper's SimpleScalar substrate: a load only orders against
        #: older stores to the *same* address, never against unrelated
        #: stores with unresolved addresses).
        self.pending_stores: dict[int, InFlightOp] = {}
        #: the level whose depth (wakeup delay, branch penalty) the
        #: thread runs at
        self.level = 1
        self.extra_wakeup_delay = 0
        self.extra_branch_penalty = 0
        self.alloc_stall_until = 0
        self.committed = 0

    def drained(self) -> bool:
        """True when the trace is exhausted and the thread is empty."""
        return (not self.wrong_mode
                and self.trace_idx >= len(self.trace.ops)
                and not self.rob and not self.decode_q)


class Processor:
    """One simulated processor instance running one trace."""

    def __init__(self, config: ProcessorConfig, trace: "Trace",
                 policy: ResizingPolicy | None = None,
                 hierarchy: MemoryHierarchy | None = None,
                 sanitize: bool = False) -> None:
        """``hierarchy`` may be injected to share L2/DRAM components
        between cores (see :mod:`repro.multicore`).

        ``sanitize`` attaches the :mod:`repro.debug` invariant sanitizer
        and cycle-event trace, which register on the observer hooks
        below.  The flag is resolved here, once: when it is False the
        hook lists stay empty."""
        self.config = config
        self.hierarchy = hierarchy or MemoryHierarchy(config)
        self.ideal = config.model is ModelKind.IDEAL

        if policy is not None:
            self.policy = policy
        elif config.model is ModelKind.DYNAMIC:
            self.policy = MLPAwarePolicy(
                max_level=config.level,
                memory_latency=config.memory.min_latency)
        else:
            self.policy = StaticPolicy(config.level)
        self.level = self.policy.level
        # config.level is the fixed level for FIXED/IDEAL and the maximum
        # (= physically provisioned) level for DYNAMIC, so it bounds the
        # physical resources in every model.
        self.window = WindowSet(config.levels, self.level,
                                max_level=max(config.level, self.level))
        #: the hardware thread; ``trace``, ``stats``, ``predictor`` and
        #: ``rob`` below are its own objects, not copies
        self.thread = Thread(0, trace, BranchPredictor(config.branch),
                             SimStats(), self.window, self.hierarchy)
        self.threads = [self.thread]
        self.trace = trace
        self.stats = self.thread.stats
        self.predictor = self.thread.predictor
        self.rob = self.thread.rob
        self._set_level(self.thread, self.level)
        #: a StaticPolicy — or any policy pinned to a constant level via
        #: ResizingPolicy.pin() — never resizes or stops allocation, so
        #: its per-cycle tick (and decision allocation), miss
        #: notifications and timers are all skipped whole.  This is the
        #: pin-equivalence hook: a pinned run takes exactly the code
        #: paths of a static one (repro.verify asserts bit-identity).
        self._policy_inert = (type(self.policy) is StaticPolicy
                              or self.policy.pinned_level is not None)
        self.hierarchy.add_l2_miss_listener(self._l2_miss_listener())

        # timing state
        self.cycle = 0
        self.committed_total = 0
        self._seq = 0
        self._events: list[tuple[int, int, int, object]] = []
        self._event_seq = 0

        # backend state: the ready heap orders every thread's ops
        self._ready: list[tuple[int, InFlightOp]] = []
        # hot-path vectors/scalars (indexed by _FU_INDEX / hoisted out of
        # the per-cycle stages; FU usage is reset each issue cycle)
        self._fu_limit_vec = [getattr(config.fu, pool) for pool in _FU_POOLS]
        self._fu_used_vec = [0] * len(_FU_POOLS)
        self._width = config.width
        self._l1i_line_bytes = config.l1i.line_bytes
        self._l1i_hit_latency = config.l1i.hit_latency
        self._refresh_capacity_cache()

        # resizing state
        self._stop_alloc = False
        self._last_stall_reason: str | None = None

        #: observer hooks, lists of plain callables that stay empty on
        #: a plain run: ``on_step()`` at the end of every evaluated
        #: cycle (the draining one included), before the clock moves;
        #: ``on_advance()`` after the clock moves; ``on_level(old, new)``
        #: after a level transition; ``on_commit(op, cycle)`` per
        #: retired op.  They fire inside step_cycle and advance, so a
        #: scheduler that calls those directly (repro.multicore) fires
        #: them too.
        self.on_step: list = []
        self.on_advance: list = []
        self.on_level: list = []
        self.on_commit: list = []
        #: a cycle the idle jump must not pass, set by an observer that
        #: has to see the clock stop there (the telemetry probe's next
        #: sampling edge); None when no observer needs one
        self.jump_horizon: int | None = None
        #: fast-forward over provably idle cycles (disable to validate
        #: that the optimisation never changes observable timing)
        self.fast_forward = True
        # runahead engine (installed for the RUNAHEAD model)
        self.runahead = None
        if config.model is ModelKind.RUNAHEAD:
            from repro.runahead import RunaheadEngine
            self.runahead = RunaheadEngine(config)
        #: optional debug harness (invariant sanitizer + event trace),
        #: resolved once, here: with ``sanitize=False`` this stays None.
        self.debug = None
        if sanitize:
            from repro.debug import Sanitizer
            self.debug = Sanitizer(self)

    # ------------------------------------------------------------------
    # level handling

    def _set_level(self, thread: Thread, level: int) -> None:
        """Run ``thread`` at ``level``'s depth: its extra wakeup delay and
        branch penalty (none in the ideal model)."""
        thread.level = level
        if self.ideal:
            thread.extra_wakeup_delay = 0
            thread.extra_branch_penalty = 0
        else:
            cfg = self.config.level_config(level)
            thread.extra_wakeup_delay = cfg.extra_wakeup_delay
            thread.extra_branch_penalty = cfg.extra_branch_penalty

    def _refresh_capacity_cache(self) -> None:
        """Capacities only change at level transitions; cache them so the
        per-cycle accounting avoids six attribute chains."""
        window = self.window
        self._cap_vec = (window.iq.capacity, window.rob.capacity,
                         window.lsq.capacity, window.iq.max_capacity,
                         window.rob.max_capacity, window.lsq.max_capacity)

    def _change_level(self, thread: Thread, new_level: int) -> None:
        """Move ``thread`` to ``new_level``: count the transition, give
        it the level's depth and stall its allocation for the transition
        penalty."""
        stats = thread.stats
        if new_level > thread.level:
            stats.enlarge_transitions += 1
        else:
            stats.shrink_transitions += 1
        stats.level_transitions.append((self.cycle, new_level))
        self._set_level(thread, new_level)
        thread.alloc_stall_until = max(
            thread.alloc_stall_until,
            self.cycle + self.config.transition_penalty)

    def _l2_miss_listener(self):
        """The hierarchy's demand L2-miss callback: it tells the policy
        (unless inert) and records the detection cycle.  It closes over
        the policy and the stats, not over this processor, which holds
        the hierarchy: a bound method would make a reference cycle."""
        policy = None if self._policy_inert else self.policy
        stats = self.stats

        def on_l2_miss(detect_cycle: int) -> None:
            if policy is not None:
                policy.on_l2_miss(detect_cycle)
            stats.l2_miss_cycles.append(detect_cycle)
        return on_l2_miss

    # ------------------------------------------------------------------
    # event machinery

    def _schedule(self, cycle: int, kind: int, payload: object) -> None:
        self._event_seq += 1
        _heappush(self._events, (cycle, self._event_seq, kind, payload))

    def _process_events(self) -> int:
        processed = 0
        events = self._events
        now = self.cycle
        schedule = self._schedule
        while events and events[0][0] <= now:
            __, ___, kind, op = _heappop(events)
            processed += 1
            if kind != _EV_COMPLETE:
                if kind == _EV_WAKE:
                    self._wake_consumers(op)
                else:   # _EV_RA_EXIT
                    self.runahead.exit_runahead(self, now)
                continue
            # the op finished executing
            if op.squashed or op.complete:
                continue
            op.complete = True
            op.complete_cycle = now
            uop = op.uop
            thread = self.threads[op.tid]
            if uop.is_branch and op.branch_token is not None:
                # branch resolution: a mispredict squashes the thread's
                # younger ops and restarts its fetch after the penalty
                thread.predictor.resolve(op.branch_token, uop.taken,
                                         uop.target)
                if op.mispredicted:
                    self._squash_after(thread, op.seq)
                    if thread.wrong_branch is op:
                        thread.wrong_mode = False
                        thread.wrong_branch = None
                    penalty = (self.config.branch.mispredict_penalty
                               + thread.extra_branch_penalty)
                    thread.fetch_stall_until = max(
                        thread.fetch_stall_until, now + penalty)
                    thread.last_fetch_line = -1
            if uop.is_store and op.fwd_waiters:
                # the store executed: satisfy loads waiting to forward
                waiters = op.fwd_waiters
                op.fwd_waiters = None
                for load in waiters:
                    if not load.squashed:
                        schedule(now + 1, _EV_COMPLETE, load)
            # A pipelined wakeup/select loop of depth d forbids
            # back-to-back dependent issue: the consumer cannot issue
            # before producer_issue + d.  For producers whose execution
            # latency is at least d the broadcast has already caught up,
            # so only short-latency producers (the ILP-critical IALU
            # chains) pay.
            latency = now - op.issue_cycle
            depth = thread.extra_wakeup_delay + 1
            delay = depth - (latency if latency > 1 else 1)
            thread.stats.activity.iq_wakeups += 1
            if delay <= 0:
                op.woken_at = now
                self._wake_consumers(op)
            else:
                op.woken_at = now + delay
                schedule(op.woken_at, _EV_WAKE, op)
        return processed

    def _wake_consumers(self, op: InFlightOp) -> None:
        consumers = op.consumers
        if not consumers:
            return
        op.consumers = None
        now = self.cycle
        ready = self._ready
        inv = op.inv
        for consumer in consumers:
            if consumer.squashed or consumer.issued:
                continue
            if inv:
                consumer.inherit_inv = True
            consumer.pending_srcs -= 1
            if consumer.pending_srcs == 0:
                consumer.ready_cycle = now
                _heappush(ready, (consumer.seq, consumer))

    # ------------------------------------------------------------------
    # squash

    def _squash_after(self, thread: Thread, after_seq: int) -> None:
        """Remove every op of ``thread`` younger than ``after_seq`` from
        the machine; other threads' ops stay."""
        rob = thread.rob
        release = thread.window.release
        queue = thread.decode_q
        squashed = len(queue)
        while rob and rob[-1].seq > after_seq:
            op = rob.pop()
            op.squashed = True
            release(op.in_iq and not op.issued, op.uop.is_mem)
            squashed += 1
        for __, op in queue:
            op.squashed = True
        queue.clear()
        thread.stats.squashed_uops += squashed
        # Rebuild the map table and the pending-store table from the
        # surviving ROB contents.
        rename = thread.map
        pending_stores = thread.pending_stores
        rename.clear()
        pending_stores.clear()
        for op in rob:
            dst = op.uop.dst
            if dst != REG_INVALID:
                rename[dst] = op
            if op.uop.is_store:
                pending_stores[op.uop.addr & ~7] = op

    # ------------------------------------------------------------------
    # commit

    def _commit_stage(self, thread: Thread | None = None,
                      budget: int = 0) -> int:
        """Retire up to ``budget`` of ``thread``'s ops in order; returns
        how many left the ROB (runahead pseudo-retirement included).
        Called bare it commits the one thread at full width and charges
        the unused slots to the CPI stack; the SMT core passes each
        thread and the slots still free, and keeps no CPI stack."""
        cpi_stack = thread is None
        if cpi_stack:
            thread = self.thread
            budget = self._width
        committed = 0
        rob = thread.rob
        release = thread.window.release
        engine = self.runahead
        in_runahead = engine is not None and engine.active
        now = self.cycle
        stats = thread.stats
        on_commit = self.on_commit
        # the commit totals are added once per call; committed_uops is
        # also brought up to date before each committed mispredict,
        # whose Table 5 distance reads it
        base = stats.committed_uops
        retired = loads = stores = branches = 0
        while rob and committed < budget:
            op = rob[0]
            uop = op.uop
            if in_runahead:
                if not engine.can_pseudo_retire(op):
                    break
                rob.popleft()
                engine.pseudo_retire(op, now)
                release(0, uop.is_mem)
                committed += 1
                continue
            if not op.complete:
                if (engine is not None and uop.is_load and op.l2_miss
                        and op.issued):
                    if engine.consider_entry(op, now):
                        # the blocked load's INV result wakes its
                        # consumers at once; its fill times the exit
                        self._wake_consumers(op)
                        self._schedule(op.complete_cycle, _EV_RA_EXIT, op)
                        in_runahead = True
                        continue
                break
            rob.popleft()
            release(0, uop.is_mem)
            committed += 1
            retired += 1
            if on_commit:
                for hook in on_commit:
                    hook(op, now)
            if uop.is_load:
                loads += 1
            elif uop.is_store:
                stores += 1
                word = uop.addr & ~7
                if thread.pending_stores.get(word) is op:
                    del thread.pending_stores[word]
                thread.memory.store(uop.addr, now, _CORRECT)
            elif uop.is_branch:
                branches += 1
                if op.mispredicted:
                    stats.committed_mispredicts += 1
                    stats.committed_uops = base + retired
                    stats.note_mispredict_commit()
        if retired:
            self.committed_total += retired
            thread.committed += retired
            stats.committed_uops = base + retired
            stats.committed_loads += loads
            stats.committed_stores += stores
            stats.committed_branches += branches
            stats.activity.rob_reads += retired
        if committed:
            # keep the WindowSet's commit counter current: feedback
            # policies (ContributionPolicy) read their commit-throughput
            # signal from it at tick time
            self.window.committed += committed
        if not cpi_stack:
            return committed
        if committed == budget:
            self._last_stall_reason = None
            return committed
        # charge the unused slots to why the ROB head could not commit
        # (the CPI stack)
        if not rob:
            reason = "frontend"
        else:
            head = rob[0]
            if head.issued:
                if not head.uop.is_load:
                    reason = "exec"
                elif head.l2_miss:
                    reason = "mem_dram"
                elif head.forwarded:
                    reason = "mem_forward"
                else:
                    reason = "mem_cache"
            elif head.pending_srcs > 0 or head.ready_cycle >= now:
                # a head woken up this very cycle waited on the
                # dependence chain too (commit runs before issue)
                reason = "deps"
            else:
                reason = "issue"
        stats.note_stall_slots(reason, budget - committed)
        self._last_stall_reason = reason
        return committed

    # ------------------------------------------------------------------
    # issue

    def _issue_stage(self) -> int:
        ready = self._ready
        if not ready:
            return 0
        issued = 0
        budget = self._width
        fu_used = self._fu_used_vec
        fu_used[0] = fu_used[1] = fu_used[2] = fu_used[3] = fu_used[4] = 0
        fu_limits = self._fu_limit_vec
        schedule = self._schedule
        engine = self.runahead
        deferred: list[tuple[int, InFlightOp]] = []
        defer = deferred.append
        scans = 0
        now = self.cycle
        while ready and issued < budget and scans < 32:
            scans += 1
            item = _heappop(ready)
            op = item[1]
            if op.squashed or op.issued:
                continue
            if op.ready_cycle > now:
                defer(item)
                continue
            uop = op.uop
            pool = _FU_INDEX[uop.op]
            if fu_used[pool] >= fu_limits[pool]:
                defer(item)
                continue
            fu_used[pool] += 1
            issued += 1
            op.issued = True
            op.issue_cycle = now
            thread = self.threads[op.tid]
            if op.in_iq:
                thread.window.iq.release()
                op.in_iq = False
            stats = thread.stats
            stats.issued_uops += 1
            activity = stats.activity
            activity.iq_issues += 1
            activity.fu_ops += 1
            if op.inherit_inv:
                op.inv = True
            if uop.is_load:
                start = now + EXEC_LATENCY[uop.op]     # address generation
                op.addr_known_cycle = start
                activity.lsq_searches += 1
                if op.inv:
                    # Runahead INV address: produce INV without touching
                    # memory.
                    schedule(start + 1, _EV_COMPLETE, op)
                    continue
                word = uop.addr & ~7
                store = thread.pending_stores.get(word)
                if (store is not None and not store.squashed
                        and store.seq < op.seq):
                    op.forwarded = True
                    if engine is not None and store.inv:
                        op.inv = True
                    if store.complete:
                        schedule(max(start, store.complete_cycle) + 1,
                                 _EV_COMPLETE, op)
                    elif store.fwd_waiters is None:
                        # forward once the producing store has executed
                        store.fwd_waiters = [op]
                    else:
                        store.fwd_waiters.append(op)
                    continue
                episode = (engine if engine is not None and engine.active
                           else None)
                if episode is not None:
                    if episode.cache_hit(word):
                        op.forwarded = True
                        schedule(start + 1, _EV_COMPLETE, op)
                        continue
                    if not episode.may_issue_fill(self.hierarchy, start):
                        # Miss buffers saturated / episode fill budget
                        # exhausted: drop the runahead fill and INV the
                        # load.
                        op.inv = True
                        schedule(start + 2, _EV_COMPLETE, op)
                        continue
                activity.l1d_accesses += 1
                result = thread.memory.load(
                    uop.addr, start, uop.pc,
                    _WRONG if op.wrong_path else _CORRECT)
                done = result.complete_cycle
                # Record the scheduled fill time eagerly: the runahead
                # engine needs it to time its exit while the load is
                # still incomplete.
                op.complete_cycle = done
                if result.l2_miss:
                    op.l2_miss = True
                    if not op.wrong_path:
                        stats.demand_miss_intervals.append((start, done))
                if episode is not None and (
                        result.l2_miss
                        or done - start > self.config.l2.hit_latency + 8):
                    # Runahead: a long-latency load (a fresh L2 miss, or
                    # a merge into a line another miss is still
                    # fetching) gets an INV result immediately while its
                    # fill proceeds underneath (the prefetching effect).
                    # Blocking on it would stall pseudo-retirement for
                    # the rest of the episode.
                    op.inv = True
                    if result.l2_miss:
                        episode.note_episode_miss()
                    done = start + 2
                schedule(done, _EV_COMPLETE, op)
            elif uop.is_store:
                start = now + EXEC_LATENCY[uop.op]
                op.addr_known_cycle = start
                if engine is not None and engine.active and not op.inv:
                    engine.cache_write(uop.addr & ~7)
                schedule(start, _EV_COMPLETE, op)
            else:
                schedule(now + EXEC_LATENCY[uop.op], _EV_COMPLETE, op)
        for item in deferred:
            _heappush(ready, item)
        return issued

    # ------------------------------------------------------------------
    # dispatch

    def _dispatch_stage(self, thread: Thread | None = None,
                        budget: int = 0) -> int:
        """Rename up to ``budget`` of ``thread``'s decoded ops into the
        window; returns how many were dispatched.  Called bare it
        dispatches the one thread at full width; the SMT core passes
        each thread and the slots still free."""
        if thread is None:
            thread = self.thread
            budget = self._width
        now = self.cycle
        queue = thread.decode_q
        if now < thread.alloc_stall_until or self._stop_alloc:
            if queue:
                thread.stats.dispatch_stall_cycles += 1
            return 0
        dispatched = wrong_path = 0
        next_cycle = now + 1
        window = thread.window
        try_allocate = window.try_allocate
        rename = thread.map
        map_get = rename.get
        ready = self._ready
        rob = thread.rob
        while queue and dispatched < budget:
            ready_at, op = queue[0]
            if ready_at > now:
                break
            uop = op.uop
            is_mem = uop.is_mem
            if not try_allocate(is_mem):
                # record exactly once per stalled cycle (a refused
                # allocation changes nothing), keeping full_events ==
                # number of cycles the resource blocked allocation
                window.note_alloc_stall(1, 1, is_mem)
                thread.stats.dispatch_stall_cycles += 1
                break
            queue.popleft()
            dispatched += 1
            op.dispatch_cycle = now
            op.in_iq = True
            if op.wrong_path:
                wrong_path += 1
            pending = 0
            for src in uop.srcs:
                producer = map_get(src)
                if producer is None or producer.squashed:
                    continue
                if 0 <= producer.woken_at <= now:
                    if producer.inv:
                        op.inherit_inv = True
                    continue
                if producer.consumers is None:
                    producer.consumers = [op]
                else:
                    producer.consumers.append(op)
                pending += 1
            op.pending_srcs = pending
            op.ready_cycle = next_cycle
            if pending == 0:
                _heappush(ready, (op.seq, op))
            if uop.dst != REG_INVALID:
                rename[uop.dst] = op
            rob.append(op)
            if uop.is_store:
                thread.pending_stores[uop.addr & ~7] = op
        if dispatched:
            stats = thread.stats
            stats.dispatched_uops += dispatched
            stats.wrong_path_uops += wrong_path
            activity = stats.activity
            activity.renames += dispatched
            activity.iq_writes += dispatched
            activity.rob_writes += dispatched
        return dispatched

    # ------------------------------------------------------------------
    # fetch

    def _fetch_stage(self, thread: Thread | None = None) -> int:
        """Fetch up to a width of ``thread``'s ops into its decode queue;
        returns how many were fetched.  Called bare it fetches for the
        one thread; the SMT core passes the thread it selected, which is
        never fetch-stalled."""
        if thread is None:
            thread = self.thread
        now = self.cycle
        if now < thread.fetch_stall_until:
            thread.stats.fetch_stall_cycles += 1
            return 0
        queue = thread.decode_q
        # the decode queue grows by one per fetched op; a full queue
        # (the window backed up) is the common idle cycle, so the stage
        # returns before reading anything else
        limit = min(self._width, FETCH_BUFFER - len(queue))
        if limit <= 0:
            return 0
        fetched = l1i_accesses = branches = 0
        trace = thread.trace
        trace_ops = trace.ops
        n_trace_ops = len(trace_ops)
        l1i_line = self._l1i_line_bytes
        hit_done = now + self._l1i_hit_latency
        decoded_at = now + DECODE_LATENCY
        trace_idx = thread.trace_idx
        wrong_mode = thread.wrong_mode
        last_line = thread.last_fetch_line
        tid = thread.tid
        seq = self._seq
        while fetched < limit:
            if wrong_mode:
                uop = trace.wrong_path.op_at(thread.wrong_base_pc,
                                             thread.wrong_k)
                idx = -1
            elif trace_idx < n_trace_ops:
                uop = trace_ops[trace_idx]
                idx = trace_idx
            else:
                break
            pc = uop.pc
            # I-cache access on a new line
            line = pc - (pc % l1i_line)
            if line != last_line:
                l1i_accesses += 1
                done = thread.memory.ifetch(pc, now)
                last_line = line
                if done > hit_done:
                    thread.fetch_stall_until = done
                    break
            seq += 1
            op = InFlightOp(seq, uop, idx, wrong_mode, tid)
            op.fetch_cycle = now
            queue.append((decoded_at, op))
            fetched += 1
            if wrong_mode:
                thread.wrong_k += 1
                if uop.is_branch:       # taken wrong-path branch
                    break
                continue
            trace_idx += 1
            if not uop.is_branch:
                continue
            # predict a correct-path branch; a predicted-taken redirect
            # ends the fetch cycle (the taken-branch bubble)
            branches += 1
            pred_taken, pred_target, op.branch_token = (
                thread.predictor.predict(pc, pc + 4))
            taken = uop.taken
            if pred_taken != taken or (taken and pred_target != uop.target):
                op.mispredicted = True
                wrong_mode = True
                thread.wrong_branch = op
                thread.wrong_base_pc = pred_target if pred_taken else pc + 4
                thread.wrong_k = 0
            if pred_taken:
                break
        thread.trace_idx = trace_idx
        thread.wrong_mode = wrong_mode
        thread.last_fetch_line = last_line
        self._seq = seq
        if fetched or l1i_accesses:
            activity = thread.stats.activity
            activity.l1i_accesses += l1i_accesses
            activity.fetches += fetched
            activity.decodes += fetched
            activity.bpred_lookups += branches
        return fetched

    # ------------------------------------------------------------------
    # resizing

    def _policy_stage(self) -> bool:
        """Tick the policy; True when it changed the level.  A stop-alloc
        alone is no progress: it repeats until the machine or a policy
        timer moves (DESIGN.md §6), so the jump may skip a drain."""
        self._stop_alloc = False
        decision = self.policy.tick(self.cycle, self.window)
        if decision.stop_alloc:
            self._stop_alloc = True
            self.stats.stop_alloc_cycles += 1
        new_level = decision.new_level
        if new_level is None or new_level == self.level:
            return False
        old_level = self.level
        self.level = new_level
        self.window.resize_to(new_level)
        self._refresh_capacity_cache()
        self._change_level(self.thread, new_level)
        for hook in self.on_level:
            hook(old_level, new_level)
        return True

    # ------------------------------------------------------------------
    # main loop

    def _advance_accounting(self, delta: int) -> None:
        stats = self.stats
        stats.cycles += delta
        stats.note_level_cycles(self.level, delta)
        now = self.cycle
        thread = self.thread
        if delta > 1:
            # the machine is frozen across an idle jump (DESIGN.md §6):
            # each skipped cycle stalls exactly as this one did
            skipped = delta - 1
            stats.note_stall_slots(self._last_stall_reason,
                                   skipped * self._width)
            if thread.fetch_stall_until > now:
                stats.fetch_stall_cycles += skipped
            queue = thread.decode_q
            if queue:
                if now < thread.alloc_stall_until or self._stop_alloc:
                    stats.dispatch_stall_cycles += skipped
                elif queue[0][0] <= now:
                    # the ready head is refused its entries every cycle
                    stats.dispatch_stall_cycles += skipped
                    self.window.note_alloc_stall(
                        1, 1, queue[0][1].uop.is_mem, skipped)
            if self._stop_alloc:
                stats.stop_alloc_cycles += skipped
        activity = stats.activity
        iq_c, rob_c, lsq_c, iq_m, rob_m, lsq_m = self._cap_vec
        activity.iq_size_cycles += iq_c * delta
        activity.rob_size_cycles += rob_c * delta
        activity.lsq_size_cycles += lsq_c * delta
        activity.iq_max_cycles += iq_m * delta
        activity.rob_max_cycles += rob_m * delta
        activity.lsq_max_cycles += lsq_m * delta
        stall_until = thread.alloc_stall_until
        if now < stall_until:
            stats.transition_stall_cycles += min(delta, stall_until - now)

    def step_cycle(self) -> int:
        """Simulate the current cycle through every stage.

        Returns the suggested cycle delta: 1 normally, larger when the
        core is provably idle until a known future event (the caller may
        advance by any amount between 1 and the returned delta), and 0
        when the trace has fully drained.  The caller must follow up
        with :meth:`advance`.
        """
        progress = 0
        if self._events:
            progress += self._process_events()
        progress += self._commit_stage()
        if self._ready:
            progress += self._issue_stage()
        # a StaticPolicy never acts: skip its tick (and the per-cycle
        # decision allocation) entirely — observable behaviour identical
        if not self._policy_inert and self._policy_stage():
            progress += 1
        progress += self._dispatch_stage()
        progress += self._fetch_stage()
        if self._trace_done():
            delta = 0
        elif progress == 0 and not self._ready:
            jump = self._next_interesting_cycle()
            if jump is None:
                raise DeadlockError(self._deadlock_report(
                    "no events, no timers, nothing in flight"))
            horizon = self.jump_horizon
            if horizon is not None and jump > horizon:
                jump = horizon
            delta = max(1, jump - self.cycle) if self.fast_forward else 1
        else:
            delta = 1
        if self.on_step:
            for hook in self.on_step:
                hook()
        return delta

    def _deadlock_report(self, headline: str) -> str:
        """Diagnostic dump raised with a :class:`DeadlockError`.

        Built only on the error path, so the running simulator pays
        nothing for it.  When the debug harness is attached the last
        traced events are appended — the raw material for answering
        "what was the machine doing when it wedged?".
        """
        window = self.window
        h = self.hierarchy
        lines = [
            f"deadlock at cycle {self.cycle}: {headline}",
            f"  committed={self.committed_total} level={self.level} "
            f"stop_alloc={self._stop_alloc}",
            f"  rob={window.rob!r} iq={window.iq!r} lsq={window.lsq!r}",
            f"  events={len(self._events)} scheduled, "
            f"ready={len(self._ready)} queued",
            f"  policy={type(self.policy).__name__} "
            f"next_timer={self.policy.next_timer()}",
            f"  mshr: l1d {h.l1d_mshr.in_flight(self.cycle)}"
            f"/{h.l1d_mshr.entries} in flight, "
            f"l2 {h.l2_mshr.in_flight(self.cycle)}/{h.l2_mshr.entries}",
        ]
        for t in self.threads:
            queue = t.decode_q
            lines += [
                f"  t{t.tid} {t.trace.name}: level={t.level} "
                f"committed={t.committed} "
                f"trace_idx={t.trace_idx}/{len(t.trace.ops)} "
                f"wrong_mode={t.wrong_mode} "
                f"fetch_stall_until={t.fetch_stall_until} "
                f"alloc_stall_until={t.alloc_stall_until}"
                + ("" if t.window is window else f" {t.window!r}"),
                f"    rob_head={t.rob[0]!r}" if t.rob else "    rob empty",
                f"    decode_q={len(queue)} entries"
                + (f", head ready at {queue[0][0]}" if queue else ""),
            ]
        if self.debug is not None:
            lines.append("last traced events:")
            lines.append(self.debug.events.render(last=32))
        return "\n".join(lines)

    def advance(self, delta: int) -> None:
        """Account ``delta`` cycles and move the clock."""
        self._advance_accounting(delta)
        self.cycle += delta
        if self.on_advance:
            for hook in self.on_advance:
                hook()

    def run(self, until_committed: int, max_cycles: int | None = None) -> None:
        """Advance until ``committed_total`` reaches ``until_committed``,
        the trace drains, or ``max_cycles`` is exceeded (error)."""
        if max_cycles is None:
            # Livelock bound on cycles elapsed *this call*: size it from
            # the commits still to go, not the absolute target — a run()
            # resumed at a high commit count (warmup done, measurement
            # segment) would otherwise inherit an inflated allowance.
            max_cycles = (self.cycle
                          + (until_committed - self.committed_total + 1000)
                          * 600)
        step = self.step_cycle
        advance = self.advance
        while self.committed_total < until_committed:
            if self.cycle > max_cycles:
                raise DeadlockError(self._deadlock_report(
                    f"exceeded {max_cycles} cycles with only "
                    f"{self.committed_total}/{until_committed} committed "
                    f"(likely livelock)"))
            delta = step()
            if delta == 0:
                break
            advance(delta)

    def _trace_done(self) -> bool:
        if self.runahead is not None and self.runahead.active:
            return False    # fetch index will be rewound at runahead exit
        thread = self.thread
        return (not thread.wrong_mode
                and thread.trace_idx >= len(thread.trace.ops)
                and not thread.rob and not thread.decode_q)

    def trace_drained(self) -> bool:
        """True when the trace is exhausted and the machine is empty.

        Public form of the drain check for external schedulers
        (:class:`repro.multicore.MultiCoreSystem`), which must be able
        to tell "this core is finished" apart from "this core merely
        made no progress this cycle" — ``step_cycle() == 0`` alone
        cannot distinguish the two for every core implementation.
        """
        return self._trace_done()

    def _next_interesting_cycle(self) -> int | None:
        """The first cycle ahead at which an event is due, a stall ends,
        a decoded op is ready or the policy wakes; None if there is none."""
        now = self.cycle
        candidates = self._policy_wakeups()
        if self._events:
            candidates.append(self._events[0][0])
        for thread in self.threads:
            candidates.append(thread.fetch_stall_until)
            candidates.append(thread.alloc_stall_until)
            if thread.decode_q:
                candidates.append(thread.decode_q[0][0])
        future = [c for c in candidates if c is not None and c > now]
        return min(future) if future else None

    def _policy_wakeups(self) -> list:
        """The cycles the policy must be ticked at (None: no timer)."""
        # an inert (static or pinned) policy never acts, so its per-cycle
        # wishes and timers must not shape fast-forwarding either — a
        # pinned run has to take the exact jump sequence of a static one
        if self._policy_inert:
            return []
        policy = self.policy
        if policy.wants_tick_every_cycle:
            return [self.cycle + 1]
        return [policy.next_timer()]

    # ------------------------------------------------------------------
    # measurement control and result extraction

    def prewarm(self, budget_fraction: float = 0.625) -> None:
        """Checkpoint-style cache warming (DESIGN.md §5).

        ``budget_fraction`` caps the total prewarm at that fraction of
        the L2 (multi-core systems split it between cores, and the
        threads of an SMT core split it evenly between them).

        The paper skips 16G instructions before measuring, which leaves
        resident working sets warm.  A Python-scale sample cannot afford
        that, so each thread's declared resident regions are
        pre-installed in its own address space: into the L2 (capped at
        half its capacity per region so steady-state capacity pressure
        is preserved) and, for small hot sets, the L1D.  Pre-installed
        lines count as touched correct-path lines in the Figure 11
        accounting.  Each thread's predictor is pretrained too.
        """
        h = self.hierarchy
        line = h.l2.line_bytes
        share = budget_fraction / len(self.threads)
        for thread in self.threads:
            offset = thread.tid * DATA_OFFSET
            # Total prewarm is capped below the L2 capacity and allocated
            # by priority (hot sets first, then the smaller regions) —
            # warming more than fits would just self-evict and
            # manufacture thrash the steady state does not have.
            budget = int(self.config.l2.size_bytes * share)
            for base, size, l1_too in sorted(thread.trace.warm_regions,
                                             key=lambda r: (not r[2], r[1])):
                span = min(size, budget)
                span -= span % line
                if span <= 0:
                    break
                budget -= span
                h.l2.install_span(base + offset, span, touched=True)
                if l1_too and size <= self.config.l1d.size_bytes:
                    h.l1d.install_span(base + offset, size)
            pretrain_predictor(thread.predictor, thread.trace.ops)

    def reset_measurement(self) -> None:
        """Zero all statistics (microarchitectural state is retained) —
        call at the warmup/measurement boundary.

        The hierarchy reset is ownership-aware: shared structures (the
        multi-core L2/channel) are left to the system-level reset so
        their counters are zeroed exactly once, not once per core.
        """
        for thread in self.threads:
            thread.stats.reset()
            thread.predictor.predictions = 0
            thread.predictor.mispredictions = 0
        self.hierarchy.reset_measurement()

    def result(self) -> SimulationResult:
        """Snapshot the measured statistics into a result record."""
        return self._thread_result(self.thread)

    def _thread_result(self, thread: Thread) -> SimulationResult:
        return self._result(thread.trace.name, self.config.model.value,
                            thread.stats, thread.predictor.mispredict_rate())

    def _result(self, program: str, model: str, stats: SimStats,
                mispredict_rate: float) -> SimulationResult:
        """A result record of ``stats``; the memory figures are
        hierarchy-wide."""
        h = self.hierarchy
        return SimulationResult(
            program=program,
            model=model,
            level=self.config.level,
            cycles=stats.cycles,
            instructions=stats.committed_uops,
            ipc=stats.ipc,
            avg_load_latency=h.average_load_latency(),
            mispredict_rate=mispredict_rate,
            mlp=mlp_from_intervals(stats.demand_miss_intervals),
            level_residency=stats.level_residency(),
            line_usage=h.line_usage().as_dict(),
            memory_stats={
                "l1i_accesses": h.l1i.accesses,
                "l1i_misses": h.l1i.misses,
                "l1d_accesses": h.l1d.accesses,
                "l1d_misses": h.l1d.misses,
                "l2_accesses": h.l2.accesses,
                "l2_misses": h.l2.misses,
                "dram_requests": h.memory.requests,
                "prefetch_fills": h.prefetch_fills,
                "row_hit_rate": getattr(h.memory, "row_hit_rate",
                                        lambda: 0.0)(),
            },
            stats=stats,
        )


def pretrain_predictor(predictor: BranchPredictor, ops) -> None:
    """Replay a trace's branch stream through ``predictor``.

    A 16-bit gshare needs each (PC, history) context trained
    individually; rare history contexts (those following a rarely
    taken branch) would otherwise cold-miss throughout a short
    sample.  The paper's 16G skipped instructions provide exactly
    this training; we substitute a functional (zero-time) replay of
    the branch outcomes the sample will execute.
    """
    for uop in ops:
        if uop.is_branch:
            __, ___, token = predictor.predict(uop.pc, uop.pc + 4)
            predictor.resolve(token, uop.taken, uop.target)
    predictor.predictions = 0
    predictor.mispredictions = 0


def simulate(config: ProcessorConfig, trace: "Trace",
             warmup: int = 5_000, measure: int = 30_000,
             policy: ResizingPolicy | None = None,
             prewarm: bool = True, sanitize: bool = False,
             fast_forward: bool = True,
             telemetry=None) -> SimulationResult:
    """Run one trace on one configuration and return the measured result.

    The caches are pre-installed with the trace's resident regions
    (unless ``prewarm=False``), then ``warmup`` committed micro-ops are
    executed to warm the predictors and the rest of the memory system,
    statistics are reset, and ``measure`` micro-ops are measured.  The
    trace must contain at least ``warmup + measure`` ops.

    ``sanitize=True`` attaches the :mod:`repro.debug` invariant
    sanitizer for the whole run (including warmup) and verifies the
    final accounting before returning.  Timing is unchanged; host speed
    is not.

    ``fast_forward=False`` forces the main loop to step every simulated
    cycle instead of jumping over provably idle ones.  Observable timing
    must be unchanged — that is the fast-forward equivalence oracle of
    :mod:`repro.verify`, which would catch any timer-skew bug where a
    jump lands past a cycle a policy needed to observe.

    ``telemetry`` takes a :class:`repro.telemetry.TelemetryProbe`; it is
    attached at the warmup/measurement boundary (so the recording covers
    exactly the measured region), flushed before the result is
    extracted and detached.  Sampling is purely observational: the
    returned result's canonical stat digest is bit-identical to a
    ``telemetry=None`` run (the digest-neutrality invariant of
    :mod:`repro.telemetry`, enforced by ``tests/test_telemetry.py``).

    The machine is freed by reference counting when this returns: no
    component holds its owner, and the sanitizer and the probe, whose
    back references are how they observe, are detached here.
    """
    if len(trace.ops) < warmup + measure:
        raise ValueError(
            f"trace has {len(trace.ops)} ops; need {warmup + measure}")
    proc = Processor(config, trace, policy=policy, sanitize=sanitize)
    proc.fast_forward = fast_forward
    if prewarm:
        proc.prewarm()
    if warmup:
        proc.run(until_committed=warmup)
        proc.reset_measurement()
    if telemetry is not None:
        telemetry.attach(proc)
    proc.run(until_committed=warmup + measure)
    if proc.debug is not None:
        proc.debug.final_check()
        proc.debug.detach()
    if telemetry is not None:
        telemetry.finish()
        telemetry.detach()
    return proc.result()
