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

# event kinds
_EV_COMPLETE = 0
_EV_WAKE = 1
_EV_RA_EXIT = 2


class InFlightOp:
    """Pipeline state of one in-flight micro-op."""

    __slots__ = (
        "seq", "uop", "trace_idx", "wrong_path",
        "pending_srcs", "consumers", "ready_cycle",
        "issued", "complete", "squashed", "in_iq",
        "issue_cycle", "complete_cycle", "woken_at",
        "branch_token", "mispredicted", "l2_miss",
        "inv", "inherit_inv", "addr_known_cycle", "forwarded",
        "fwd_waiters", "fetch_cycle", "dispatch_cycle",
    )

    def __init__(self, seq: int, uop: MicroOp, trace_idx: int,
                 wrong_path: bool) -> None:
        self.seq = seq
        self.uop = uop
        self.trace_idx = trace_idx
        self.wrong_path = wrong_path
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


class Processor:
    """One simulated processor instance running one trace."""

    def __init__(self, config: ProcessorConfig, trace: "Trace",
                 policy: ResizingPolicy | None = None,
                 hierarchy: MemoryHierarchy | None = None,
                 sanitize: bool = False) -> None:
        """``hierarchy`` may be injected to share L2/DRAM components
        between cores (see :mod:`repro.multicore`).

        ``sanitize`` attaches the :mod:`repro.debug` invariant sanitizer
        and cycle-event trace.  The flag is resolved here, once: when it
        is False nothing is installed and the per-cycle paths carry no
        debug branches at all."""
        self.config = config
        self.trace = trace
        self.stats = SimStats()
        self.hierarchy = hierarchy or MemoryHierarchy(config)
        self.predictor = BranchPredictor(config.branch)
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
        self._update_level_params()

        self.hierarchy.add_l2_miss_listener(self._on_l2_miss)

        # timing state
        self.cycle = 0
        self.committed_total = 0
        self._seq = 0
        self._events: list[tuple[int, int, int, object]] = []
        self._event_seq = 0

        # fetch state
        self._trace_idx = 0
        self._wrong_mode = False
        self._wrong_branch: InFlightOp | None = None
        self._wrong_base_pc = 0
        self._wrong_k = 0
        self._fetch_stall_until = 0
        self._last_fetch_line = -1
        self._decode_q: deque[tuple[int, InFlightOp]] = deque()

        # backend state
        self._map: dict[int, InFlightOp] = {}
        self.rob: deque[InFlightOp] = deque()
        self._ready: list[tuple[int, InFlightOp]] = []
        #: word address -> youngest in-flight store to that word, kept
        #: from dispatch to commit (perfect memory disambiguation, as in
        #: the paper's SimpleScalar substrate: a load only orders against
        #: older stores to the *same* address, never against unrelated
        #: stores with unresolved addresses).
        self._pending_stores: dict[int, InFlightOp] = {}
        self._fu_limits = {
            "int_alu": config.fu.int_alu,
            "int_mul_div": config.fu.int_mul_div,
            "mem_ports": config.fu.mem_ports,
            "fp_alu": config.fu.fp_alu,
            "fp_mul_div": config.fu.fp_mul_div,
        }
        # hot-path vectors/scalars (indexed by _FU_INDEX / hoisted out of
        # the per-cycle stages; FU usage is reset each issue cycle)
        self._fu_limit_vec = [self._fu_limits[p] for p in _FU_POOLS]
        self._fu_used_vec = [0] * len(_FU_POOLS)
        self._width = config.width
        self._l1i_line_bytes = config.l1i.line_bytes
        self._l1i_hit_latency = config.l1i.hit_latency
        #: a StaticPolicy — or any policy pinned to a constant level via
        #: ResizingPolicy.pin() — never resizes or stops allocation, so
        #: its per-cycle tick (and decision allocation), miss
        #: notifications and timers are all skipped whole.  This is the
        #: pin-equivalence hook: a pinned run takes exactly the code
        #: paths of a static one (repro.verify asserts bit-identity).
        self._policy_inert = (type(self.policy) is StaticPolicy
                              or self.policy.pinned_level is not None)
        self._refresh_capacity_cache()

        # resizing state
        self._alloc_stall_until = 0
        self._stop_alloc = False
        self._last_stall_reason: str | None = None
        #: True when the last fast-forward target was set by a policy
        #: timer that fired strictly before any machine event — the
        #: jumped-over commit slots belong to the resize controller,
        #: not to whatever stalled commit before the jump.
        self._ff_timer_jump = False

        #: optional PipelineTracer recording per-op lifecycles
        self.tracer = None
        #: optional telemetry probe (set by TelemetryProbe.attach).  Like
        #: ``debug``, this stays None on a plain run and no per-cycle code
        #: consults it — the probe installs itself by shadowing bound
        #: methods, so telemetry-off costs nothing (repro.telemetry).
        self.telemetry = None
        #: fast-forward over provably idle cycles (disable to validate
        #: that the optimisation never changes observable timing)
        self.fast_forward = True
        # runahead engine (installed for the RUNAHEAD model)
        self.runahead = None
        if config.model is ModelKind.RUNAHEAD:
            from repro.runahead import RunaheadEngine
            self.runahead = RunaheadEngine(self)
        #: optional debug harness (invariant sanitizer + event trace).
        #: Resolved once, here: with ``sanitize=False`` this stays None
        #: and no per-cycle code ever consults it.
        self.debug = None
        if sanitize:
            from repro.debug import Sanitizer
            self.debug = Sanitizer(self)

    # ------------------------------------------------------------------
    # level handling

    def _update_level_params(self) -> None:
        cfg = self.config.level_config(self.level)
        if self.ideal:
            self.extra_wakeup_delay = 0
            self.extra_branch_penalty = 0
        else:
            self.extra_wakeup_delay = cfg.extra_wakeup_delay
            self.extra_branch_penalty = cfg.extra_branch_penalty

    def _refresh_capacity_cache(self) -> None:
        """Capacities only change at level transitions; cache them so the
        per-cycle accounting avoids six attribute chains."""
        window = self.window
        self._cap_vec = (window.iq.capacity, window.rob.capacity,
                         window.lsq.capacity, window.iq.max_capacity,
                         window.rob.max_capacity, window.lsq.max_capacity)

    def _apply_level(self, new_level: int) -> None:
        if new_level > self.level:
            self.stats.enlarge_transitions += 1
        else:
            self.stats.shrink_transitions += 1
        self.stats.level_transitions.append((self.cycle, new_level))
        self.level = new_level
        self.window.resize_to(new_level)
        self._update_level_params()
        self._refresh_capacity_cache()
        self._alloc_stall_until = max(
            self._alloc_stall_until,
            self.cycle + self.config.transition_penalty)

    def _on_l2_miss(self, detect_cycle: int) -> None:
        if not self._policy_inert:
            self.policy.on_l2_miss(detect_cycle)
        self.stats.l2_miss_cycles.append(detect_cycle)

    # ------------------------------------------------------------------
    # event machinery

    def _schedule(self, cycle: int, kind: int, payload: object) -> None:
        self._event_seq += 1
        _heappush(self._events, (cycle, self._event_seq, kind, payload))

    def _process_events(self) -> int:
        processed = 0
        events = self._events
        while events and events[0][0] <= self.cycle:
            __, ___, kind, payload = _heappop(events)
            processed += 1
            if kind == _EV_COMPLETE:
                self._complete_op(payload)
            elif kind == _EV_WAKE:
                self._wake_consumers(payload)
            elif kind == _EV_RA_EXIT:
                self.runahead.exit_runahead(self.cycle)
        return processed

    def _complete_op(self, op: InFlightOp) -> None:
        if op.squashed or op.complete:
            return
        op.complete = True
        op.complete_cycle = self.cycle
        if op.uop.is_branch and op.branch_token is not None:
            self._resolve_branch(op)
        # A pipelined wakeup/select loop of depth d forbids back-to-back
        # dependent issue: the consumer cannot issue before
        # producer_issue + d.  For producers whose execution latency is
        # at least d the broadcast has already caught up, so only
        # short-latency producers (the ILP-critical IALU chains) pay.
        if op.uop.is_store:
            self._store_executed(op)
        latency = max(1, self.cycle - op.issue_cycle)
        delay = max(0, self.extra_wakeup_delay + 1 - latency)
        op.woken_at = self.cycle + delay
        self.stats.activity.iq_wakeups += 1
        if delay == 0:
            self._wake_consumers(op)
        else:
            self._schedule(op.woken_at, _EV_WAKE, op)

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
    # branch resolution

    def _resolve_branch(self, op: InFlightOp) -> None:
        uop = op.uop
        self.predictor.resolve(op.branch_token, uop.taken, uop.target)
        if not op.mispredicted:
            return
        self._squash_after(op.seq)
        if self._wrong_branch is op:
            self._wrong_mode = False
            self._wrong_branch = None
        penalty = (self.config.branch.mispredict_penalty
                   + self.extra_branch_penalty)
        self._fetch_stall_until = max(self._fetch_stall_until,
                                      self.cycle + penalty)
        self._last_fetch_line = -1

    def _squash_after(self, after_seq: int) -> None:
        """Remove every op younger than ``after_seq`` from the machine."""
        rob = self.rob
        window = self.window
        while rob and rob[-1].seq > after_seq:
            op = rob.pop()
            op.squashed = True
            window.rob.release()
            if op.in_iq and not op.issued:
                window.iq.release()
            if op.uop.is_mem:
                window.lsq.release()
            self.stats.squashed_uops += 1
        for __, op in self._decode_q:
            op.squashed = True
            self.stats.squashed_uops += 1
        self._decode_q.clear()
        # Rebuild the map table and the pending-store table from the
        # surviving ROB contents.
        self._map.clear()
        self._pending_stores.clear()
        for op in rob:
            dst = op.uop.dst
            if dst != REG_INVALID:
                self._map[dst] = op
            if op.uop.is_store:
                self._pending_stores[op.uop.addr & ~7] = op

    # ------------------------------------------------------------------
    # commit

    def _commit_stage(self) -> int:
        committed = 0
        rob = self.rob
        width = self._width
        window = self.window
        rob_release = window.rob.release
        lsq_release = window.lsq.release
        engine = self.runahead
        in_runahead = engine is not None and engine.active
        while rob and committed < width:
            op = rob[0]
            if in_runahead:
                if not engine.can_pseudo_retire(op):
                    break
                rob.popleft()
                engine.pseudo_retire(op, self.cycle)
                rob_release()
                if op.uop.is_mem:
                    lsq_release()
                committed += 1
                continue
            if not op.complete:
                if (engine is not None and op.uop.is_load and op.l2_miss
                        and op.issued):
                    if engine.consider_entry(op, self.cycle):
                        in_runahead = True
                        continue
                break
            rob.popleft()
            rob_release()
            if op.uop.is_mem:
                lsq_release()
            self._commit_op(op)
            committed += 1
        if committed:
            # keep the WindowSet's commit counter current: feedback
            # policies (ContributionPolicy) read their commit-throughput
            # signal from it at tick time
            window.committed += committed
        if committed < width:
            reason = self._classify_commit_block()
            self.stats.note_stall_slots(reason, width - committed)
            self._last_stall_reason = reason
        else:
            self._last_stall_reason = None
        return committed

    def _classify_commit_block(self) -> str:
        """Why the ROB head could not commit this cycle (CPI stack)."""
        if not self.rob:
            return "frontend"
        head = self.rob[0]
        uop = head.uop
        if head.issued:
            if uop.is_load:
                if head.l2_miss:
                    return "mem_dram"
                if head.forwarded:
                    return "mem_forward"
                return "mem_cache"
            return "exec"
        if head.pending_srcs > 0:
            return "deps"
        if head.ready_cycle >= self.cycle:
            # woke up this very cycle: the wait was the dependence chain
            # (commit runs before issue within a cycle)
            return "deps"
        return "issue"

    def _commit_op(self, op: InFlightOp) -> None:
        uop = op.uop
        self.committed_total += 1
        if self.tracer is not None:
            self.tracer.on_commit(op, self.cycle)
        stats = self.stats
        stats.committed_uops += 1
        if uop.is_load:
            stats.committed_loads += 1
        elif uop.is_store:
            stats.committed_stores += 1
            word = uop.addr & ~7
            if self._pending_stores.get(word) is op:
                del self._pending_stores[word]
            self.hierarchy.store(uop.addr, self.cycle, AccessPath.CORRECT)
        elif uop.is_branch:
            stats.committed_branches += 1
            if op.mispredicted:
                stats.committed_mispredicts += 1
                stats.note_mispredict_commit()
        stats.activity.rob_reads += 1

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
            pool = _FU_INDEX[op.uop.op]
            if fu_used[pool] >= fu_limits[pool]:
                defer(item)
                continue
            fu_used[pool] += 1
            self._issue_op(op)
            issued += 1
        for item in deferred:
            _heappush(ready, item)
        return issued

    def _issue_op(self, op: InFlightOp) -> None:
        now = self.cycle
        op.issued = True
        op.issue_cycle = now
        if op.in_iq:
            self.window.iq.release()
            op.in_iq = False
        stats = self.stats
        stats.issued_uops += 1
        stats.activity.iq_issues += 1
        stats.activity.fu_ops += 1
        if op.inherit_inv:
            op.inv = True
        uop = op.uop
        if uop.is_load:
            self._issue_load(op)
        elif uop.is_store:
            self._issue_store(op)
        else:
            latency = EXEC_LATENCY[uop.op]
            self._schedule(now + latency, _EV_COMPLETE, op)

    # ----- loads / stores --------------------------------------------

    def _issue_load(self, op: InFlightOp) -> None:
        addr_ready = self.cycle + EXEC_LATENCY[OpClass.LOAD]
        op.addr_known_cycle = addr_ready
        self.stats.activity.lsq_searches += 1
        if op.inv:
            # Runahead INV address: produce INV without touching memory.
            self._schedule(addr_ready + 1, _EV_COMPLETE, op)
            return
        word = op.uop.addr & ~7
        store = self._pending_stores.get(word)
        if store is not None and not store.squashed and store.seq < op.seq:
            op.forwarded = True
            if self.runahead is not None and store.inv:
                op.inv = True
            if store.complete:
                self._schedule(max(addr_ready, store.complete_cycle) + 1,
                               _EV_COMPLETE, op)
            else:
                # Forward once the producing store has executed.
                if store.fwd_waiters is None:
                    store.fwd_waiters = [op]
                else:
                    store.fwd_waiters.append(op)
            return
        if (self.runahead is not None and self.runahead.active
                and self.runahead.cache_hit(word)):
            op.forwarded = True
            self._schedule(addr_ready + 1, _EV_COMPLETE, op)
            return
        self._start_memory_access(op, addr_ready)

    def _start_memory_access(self, op: InFlightOp, start: int) -> None:
        uop = op.uop
        path = AccessPath.WRONG if op.wrong_path else AccessPath.CORRECT
        engine = self.runahead
        if engine is not None and engine.active and not engine.may_issue_fill(
                self.hierarchy, start):
            # Miss buffers saturated / episode fill budget exhausted:
            # drop the runahead fill and INV the load.
            op.inv = True
            self._schedule(start + 2, _EV_COMPLETE, op)
            return
        self.stats.activity.l1d_accesses += 1
        result = self.hierarchy.load(uop.addr, start, uop.pc, path)
        # Record the scheduled fill time eagerly: the runahead engine needs
        # it to time its exit while the load is still incomplete.
        op.complete_cycle = result.complete_cycle
        if result.l2_miss:
            op.l2_miss = True
            if not op.wrong_path:
                self.stats.demand_miss_intervals.append(
                    (start, result.complete_cycle))
        engine = self.runahead
        if engine is not None and engine.active:
            # Runahead: a long-latency load (a fresh L2 miss, or a merge
            # into a line another miss is still fetching) gets an INV
            # result immediately while its fill proceeds underneath (the
            # prefetching effect).  Blocking on it would stall
            # pseudo-retirement for the rest of the episode.
            long_latency = (result.complete_cycle - start
                            > self.config.l2.hit_latency + 8)
            if result.l2_miss or long_latency:
                op.inv = True
                if result.l2_miss:
                    engine.note_episode_miss()
                self._schedule(start + 2, _EV_COMPLETE, op)
                return
        self._schedule(result.complete_cycle, _EV_COMPLETE, op)

    def _issue_store(self, op: InFlightOp) -> None:
        addr_ready = self.cycle + EXEC_LATENCY[OpClass.STORE]
        op.addr_known_cycle = addr_ready
        engine = self.runahead
        if engine is not None and engine.active and not op.inv:
            engine.cache_write(op.uop.addr & ~7)
        self._schedule(addr_ready, _EV_COMPLETE, op)

    def _store_executed(self, op: InFlightOp) -> None:
        """A store finished executing: satisfy loads waiting to forward."""
        waiters = op.fwd_waiters
        if not waiters:
            return
        op.fwd_waiters = None
        now = self.cycle
        for load in waiters:
            if load.squashed:
                continue
            self._schedule(now + 1, _EV_COMPLETE, load)

    # ------------------------------------------------------------------
    # dispatch

    def _dispatch_stage(self) -> int:
        if self.cycle < self._alloc_stall_until or self._stop_alloc:
            if self._decode_q:
                self.stats.dispatch_stall_cycles += 1
            return 0
        dispatched = 0
        width = self._width
        queue = self._decode_q
        window = self.window
        now = self.cycle
        while queue and dispatched < width:
            ready_at, op = queue[0]
            if ready_at > now:
                break
            is_mem = op.uop.is_mem
            need_lsq = 1 if is_mem else 0
            if not window.has_room(1, 1, need_lsq):
                # record exactly once per stalled cycle (the query above
                # is side-effect free), keeping full_events == number of
                # cycles the resource blocked allocation
                window.note_alloc_stall(1, 1, need_lsq)
                self.stats.dispatch_stall_cycles += 1
                break
            queue.popleft()
            self._dispatch_op(op)
            dispatched += 1
        return dispatched

    def _dispatch_op(self, op: InFlightOp) -> None:
        window = self.window
        uop = op.uop
        op.dispatch_cycle = self.cycle
        window.rob.allocate()
        window.iq.allocate()
        op.in_iq = True
        if uop.is_mem:
            window.lsq.allocate()
        stats = self.stats
        stats.dispatched_uops += 1
        if op.wrong_path:
            stats.wrong_path_uops += 1
        activity = stats.activity
        activity.renames += 1
        activity.iq_writes += 1
        activity.rob_writes += 1

        now = self.cycle
        pending = 0
        map_get = self._map.get
        for src in uop.srcs:
            producer = map_get(src)
            if producer is None or producer.squashed:
                continue
            if producer.woken_at >= 0 and producer.woken_at <= now:
                if producer.inv:
                    op.inherit_inv = True
                continue
            if producer.consumers is None:
                producer.consumers = [op]
            else:
                producer.consumers.append(op)
            pending += 1
        op.pending_srcs = pending
        op.ready_cycle = now + 1
        if pending == 0:
            _heappush(self._ready, (op.seq, op))
        if uop.dst != REG_INVALID:
            self._map[uop.dst] = op
        self.rob.append(op)
        if uop.is_store:
            self._pending_stores[uop.addr & ~7] = op

    # ------------------------------------------------------------------
    # fetch

    def _fetch_stage(self) -> int:
        now = self.cycle
        if now < self._fetch_stall_until:
            self.stats.fetch_stall_cycles += 1
            return 0
        fetched = 0
        width = self._width
        queue = self._decode_q
        activity = self.stats.activity
        trace_ops = self.trace.ops
        n_trace_ops = len(trace_ops)
        l1i_line = self._l1i_line_bytes
        l1i_hit = self._l1i_hit_latency
        while fetched < width and len(queue) < FETCH_BUFFER:
            if self._wrong_mode:
                uop = self.trace.wrong_path.op_at(self._wrong_base_pc,
                                                  self._wrong_k)
                trace_idx = -1
            else:
                if self._trace_idx >= n_trace_ops:
                    break
                uop = trace_ops[self._trace_idx]
                trace_idx = self._trace_idx
            # I-cache access on a new line
            line = uop.pc - (uop.pc % l1i_line)
            if line != self._last_fetch_line:
                activity.l1i_accesses += 1
                done = self.hierarchy.ifetch(uop.pc, now)
                self._last_fetch_line = line
                if done > now + l1i_hit:
                    self._fetch_stall_until = done
                    break
            self._seq += 1
            op = InFlightOp(self._seq, uop, trace_idx, self._wrong_mode)
            op.fetch_cycle = now
            activity.fetches += 1
            activity.decodes += 1
            end_cycle = False
            if self._wrong_mode:
                self._wrong_k += 1
                end_cycle = uop.is_branch     # taken wrong-path branch
            elif uop.is_branch:
                end_cycle = self._fetch_branch(op)
            else:
                self._trace_idx += 1
            queue.append((now + DECODE_LATENCY, op))
            fetched += 1
            if end_cycle:
                break
        return fetched

    def _fetch_branch(self, op: InFlightOp) -> bool:
        """Predict a correct-path branch; returns True if fetch must stop
        this cycle (predicted-taken redirect bubble)."""
        uop = op.uop
        activity = self.stats.activity
        activity.bpred_lookups += 1
        pred_taken, pred_target, token = self.predictor.predict(
            uop.pc, uop.pc + 4)
        op.branch_token = token
        self._trace_idx += 1
        actual_taken = uop.taken
        mispredicted = (pred_taken != actual_taken
                        or (actual_taken and pred_target != uop.target))
        op.mispredicted = mispredicted
        if mispredicted:
            self._wrong_mode = True
            self._wrong_branch = op
            self._wrong_base_pc = pred_target if pred_taken else uop.pc + 4
            self._wrong_k = 0
        return pred_taken

    # ------------------------------------------------------------------
    # resizing

    def _policy_stage(self) -> bool:
        self._stop_alloc = False
        decision = self.policy.tick(self.cycle, self.window)
        acted = False
        if decision.stop_alloc:
            self._stop_alloc = True
            self.stats.stop_alloc_cycles += 1
            acted = True
        if decision.new_level is not None and decision.new_level != self.level:
            self._apply_level(decision.new_level)
            acted = True
        return acted

    # ------------------------------------------------------------------
    # main loop

    def _advance_accounting(self, delta: int) -> None:
        stats = self.stats
        stats.cycles += delta
        stats.note_level_cycles(self.level, delta)
        if delta > 1:
            # fast-forwarded cycles: the machine state is frozen, so the
            # commit-block reason of the last simulated cycle persists —
            # unless the jump target was a policy timer firing before
            # any machine event, in which case the skipped slots belong
            # to the resize controller's own schedule
            if self._ff_timer_jump:
                reason = "policy_timer"
            else:
                reason = self._last_stall_reason or "frontend"
            stats.note_stall_slots(reason, (delta - 1) * self._width)
        activity = stats.activity
        iq_c, rob_c, lsq_c, iq_m, rob_m, lsq_m = self._cap_vec
        activity.iq_size_cycles += iq_c * delta
        activity.rob_size_cycles += rob_c * delta
        activity.lsq_size_cycles += lsq_c * delta
        activity.iq_max_cycles += iq_m * delta
        activity.rob_max_cycles += rob_m * delta
        activity.lsq_max_cycles += lsq_m * delta
        if self.cycle < self._alloc_stall_until:
            stats.transition_stall_cycles += min(
                delta, self._alloc_stall_until - self.cycle)

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
            return 0
        if progress == 0 and not self._ready:
            jump = self._next_interesting_cycle()
            if jump is None:
                raise DeadlockError(self._deadlock_report(
                    "no events, no timers, nothing in flight"))
            return max(1, jump - self.cycle) if self.fast_forward else 1
        return 1

    def _deadlock_report(self, headline: str) -> str:
        """Diagnostic dump raised with a :class:`DeadlockError`.

        Built only on the error path, so the running simulator pays
        nothing for it.  When the debug harness is attached the last
        traced events are appended — the raw material for answering
        "what was the machine doing when it wedged?".
        """
        window = self.window
        lines = [
            f"deadlock at cycle {self.cycle}: {headline}",
            f"  committed={self.committed_total} trace_idx={self._trace_idx}"
            f"/{len(self.trace.ops)} wrong_mode={self._wrong_mode}",
            f"  level={self.level} stop_alloc={self._stop_alloc} "
            f"alloc_stall_until={self._alloc_stall_until} "
            f"fetch_stall_until={self._fetch_stall_until}",
            f"  rob={window.rob!r} iq={window.iq!r} lsq={window.lsq!r}",
            f"  rob_head={self.rob[0]!r}" if self.rob else "  rob empty",
            f"  decode_q={len(self._decode_q)} entries"
            + (f", head ready at {self._decode_q[0][0]}"
               if self._decode_q else ""),
            f"  events={len(self._events)} scheduled, "
            f"ready={len(self._ready)} queued",
            f"  policy={type(self.policy).__name__} "
            f"next_timer={self.policy.next_timer()}",
            f"  mshr: l1d {self.hierarchy.l1d_mshr.in_flight(self.cycle)}"
            f"/{self.hierarchy.l1d_mshr.entries} in flight, "
            f"l2 {self.hierarchy.l2_mshr.in_flight(self.cycle)}"
            f"/{self.hierarchy.l2_mshr.entries}",
        ]
        if self.debug is not None:
            lines.append("last traced events:")
            lines.append(self.debug.events.render(last=32))
        return "\n".join(lines)

    def advance(self, delta: int) -> None:
        """Account ``delta`` cycles and move the clock."""
        self._advance_accounting(delta)
        self.cycle += delta

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
        return (not self._wrong_mode
                and self._trace_idx >= len(self.trace.ops)
                and not self.rob and not self._decode_q)

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
        now = self.cycle
        candidates = []
        if self._events:
            candidates.append(self._events[0][0])
        if self._fetch_stall_until > now:
            candidates.append(self._fetch_stall_until)
        if self._alloc_stall_until > now:
            candidates.append(self._alloc_stall_until)
        if self._decode_q:
            head_ready = self._decode_q[0][0]
            if head_ready > now:
                candidates.append(head_ready)
        # an inert (static or pinned) policy never acts, so its per-cycle
        # wishes and timers must not shape fast-forwarding either — a
        # pinned run has to take the exact jump sequence of a static one
        if not self._policy_inert and self.policy.wants_tick_every_cycle:
            candidates.append(now + 1)
        future = [c for c in candidates if c > now]
        machine_next = min(future) if future else None
        timer = None if self._policy_inert else self.policy.next_timer()
        if (timer is not None and timer > now
                and (machine_next is None or timer < machine_next)):
            # the policy timer alone wakes the core: tag the jump so the
            # skipped commit slots are charged to the controller, not to
            # the stall reason that happened to precede the jump
            self._ff_timer_jump = True
            return timer
        self._ff_timer_jump = False
        return machine_next

    # ------------------------------------------------------------------
    # measurement control and result extraction

    def prewarm(self, budget_fraction: float = 0.625) -> None:
        """Checkpoint-style cache warming (DESIGN.md §5).

        ``budget_fraction`` caps the total prewarm at that fraction of
        the L2 (multi-core systems split it between cores).

        The paper skips 16G instructions before measuring, which leaves
        resident working sets warm.  A Python-scale sample cannot afford
        that, so the trace's declared resident regions are pre-installed:
        into the L2 (capped at half its capacity per region so steady-state
        capacity pressure is preserved) and, for small hot sets, the L1D.
        Pre-installed lines count as touched correct-path lines in the
        Figure 11 accounting.
        """
        self._prewarm_regions(self.trace.warm_regions, budget_fraction)
        pretrain_predictor(self.predictor, self.trace.ops)

    def _prewarm_regions(self, regions, budget_fraction: float,
                         offset: int = 0) -> None:
        """Pre-install ``regions`` (shifted by ``offset`` bytes) within
        ``budget_fraction`` of the L2."""
        # Total prewarm is capped below the L2 capacity and allocated by
        # priority (hot sets first, then the smaller regions) — warming
        # more than fits would just self-evict and manufacture thrash the
        # steady state does not have.
        h = self.hierarchy
        budget = int(self.config.l2.size_bytes * budget_fraction)
        line = h.l2.line_bytes
        for base, size, l1_too in sorted(regions,
                                         key=lambda r: (not r[2], r[1])):
            span = min(size, budget)
            span -= span % line
            if span <= 0:
                break
            budget -= span
            h.l2.install_span(base + offset, span, touched=True)
            if l1_too and size <= self.config.l1d.size_bytes:
                h.l1d.install_span(base + offset, size)

    def reset_measurement(self) -> None:
        """Zero all statistics (microarchitectural state is retained) —
        call at the warmup/measurement boundary.

        The hierarchy reset is ownership-aware: shared structures (the
        multi-core L2/channel) are left to the system-level reset so
        their counters are zeroed exactly once, not once per core.
        """
        self.stats.reset()
        self.hierarchy.reset_measurement()
        self.predictor.predictions = 0
        self.predictor.mispredictions = 0

    def result(self) -> SimulationResult:
        """Snapshot the measured statistics into a result record."""
        stats = self.stats
        return SimulationResult(
            program=self.trace.name,
            model=self.config.model.value,
            level=self.config.level,
            cycles=stats.cycles,
            instructions=stats.committed_uops,
            ipc=stats.ipc,
            avg_load_latency=self.hierarchy.average_load_latency(),
            mispredict_rate=self.predictor.mispredict_rate(),
            mlp=mlp_from_intervals(stats.demand_miss_intervals),
            level_residency=stats.level_residency(),
            line_usage=self.hierarchy.line_usage().as_dict(),
            memory_stats={
                "l1i_accesses": self.hierarchy.l1i.accesses,
                "l1i_misses": self.hierarchy.l1i.misses,
                "l1d_accesses": self.hierarchy.l1d.accesses,
                "l1d_misses": self.hierarchy.l1d.misses,
                "l2_accesses": self.hierarchy.l2.accesses,
                "l2_misses": self.hierarchy.l2.misses,
                "dram_requests": self.hierarchy.memory.requests,
                "prefetch_fills": self.hierarchy.prefetch_fills,
                "row_hit_rate": getattr(self.hierarchy.memory,
                                        "row_hit_rate", lambda: 0.0)(),
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
        if uop.op is OpClass.BRANCH:
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
    exactly the measured region) and flushed before the result is
    extracted.  Sampling is purely observational: the returned result's
    canonical stat digest is bit-identical to a ``telemetry=None`` run
    (the digest-neutrality invariant of :mod:`repro.telemetry`, enforced
    by ``tests/test_telemetry.py``).
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
    if telemetry is not None:
        telemetry.finish()
    return proc.result()
