"""SMT pipeline: 2-4 hardware threads sharing one resizable window.

The paper resizes one window per core; its own premise — MLP phases
want *depth*, ILP phases want *speed* — is sharpest when several
hardware threads share that window.  Here each thread carries its own
trace, rename map, branch predictor and (for the ``mlp`` partition) its
own MLP phase detector, while the ROB/IQ/LSQ :class:`~repro.pipeline.
resources.WindowSet` and the fetch/dispatch/commit bandwidth are
shared.  A :mod:`repro.core.partition` policy maps the per-thread
detector levels onto per-thread entry quotas — the thread inside a
miss cluster gets the deep (slow) partition, ILP-phase threads keep
shallow fast ones — and an ICOUNT-style, MLP-aware selector picks
which thread fetches each cycle.

Design notes:

* :class:`SMTProcessor` subclasses :class:`~repro.pipeline.core.
  Processor` and inherits the thread-agnostic machinery unchanged
  (event heap, global oldest-first issue, wakeup propagation, the
  ``step_cycle`` stage order).  Thread-dependent stages (fetch,
  dispatch, commit, squash, policy) are overridden.  With one thread
  and a static partition every override reduces exactly to the
  baseline stage, which is what makes the single-thread-SMT ≡ baseline
  digest oracle (``python -m repro.verify smt``) hold bit-for-bit.
* Threads are address-space disjoint: thread ``t``'s data addresses
  are offset by ``t * 0x100_0000_0000`` and its PCs by
  ``t * 0x10_0000`` at every hierarchy access, so the shared caches
  see distinct, non-aliasing streams (thread 0's offsets are zero).
* A thread's *depth* (wakeup delay, branch penalty) tracks its own
  partition level, not the provisioned window: an ILP thread next to a
  miss-cluster thread keeps the shallow fast pipeline even though the
  physical window is large.
* Quotas gate *new* dispatch only.  After a repartition a thread whose
  occupancy exceeds its new quota simply cannot dispatch until it
  drains — the SMT analogue of the paper's ``stop_alloc`` drain, so
  the detectors run against an always-shrinkable window view.

Per-thread stall-slot CPI attribution (digest-excluded) is not
maintained; every digest-visible counter is kept per thread.
"""

from __future__ import annotations

from collections import deque
from heapq import heappush as _heappush
from typing import TYPE_CHECKING

from repro.config import ModelKind, ProcessorConfig
from repro.core.partition import PartitionPolicy, make_partition_policy
from repro.core.policies import StaticPolicy
from repro.core.resizing import MLPAwarePolicy
from repro.debug.errors import DeadlockError
from repro.frontend import BranchPredictor
from repro.isa import EXEC_LATENCY, OpClass, REG_INVALID
from repro.memory import AccessPath
from repro.pipeline.core import (
    DECODE_LATENCY,
    FETCH_BUFFER,
    InFlightOp,
    Processor,
    _EV_COMPLETE,
    _EV_WAKE,
    pretrain_predictor,
)
from repro.stats import SimStats, SimulationResult, mlp_from_intervals

if TYPE_CHECKING:
    from repro.workloads.trace import Trace

#: per-thread address-space offsets (thread 0 = 0, so a 1-thread SMT
#: run touches exactly the baseline addresses)
DATA_OFFSET = 0x100_0000_0000
PC_OFFSET = 0x10_0000


class SMTOp(InFlightOp):
    """An in-flight micro-op tagged with its hardware thread."""

    __slots__ = ("tid",)

    def __init__(self, seq: int, uop, trace_idx: int, wrong_path: bool,
                 tid: int) -> None:
        super().__init__(seq, uop, trace_idx, wrong_path)
        self.tid = tid


class _AlwaysShrinkable:
    """Window view handed to per-thread detectors: shrink is always
    granted, because quota gating (not ``stop_alloc``) performs the
    drain after a repartition."""

    committed = 0

    @staticmethod
    def can_shrink_to(level: int) -> bool:
        return True


_DETECTOR_VIEW = _AlwaysShrinkable()


class SMTThread:
    """Per-thread context: front-end state, rename map, private ROB
    view, quota/occupancy accounting and statistics."""

    __slots__ = (
        "tid", "trace", "predictor", "stats", "policy", "level",
        "extra_wakeup_delay", "extra_branch_penalty",
        "trace_idx", "wrong_mode", "wrong_branch", "wrong_base_pc",
        "wrong_k", "fetch_stall_until", "last_fetch_line", "decode_q",
        "map", "rob", "pending_stores",
        "quota_iq", "quota_rob", "quota_lsq",
        "occ_iq", "occ_rob", "occ_lsq",
        "alloc_stall_until", "committed", "outstanding_misses",
        "data_off", "pc_off", "last_commit_idx",
    )

    def __init__(self, tid: int, trace: "Trace",
                 predictor: BranchPredictor, stats: SimStats,
                 policy: MLPAwarePolicy | None, level: int) -> None:
        self.tid = tid
        self.trace = trace
        self.predictor = predictor
        self.stats = stats
        #: per-thread MLP phase detector (``mlp`` partition), else None
        self.policy = policy
        self.level = level
        self.extra_wakeup_delay = 0
        self.extra_branch_penalty = 0
        self.trace_idx = 0
        self.wrong_mode = False
        self.wrong_branch: SMTOp | None = None
        self.wrong_base_pc = 0
        self.wrong_k = 0
        self.fetch_stall_until = 0
        self.last_fetch_line = -1
        self.decode_q: deque[tuple[int, SMTOp]] = deque()
        self.map: dict[int, SMTOp] = {}
        self.rob: deque[SMTOp] = deque()
        self.pending_stores: dict[int, SMTOp] = {}
        self.quota_iq = 0
        self.quota_rob = 0
        self.quota_lsq = 0
        self.occ_iq = 0
        self.occ_rob = 0
        self.occ_lsq = 0
        self.alloc_stall_until = 0
        self.committed = 0
        #: correct-path demand L2 misses in flight (fetch deprioritiser)
        self.outstanding_misses = 0
        self.data_off = tid * DATA_OFFSET
        self.pc_off = tid * PC_OFFSET
        self.last_commit_idx = -1

    def drained(self) -> bool:
        return (not self.wrong_mode
                and self.trace_idx >= len(self.trace.ops)
                and not self.rob and not self.decode_q)

    def icount(self) -> int:
        """ICOUNT fetch priority: ops in decode/rename plus the IQ."""
        return len(self.decode_q) + self.occ_iq


class SMTProcessor(Processor):
    """One SMT core running 2-4 traces over a shared window."""

    def __init__(self, config: ProcessorConfig, traces: list["Trace"],
                 validate: bool = False) -> None:
        smt = config.smt
        if smt is None:
            raise ValueError("SMTProcessor needs config.smt "
                             "(see repro.config.smt_config)")
        if len(traces) != smt.threads:
            raise ValueError(f"config.smt.threads={smt.threads} but "
                             f"{len(traces)} traces supplied")
        # The base ctor provisions the shared window at config.level and
        # registers this object's (overridden) L2-miss listener.  The
        # base policy is pinned static — per-thread detectors replace it.
        super().__init__(config, traces[0], policy=StaticPolicy(config.level))

        self.partition: PartitionPolicy = make_partition_policy(
            smt.partition, config.levels, config.level)
        self.fetch_policy = smt.fetch
        self._nthreads = smt.threads
        self._validate = validate

        detectors_live = (smt.partition == "mlp")
        self.threads: list[SMTThread] = []
        for tid, trace in enumerate(traces):
            predictor = (self.predictor if tid == 0
                         else BranchPredictor(config.branch))
            stats = self.stats if tid == 0 else SimStats()
            detector = None
            if detectors_live:
                detector = MLPAwarePolicy(
                    max_level=config.level,
                    memory_latency=config.memory.min_latency)
            thread = SMTThread(tid, trace, predictor, stats, detector,
                               level=config.level)
            self.threads.append(thread)
        self._apply_partition()
        for thread in self.threads:
            if detectors_live:
                thread.level = thread.policy.level
            else:
                thread.level = self.partition.depth_level(
                    thread.tid, [t.level for t in self.threads],
                    thread.quota_rob)
            self._set_thread_depth(thread)
        if detectors_live:
            # detectors start at level 1: repartition to match
            self._apply_partition()
        #: per-thread detectors replace the inert base policy; the
        #: inherited step_cycle gates the policy stage on this flag
        self._policy_inert = not detectors_live
        #: thread whose hierarchy access is in progress (routes the
        #: synchronous L2-miss listener callback)
        self._cur_thread = self.threads[0]
        # stage rotation pointers (fairness of tied bandwidth claims)
        self._commit_rr = 0
        self._dispatch_rr = 0
        self._fetch_rr = 0

    # ------------------------------------------------------------------
    # partitioning

    def _set_thread_depth(self, thread: SMTThread) -> None:
        cfg = self.config.level_config(thread.level)
        thread.extra_wakeup_delay = cfg.extra_wakeup_delay
        thread.extra_branch_penalty = cfg.extra_branch_penalty

    def _apply_partition(self) -> None:
        levels = [t.level for t in self.threads]
        quotas = self.partition.quotas(levels, self.window)
        for thread, (qi, qr, ql) in zip(self.threads, quotas):
            thread.quota_iq = qi
            thread.quota_rob = qr
            thread.quota_lsq = ql

    def _apply_thread_level(self, thread: SMTThread, new_level: int) -> None:
        stats = thread.stats
        if new_level > thread.level:
            stats.enlarge_transitions += 1
        else:
            stats.shrink_transitions += 1
        stats.level_transitions.append((self.cycle, new_level))
        thread.level = new_level
        self._set_thread_depth(thread)
        # The transition penalty is charged to the thread whose own
        # level changed; peers absorb the induced quota change for free
        # (their structures are not the ones being repipelined).
        thread.alloc_stall_until = max(
            thread.alloc_stall_until,
            self.cycle + self.config.transition_penalty)
        self._apply_partition()

    def _policy_stage(self) -> bool:
        acted = False
        for thread in self.threads:
            detector = thread.policy
            if detector is None:
                continue
            decision = detector.tick(self.cycle, _DETECTOR_VIEW)
            new_level = decision.new_level
            if new_level is not None and new_level != thread.level:
                self._apply_thread_level(thread, new_level)
                acted = True
        return acted

    def _on_l2_miss(self, detect_cycle: int) -> None:
        thread = self._cur_thread
        if thread.policy is not None:
            thread.policy.on_l2_miss(detect_cycle)
        thread.stats.l2_miss_cycles.append(detect_cycle)

    # ------------------------------------------------------------------
    # events / completion

    def _complete_op(self, op: SMTOp) -> None:
        if op.squashed or op.complete:
            return
        op.complete = True
        op.complete_cycle = self.cycle
        thread = self.threads[op.tid]
        if op.uop.is_branch and op.branch_token is not None:
            self._resolve_branch(op)
        if op.uop.is_store:
            self._store_executed(op)
        if op.l2_miss and not op.wrong_path and op.uop.is_load:
            if thread.outstanding_misses > 0:
                thread.outstanding_misses -= 1
        latency = max(1, self.cycle - op.issue_cycle)
        delay = max(0, thread.extra_wakeup_delay + 1 - latency)
        op.woken_at = self.cycle + delay
        thread.stats.activity.iq_wakeups += 1
        if delay == 0:
            self._wake_consumers(op)
        else:
            self._schedule(op.woken_at, _EV_WAKE, op)

    # ------------------------------------------------------------------
    # branch resolution / squash

    def _resolve_branch(self, op: SMTOp) -> None:
        thread = self.threads[op.tid]
        uop = op.uop
        thread.predictor.resolve(op.branch_token, uop.taken, uop.target)
        if not op.mispredicted:
            return
        self._squash_thread_after(thread, op.seq)
        if thread.wrong_branch is op:
            thread.wrong_mode = False
            thread.wrong_branch = None
        penalty = (self.config.branch.mispredict_penalty
                   + thread.extra_branch_penalty)
        thread.fetch_stall_until = max(thread.fetch_stall_until,
                                       self.cycle + penalty)
        thread.last_fetch_line = -1

    def _squash_thread_after(self, thread: SMTThread, after_seq: int) -> None:
        """Remove the thread's ops younger than ``after_seq``; other
        threads' in-flight state is untouched (SMT squash is private)."""
        rob = thread.rob
        window = self.window
        stats = thread.stats
        while rob and rob[-1].seq > after_seq:
            op = rob.pop()
            op.squashed = True
            window.rob.release()
            thread.occ_rob -= 1
            if op.in_iq and not op.issued:
                window.iq.release()
                thread.occ_iq -= 1
            if op.uop.is_mem:
                window.lsq.release()
                thread.occ_lsq -= 1
            if (op.l2_miss and not op.wrong_path and op.uop.is_load
                    and not op.complete and thread.outstanding_misses > 0):
                thread.outstanding_misses -= 1
            stats.squashed_uops += 1
        for __, op in thread.decode_q:
            op.squashed = True
            stats.squashed_uops += 1
        thread.decode_q.clear()
        thread.map.clear()
        thread.pending_stores.clear()
        for op in rob:
            dst = op.uop.dst
            if dst != REG_INVALID:
                thread.map[dst] = op
            if op.uop.is_store:
                thread.pending_stores[op.uop.addr & ~7] = op

    # ------------------------------------------------------------------
    # commit

    def _commit_stage(self) -> int:
        committed = 0
        width = self._width
        window = self.window
        n = self._nthreads
        start = self._commit_rr
        for i in range(n):
            thread = self.threads[start + i if start + i < n
                                  else start + i - n]
            rob = thread.rob
            while rob and committed < width:
                op = rob[0]
                if not op.complete:
                    break
                rob.popleft()
                window.rob.release()
                thread.occ_rob -= 1
                if op.uop.is_mem:
                    window.lsq.release()
                    thread.occ_lsq -= 1
                self._commit_op(op)
                committed += 1
            if committed >= width:
                break
        self._commit_rr = start + 1 if start + 1 < n else 0
        if committed:
            window.committed += committed
        self._last_stall_reason = None
        return committed

    def _commit_op(self, op: SMTOp) -> None:
        uop = op.uop
        thread = self.threads[op.tid]
        self.committed_total += 1
        thread.committed += 1
        if self._validate and op.trace_idx >= 0:
            if op.trace_idx <= thread.last_commit_idx:
                raise AssertionError(
                    f"thread {thread.tid}: out-of-order commit "
                    f"(trace idx {op.trace_idx} after "
                    f"{thread.last_commit_idx})")
            thread.last_commit_idx = op.trace_idx
        stats = thread.stats
        stats.committed_uops += 1
        if uop.is_load:
            stats.committed_loads += 1
        elif uop.is_store:
            stats.committed_stores += 1
            word = uop.addr & ~7
            if thread.pending_stores.get(word) is op:
                del thread.pending_stores[word]
            self._cur_thread = thread
            self.hierarchy.store(uop.addr + thread.data_off, self.cycle,
                                 AccessPath.CORRECT)
        elif uop.is_branch:
            stats.committed_branches += 1
            if op.mispredicted:
                stats.committed_mispredicts += 1
                stats.note_mispredict_commit()
        stats.activity.rob_reads += 1

    # ------------------------------------------------------------------
    # issue (the global stage is inherited; per-op hooks are per-thread)

    def _issue_op(self, op: SMTOp) -> None:
        now = self.cycle
        op.issued = True
        op.issue_cycle = now
        thread = self.threads[op.tid]
        if op.in_iq:
            self.window.iq.release()
            thread.occ_iq -= 1
            op.in_iq = False
        stats = thread.stats
        stats.issued_uops += 1
        stats.activity.iq_issues += 1
        stats.activity.fu_ops += 1
        uop = op.uop
        if uop.is_load:
            self._issue_load(op)
        elif uop.is_store:
            self._issue_store(op)
        else:
            self._schedule(now + EXEC_LATENCY[uop.op], _EV_COMPLETE, op)

    def _issue_load(self, op: SMTOp) -> None:
        thread = self.threads[op.tid]
        addr_ready = self.cycle + EXEC_LATENCY[OpClass.LOAD]
        op.addr_known_cycle = addr_ready
        thread.stats.activity.lsq_searches += 1
        word = op.uop.addr & ~7
        store = thread.pending_stores.get(word)
        if store is not None and not store.squashed and store.seq < op.seq:
            op.forwarded = True
            if store.complete:
                self._schedule(max(addr_ready, store.complete_cycle) + 1,
                               _EV_COMPLETE, op)
            else:
                if store.fwd_waiters is None:
                    store.fwd_waiters = [op]
                else:
                    store.fwd_waiters.append(op)
            return
        self._start_memory_access(op, addr_ready)

    def _start_memory_access(self, op: SMTOp, start: int) -> None:
        thread = self.threads[op.tid]
        uop = op.uop
        path = AccessPath.WRONG if op.wrong_path else AccessPath.CORRECT
        thread.stats.activity.l1d_accesses += 1
        self._cur_thread = thread
        result = self.hierarchy.load(uop.addr + thread.data_off, start,
                                     uop.pc + thread.pc_off, path)
        op.complete_cycle = result.complete_cycle
        if result.l2_miss:
            op.l2_miss = True
            if not op.wrong_path:
                thread.stats.demand_miss_intervals.append(
                    (start, result.complete_cycle))
                thread.outstanding_misses += 1
        self._schedule(result.complete_cycle, _EV_COMPLETE, op)

    def _issue_store(self, op: SMTOp) -> None:
        op.addr_known_cycle = addr_ready = (self.cycle
                                            + EXEC_LATENCY[OpClass.STORE])
        self._schedule(addr_ready, _EV_COMPLETE, op)

    # ------------------------------------------------------------------
    # dispatch

    def _dispatch_stage(self) -> int:
        now = self.cycle
        window = self.window
        width = self._width
        dispatched = 0
        n = self._nthreads
        start = self._dispatch_rr
        stall_noted = False
        for i in range(n):
            thread = self.threads[start + i if start + i < n
                                  else start + i - n]
            queue = thread.decode_q
            if now < thread.alloc_stall_until:
                if queue:
                    thread.stats.dispatch_stall_cycles += 1
                continue
            while queue and dispatched < width:
                ready_at, op = queue[0]
                if ready_at > now:
                    break
                is_mem = op.uop.is_mem
                need_lsq = 1 if is_mem else 0
                if not window.has_room(1, 1, need_lsq):
                    # global backpressure: recorded once per stalled
                    # cycle, exactly like the single-thread stage
                    if not stall_noted:
                        window.note_alloc_stall(1, 1, need_lsq)
                        stall_noted = True
                    thread.stats.dispatch_stall_cycles += 1
                    break
                if (thread.occ_rob >= thread.quota_rob
                        or thread.occ_iq >= thread.quota_iq
                        or (is_mem and thread.occ_lsq >= thread.quota_lsq)):
                    # partition quota reached (or over, after a shrink:
                    # drain-by-gating) — only this thread stalls
                    thread.stats.dispatch_stall_cycles += 1
                    break
                queue.popleft()
                self._dispatch_op(op, thread)
                dispatched += 1
            if dispatched >= width:
                break
        self._dispatch_rr = start + 1 if start + 1 < n else 0
        return dispatched

    def _dispatch_op(self, op: SMTOp, thread: SMTThread) -> None:
        window = self.window
        uop = op.uop
        op.dispatch_cycle = self.cycle
        window.rob.allocate()
        window.iq.allocate()
        thread.occ_rob += 1
        thread.occ_iq += 1
        op.in_iq = True
        if uop.is_mem:
            window.lsq.allocate()
            thread.occ_lsq += 1
        stats = thread.stats
        stats.dispatched_uops += 1
        if op.wrong_path:
            stats.wrong_path_uops += 1
        activity = stats.activity
        activity.renames += 1
        activity.iq_writes += 1
        activity.rob_writes += 1

        now = self.cycle
        pending = 0
        map_get = thread.map.get
        for src in uop.srcs:
            producer = map_get(src)
            if producer is None or producer.squashed:
                continue
            if producer.woken_at >= 0 and producer.woken_at <= now:
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
            thread.map[uop.dst] = op
        thread.rob.append(op)
        if uop.is_store:
            thread.pending_stores[uop.addr & ~7] = op

    # ------------------------------------------------------------------
    # fetch

    def _select_fetch_thread(self, now: int) -> SMTThread | None:
        """Pick the thread that owns the fetch port this cycle."""
        best = None
        best_key = None
        n = self._nthreads
        rr = self._fetch_rr
        for thread in self.threads:
            if now < thread.fetch_stall_until:
                continue
            if len(thread.decode_q) >= FETCH_BUFFER:
                continue
            if not thread.wrong_mode and \
                    thread.trace_idx >= len(thread.trace.ops):
                continue
            if self.fetch_policy == "roundrobin":
                key = ((thread.tid - rr) % n,)
            elif self.fetch_policy == "icount":
                key = (thread.icount(), thread.tid)
            else:   # "mlp": ICOUNT, but miss-cluster threads last — a
                # thread waiting on DRAM fills its partition from what it
                # already fetched; front-end bandwidth belongs to threads
                # that can turn it into ILP now
                key = (1 if thread.outstanding_misses else 0,
                       thread.icount(), thread.tid)
            if best_key is None or key < best_key:
                best = thread
                best_key = key
        if best is not None and self.fetch_policy == "roundrobin":
            self._fetch_rr = (best.tid + 1) % n
        return best

    def _fetch_stage(self) -> int:
        now = self.cycle
        thread = self._select_fetch_thread(now)
        if thread is None:
            return 0
        fetched = 0
        width = self._width
        queue = thread.decode_q
        activity = thread.stats.activity
        trace_ops = thread.trace.ops
        n_trace_ops = len(trace_ops)
        l1i_line = self._l1i_line_bytes
        l1i_hit = self._l1i_hit_latency
        tid = thread.tid
        pc_off = thread.pc_off
        self._cur_thread = thread
        while fetched < width and len(queue) < FETCH_BUFFER:
            if thread.wrong_mode:
                uop = thread.trace.wrong_path.op_at(thread.wrong_base_pc,
                                                    thread.wrong_k)
                trace_idx = -1
            else:
                if thread.trace_idx >= n_trace_ops:
                    break
                uop = trace_ops[thread.trace_idx]
                trace_idx = thread.trace_idx
            line = uop.pc - (uop.pc % l1i_line)
            if line != thread.last_fetch_line:
                activity.l1i_accesses += 1
                done = self.hierarchy.ifetch(uop.pc + pc_off, now)
                thread.last_fetch_line = line
                if done > now + l1i_hit:
                    thread.fetch_stall_until = done
                    break
            self._seq += 1
            op = SMTOp(self._seq, uop, trace_idx, thread.wrong_mode, tid)
            op.fetch_cycle = now
            activity.fetches += 1
            activity.decodes += 1
            end_cycle = False
            if thread.wrong_mode:
                thread.wrong_k += 1
                end_cycle = uop.is_branch
            elif uop.is_branch:
                end_cycle = self._fetch_branch_smt(thread, op)
            else:
                thread.trace_idx += 1
            queue.append((now + DECODE_LATENCY, op))
            fetched += 1
            if end_cycle:
                break
        return fetched

    def _fetch_branch_smt(self, thread: SMTThread, op: SMTOp) -> bool:
        uop = op.uop
        thread.stats.activity.bpred_lookups += 1
        pred_taken, pred_target, token = thread.predictor.predict(
            uop.pc, uop.pc + 4)
        op.branch_token = token
        thread.trace_idx += 1
        actual_taken = uop.taken
        mispredicted = (pred_taken != actual_taken
                        or (actual_taken and pred_target != uop.target))
        op.mispredicted = mispredicted
        if mispredicted:
            thread.wrong_mode = True
            thread.wrong_branch = op
            thread.wrong_base_pc = pred_target if pred_taken else uop.pc + 4
            thread.wrong_k = 0
        return pred_taken

    # ------------------------------------------------------------------
    # main loop plumbing

    def _advance_accounting(self, delta: int) -> None:
        now = self.cycle
        __, ___, ____, iq_m, rob_m, lsq_m = self._cap_vec
        for thread in self.threads:
            stats = thread.stats
            stats.cycles += delta
            stats.note_level_cycles(thread.level, delta)
            activity = stats.activity
            activity.iq_size_cycles += thread.quota_iq * delta
            activity.rob_size_cycles += thread.quota_rob * delta
            activity.lsq_size_cycles += thread.quota_lsq * delta
            activity.iq_max_cycles += iq_m * delta
            activity.rob_max_cycles += rob_m * delta
            activity.lsq_max_cycles += lsq_m * delta
            if now < thread.alloc_stall_until:
                stats.transition_stall_cycles += min(
                    delta, thread.alloc_stall_until - now)

    def _trace_done(self) -> bool:
        for thread in self.threads:
            if not thread.drained():
                return False
        return True

    def _next_interesting_cycle(self) -> int | None:
        now = self.cycle
        candidates = []
        if self._events:
            candidates.append(self._events[0][0])
        for thread in self.threads:
            if thread.fetch_stall_until > now:
                candidates.append(thread.fetch_stall_until)
            if thread.alloc_stall_until > now:
                candidates.append(thread.alloc_stall_until)
            if thread.decode_q:
                head_ready = thread.decode_q[0][0]
                if head_ready > now:
                    candidates.append(head_ready)
            detector = thread.policy
            if detector is not None:
                if detector.wants_tick_every_cycle:
                    candidates.append(now + 1)
                timer = detector.next_timer()
                if timer is not None and timer > now:
                    candidates.append(timer)
        future = [c for c in candidates if c > now]
        return min(future) if future else None

    def _deadlock_report(self, headline: str) -> str:
        window = self.window
        lines = [
            f"SMT deadlock at cycle {self.cycle}: {headline}",
            f"  rob={window.rob!r} iq={window.iq!r} lsq={window.lsq!r}",
            f"  events={len(self._events)} scheduled, "
            f"ready={len(self._ready)} queued",
        ]
        for t in self.threads:
            lines.append(
                f"  t{t.tid} {t.trace.name}: committed={t.committed} "
                f"trace_idx={t.trace_idx}/{len(t.trace.ops)} "
                f"wrong_mode={t.wrong_mode} level={t.level} "
                f"rob={t.occ_rob}/{t.quota_rob} iq={t.occ_iq}/{t.quota_iq} "
                f"lsq={t.occ_lsq}/{t.quota_lsq} decode_q={len(t.decode_q)} "
                f"fetch_stall_until={t.fetch_stall_until}")
        return "\n".join(lines)

    def run(self, until_committed: int,
            max_cycles: int | None = None) -> None:
        """Advance until *every* thread commits ``until_committed`` ops
        (or drains its trace).  Threads past the target keep executing —
        an SMT core cannot pause one context's clock."""
        if max_cycles is None:
            remaining = sum(max(0, until_committed - t.committed)
                            for t in self.threads)
            max_cycles = self.cycle + (remaining + 1000) * 600
        step = self.step_cycle
        advance = self.advance
        validate = self._validate
        while any(t.committed < until_committed and not t.drained()
                  for t in self.threads):
            if self.cycle > max_cycles:
                raise DeadlockError(self._deadlock_report(
                    f"exceeded {max_cycles} cycles before every thread "
                    f"reached {until_committed} commits (likely livelock)"))
            delta = step()
            if delta == 0:
                break
            advance(delta)
            if validate:
                self.check_invariants()

    # ------------------------------------------------------------------
    # invariants

    def check_invariants(self) -> None:
        """Partition invariants (the ``verify smt`` oracle material):
        for partitioned policies the quotas are disjoint shares summing
        exactly to the active capacity, every thread keeps >= 1 entry,
        and the per-thread occupancies always sum to the shared
        window's occupancy (so partitions can never overlap nor exceed
        the active capacity)."""
        window = self.window
        threads = self.threads
        for name, res, quota_of, occ_of in (
                ("IQ", window.iq,
                 lambda t: t.quota_iq, lambda t: t.occ_iq),
                ("ROB", window.rob,
                 lambda t: t.quota_rob, lambda t: t.occ_rob),
                ("LSQ", window.lsq,
                 lambda t: t.quota_lsq, lambda t: t.occ_lsq)):
            if self.partition.partitioned:
                total_quota = sum(quota_of(t) for t in threads)
                if total_quota != res.capacity:
                    raise AssertionError(
                        f"{name}: quotas sum to {total_quota}, active "
                        f"capacity is {res.capacity}")
                for t in threads:
                    if quota_of(t) < 1:
                        raise AssertionError(
                            f"{name}: thread {t.tid} starved "
                            f"(quota {quota_of(t)})")
            total_occ = sum(occ_of(t) for t in threads)
            if total_occ != res.occupancy:
                raise AssertionError(
                    f"{name}: per-thread occupancies sum to {total_occ}, "
                    f"shared occupancy is {res.occupancy}")
            if res.occupancy > res.capacity:
                raise AssertionError(
                    f"{name}: occupancy {res.occupancy} exceeds active "
                    f"capacity {res.capacity}")

    # ------------------------------------------------------------------
    # measurement control and results

    def prewarm(self, budget_fraction: float = 0.625) -> None:
        """Per-thread prewarm: the shared-L2 budget is split evenly
        between threads (same discipline as the multicore split), each
        thread's regions installed at its address-space offset, and
        each thread's predictor pretrained on its own branch stream."""
        per_thread = budget_fraction / self._nthreads
        for thread in self.threads:
            self._prewarm_regions(thread.trace.warm_regions, per_thread,
                                  thread.data_off)
            pretrain_predictor(thread.predictor, thread.trace.ops)

    def reset_measurement(self) -> None:
        for thread in self.threads:
            thread.stats.reset()
            thread.predictor.predictions = 0
            thread.predictor.mispredictions = 0
        # an SMT core owns its whole hierarchy (no shared facade), so
        # the facade reset covers every level exactly once
        self.hierarchy.reset_measurement()

    def _memory_stats(self) -> dict:
        h = self.hierarchy
        return {
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
        }

    def thread_result(self, tid: int) -> SimulationResult:
        """Per-thread result: every per-thread counter is private; the
        memory stats / load latency / line usage are hierarchy-wide
        (the caches are physically shared between the contexts)."""
        thread = self.threads[tid]
        stats = thread.stats
        return SimulationResult(
            program=thread.trace.name,
            model=self.config.model.value,
            level=self.config.level,
            cycles=stats.cycles,
            instructions=stats.committed_uops,
            ipc=stats.ipc,
            avg_load_latency=self.hierarchy.average_load_latency(),
            mispredict_rate=thread.predictor.mispredict_rate(),
            mlp=mlp_from_intervals(stats.demand_miss_intervals),
            level_residency=stats.level_residency(),
            line_usage=self.hierarchy.line_usage().as_dict(),
            memory_stats=self._memory_stats(),
            stats=stats,
        )

    def results(self) -> list[SimulationResult]:
        return [self.thread_result(tid) for tid in range(self._nthreads)]

    def aggregate_result(self) -> SimulationResult:
        """Whole-core view: summed commit/activity counters over the
        shared clock, so aggregate IPC is core throughput and the
        energy model sees total structure activity.  The telemetry /
        service label is ``smt<threads>-<partition>``."""
        agg = SimStats()
        agg.cycles = self.threads[0].stats.cycles
        for thread in self.threads:
            st = thread.stats
            agg.committed_uops += st.committed_uops
            agg.committed_loads += st.committed_loads
            agg.committed_stores += st.committed_stores
            agg.committed_branches += st.committed_branches
            agg.committed_mispredicts += st.committed_mispredicts
            agg.dispatched_uops += st.dispatched_uops
            agg.issued_uops += st.issued_uops
            agg.squashed_uops += st.squashed_uops
            agg.wrong_path_uops += st.wrong_path_uops
            agg.enlarge_transitions += st.enlarge_transitions
            agg.shrink_transitions += st.shrink_transitions
            agg.stop_alloc_cycles += st.stop_alloc_cycles
            agg.transition_stall_cycles += st.transition_stall_cycles
            agg.fetch_stall_cycles += st.fetch_stall_cycles
            agg.dispatch_stall_cycles += st.dispatch_stall_cycles
            for level, cycles in st.level_cycles.items():
                agg.note_level_cycles(level, cycles)
            agg.level_transitions.extend(st.level_transitions)
            agg.l2_miss_cycles.extend(st.l2_miss_cycles)
            agg.demand_miss_intervals.extend(st.demand_miss_intervals)
            agg.mispredict_distances.extend(st.mispredict_distances)
            act, tact = agg.activity, st.activity
            for field in tact.__slots__:
                setattr(act, field, getattr(act, field)
                        + getattr(tact, field))
        agg.level_transitions.sort()
        agg.l2_miss_cycles.sort()
        agg.demand_miss_intervals.sort()
        predictions = sum(t.predictor.predictions for t in self.threads)
        mispredictions = sum(t.predictor.mispredictions
                             for t in self.threads)
        smt = self.config.smt
        return SimulationResult(
            program="+".join(t.trace.name for t in self.threads),
            model=f"smt{self._nthreads}-{smt.partition}",
            level=self.config.level,
            cycles=agg.cycles,
            instructions=agg.committed_uops,
            ipc=agg.ipc,
            avg_load_latency=self.hierarchy.average_load_latency(),
            mispredict_rate=(mispredictions / predictions
                             if predictions else 0.0),
            mlp=mlp_from_intervals(agg.demand_miss_intervals),
            level_residency=agg.level_residency(),
            line_usage=self.hierarchy.line_usage().as_dict(),
            memory_stats=self._memory_stats(),
            stats=agg,
        )


class SMTRun:
    """Finished SMT simulation: per-thread results plus the core view."""

    __slots__ = ("threads", "aggregate")

    def __init__(self, threads: list[SimulationResult],
                 aggregate: SimulationResult) -> None:
        self.threads = threads
        self.aggregate = aggregate

    def throughput(self) -> float:
        """Committed micro-ops per shared-clock cycle, all threads."""
        return self.aggregate.ipc

    def __repr__(self) -> str:
        per = ", ".join(f"{r.program}={r.ipc:.3f}" for r in self.threads)
        return f"<SMTRun throughput={self.throughput():.3f} [{per}]>"


def simulate_smt(config: ProcessorConfig, traces: list["Trace"],
                 warmup: int = 3_000, measure: int = 8_000,
                 prewarm: bool = True,
                 validate: bool = False) -> SMTRun:
    """Run one SMT core over per-thread traces and return all results.

    Mirrors :func:`repro.pipeline.core.simulate`: prewarm, run until
    every thread commits ``warmup`` ops, reset measurement, run until
    every thread commits ``warmup + measure``.  ``validate`` checks the
    partition invariants after every step (slow; the verify oracles use
    it).
    """
    for trace in traces:
        if len(trace.ops) < warmup + measure:
            raise ValueError(f"trace {trace.name!r} has {len(trace.ops)} "
                             f"ops; need {warmup + measure}")
    proc = SMTProcessor(config, traces, validate=validate)
    if prewarm:
        proc.prewarm()
    if warmup:
        proc.run(until_committed=warmup)
        proc.reset_measurement()
    proc.run(until_committed=warmup + measure)
    if validate:
        proc.check_invariants()
    return SMTRun(threads=proc.results(), aggregate=proc.aggregate_result())
