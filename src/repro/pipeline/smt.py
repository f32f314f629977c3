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
  Processor`, whose stages act on one :class:`~repro.pipeline.core.
  Thread` at a time; the base core builds one thread, this one a thread
  per trace.  Every per-op body (fetch, dispatch, commit, squash, branch
  resolution, issue, completion) exists once, in :mod:`repro.pipeline.
  core`.  This module adds SMT policy only: which thread fetches, the
  commit and dispatch rotation, the detector stage and the partition,
  plus per-thread forms of the run loop, the cycle accounting and the
  drain check (shared forms measurably slowed the single-thread loop).
* That policy reaches the shared bodies through two per-thread objects.
  A :class:`_Partition` is the thread's window: it takes the stages'
  ``WindowSet`` calls, gates allocation on the thread's quota and
  counts its occupancy.  A :class:`_MemoryPort` is its path into the
  hierarchy: it moves the thread's addresses into its own address space
  (``DATA_OFFSET``/``PC_OFFSET``, zero for thread 0), routes its L2
  misses to it and tracks its outstanding demand misses.  With one
  thread and the ``equal`` partition both are inert and the selectors
  always pick thread 0, so the run is the baseline's bit for bit (the
  ``python -m repro.verify smt`` digest oracle).  Neither holds the
  core or its thread: what they share with the core (the cycle's
  full-window note, the thread an access is for) sits in small objects
  of their own, so a finished core is freed by reference counting.
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

from typing import TYPE_CHECKING

from repro.config import ProcessorConfig
from repro.core.partition import PartitionPolicy, make_partition_policy
from repro.core.policies import StaticPolicy
from repro.core.resizing import MLPAwarePolicy
from repro.debug.errors import DeadlockError
from repro.frontend import BranchPredictor
from repro.memory import AccessPath
from repro.pipeline.core import (
    DATA_OFFSET,
    FETCH_BUFFER,
    PC_OFFSET,
    Processor,
    Thread,
)
from repro.stats import SimStats, SimulationResult

if TYPE_CHECKING:
    from repro.workloads.trace import Trace

_CORRECT = AccessPath.CORRECT

#: per-thread SimStats counters the aggregate result sums
_SUMMED = (
    "committed_uops", "committed_loads", "committed_stores",
    "committed_branches", "committed_mispredicts", "dispatched_uops",
    "issued_uops", "squashed_uops", "wrong_path_uops",
    "enlarge_transitions", "shrink_transitions", "stop_alloc_cycles",
    "transition_stall_cycles", "fetch_stall_cycles",
    "dispatch_stall_cycles",
)


class _AlwaysShrinkable:
    """Window view handed to per-thread detectors: shrink is always
    granted, because quota gating (not ``stop_alloc``) performs the
    drain after a repartition."""

    committed = 0

    @staticmethod
    def can_shrink_to(level: int) -> bool:
        return True


_DETECTOR_VIEW = _AlwaysShrinkable()


class _Partition:
    """One thread's share of the shared window.

    It answers the :class:`~repro.pipeline.resources.WindowSet` calls
    the shared stages make for the thread (``try_allocate``,
    ``release``, ``iq.release``, ``note_alloc_stall``) on the shared
    window, gating allocation on the thread's quota and counting the
    thread's occupancy.  ``detector`` is the MLP phase detector that
    sets the thread's level (``mlp`` partition, else None).
    ``stall_noted`` is the core's one-element record of whether a full
    window was noted this cycle, shared by every partition.
    """

    __slots__ = ("shared", "iq", "detector", "stall_noted",
                 "quota_iq", "quota_rob", "quota_lsq",
                 "occ_rob", "occ_lsq")

    def __init__(self, shared, stall_noted: list[bool],
                 detector: MLPAwarePolicy | None) -> None:
        self.shared = shared
        self.iq = _IQShare(shared.iq)
        self.detector = detector
        self.stall_noted = stall_noted
        self.quota_iq = self.quota_rob = self.quota_lsq = 0
        self.occ_rob = self.occ_lsq = 0

    @property
    def occ_iq(self) -> int:
        return self.iq.occupancy

    def try_allocate(self, lsq: int) -> bool:
        """Claim one op's entries if the shared window has room and the
        thread is under its quota; else change nothing."""
        shared = self.shared
        if not shared.has_room(1, 1, lsq):
            return False
        iq = self.iq
        if (self.occ_rob >= self.quota_rob or iq.occupancy >= self.quota_iq
                or (lsq and self.occ_lsq >= self.quota_lsq)):
            # partition quota reached (or over, after a shrink:
            # drain-by-gating) — only this thread stalls
            return False
        shared.try_allocate(lsq)
        self.occ_rob += 1
        iq.occupancy += 1
        if lsq:
            self.occ_lsq += 1
        return True

    def note_alloc_stall(self, need_rob: int, need_iq: int,
                         need_lsq: int) -> None:
        """Record a refused allocation: a full shared window once per
        cycle for the whole core, exactly like the single-thread stage;
        a quota refusal is not a full window and records nothing."""
        shared = self.shared
        noted = self.stall_noted
        if (not noted[0]
                and not shared.has_room(need_rob, need_iq, need_lsq)):
            shared.note_alloc_stall(need_rob, need_iq, need_lsq)
            noted[0] = True

    def release(self, iq: int, lsq: int) -> None:
        self.shared.release(iq, lsq)
        self.occ_rob -= 1
        if iq:
            self.iq.occupancy -= 1
        if lsq:
            self.occ_lsq -= 1

    def __repr__(self) -> str:
        return (f"rob={self.occ_rob}/{self.quota_rob} "
                f"iq={self.occ_iq}/{self.quota_iq} "
                f"lsq={self.occ_lsq}/{self.quota_lsq}")


class _IQShare:
    """The IQ side of a partition: the thread's IQ occupancy; issue
    frees one entry of it and of the shared IQ."""

    __slots__ = ("shared", "occupancy")

    def __init__(self, shared) -> None:
        self.shared = shared
        self.occupancy = 0

    def release(self) -> None:
        self.shared.release()
        self.occupancy -= 1


class _MissRouter:
    """The hierarchy's L2-miss listener on an SMT core: the hierarchy
    reports a miss synchronously, inside the access, so the miss is the
    thread's whose port set ``tid`` last.  ``sinks`` holds each thread's
    (detector or None, stats)."""

    __slots__ = ("tid", "sinks")

    def __init__(self) -> None:
        self.tid = 0
        self.sinks: list[tuple[MLPAwarePolicy | None, SimStats]] = []

    def __call__(self, detect_cycle: int) -> None:
        detector, stats = self.sinks[self.tid]
        if detector is not None:
            detector.on_l2_miss(detect_cycle)
        stats.l2_miss_cycles.append(detect_cycle)


class _MemoryPort:
    """One thread's path into the shared hierarchy: it takes the
    stages' :class:`~repro.memory.MemoryHierarchy` calls, moves their
    addresses into the thread's address space and names the thread the
    synchronous L2-miss listener (``router``) reports for.

    ``miss_until`` is when the thread's latest correct-path demand L2
    miss completes.  Such a load is never squashed and completes exactly
    at its fill cycle, so a demand miss is outstanding while
    ``miss_until`` lies ahead (the ``mlp`` fetch selector's signal).
    """

    __slots__ = ("router", "tid", "hierarchy", "data_off", "pc_off",
                 "miss_until")

    def __init__(self, router: _MissRouter, tid: int, hierarchy) -> None:
        self.router = router
        self.tid = tid
        self.hierarchy = hierarchy
        self.data_off = tid * DATA_OFFSET
        self.pc_off = tid * PC_OFFSET
        self.miss_until = 0

    def load(self, addr: int, cycle: int, pc: int,
             path: AccessPath = _CORRECT):
        self.router.tid = self.tid
        result = self.hierarchy.load(addr + self.data_off, cycle,
                                     pc + self.pc_off, path)
        if (result.l2_miss and path is _CORRECT
                and result.complete_cycle > self.miss_until):
            self.miss_until = result.complete_cycle
        return result

    def store(self, addr: int, cycle: int, path: AccessPath = _CORRECT):
        self.router.tid = self.tid
        return self.hierarchy.store(addr + self.data_off, cycle, path)

    def ifetch(self, pc: int, cycle: int) -> int:
        self.router.tid = self.tid
        return self.hierarchy.ifetch(pc + self.pc_off, cycle)


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
        # The base ctor provisions the shared window at config.level,
        # builds thread 0 and registers the L2-miss listener that
        # _l2_miss_listener (overridden) builds.  The base policy is
        # pinned static — per-thread detectors replace it.
        super().__init__(config, traces[0], policy=StaticPolicy(config.level))

        self.partition: PartitionPolicy = make_partition_policy(
            smt.partition, config.levels, config.level)
        self.fetch_policy = smt.fetch
        self._validate = validate

        detectors_live = (smt.partition == "mlp")
        threads = [self.thread] + [
            Thread(tid, trace, BranchPredictor(config.branch), SimStats(),
                   None, None)
            for tid, trace in enumerate(traces[1:], start=1)]
        latency = config.memory.min_latency
        #: whether a full window was recorded this cycle (see
        #: _Partition.note_alloc_stall)
        self._stall_noted = [False]
        router = self._miss_router
        for thread in threads:
            detector = (MLPAwarePolicy(max_level=config.level,
                                       memory_latency=latency)
                        if detectors_live else None)
            thread.level = config.level
            thread.window = _Partition(self.window, self._stall_noted,
                                       detector)
            thread.memory = _MemoryPort(router, thread.tid, self.hierarchy)
            router.sinks.append((detector, thread.stats))
        self.threads = threads
        self._apply_partition()
        for thread in threads:
            if detectors_live:
                level = thread.window.detector.level
            else:
                level = self.partition.depth_level(
                    thread.tid, [t.level for t in threads],
                    thread.window.quota_rob)
            self._set_level(thread, level)
        if detectors_live:
            # detectors start at level 1: repartition to match
            self._apply_partition()
        #: per-thread detectors replace the inert base policy; the
        #: inherited step_cycle gates the policy stage on this flag
        self._policy_inert = not detectors_live
        #: thread orders of the commit/dispatch rotation (fairness of
        #: tied bandwidth claims), by starting thread
        self._rotations = [threads[i:] + threads[:i]
                           for i in range(len(threads))]
        self._commit_rr = 0
        self._dispatch_rr = 0
        self._fetch_rr = 0

    # ------------------------------------------------------------------
    # partitioning

    def _apply_partition(self) -> None:
        threads = self.threads
        quotas = self.partition.quotas([t.level for t in threads],
                                       self.window)
        for thread, (qi, qr, ql) in zip(threads, quotas):
            part = thread.window
            part.quota_iq, part.quota_rob, part.quota_lsq = qi, qr, ql

    def _policy_stage(self) -> bool:
        acted = False
        for thread in self.threads:
            detector = thread.window.detector
            if detector is None:
                continue
            decision = detector.tick(self.cycle, _DETECTOR_VIEW)
            new_level = decision.new_level
            if new_level is not None and new_level != thread.level:
                # only the thread whose own level changed pays the
                # transition penalty; peers absorb the induced quota
                # change for free (their structures are not the ones
                # being repipelined)
                self._change_level(thread, new_level)
                self._apply_partition()
                acted = True
        return acted

    def _l2_miss_listener(self) -> _MissRouter:
        """Each thread's port names it to the router before an access;
        the threads register as they are built."""
        self._miss_router = _MissRouter()
        return self._miss_router

    # ------------------------------------------------------------------
    # stages: pick threads, run the shared body on each

    def _commit_stage(self) -> int:
        width = self._width
        committed = 0
        for thread in self._rotations[self._commit_rr]:
            committed += super()._commit_stage(thread, width - committed)
            if committed >= width:
                break
        self._commit_rr = (self._commit_rr + 1) % len(self.threads)
        return committed

    def _dispatch_stage(self) -> int:
        width = self._width
        dispatched = 0
        self._stall_noted[0] = False
        for thread in self._rotations[self._dispatch_rr]:
            dispatched += super()._dispatch_stage(thread,
                                                  width - dispatched)
            if dispatched >= width:
                break
        self._dispatch_rr = (self._dispatch_rr + 1) % len(self.threads)
        return dispatched

    def _fetch_stage(self) -> int:
        thread = self._select_fetch_thread(self.cycle)
        if thread is None:
            return 0
        return super()._fetch_stage(thread)

    def _select_fetch_thread(self, now: int) -> Thread | None:
        """Pick the thread that owns the fetch port this cycle; each
        fetch-stalled thread counts a stall cycle, as one thread does."""
        ready = []
        for t in self.threads:
            if now < t.fetch_stall_until:
                t.stats.fetch_stall_cycles += 1
            elif (len(t.decode_q) < FETCH_BUFFER
                  and (t.wrong_mode or t.trace_idx < len(t.trace.ops))):
                ready.append(t)
        if not ready:
            return None
        policy = self.fetch_policy
        if policy == "roundrobin":
            n, rr = len(self.threads), self._fetch_rr
            best = min(ready, key=lambda t: (t.tid - rr) % n)
            self._fetch_rr = (best.tid + 1) % n
            return best
        # ICOUNT priority: ops in decode/rename plus the IQ.  "mlp" puts
        # miss-cluster threads last: a thread waiting on DRAM fills its
        # partition from what it already fetched, and front-end
        # bandwidth belongs to threads that can turn it into ILP now.
        return min(ready, key=lambda t: (
            policy == "mlp" and t.memory.miss_until > now,
            len(t.decode_q) + t.window.occ_iq, t.tid))

    # ------------------------------------------------------------------
    # main loop plumbing

    def _advance_accounting(self, delta: int) -> None:
        now = self.cycle
        __, ___, ____, iq_m, rob_m, lsq_m = self._cap_vec
        for thread in self.threads:
            part = thread.window
            stats = thread.stats
            stats.cycles += delta
            stats.note_level_cycles(thread.level, delta)
            activity = stats.activity
            activity.iq_size_cycles += part.quota_iq * delta
            activity.rob_size_cycles += part.quota_rob * delta
            activity.lsq_size_cycles += part.quota_lsq * delta
            activity.iq_max_cycles += iq_m * delta
            activity.rob_max_cycles += rob_m * delta
            activity.lsq_max_cycles += lsq_m * delta
            if now < thread.alloc_stall_until:
                stats.transition_stall_cycles += min(
                    delta, thread.alloc_stall_until - now)
            if delta > 1 and thread.fetch_stall_until > now:
                stats.fetch_stall_cycles += delta - 1

    def _policy_wakeups(self) -> list:
        return [t.window.detector.next_timer() for t in self.threads
                if t.window.detector is not None]

    def _trace_done(self) -> bool:
        return all(t.drained() for t in self.threads)

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
        the active capacity).  Each thread also commits its trace in
        order: the head of its ROB is always its next trace op."""
        for t in self.threads:
            if t.rob and t.rob[0].trace_idx != t.committed:
                raise AssertionError(
                    f"thread {t.tid}: out-of-order commit (ROB head is "
                    f"trace idx {t.rob[0].trace_idx} after {t.committed} "
                    f"commits)")
        threads = self.threads
        for name in ("IQ", "ROB", "LSQ"):
            res = getattr(self.window, name.lower())
            if self.partition.partitioned:
                quotas = [getattr(t.window, "quota_" + name.lower())
                          for t in threads]
                if sum(quotas) != res.capacity:
                    raise AssertionError(
                        f"{name}: quotas sum to {sum(quotas)}, active "
                        f"capacity is {res.capacity}")
                for tid, quota in enumerate(quotas):
                    if quota < 1:
                        raise AssertionError(f"{name}: thread {tid} "
                                             f"starved (quota {quota})")
            total_occ = sum(getattr(t.window, "occ_" + name.lower())
                            for t in threads)
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

    def thread_result(self, tid: int) -> SimulationResult:
        """Per-thread result: every per-thread counter is private; the
        memory figures are hierarchy-wide (the caches are shared)."""
        return self._thread_result(self.threads[tid])

    def results(self) -> list[SimulationResult]:
        return [self._thread_result(t) for t in self.threads]

    def aggregate_result(self) -> SimulationResult:
        """Whole-core view: summed commit/activity counters over the
        shared clock, so aggregate IPC is core throughput and the
        energy model sees total structure activity.  The telemetry /
        service label is ``smt<threads>-<partition>``."""
        agg = SimStats()
        agg.cycles = self.threads[0].stats.cycles
        for thread in self.threads:
            st = thread.stats
            for name in _SUMMED:
                setattr(agg, name, getattr(agg, name) + getattr(st, name))
            for level, cycles in st.level_cycles.items():
                agg.note_level_cycles(level, cycles)
            for name in ("level_transitions", "l2_miss_cycles",
                         "demand_miss_intervals", "mispredict_distances"):
                getattr(agg, name).extend(getattr(st, name))
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
        return self._result(
            "+".join(t.trace.name for t in self.threads),
            f"smt{len(self.threads)}-{self.config.smt.partition}", agg,
            mispredictions / predictions if predictions else 0.0)


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
