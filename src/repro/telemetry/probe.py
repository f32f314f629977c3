"""The sampling probe: attaches telemetry to a running processor.

Cheap when off
    A probe registers on two of the processor's observer hooks, like
    the :mod:`repro.debug` sanitizer: ``on_advance`` samples after the
    clock moves and ``on_level`` records transitions.  A processor
    without a probe attached pays one empty-list check per advance.

Digest neutrality
    Sampling only performs *pure* reads: window occupancies/capacities,
    :meth:`MSHRFile.in_flight <repro.memory.mshr.MSHRFile.in_flight>`
    (the non-reaping observation), stat counter values and the
    hierarchy's demand-miss count.  It never calls an observation that
    records (``has_room``/``allocate_delay`` — the PR 2 bug class), so
    a telemetry run's canonical stat digest is bit-identical to a bare
    run.  ``tests/test_telemetry.py`` locks this in with a verify-style
    on/off digest-equality regression and ``python -m repro.telemetry
    smoke`` re-checks it in CI.

Interval semantics under fast-forward
    Samples are recorded at every period edge *after* the main loop
    advances the clock.  The probe holds the processor's
    ``jump_horizon`` at its next edge, so an idle jump stops there and
    every interval charges exactly the cycles it covers: a recording is
    byte-identical to one of a run that steps every cycle.  A drain
    event is stamped at the cycle after the stop-alloc decision, where
    stepping stamps it.  See ``docs/observability.md``.
"""

from __future__ import annotations

from repro.telemetry.recorder import IntervalSample, PolicyEvent, Telemetry


class TelemetryProbe:
    """Samples one processor every ``period`` cycles into a ring.

    Usage (what ``simulate(..., telemetry=probe)`` does internally)::

        probe = TelemetryProbe(period=256)
        probe.attach(proc)            # after reset_measurement()
        proc.run(until_committed=n)
        telemetry = probe.finish()    # flushes the partial last interval
        probe.detach()                # unregisters from proc

    Recorded per interval edge: window level, ROB/IQ/LSQ occupancy and
    active capacity, MSHR in-flight counts, committed/issued/dispatched
    micro-op deltas (width utilisation), demand L2-miss and stop-alloc
    deltas, and per-bucket CPI-stack stall slots.  Recorded as events:
    every ``grow``/``shrink`` level transition, the onset of a
    stall-to-drain episode, every demand L2-miss detection, and — when
    the attached policy is a learned controller exposing a ``listener``
    hook (:class:`repro.core.BanditWindowPolicy`) — every arm
    selection (``pull``) and per-window score (``reward``).
    """

    def __init__(self, period: int = 256, capacity: int = 4096,
                 event_capacity: int = 8192) -> None:
        self.period = period
        self.telemetry = Telemetry(period=period, capacity=capacity,
                                   event_capacity=event_capacity)
        self.proc = None
        self._detached = False
        self._was_draining = False
        self._listener_policy = None

    # ------------------------------------------------------------------
    # attach / detach

    def attach(self, proc) -> "TelemetryProbe":
        """Register the probe on ``proc``; sampling starts at the
        current cycle (attach at the warmup/measurement boundary to
        cover exactly the measured region)."""
        if self.proc is not None:
            raise RuntimeError("probe is already attached")
        self.proc = proc
        tel = self.telemetry
        from repro.pipeline.core import SIM_VERSION
        tel.meta.update({
            "program": proc.trace.name,
            "model": proc.config.model.value,
            "level": proc.config.level,
            "width": proc.config.width,
            "sim_version": SIM_VERSION,
            "start_cycle": proc.cycle,
        })
        self._prev_edge = proc.cycle
        self._next_edge = proc.jump_horizon = proc.cycle + self.period
        self._last_cycle = proc.cycle
        self._take_baseline()
        proc.on_advance.append(self._on_advance)
        proc.on_level.append(self._on_level)
        proc.hierarchy.add_l2_miss_listener(self._on_l2_miss)
        # learned controllers expose a per-decision observer hook: every
        # arm selection ("pull") and per-window score ("reward") becomes
        # a policy event.  The hook only records — digest neutrality is
        # the policy's contract (its decisions never read the listener).
        policy = getattr(proc, "policy", None)
        if hasattr(policy, "listener"):
            self._listener_policy = policy
            policy.listener = self._on_policy_event
        return self

    def detach(self) -> None:
        """Unregister everything :meth:`attach` registered."""
        proc = self.proc
        if proc is None or self._detached:
            return
        proc.on_advance.remove(self._on_advance)
        proc.on_level.remove(self._on_level)
        proc.jump_horizon = None
        proc.hierarchy.l2_miss_listeners.remove(self._on_l2_miss)
        if self._listener_policy is not None:
            self._listener_policy.listener = None
            self._listener_policy = None
        self._detached = True

    def _on_advance(self) -> None:
        proc = self.proc
        if proc.cycle >= self._next_edge:
            self._cross_edges()
        # stall-to-drain onset: the controller wants to shrink but the
        # region to vacate is still occupied (_policy_stage set
        # _stop_alloc on the cycle just left); stamped at the cycle
        # after it, where a stepped run stamps it
        if proc._stop_alloc:
            if not self._was_draining:
                self._was_draining = True
                self.telemetry.add_event(PolicyEvent(
                    self._last_cycle + 1, "drain", proc.level,
                    "stop_alloc"))
        elif self._was_draining:
            self._was_draining = False
        self._last_cycle = proc.cycle

    def _on_level(self, old_level: int, new_level: int) -> None:
        kind = "grow" if new_level > old_level else "shrink"
        self.telemetry.add_event(PolicyEvent(
            self.proc.cycle, kind, new_level, f"{old_level}->{new_level}"))

    def _on_l2_miss(self, detect_cycle: int) -> None:
        self.telemetry.add_event(PolicyEvent(
            detect_cycle, "l2_miss", self.proc.level))

    def _on_policy_event(self, cycle: int, kind: str, level: int,
                         detail: str) -> None:
        self.telemetry.add_event(PolicyEvent(cycle, kind, level, detail))

    # ------------------------------------------------------------------
    # sampling

    def _take_baseline(self) -> None:
        proc = self.proc
        stats = proc.stats
        self._committed = stats.committed_uops
        self._issued = stats.issued_uops
        self._dispatched = stats.dispatched_uops
        self._stop_alloc = stats.stop_alloc_cycles
        self._l2_misses = proc.hierarchy.demand_l2_misses
        self._stalls = dict(stats.stall_slots)

    def _cross_edges(self) -> None:
        proc = self.proc
        while proc.cycle >= self._next_edge:
            self._record_sample(self._next_edge)
            self._next_edge += self.period
        proc.jump_horizon = self._next_edge

    def _record_sample(self, edge: int) -> None:
        proc = self.proc
        stats = proc.stats
        window = proc.window
        hierarchy = proc.hierarchy
        stalls_now = stats.stall_slots
        prev_stalls = self._stalls
        delta_stalls = {}
        for reason, slots in stalls_now.items():
            delta = slots - prev_stalls.get(reason, 0)
            if delta:
                delta_stalls[reason] = delta
        committed = stats.committed_uops
        issued = stats.issued_uops
        dispatched = stats.dispatched_uops
        stop_alloc = stats.stop_alloc_cycles
        l2_misses = hierarchy.demand_l2_misses
        self.telemetry.add_sample(IntervalSample(
            cycle=edge,
            cycles=edge - self._prev_edge,
            level=proc.level,
            rob_occ=window.rob.occupancy, rob_cap=window.rob.capacity,
            iq_occ=window.iq.occupancy, iq_cap=window.iq.capacity,
            lsq_occ=window.lsq.occupancy, lsq_cap=window.lsq.capacity,
            mshr_l1d=hierarchy.l1d_mshr.in_flight(edge),
            mshr_l2=hierarchy.l2_mshr.in_flight(edge),
            committed=committed - self._committed,
            issued=issued - self._issued,
            dispatched=dispatched - self._dispatched,
            l2_misses=l2_misses - self._l2_misses,
            stop_alloc=stop_alloc - self._stop_alloc,
            stalls=delta_stalls))
        self._prev_edge = edge
        self._committed = committed
        self._issued = issued
        self._dispatched = dispatched
        self._stop_alloc = stop_alloc
        self._l2_misses = l2_misses
        self._stalls = dict(stalls_now)

    def finish(self) -> Telemetry:
        """Flush the partial final interval and return the recording.

        Idempotent per attach; the probe stays attached (a subsequent
        ``run`` would keep sampling) — call :meth:`detach` to remove it.
        """
        proc = self.proc
        if proc is None:
            raise RuntimeError("probe was never attached")
        stats = proc.stats
        # the main loop's trace-drain exit skips the final advance(), so
        # the last step's activity can sit past the last crossed edge
        # with the clock unmoved — flush whenever anything changed, even
        # into a zero-cycle tail sample, to keep delta sums exact
        moved = (proc.cycle > self._prev_edge
                 or stats.committed_uops != self._committed
                 or stats.issued_uops != self._issued
                 or stats.dispatched_uops != self._dispatched
                 or stats.stop_alloc_cycles != self._stop_alloc
                 or proc.hierarchy.demand_l2_misses != self._l2_misses
                 or stats.stall_slots != self._stalls)
        if moved:
            self._record_sample(proc.cycle)
            # re-align the next edge past the flushed partial interval
            self._next_edge = proc.cycle + self.period
            if not self._detached:
                proc.jump_horizon = self._next_edge
        self.telemetry.meta["end_cycle"] = proc.cycle
        return self.telemetry
