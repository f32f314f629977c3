"""Resizing policy interface and comparator policies.

Besides the paper's MLP-aware policy (:mod:`repro.core.resizing`), this
module implements simplified versions of the two prior-art resizing
policies the related-work section contrasts against, for the ablation
benches:

* :class:`OccupancyPolicy` — demand-driven resizing in the spirit of
  Ponomarev et al. (MICRO'01): shrink when average IQ occupancy is low,
  enlarge when dispatch stalls on a full IQ.  The paper's criticism: the
  IQ fills up even when no MLP is exploitable, so this policy enlarges
  (and pays the pipelined-IQ ILP penalty) without benefit.
* :class:`ContributionPolicy` — ILP-feedback resizing in the spirit of
  Folegnani & González (ISCA'01): periodically probe a larger window and
  keep it only if commit throughput improved.  The paper's criticism: no
  systematic enlargement trigger, so it reacts slowly to miss clusters.
"""

from __future__ import annotations

from abc import ABC, abstractmethod

from repro.pipeline.resources import WindowSet


class ResizeDecision:
    """What a policy asks the processor to do this cycle."""

    __slots__ = ("new_level", "stop_alloc")

    def __init__(self, new_level: int | None = None,
                 stop_alloc: bool = False) -> None:
        self.new_level = new_level
        self.stop_alloc = stop_alloc

    def __repr__(self) -> str:
        return f"<ResizeDecision level={self.new_level} stop={self.stop_alloc}>"


class ResizingPolicy(ABC):
    """Per-cycle window resizing decision maker."""

    level: int
    #: when set, the policy is frozen at this level for the whole run:
    #: the processor treats it exactly like a :class:`StaticPolicy`
    #: (tick, miss notification and timers are all skipped), so a pinned
    #: run is bit-identical to a static one — the differential oracle in
    #: :mod:`repro.verify` is built on this.
    pinned_level: int | None = None

    def pin(self, level: int) -> "ResizingPolicy":
        """Freeze this policy at ``level``; returns ``self`` so a pinned
        policy can be built in one expression.  Must be called before
        the policy is handed to a :class:`~repro.pipeline.Processor`."""
        if level < 1:
            raise ValueError(f"pin level must be >= 1, got {level}")
        self.pinned_level = level
        self.level = level
        return self

    @abstractmethod
    def on_l2_miss(self, cycle: int) -> None:
        """Observe a demand LLC miss detected at ``cycle``."""

    @abstractmethod
    def tick(self, cycle: int, window: WindowSet) -> ResizeDecision:
        """Run one controller cycle."""

    def next_timer(self) -> int | None:
        """Next cycle the policy must observe even if the core is idle."""
        return None

    @property
    def wants_tick_every_cycle(self) -> bool:
        return False


class StaticPolicy(ResizingPolicy):
    """Fixed level for the whole run (the FIXED and IDEAL models)."""

    def __init__(self, level: int) -> None:
        self.level = level

    def on_l2_miss(self, cycle: int) -> None:
        pass

    def tick(self, cycle: int, window: WindowSet) -> ResizeDecision:
        return ResizeDecision()


class OccupancyPolicy(ResizingPolicy):
    """Demand-driven resizing (Ponomarev-style), period-sampled."""

    def __init__(self, max_level: int, period: int = 2048,
                 shrink_threshold: float = 0.55,
                 enlarge_stall_threshold: float = 0.05) -> None:
        self.max_level = max_level
        self.period = period
        self.shrink_threshold = shrink_threshold
        self.enlarge_stall_threshold = enlarge_stall_threshold
        self.level = 1
        self._next_check = period
        self._last_check_cycle = 0
        self._occ_sum = 0
        self._samples = 0
        self._last_full_events = 0
        self._want_shrink = False

    def on_l2_miss(self, cycle: int) -> None:
        pass   # occupancy-driven: blind to MLP, by design

    def tick(self, cycle: int, window: WindowSet) -> ResizeDecision:
        self._occ_sum += window.iq.occupancy
        self._samples += 1
        if self._want_shrink:
            if window.can_shrink_to(self.level - 1):
                self.level -= 1
                self._want_shrink = False
                return ResizeDecision(new_level=self.level)
            return ResizeDecision(stop_alloc=True)
        if cycle < self._next_check:
            return ResizeDecision()
        # A check can be deferred past _next_check (the early _want_shrink
        # return during a stop_alloc drain), so the stall rate divides by
        # the cycles actually elapsed since the last evaluation — dividing
        # by the nominal period would under-report exactly when the
        # machine is already struggling to drain.
        elapsed = max(1, cycle - self._last_check_cycle)
        self._last_check_cycle = cycle
        self._next_check = cycle + self.period
        avg_occ = self._occ_sum / max(1, self._samples)
        # full_events is a pure recording counter (bumped once per
        # stalled-dispatch cycle via note_alloc_stall, never by query
        # methods), so this delta really is "cycles dispatch blocked on
        # the IQ this period" no matter how often anyone observed it
        full_events = window.iq.full_events - self._last_full_events
        self._last_full_events = window.iq.full_events
        self._occ_sum = 0
        self._samples = 0
        stall_rate = full_events / elapsed
        if (stall_rate > self.enlarge_stall_threshold
                and self.level < self.max_level):
            self.level += 1
            return ResizeDecision(new_level=self.level)
        if (self.level > 1
                and avg_occ < self.shrink_threshold
                * window.levels[self.level - 2].iq_entries):
            self._want_shrink = True
        return ResizeDecision()

    @property
    def wants_tick_every_cycle(self) -> bool:
        return True   # it samples occupancy continuously


class ContributionPolicy(ResizingPolicy):
    """ILP-feedback resizing (Folegnani-style), probe-and-keep.

    Commit throughput is read from :attr:`WindowSet.committed`, which the
    processor's commit stage keeps current.  Every ``period`` cycles the
    policy either *measures* (refreshing the reference rate) or *trials*
    a one-level move and keeps it only if the next period's rate
    justifies it: an enlargement must improve commit rate by
    ``keep_gain``; a shrink is kept unless the larger window was earning
    ``keep_gain``.  The downward trial models Folegnani & González's
    rule of shrinking when the youngest window region contributes
    nothing — without it the policy can only ratchet upward, so any
    transient (even pipeline warm-up) pins it at the maximum level for
    the rest of the run.

    Two properties keep the feedback honest:

    * the reference rate is *windowed* — always the most recent full
      measurement period, never a high-water mark, so a transient
      high-IPC phase cannot permanently inflate the keep threshold;
    * rates divide by the cycles actually elapsed since the previous
      evaluation, so a check deferred by a shrink drain cannot skew the
      measurement.

    A reverted trial backs off for ``cooldown`` checks and flips the
    next trial direction, so the policy settles at the smallest level
    whose window earns its keep instead of thrashing.
    """

    def __init__(self, max_level: int, period: int = 4096,
                 keep_gain: float = 1.03, cooldown: int = 3) -> None:
        self.max_level = max_level
        self.period = period
        self.keep_gain = keep_gain
        self.cooldown = cooldown
        self.level = 1
        self._next_check = period
        self._last_check_cycle = 0
        self._commits_at_check = 0
        self._last_rate = 0.0
        self._probe_dir = 0        # +1 trialing up, -1 trialing down, 0 idle
        self._prefer_down = False  # next trial direction (flipped on revert)
        self._cooldown_left = 0
        self._want_shrink = False

    def on_l2_miss(self, cycle: int) -> None:
        pass

    def _shrink_one(self, window: WindowSet) -> ResizeDecision:
        """Shrink one level now if vacant, else stall allocation."""
        if window.can_shrink_to(self.level - 1):
            self.level -= 1
            self._want_shrink = False
            return ResizeDecision(new_level=self.level)
        return ResizeDecision(stop_alloc=True)

    def _start_trial(self, window: WindowSet) -> ResizeDecision:
        """Begin a one-level trial in the preferred feasible direction."""
        up_ok = self.level < self.max_level
        down_ok = self.level > 1
        if down_ok and (self._prefer_down or not up_ok):
            self._probe_dir = -1
            self._want_shrink = True
            return self._shrink_one(window)
        if up_ok:
            self._probe_dir = +1
            self.level += 1
            return ResizeDecision(new_level=self.level)
        return ResizeDecision()

    def tick(self, cycle: int, window: WindowSet) -> ResizeDecision:
        if self._want_shrink:
            if self._probe_dir > 0:
                self._probe_dir = 0        # a revert's drain starts now
            return self._shrink_one(window)
        if cycle < self._next_check:
            return ResizeDecision()
        elapsed = max(1, cycle - self._last_check_cycle)
        rate = (window.committed - self._commits_at_check) / elapsed
        self._commits_at_check = window.committed
        self._last_check_cycle = cycle
        self._next_check = cycle + self.period
        direction = self._probe_dir
        self._probe_dir = 0
        if direction > 0:
            if rate < self._last_rate * self.keep_gain:
                # enlargement did not pay: revert from the next tick on
                # (the up-trial stays marked until then, see next_timer)
                # and try down next
                self._want_shrink = True
                self._probe_dir = direction
                self._prefer_down = True
                self._cooldown_left = self.cooldown
            self._last_rate = rate         # windowed reference, no ratchet
            return ResizeDecision()
        if direction < 0:
            ref = self._last_rate
            self._last_rate = rate
            if rate * self.keep_gain >= ref:
                # the larger window was not earning its keep_gain:
                # stay small, keep trialing downward
                self._prefer_down = True
                return ResizeDecision()
            # shrink cost throughput: re-enlarge, try up next
            self.level += 1
            self._prefer_down = False
            self._cooldown_left = self.cooldown
            return ResizeDecision(new_level=self.level)
        self._last_rate = rate
        if self._cooldown_left > 0:
            self._cooldown_left -= 1
            return ResizeDecision()
        return self._start_trial(window)

    def next_timer(self) -> int | None:
        """The next check.  A revert decided at a check starts to drain
        on the tick after it; a drain under way needs no timer (the
        vacancy check cannot change before the machine moves)."""
        if not self._want_shrink:
            return self._next_check
        return self._last_check_cycle + 1 if self._probe_dir > 0 else None


def _make_static(arg: str, max_level: int, memory_latency: int):
    try:
        level = int(arg) if arg else 1
    except ValueError:
        raise ValueError(f"bad static level {arg!r}") from None
    if not 1 <= level <= max_level:
        raise ValueError(f"static level {level} outside 1..{max_level}")
    return StaticPolicy(level)


def _make_mlp(arg: str, max_level: int, memory_latency: int):
    from repro.core.resizing import MLPAwarePolicy
    return MLPAwarePolicy(max_level, memory_latency)


def _make_occupancy(arg: str, max_level: int, memory_latency: int):
    return OccupancyPolicy(max_level)


def _make_contribution(arg: str, max_level: int, memory_latency: int):
    return ContributionPolicy(max_level)


def _make_bandit(arg: str, max_level: int, memory_latency: int):
    from repro.core.learned import BANDIT_KINDS, BanditWindowPolicy
    kind, __, seed_arg = arg.partition(":")
    if kind not in BANDIT_KINDS:
        raise ValueError(f"unknown bandit kind {kind!r}; "
                         f"known: {', '.join(BANDIT_KINDS)}")
    try:
        seed = int(seed_arg) if seed_arg else 1
    except ValueError:
        raise ValueError(f"bad bandit seed {seed_arg!r}") from None
    return BanditWindowPolicy(max_level, kind=kind, seed=seed)


def _make_table(arg: str, max_level: int, memory_latency: int):
    from repro.core.learned import TablePolicy
    if not arg:
        raise ValueError("table policy needs an artifact path: table:<path>")
    return TablePolicy.from_file(arg, max_level)


class PolicyInfo:
    """One registry row: canonical spec syntax, summary, factory.

    The single source of truth for what policies exist — the
    :func:`make_policy` dispatch and its unknown-name error, the policy
    handbook (``docs/policies.md``) and the service's accepted specs
    all derive from this table, so they cannot drift apart
    (``tests/test_policies.py`` asserts the docs list every spec).
    """

    __slots__ = ("prefix", "spec", "summary", "oracles", "factory")

    def __init__(self, prefix: str, spec: str, summary: str,
                 oracles: str, factory) -> None:
        self.prefix = prefix
        self.spec = spec
        self.summary = summary
        self.oracles = oracles
        self.factory = factory


POLICY_REGISTRY: tuple[PolicyInfo, ...] = (
    PolicyInfo(
        "static", "static[:N]",
        "fixed window level N (default 1) for the whole run — the "
        "paper's FIXED and IDEAL models",
        "golden digests, fast-forward equivalence; the reference side of "
        "pin-equivalence",
        _make_static),
    PolicyInfo(
        "mlp", "mlp",
        "the paper's DYN controller: enlarge one level per demand L2 "
        "miss, shrink when a one-memory-latency timer expires",
        "pin-equivalence, degenerate-memory (stays at level 1), "
        "ff equivalence, golden digests, fuzz",
        _make_mlp),
    PolicyInfo(
        "occupancy", "occupancy",
        "demand-driven comparator (Ponomarev-style): shrink on low IQ "
        "occupancy, enlarge on dispatch stalls",
        "pin-equivalence, degenerate-memory (no-miss premise), fuzz",
        _make_occupancy),
    PolicyInfo(
        "contribution", "contribution",
        "ILP-feedback comparator (Folegnani-style): probe a level move "
        "every period, keep it only if commit rate justifies it",
        "pin-equivalence, degenerate-memory (no-miss premise), "
        "ff equivalence, fuzz",
        _make_contribution),
    PolicyInfo(
        "bandit", "bandit:ucb[:seed] | bandit:egreedy[:seed]",
        "online bandit over window levels, reward = windowed commit "
        "rate net of measured transition/drain cost; seeded "
        "deterministic exploration",
        "pin-equivalence, degenerate-memory (stays at level 1), "
        "seeded-replay bit-identity, ff equivalence, fuzz",
        _make_bandit),
    PolicyInfo(
        "table", "table:<path>",
        "zero-exploration decision table (miss bucket -> level) "
        "distilled from telemetry by tools/train_policy_table.py",
        "pin-equivalence and degenerate-memory via its bucket-0 level, "
        "ff equivalence; library/batch only (the service rejects "
        "file-path specs)",
        _make_table),
)

_REGISTRY_BY_PREFIX = {info.prefix: info for info in POLICY_REGISTRY}


def policy_specs() -> tuple[str, ...]:
    """Canonical spec string of every registered policy family."""
    return tuple(info.spec for info in POLICY_REGISTRY)


def make_policy(name: str, max_level: int, memory_latency: int) -> ResizingPolicy:
    """Policy factory for the experiments, the service job path and the
    verify oracles.  ``name`` is a spec from :data:`POLICY_REGISTRY`:
    the family prefix plus optional ``:``-separated arguments (e.g.
    ``static:2``, ``bandit:ucb:7``, ``table:results/table.json``)."""
    prefix, __, arg = name.partition(":")
    info = _REGISTRY_BY_PREFIX.get(prefix)
    if info is None:
        raise ValueError(f"unknown policy {name!r}; known specs: "
                         + ", ".join(policy_specs()))
    try:
        return info.factory(arg, max_level, memory_latency)
    except ValueError as exc:
        raise ValueError(f"bad policy spec {name!r}: {exc}") from None
