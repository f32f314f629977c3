"""Learned window-level selection: seeded bandits and distilled tables.

The paper's DYN controller is a hand-tuned threshold policy; the
comparators in :mod:`repro.core.policies` are hand-tuned feedback
policies.  This module closes ROADMAP item "learned policy selection"
with two controllers that *select among window levels* instead of
encoding a fixed rule:

* :class:`BanditWindowPolicy` — an online multi-armed bandit
  (``bandit:ucb`` / ``bandit:egreedy``) that treats each window level as
  an arm.  Every ``period`` cycles it scores the arm it just played with
  the windowed commit rate **net of the measured transition/drain cost**
  it charged to switch there, updates that arm's value estimate, and
  picks the next arm by UCB or epsilon-greedy.
* :class:`TablePolicy` — a zero-exploration decision table (miss-count
  bucket → level) distilled offline from campaign telemetry by
  ``tools/train_policy_table.py`` and shipped as a ``table:`` artifact.

Determinism contract
    Exploration is *seeded and counter-indexed*: every random draw is a
    pure function of ``(seed, draw_index)`` through a splitmix64-style
    mixer — no ``random.Random`` state, no dependence on host, process
    or import order.  The seed is a plain constructor attribute,
    so :func:`repro.experiments.cache.policy_fingerprint` folds it into
    every ``result_key``: the same seed replays bit-identically (and
    cache-hits), a different seed keys a different run.  ``.pin(N)``
    degrades the bandit to the inert static fast path exactly like every
    other policy, so the pin-equivalence oracle passes unchanged.

Degenerate-memory contract
    Arms above level 1 are only eligible while a demand L2 miss
    (``on_l2_miss``) is *recent* — within ``miss_horizon`` cycles.  On
    a trace with no L2 misses the bandit provably never leaves level 1
    — the same exact guarantee the verify suite asserts for the
    MLP-aware and static policies — and on quiet stretches of a mixed
    trace it falls back to level 1 instead of spending the stretch
    exploring arms that cannot pay there.
"""

from __future__ import annotations

import json
import math
from bisect import bisect_right

from repro.config import LEVEL_TRANSITION_PENALTY
from repro.core.policies import ResizeDecision, ResizingPolicy
from repro.pipeline.resources import WindowSet

#: The bandit kinds ``make_policy`` accepts as ``bandit:<kind>``.
BANDIT_KINDS = ("ucb", "egreedy")

_M64 = (1 << 64) - 1


def seeded_unit(seed: int, index: int, salt: int = 0) -> float:
    """Deterministic uniform draw in ``[0, 1)`` for ``(seed, index)``.

    A splitmix64-style finalizer over the mixed inputs: stable across
    processes and platforms, and stateless — the bandit's
    exploration sequence is a pure function of its seed and how many
    draws it has made, which is what makes seeded replay exact.
    """
    x = (seed * 0x9E3779B97F4A7C15
         + index * 0xBF58476D1CE4E5B9
         + salt * 0x94D049BB133111EB + 0x2545F4914F6CDD1D) & _M64
    x ^= x >> 30
    x = (x * 0xBF58476D1CE4E5B9) & _M64
    x ^= x >> 27
    x = (x * 0x94D049BB133111EB) & _M64
    x ^= x >> 31
    return x / float(1 << 64)


class BanditWindowPolicy(ResizingPolicy):
    """Window levels as bandit arms, rewarded by net commit rate.

    Control law (every ``period`` cycles, deferred-elapsed like the
    other feedback comparators so a drain cannot skew a measurement):

    1. *score* the arm played over the window just ended:
       ``reward = commits/elapsed - rate_ref * cost/elapsed`` where
       ``cost`` is the cycles this window spent paying for the
       controller's own switching — the fixed transition penalty per
       applied level change plus every stop-alloc drain cycle — and
       ``rate_ref`` (a running mean of observed commit rates) converts
       lost cycles into lost commits.  Thrashing between arms is
       therefore charged to the arms that demanded the switches;
    2. *update* that arm's value with a capped-count incremental mean
       (step ``1/min(n, mean_cap)``): early plays average hard —
       per-window rewards are very noisy under clustered misses, and a
       run-mean is what separates arm means that sit close together —
       while the cap keeps a floor under the step so a context whose
       behaviour drifts is still tracked;
    3. *select* the next arm: ``ucb`` plays the arm maximising
       ``value + ucb_c * rate_ref * sqrt(ln(total)/plays)``;
       ``egreedy`` explores a seeded-uniform arm with probability
       ``explore`` and exploits the best value otherwise.  Untried
       eligible arms are played first (lowest level first).

    The bandit is *contextual* over the one signal the paper's own
    control law keys on: whether the window just ended observed a
    demand L2 miss.  Arm values and play counts are kept per context
    (miss / quiet), and selection assumes the next window's context
    matches the last one (phases persist for many windows).  That is
    what lets one controller learn *different* answers to the same
    trigger — "misses here have MLP, enlarge" on one program and
    "misses here are a write stream no window can hide, stay small" on
    another — where DYN hard-codes a single answer.

    Two measurement guards keep the per-arm estimates honest: a window
    containing an arm transition is a *settling* window (played,
    never scored — its commit rate measures the switch, not the arm),
    and the first ``burnin_windows`` scored windows seed only the
    reference rate (simulation start is cold no matter what the
    prewarmer did).

    Arms above level 1 are eligible only while demand L2 misses are
    *recent and dense*: at least ``miss_quorum`` of them within the
    last ``miss_horizon`` cycles.  This is the paper's own observation
    — enlargement can only pay while misses are outstanding — used to
    keep the bandit from burning forced exploration where level 1
    dominates by construction: the compute-intensive Table-3 programs
    miss the L2 a handful of times per run (isolated cold misses, two
    orders of magnitude below the memory-intensive programs), and a
    single stale miss must not buy two settle-and-score trial windows
    per arm and context.  A run that never misses the L2 therefore
    stays at level 1 exactly.
    """

    #: optional per-decision observer, installed at runtime by
    #: :class:`repro.telemetry.TelemetryProbe` (never pickled, never
    #: part of the policy fingerprint — it stays a class attribute
    #: until a probe assigns an instance attribute).  Called as
    #: ``listener(cycle, kind, level, detail)`` with kind ``"pull"``
    #: or ``"reward"``; the callee must only record, never mutate.
    listener = None

    def __init__(self, max_level: int, kind: str = "ucb",
                 period: int = 1_024, seed: int = 1,
                 explore: float = 0.12, ucb_c: float = 0.10,
                 mean_cap: int = 32, memory_decay: float = 0.95,
                 burnin_windows: int = 4, miss_horizon: int = 1_024,
                 miss_quorum: int = 2,
                 transition_penalty: int = LEVEL_TRANSITION_PENALTY) -> None:
        if kind not in BANDIT_KINDS:
            raise ValueError(f"unknown bandit kind {kind!r}; "
                             f"known: {', '.join(BANDIT_KINDS)}")
        if max_level < 1:
            raise ValueError(f"max_level must be >= 1, got {max_level}")
        self.max_level = max_level
        self.kind = kind
        self.period = period
        self.seed = seed
        self.explore = explore
        self.ucb_c = ucb_c
        self.mean_cap = mean_cap
        self.memory_decay = memory_decay
        self.burnin_windows = burnin_windows
        self.miss_horizon = miss_horizon
        self.miss_quorum = max(1, miss_quorum)
        self.transition_penalty = transition_penalty
        self.level = 1
        self._arm = 1                 # arm currently being played
        self._target = 1              # level a pending shrink drains toward
        self._want_shrink = False
        self._miss_ring = []          # cycles of the last miss_quorum misses
        self._next_check = period
        self._last_check_cycle = 0
        self._commits_at_check = 0
        self._cost_cycles = 0         # switch cost charged to this window
        self._draws = 0               # exploration draw counter
        #: discounted play counts (sliding-window UCB): every scoring
        #: step multiplies all counts by ``memory_decay`` before adding
        #: the new play, so an arm unvisited for ~1/(1-decay) windows
        #: regains its exploration bonus — on phase-structured traces a
        #: stale estimate (e.g. an arm scored once on cold caches) gets
        #: re-tried instead of poisoning the run
        self._plays = [[0.0] * max_level, [0.0] * max_level]
        self._tried = [[False] * max_level, [False] * max_level]
        self._values = [[0.0] * max_level, [0.0] * max_level]
        self._counts = [[0] * max_level, [0] * max_level]
        self._rate_ref = 0.0          # running mean commit rate
        self._ctx_miss = False        # window in progress saw an L2 miss
        self._ctx = 0                 # context of the last finished window
        #: the window now underway is a *settling* window — it contains
        #: an arm transition (or simulation start), so its commit rate
        #: measures the switch, not the arm.  Settling windows are
        #: played but never scored; the window after one is clean.
        self._settling = True
        self._scored = 0              # windows actually scored

    # ------------------------------------------------------------------

    def on_l2_miss(self, cycle: int) -> None:
        ring = self._miss_ring
        if len(ring) == self.miss_quorum:
            ring.pop(0)
        ring.append(cycle)
        self._ctx_miss = True

    def _emit(self, cycle: int, kind: str, level: int, detail: str) -> None:
        listener = self.listener
        if listener is not None:
            listener(cycle, kind, level, detail)

    def _shrink_toward(self, cycle: int,
                       window: WindowSet) -> ResizeDecision:
        """Continue a pending shrink: complete it once the regions to
        vacate are empty, stall allocation until then.  The drain's
        cycles are charged as its end cycle minus its start cycle, which
        ``tick`` subtracted, so no drain cycle needs a tick."""
        if window.can_shrink_to(self._target):
            self.level = self._target
            self._want_shrink = False
            self._cost_cycles += cycle + self.transition_penalty
            return ResizeDecision(new_level=self.level)
        return ResizeDecision(stop_alloc=True)

    def _eligible_arms(self, cycle: int) -> range:
        ring = self._miss_ring
        dense = (len(ring) == self.miss_quorum
                 and cycle - ring[0] <= self.miss_horizon)
        return range(1, self.max_level + 1) if dense else range(1, 2)

    def _select(self, ctx: int, cycle: int) -> int:
        arms = list(self._eligible_arms(cycle))
        tried = self._tried[ctx]
        for arm in arms:                        # untried arms first
            if not tried[arm - 1]:
                return arm
        values = self._values[ctx]
        plays = self._plays[ctx]
        if self.kind == "ucb":
            total = max(sum(plays[a - 1] for a in arms), math.e)
            bonus = self.ucb_c * max(self._rate_ref, 1e-9)
            return max(arms, key=lambda a: (
                values[a - 1]
                + bonus * math.sqrt(math.log(total)
                                    / max(plays[a - 1], 1e-9)),
                -a))
        self._draws += 1
        if seeded_unit(self.seed, self._draws) < self.explore:
            self._draws += 1
            pick = int(seeded_unit(self.seed, self._draws, salt=1)
                       * len(arms))
            return arms[min(pick, len(arms) - 1)]
        return max(arms, key=lambda a: (values[a - 1], -a))

    def tick(self, cycle: int, window: WindowSet) -> ResizeDecision:
        if self._want_shrink:
            return self._shrink_toward(cycle, window)
        if cycle < self._next_check:
            return ResizeDecision()
        elapsed = max(1, cycle - self._last_check_cycle)
        commits = window.committed - self._commits_at_check
        self._commits_at_check = window.committed
        self._last_check_cycle = cycle
        self._next_check = cycle + self.period
        rate = commits / elapsed
        cost = min(self._cost_cycles, elapsed)
        self._cost_cycles = 0
        reward = rate - self._rate_ref * (cost / elapsed)
        ctx = 1 if self._ctx_miss else 0
        self._ctx_miss = False
        self._ctx = ctx
        if self._settling:
            # The window just ended contained an arm transition (or
            # simulation start): its commit rate measures the switch,
            # not the arm.  Keep playing the same arm; the next window
            # is clean and will be scored.
            self._settling = False
            return ResizeDecision()
        self._scored += 1
        self._rate_ref += (rate - self._rate_ref) / self._scored
        if self._scored <= self.burnin_windows:
            # Simulation start is cold no matter what prewarming did:
            # the earliest windows measure fill effects, not arms.  Use
            # them to seed the reference rate only — every arm is still
            # untried when real scoring begins.
            return ResizeDecision()
        decay = self.memory_decay
        plays = self._plays[ctx]
        for i in range(self.max_level):
            plays[i] *= decay
        arm = self._arm
        idx = arm - 1
        values = self._values[ctx]
        counts = self._counts[ctx]
        counts[idx] = min(counts[idx] + 1, self.mean_cap)
        if not self._tried[ctx][idx]:
            values[idx] = reward
            self._tried[ctx][idx] = True
        else:
            values[idx] += (reward - values[idx]) / counts[idx]
        plays[idx] += 1.0
        self._emit(cycle, "reward", arm,
                   f"arm={arm} ctx={ctx} reward={reward:.4f} "
                   f"plays={plays[idx]:.2f}")
        nxt = self._select(ctx, cycle)
        self._arm = nxt
        self._emit(cycle, "pull", nxt,
                   f"arm={nxt} ctx={ctx} kind={self.kind}")
        if nxt > self.level:
            self._settling = True
            self.level = nxt
            self._cost_cycles += self.transition_penalty
            return ResizeDecision(new_level=nxt)
        if nxt < self.level:
            self._settling = True
            self._target = nxt
            self._want_shrink = True
            self._cost_cycles -= cycle      # the drain starts now
            return self._shrink_toward(cycle, window)
        return ResizeDecision()

    def next_timer(self) -> int | None:
        """The next check; none while a shrink drains (the vacancy check
        cannot change before the machine moves)."""
        return None if self._want_shrink else self._next_check


class TablePolicy(ResizingPolicy):
    """Distilled zero-exploration controller: miss bucket → level.

    Every ``period`` cycles the demand L2 misses observed in the window
    are bucketed against ``thresholds`` (upper bounds, ascending) and
    the window moves toward ``levels[bucket]``.  The table *contents*
    are constructor state — not the artifact path — so the policy
    fingerprint (and every ``result_key``) covers what the policy does,
    not where its file happened to live.

    Built by ``tools/train_policy_table.py`` from campaign telemetry;
    loadable from its JSON artifact via :meth:`from_file` or the
    ``table:<path>`` spec of :func:`repro.core.make_policy`.
    """

    def __init__(self, max_level: int, thresholds, levels,
                 period: int = 2_048) -> None:
        thresholds = tuple(int(t) for t in thresholds)
        levels = tuple(int(lv) for lv in levels)
        if len(levels) != len(thresholds) + 1:
            raise ValueError(
                f"table needs len(levels) == len(thresholds) + 1, got "
                f"{len(levels)} levels for {len(thresholds)} thresholds")
        if list(thresholds) != sorted(thresholds):
            raise ValueError(f"thresholds must ascend, got {thresholds}")
        if not all(1 <= lv <= max_level for lv in levels):
            raise ValueError(
                f"table levels {levels} outside 1..{max_level}")
        self.max_level = max_level
        self.thresholds = thresholds
        self.levels = levels
        self.period = period
        self.level = 1
        self._misses = 0
        self._target = 1
        self._want_shrink = False
        self._next_check = period
        self._last_check_cycle = 0

    @classmethod
    def from_file(cls, path: str, max_level: int) -> "TablePolicy":
        """Load a ``tools/train_policy_table.py`` JSON artifact."""
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
        try:
            return cls(max_level, thresholds=data["thresholds"],
                       levels=data["levels"],
                       period=int(data.get("period", 2_048)))
        except KeyError as exc:
            raise ValueError(
                f"{path}: table artifact missing key {exc}") from None

    def on_l2_miss(self, cycle: int) -> None:
        self._misses += 1

    def tick(self, cycle: int, window: WindowSet) -> ResizeDecision:
        if self._want_shrink:
            if window.can_shrink_to(self._target):
                self.level = self._target
                self._want_shrink = False
                return ResizeDecision(new_level=self.level)
            return ResizeDecision(stop_alloc=True)
        if cycle < self._next_check:
            return ResizeDecision()
        misses = self._misses
        self._misses = 0
        self._last_check_cycle = cycle
        self._next_check = cycle + self.period
        target = min(self.levels[bisect_right(self.thresholds, misses)],
                     self.max_level)
        if target > self.level:
            self.level = target
            return ResizeDecision(new_level=target)
        if target < self.level:
            self._target = target
            self._want_shrink = True
            if window.can_shrink_to(target):
                self.level = target
                self._want_shrink = False
                return ResizeDecision(new_level=target)
            return ResizeDecision(stop_alloc=True)
        return ResizeDecision()

    def next_timer(self) -> int | None:
        """The next check; none while a shrink drains."""
        return None if self._want_shrink else self._next_check
