"""Mutation tests for the sanitizer: seed a fault, expect it caught.

Each mutation injects one specific bookkeeping bug into a live,
sanitized processor — the kinds of bugs the invariant layer exists to
catch (a dropped ``release()``, a stale policy timer, an off-by-one
resize, an MSHR overflow, a reordered ROB, a corrupted counter) — and
the harness asserts that the run dies with a :class:`SanitizerError`
(or a :class:`DeadlockError` carrying the diagnostic dump) instead of
silently producing wrong numbers.

Run it directly::

    python -m repro.debug.mutations

Exit status 0 means every seeded fault was detected and the unmutated
control run was clean and evaluated every invariant.
"""

from __future__ import annotations

import argparse
import sys

from repro.config import dynamic_config
from repro.debug.errors import DeadlockError, SanitizerError
from repro.debug.sanitizer import INVARIANTS
from repro.pipeline.core import Processor
from repro.workloads import generate_trace, profile

#: memory-intensive program: plenty of L2 misses, so the DYNAMIC model
#: exercises enlarge/shrink transitions within a short run
_PROGRAM = "libquantum"
_TRACE_OPS = 9_000
_COMMIT_TARGET = 8_000
#: cycle after which each fault arms (past the initial ramp-up)
_TRIGGER = 250


def _build_processor() -> Processor:
    trace = generate_trace(profile(_PROGRAM), n_ops=_TRACE_OPS, seed=1)
    return Processor(dynamic_config(3), trace, sanitize=True)


# ----------------------------------------------------------------------
# the seeded faults — each takes a sanitized processor and installs
# exactly one bug


def _dropped_release(proc: Processor) -> None:
    """Skip one op's window release: occupancy counters leak its entries.

    Seeded on :meth:`WindowSet.release`, which the commit stage calls
    once per retired op (and a squash once per squashed op); on this
    workload the first release after the trigger is a commit's."""
    orig = proc.window.release
    state = {"armed": True}

    def release(iq: int, lsq: int) -> None:
        if state["armed"] and proc.cycle > _TRIGGER:
            state["armed"] = False
            return
        orig(iq, lsq)

    proc.window.release = release


def _stale_timer(proc: Processor) -> None:
    """Re-arm the policy's shrink timer with a cycle in the past."""
    policy = proc.policy
    orig = policy.tick

    def tick(cycle, window):
        decision = orig(cycle, window)
        if cycle > _TRIGGER:
            policy.shrink_timing = _TRIGGER // 2
        return decision

    policy.tick = tick


def _off_by_one_resize(proc: Processor) -> None:
    """Every level transition leaves the IQ one entry too small."""
    orig = proc.window.resize_to

    def resize_to(level: int) -> None:
        orig(level)
        proc.window.iq.capacity -= 1

    proc.window.resize_to = resize_to


def _mshr_overflow(proc: Processor) -> None:
    """Install fills into the L1D MSHR file past its capacity."""
    mshr = proc.hierarchy.l1d_mshr
    prev_step = proc.step_cycle
    state = {"armed": True}

    def step_cycle() -> int:
        if state["armed"] and proc.cycle > _TRIGGER:
            state["armed"] = False
            for i in range(mshr.entries + 4):
                line = 2 ** 40 + i * 64
                mshr._pending[line] = proc.cycle + 10 ** 6
                mshr._claims[line] = proc.cycle
        return prev_step()

    proc.step_cycle = step_cycle


def _rob_reorder(proc: Processor) -> None:
    """Rotate the ROB so it is no longer in program order."""
    prev_step = proc.step_cycle
    state = {"armed": True}

    def step_cycle() -> int:
        if state["armed"] and proc.cycle > _TRIGGER and len(proc.rob) >= 2:
            state["armed"] = False
            proc.rob.rotate(1)
        return prev_step()

    proc.step_cycle = step_cycle


def _counter_corruption(proc: Processor) -> None:
    """Bump the LSQ allocation counter without allocating."""
    prev_step = proc.step_cycle
    state = {"armed": True}

    def step_cycle() -> int:
        if state["armed"] and proc.cycle > _TRIGGER:
            state["armed"] = False
            proc.window.lsq.alloc_count += 1
        return prev_step()

    proc.step_cycle = step_cycle


MUTATIONS = {
    "dropped-release": _dropped_release,
    "stale-timer": _stale_timer,
    "off-by-one-resize": _off_by_one_resize,
    "mshr-overflow": _mshr_overflow,
    "rob-reorder": _rob_reorder,
    "counter-corruption": _counter_corruption,
}


# ----------------------------------------------------------------------


def run_mutation(name: str) -> tuple[bool, str]:
    """Run one seeded fault; returns (detected, one-line diagnosis)."""
    proc = _build_processor()
    MUTATIONS[name](proc)
    try:
        proc.run(until_committed=_COMMIT_TARGET)
    except (SanitizerError, DeadlockError) as exc:
        return True, str(exc).splitlines()[0]
    except Exception as exc:   # crashed, but not through an invariant
        return False, f"uncontrolled {type(exc).__name__}: {exc}"
    return False, "run completed without tripping any invariant"


def run_clean() -> tuple[bool, str]:
    """Control run: no fault seeded, no invariant may fire, and every
    one of :data:`~repro.debug.sanitizer.INVARIANTS` must have been
    evaluated at least once."""
    proc = _build_processor()
    try:
        proc.run(until_committed=_COMMIT_TARGET)
    except (SanitizerError, DeadlockError) as exc:
        return False, f"false positive: {str(exc).splitlines()[0]}"
    summary = proc.debug.summary()
    checks = summary["invariant_checks"]
    idle = [name for name in INVARIANTS if not checks.get(name)]
    if idle:
        return False, f"never exercised: {', '.join(idle)}"
    return True, (f"clean ({summary['cycles_checked']} cycles, "
                  f"all {len(INVARIANTS)} invariants exercised)")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--only", default="",
                        help="comma-separated mutation names")
    args = parser.parse_args(argv)
    wanted = [m for m in args.only.split(",") if m] or list(MUTATIONS)
    unknown = [m for m in wanted if m not in MUTATIONS]
    if unknown:
        print(f"unknown mutations: {', '.join(unknown)}", file=sys.stderr)
        return 2

    passed = 0
    ok, note = run_clean()
    print(f"{'PASS' if ok else 'FAIL'}  control             {note}")
    passed += 1 if ok else 0
    for name in wanted:
        detected, note = run_mutation(name)
        print(f"{'PASS' if detected else 'FAIL'}  {name:<19} {note}")
        passed += 1 if detected else 0
    total = len(wanted) + 1
    print(f"\n{passed}/{total} checks passed")
    return 0 if passed == total else 1


if __name__ == "__main__":
    raise SystemExit(main())
