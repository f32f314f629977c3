"""Microarchitectural invariant sanitizer and cycle-event trace.

The debug layer is strictly opt-in: :class:`~repro.pipeline.core.
Processor` resolves the ``sanitize`` flag once at construction, and with
the flag off nothing from this package is even imported — the release
simulation path carries no per-cycle debug branches.

With the flag on, a :class:`Sanitizer` instruments the processor by
shadowing a handful of its bound methods with instance attributes
(``proc.step_cycle``, ``proc._apply_level``, ``proc._schedule``); the
wrappers run the original and then verify the machine.  Checked every
cycle:

* occupancy bounds — ``0 <= occupancy <= capacity <= max_capacity``
  for the ROB, IQ and LSQ;
* counter conservation — ``alloc_count - release_count == occupancy``;
* ground-truth occupancy — the counters agree with the actual ROB
  contents (this catches a *dropped* ``release()`` call, which counter
  conservation alone cannot see);
* level/capacity agreement — the active capacities match the
  configured entries of the current level (off-by-one resize guard);
* MSHR bound — at most ``entries`` fills in flight per file, observed
  without reaping so the check cannot perturb timing;
* ROB program order and in-order commit;
* policy-timer liveness — a ``next_timer()`` value in the past must
  not survive a tick (stale-timer guard);
* event sanity — nothing is ever scheduled in the past.

At every level shrink, exact physical-slot trackers
(:mod:`repro.debug.slots`) additionally quantify how often the model's
``occupancy <= new_capacity`` vacancy approximation (documented in
``pipeline/resources.py``) diverges from real slot-level vacancy.

Typed cycle events (fetch / dispatch / issue / commit / level / stall)
land in a ring buffer (:mod:`repro.debug.events`) with JSONL export,
and are appended to every sanitizer failure and deadlock report.

The mutation harness (``python -m repro.debug.mutations``) seeds known
faults — a dropped release, a stale policy timer, an off-by-one resize,
an MSHR overflow, a reordered ROB — and asserts that each one trips an
invariant; its clean control run must evaluate every name in
:data:`~repro.debug.sanitizer.INVARIANTS`.
"""

from repro.debug.errors import DeadlockError, SanitizerError
from repro.debug.events import EventTrace, TraceEvent
from repro.debug.sanitizer import Sanitizer
from repro.debug.slots import CamSlotTracker, FifoSlotTracker

__all__ = [
    "CamSlotTracker",
    "DeadlockError",
    "EventTrace",
    "FifoSlotTracker",
    "Sanitizer",
    "SanitizerError",
    "TraceEvent",
]
