"""Time-series telemetry for the simulator: probes, recordings, reports.

The paper's claims are temporal — level transitions chasing miss
clusters (Figure 5/6), drain stalls, phase behaviour — but a
:class:`~repro.stats.SimulationResult` only carries end-of-run
aggregates.  This package records the trajectory: a
:class:`TelemetryProbe` samples a running
:class:`~repro.pipeline.Processor` every ``period`` cycles into a
ring-buffered :class:`Telemetry` recording (per-interval window level,
ROB/IQ/LSQ occupancy, MSHR in-flight, width utilisation, CPI-stack
stall buckets) plus point events (grow/shrink, stall-to-drain onset,
demand L2-miss detections), exportable as JSONL/CSV and rendered by
``python -m repro.telemetry``.

Two invariants define the layer, and the test suite enforces both:

* **Cheap when off.**  A probe registers on the processor's observer
  hooks (``on_advance``, ``on_level``) and the hierarchy's L2-miss
  listener list, like :mod:`repro.debug`: an unprobed processor pays
  one empty-list check per advance.
* **Digest neutrality.**  Sampling performs only pure reads — never a
  recording observation — so a probed run's canonical stat digest
  (:func:`repro.verify.digest.result_digest`) is bit-identical to an
  unprobed one, and telemetry artifacts can be produced for cached
  campaigns without invalidating a single cache entry
  (``telemetry_period`` is deliberately *not* part of the result key).

Entry points: ``simulate(..., telemetry=TelemetryProbe(...))`` for one
run; ``python -m repro.experiments --telemetry [PERIOD]`` for per-job
artifacts under ``.simcache/telemetry/``; ``python -m repro.telemetry``
to run and render a single instrumented simulation.  Host time per
pipeline stage comes from cProfile, because the stages are methods:
``python -m cProfile -s tottime -m repro.telemetry run``.
"""

from repro.telemetry.probe import TelemetryProbe
from repro.telemetry.recorder import (
    EVENT_KINDS,
    STALL_REASONS,
    IntervalSample,
    PolicyEvent,
    Telemetry,
    load_events_csv,
    load_samples_csv,
)
from repro.telemetry.report import (
    grow_miss_coincidence,
    render_report,
)
from repro.telemetry.reservoir import LatencyReservoir

__all__ = [
    "EVENT_KINDS",
    "STALL_REASONS",
    "IntervalSample",
    "LatencyReservoir",
    "PolicyEvent",
    "Telemetry",
    "TelemetryProbe",
    "grow_miss_coincidence",
    "load_events_csv",
    "load_samples_csv",
    "render_report",
]
