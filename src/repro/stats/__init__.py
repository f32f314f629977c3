"""Measurement infrastructure.

Everything the paper's evaluation section reports is collected here:
IPC, per-level cycle residency (Fig 8), L2 miss-interval histograms
(Fig 4), misprediction distances (Table 5), average load latency
(Table 3), memory-level parallelism, the activity counters consumed by
the energy model (Fig 9 / Table 4), and the L2 line-usage breakdown
(Fig 11, collected inside :mod:`repro.memory.hierarchy`).
"""

from repro.stats.counters import SimStats, ActivityCounters
from repro.stats.histograms import IntervalHistogram, mlp_from_intervals
from repro.stats.report import SimulationResult, geometric_mean
from repro.stats.sparkline import sparkline

__all__ = [
    "SimStats",
    "ActivityCounters",
    "IntervalHistogram",
    "mlp_from_intervals",
    "SimulationResult",
    "geometric_mean",
    "sparkline",
]
