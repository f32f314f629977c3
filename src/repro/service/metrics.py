"""Service metrics: counters, gauges and per-stage latency percentiles.

Rendered in the Prometheus text exposition format by ``GET /metrics``.
Latency distributions ride on the telemetry layer's
:class:`~repro.telemetry.reservoir.LatencyReservoir` — the same
reservoir the load generator uses for its report, so a scrape of the
server and the client-side report speak the same percentiles.
"""

from __future__ import annotations

import time

from repro.telemetry.reservoir import LatencyReservoir

#: Pipeline of a job through the service, each with its own latency
#: distribution: request validation, time spent pending until a worker
#: leased it, execution (the worker's busy time), and end-to-end.
STAGES = ("validate", "queue_wait", "execute", "total")

_COUNTERS = (
    "jobs_submitted", "jobs_completed", "jobs_failed", "jobs_rejected",
    "jobs_dropped_on_drain", "cache_hits", "coalesced", "simulations",
    "timeouts", "requests", "bad_requests", "workers_registered",
    "workers_lost", "leases_granted", "leases_expired", "requeues",
    "affinity_hits", "affinity_misses", "stale_completions",
)


class ServiceMetrics:
    """Mutable metric state for one service process."""

    def __init__(self) -> None:
        self.started = time.time()
        self.counters: dict[str, int] = {name: 0 for name in _COUNTERS}
        self.stage_latency: dict[str, LatencyReservoir] = {
            stage: LatencyReservoir() for stage in STAGES}
        self.worker_busy_seconds = 0.0
        #: live gauges, installed by the server: name -> zero-arg callable
        self.gauges: dict[str, object] = {}

    def inc(self, name: str, amount: int = 1) -> None:
        self.counters[name] += amount

    def observe(self, stage: str, seconds: float) -> None:
        self.stage_latency[stage].record(seconds)

    # ------------------------------------------------------------------

    def cache_hit_rate(self) -> float:
        """Jobs served without simulating (store hits + coalesced) as a
        share of all completed work."""
        served = (self.counters["cache_hits"] + self.counters["coalesced"]
                  + self.counters["simulations"])
        if not served:
            return 0.0
        return (self.counters["cache_hits"]
                + self.counters["coalesced"]) / served

    def render(self) -> str:
        """Text exposition: ``repro_service_*`` gauges and counters."""
        lines = [
            "# repro.service metrics (text exposition format)",
            "repro_service_up 1",
            f"repro_service_uptime_seconds "
            f"{time.time() - self.started:.3f}",
        ]
        for name, fn in sorted(self.gauges.items()):
            value = fn() if callable(fn) else fn
            if isinstance(value, bool):
                value = int(value)
            if isinstance(value, float):
                lines.append(f"repro_service_{name} {value:.6f}")
            else:
                lines.append(f"repro_service_{name} {value}")
        for name, value in sorted(self.counters.items()):
            lines.append(f"repro_service_{name}_total {value}")
        lines.append(f"repro_service_cache_hit_rate "
                     f"{self.cache_hit_rate():.6f}")
        lines.append(f"repro_service_worker_busy_seconds_total "
                     f"{self.worker_busy_seconds:.6f}")
        for stage in STAGES:
            reservoir = self.stage_latency[stage]
            base = "repro_service_stage_latency_seconds"
            for q in (0.5, 0.95, 0.99):
                lines.append(
                    f'{base}{{stage="{stage}",quantile="{q}"}} '
                    f"{reservoir.percentile(q):.6f}")
            lines.append(f'{base}_count{{stage="{stage}"}} '
                         f"{reservoir.count}")
            lines.append(f'{base}_sum{{stage="{stage}"}} '
                         f"{reservoir.total:.6f}")
        return "\n".join(lines) + "\n"


def parse_exposition(text: str) -> dict[str, float]:
    """Parse a ``render()`` payload back into ``{name: value}``.

    Labelled series keep their label string:
    ``repro_service_stage_latency_seconds{stage="total",quantile="0.5"}``.
    Used by the client's ``metrics()`` and the CI assertions — the
    service is also its own consumer, so the format cannot rot.
    """
    values: dict[str, float] = {}
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        name, _, value = line.rpartition(" ")
        try:
            values[name] = float(value)
        except ValueError:
            continue
    return values
