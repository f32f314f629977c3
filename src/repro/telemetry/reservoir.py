"""Latency percentiles for service metrics and load-generator reports."""

from __future__ import annotations


class LatencyReservoir:
    """Bounded sample reservoir with exact nearest-rank percentiles.

    Shared between the serving layer's ``/metrics`` exposition and the
    load generator's report: both need p50/p95/p99 over a stream of
    durations without keeping the whole stream.  Up to ``limit`` samples
    are retained; past that the reservoir becomes a ring (sample ``n``
    overwrites slot ``n mod limit``), which keeps the window recent and
    the behaviour deterministic — no random eviction, so two runs that
    record the same durations report the same percentiles.
    """

    def __init__(self, limit: int = 4096) -> None:
        if limit < 1:
            raise ValueError("reservoir limit must be >= 1")
        self.limit = limit
        self.count = 0
        self.total = 0.0
        self.max = 0.0
        self._samples: list[float] = []

    def record(self, seconds: float) -> None:
        if self.count < self.limit:
            self._samples.append(seconds)
        else:
            self._samples[self.count % self.limit] = seconds
        self.count += 1
        self.total += seconds
        if seconds > self.max:
            self.max = seconds

    def percentile(self, q: float) -> float:
        """Nearest-rank percentile of the retained samples (q in 0..1)."""
        if not self._samples:
            return 0.0
        ordered = sorted(self._samples)
        rank = min(len(ordered) - 1, max(0, round(q * (len(ordered) - 1))))
        return ordered[rank]

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def summary(self) -> dict[str, float]:
        return {"count": float(self.count), "mean": self.mean,
                "p50": self.percentile(0.50), "p95": self.percentile(0.95),
                "p99": self.percentile(0.99), "max": self.max}
