"""One-line ASCII sparklines of numeric series, for terminal reports
(the telemetry report's level, IPC and occupancy timelines)."""

from __future__ import annotations

_SPARK_CHARS = " .:-=+*#%@"


def sparkline(values, width: int = 60, max_value: float | None = None) -> str:
    """Render a numeric series as a one-line ASCII sparkline."""
    values = list(values)
    if not values:
        return ""
    if len(values) > width:
        # average-pool down to `width` buckets
        bucket = len(values) / width
        pooled = []
        for i in range(width):
            lo = int(i * bucket)
            hi = max(lo + 1, int((i + 1) * bucket))
            chunk = values[lo:hi]
            pooled.append(sum(chunk) / len(chunk))
        values = pooled
    top = max_value if max_value is not None else max(values)
    if top <= 0:
        return " " * len(values)
    chars = []
    for v in values:
        idx = min(len(_SPARK_CHARS) - 1,
                  int(v / top * (len(_SPARK_CHARS) - 1) + 0.5))
        chars.append(_SPARK_CHARS[max(0, idx)])
    return "".join(chars)
