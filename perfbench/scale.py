"""Sample sizes of every simulation the benchmark runs.

Smaller than ``Settings``' defaults (4000 warmup / 15000 measured
micro-ops), which take about a minute for ``paper_campaign`` on a
2-core host.  These are the service's job defaults, so all three
workloads simulate at one scale and one ``paper_campaign`` pass takes
about 15 s.
"""

WARMUP = 1_000
MEASURE = 3_000
