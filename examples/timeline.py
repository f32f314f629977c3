"""Watch the window breathe: a timeline of level, IPC and misses.

Samples one dynamic-resizing run with a telemetry probe and renders it
as ASCII sparklines — the Figure 6 story on a real workload: miss
clusters pull the window up, quiet stretches let it fall back.

Run:  python examples/timeline.py [program]
"""

import sys

from repro import dynamic_config, generate_trace, profile
from repro.pipeline import simulate
from repro.telemetry import TelemetryProbe
from repro.telemetry.report import render_level_timeline


def main() -> None:
    program = sys.argv[1] if len(sys.argv) > 1 else "omnetpp"
    trace = generate_trace(profile(program), n_ops=24_000, seed=1)
    probe = TelemetryProbe(period=400)
    result = simulate(dynamic_config(3), trace, warmup=4_000,
                      measure=19_000, telemetry=probe)
    tel = probe.telemetry

    print(f"=== {program} ===")
    print(render_level_timeline(tel))

    levels = tel.levels()
    for lvl in (1, 2, 3):
        share = levels.count(lvl) / len(levels)
        print(f"  level {lvl}: {share:6.1%} of windows")
    stats = result.stats
    print(f"  transitions: {stats.enlarge_transitions} up / "
          f"{stats.shrink_transitions} down")


if __name__ == "__main__":
    main()
