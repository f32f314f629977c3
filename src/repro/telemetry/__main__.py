"""CLI: run an instrumented simulation and render telemetry reports.

Usage::

    python -m repro.telemetry                          # default run
    python -m repro.telemetry run --program libquantum --model dynamic \\
        --period 64 --out /tmp/lq.jsonl --csv /tmp/lq
    python -m repro.telemetry report .simcache/telemetry/<key>.jsonl
    python -m repro.telemetry smoke                    # CI self-check

``run`` simulates one program with a telemetry probe attached and
prints the level timeline, occupancy heat summary and interval CPI
stack (optionally exporting JSONL/CSV artifacts); run it under
``python -m cProfile -s tottime -m repro.telemetry run ...`` for host
time per pipeline stage.  ``report`` renders an existing JSONL
artifact — e.g. one the campaign executor wrote under
``.simcache/telemetry/`` via ``python -m repro.experiments
--telemetry``.  ``smoke`` is the CI gate: it asserts digest neutrality
(telemetry on/off bit-identical), grow↔miss coincidence on a
memory-bound workload, JSONL round-trip fidelity, and that the dynamic
model's recordings, under its own policy and under ``bandit:ucb``, are
identical with fast-forward on and off.
"""

from __future__ import annotations

import argparse
import os
import sys

from repro.config import (
    base_config,
    dynamic_config,
    fixed_config,
    ideal_config,
    runahead_config,
)
from repro.pipeline import simulate
from repro.telemetry import TelemetryProbe, Telemetry, render_report
from repro.telemetry.report import grow_miss_coincidence
from repro.workloads import trace_for_program


def _make_config(model: str, level: int):
    if model == "base":
        return base_config()
    if model == "fixed":
        return fixed_config(level)
    if model == "dynamic":
        return dynamic_config(level)
    if model == "ideal":
        return ideal_config(level)
    if model == "runahead":
        return runahead_config()
    raise ValueError(f"unknown model {model!r}")


def _instrumented_run(args) -> TelemetryProbe:
    config = _make_config(args.model, args.level)
    trace = trace_for_program(args.program,
                              n_ops=args.warmup + args.measure + 1_000,
                              seed=args.seed)
    probe = TelemetryProbe(period=args.period)
    simulate(config, trace, warmup=args.warmup, measure=args.measure,
             telemetry=probe)
    return probe


def _cmd_run(args) -> int:
    probe = _instrumented_run(args)
    tel = probe.telemetry
    print(render_report(tel))
    if args.out:
        print(f"\nwrote JSONL artifact: {tel.to_jsonl(args.out)}")
    if args.csv:
        print(f"wrote CSV tables: {tel.samples_csv(args.csv + '.samples.csv')}"
              f", {tel.events_csv(args.csv + '.events.csv')}")
    return 0


def _cmd_report(args) -> int:
    tel = Telemetry.from_jsonl(args.artifact)
    print(render_report(tel))
    return 0


def _cmd_smoke(args) -> int:
    """CI self-check: digest neutrality + grow↔miss coincidence +
    artifact round-trip, on a memory-bound workload, and recordings
    identical with fast-forward on and off."""
    import tempfile

    from repro.core.policies import make_policy
    from repro.verify.digest import (diff_payloads, digest_payload,
                                     result_digest)

    config = _make_config(args.model, args.level)

    def fresh_trace():
        return trace_for_program(args.program,
                                 n_ops=args.warmup + args.measure + 1_000,
                                 seed=args.seed)

    def recording(policy_spec, fast_forward):
        """The records a dynamic-model run's JSONL artifact is made of."""
        dynamic = dynamic_config(args.level)
        policy = None if policy_spec is None else make_policy(
            policy_spec, dynamic.level, dynamic.memory.min_latency)
        probe = TelemetryProbe(period=args.period)
        simulate(dynamic, fresh_trace(), warmup=args.warmup,
                 measure=args.measure, policy=policy, telemetry=probe,
                 fast_forward=fast_forward)
        tel = probe.telemetry
        return tel._meta_record(), list(tel.samples), list(tel.events)

    bare = simulate(config, fresh_trace(),
                    warmup=args.warmup, measure=args.measure)
    probe = TelemetryProbe(period=args.period)
    probed = simulate(config, fresh_trace(), warmup=args.warmup,
                      measure=args.measure, telemetry=probe)
    failures = []
    if result_digest(bare) != result_digest(probed):
        failures.append("telemetry on/off digests differ:\n"
                        + "\n".join(diff_payloads(digest_payload(bare),
                                                  digest_payload(probed))))
    tel = probe.telemetry
    if not tel.samples_emitted:
        failures.append("probe recorded no samples")
    co = grow_miss_coincidence(tel)
    if not co["grows"]:
        failures.append(f"no grow events on {args.program} — not a "
                        f"memory-bound run?")
    elif co["matched"] < co["grows"]:
        failures.append(f"only {co['matched']}/{co['grows']} grow events "
                        f"trail an L2 miss within {co['window']} cycles")
    fd, path = tempfile.mkstemp(suffix=".jsonl")
    os.close(fd)
    try:
        tel.to_jsonl(path)
        loaded = Telemetry.from_jsonl(path)
        if (list(loaded.samples) != list(tel.samples)
                or list(loaded.events) != list(tel.events)
                or loaded.event_counts != tel.event_counts):
            failures.append("JSONL artifact did not round-trip")
    finally:
        os.unlink(path)
    # the jump stops at the probe's edges and charges what stepping would
    for spec in (None, "bandit:ucb"):
        if recording(spec, True) != recording(spec, False):
            failures.append(f"dynamic-{args.level} {spec or 'own policy'} "
                            f"recording differs with fast-forward off")
    if failures:
        for failure in failures:
            print(f"SMOKE FAIL: {failure}", file=sys.stderr)
        return 1
    print(f"telemetry smoke OK: {args.program}/{args.model} digest "
          f"bit-identical with probe attached; "
          f"{co['matched']}/{co['grows']} grow events within "
          f"{co['window']} cycles of a demand L2 miss; "
          f"{tel.samples_emitted} samples round-tripped; "
          f"dynamic-{args.level} and bandit:ucb recordings identical "
          f"with fast-forward on and off")
    return 0


def _add_run_args(sub, defaults_measure: int) -> None:
    sub.add_argument("--program", default="omnetpp",
                     help="workload profile (default: omnetpp — "
                          "memory-intensive and phase-mixed, so level "
                          "transitions land inside the measured region; "
                          "steady miss streams like libquantum grow to "
                          "max level during warmup and stay there)")
    sub.add_argument("--model", default="dynamic",
                     choices=("base", "fixed", "dynamic", "ideal",
                              "runahead"))
    sub.add_argument("--level", type=int, default=3,
                     help="window level (max level for dynamic)")
    sub.add_argument("--warmup", type=int, default=4_000)
    sub.add_argument("--measure", type=int, default=defaults_measure)
    sub.add_argument("--seed", type=int, default=1)
    sub.add_argument("--period", type=int, default=64,
                     help="sampling period in cycles")


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if not argv or argv[0].startswith("-"):
        argv = ["run"] + argv
    parser = argparse.ArgumentParser(prog="python -m repro.telemetry",
                                     description=__doc__)
    subs = parser.add_subparsers(dest="cmd", required=True)

    run_p = subs.add_parser("run", help="simulate with a probe attached "
                                        "and render the report")
    _add_run_args(run_p, defaults_measure=15_000)
    run_p.add_argument("--out", default="",
                       help="also write the recording as JSONL here")
    run_p.add_argument("--csv", default="",
                       help="also write <PREFIX>.samples.csv and "
                            "<PREFIX>.events.csv")
    run_p.set_defaults(func=_cmd_run)

    report_p = subs.add_parser("report",
                               help="render an existing JSONL artifact")
    report_p.add_argument("artifact",
                          help="path to a telemetry .jsonl file (e.g. "
                               ".simcache/telemetry/<key>.jsonl)")
    report_p.set_defaults(func=_cmd_report)

    smoke_p = subs.add_parser("smoke",
                              help="CI gate: digest neutrality, grow-miss "
                                   "coincidence, JSONL round-trip, "
                                   "recordings fast-forward-invariant")
    _add_run_args(smoke_p, defaults_measure=8_000)
    smoke_p.set_defaults(func=_cmd_smoke)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    try:
        code = main()
    except BrokenPipeError:
        # reports are made for `| head` / `| less`; a closed pipe is
        # not an error, but Python would print a traceback on exit
        # unless stdout is replaced before the interpreter flushes it
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 0
    raise SystemExit(code)
