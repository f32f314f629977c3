"""One cold campaign pass, run in a fresh process.

Usage (from the repository root; the result store is
``$REPRO_CACHE_DIR``, which must be an empty directory)::

    python3 perfbench/campaign.py --workload paper_campaign --seed 1
        [--trace 1 --spans FILE] [--setup-only]

The pass goes the way ``python -m repro.experiments`` does:
``plan_campaign`` → ``execute_campaign(jobs=1)`` → each experiment's
``run`` over a ``Sweep`` on the warm store.  The last line of standard
output is one JSON object: the pass's timings, each simulation's
latency, simulated micro-ops, the digest of every simulation and,
with ``--trace 1``, the per-layer aggregates.  ``--setup-only`` stops
after set-up and reports only when set-up ended.

Every timing is taken twice: on the monotonic clock and on the
process's CPU clock.  The pass is serial and single-threaded, so on an
idle host the two agree; the CPU clock leaves out the time a shared
host withholds the processor.  After each simulation the pass runs the
host speed reference (``hostspeed.py``) and reports its CPU times;
every other timing leaves the reference's runs out.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import sys
from time import perf_counter, process_time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.getcwd(), "src"), HERE]

from repro.experiments import EXPERIMENTS, Settings, Sweep  # noqa: E402
from repro.experiments import cache, parallel  # noqa: E402
from repro.workloads.riscv.corpus import riscv_program_names  # noqa: E402

import hostspeed  # noqa: E402
import riscv_observed  # noqa: E402
from scale import MEASURE, WARMUP  # noqa: E402
from tracing import Tracer  # noqa: E402

#: Telemetry sampling period of ``riscv_observed`` (the period
#: ``python -m repro.experiments --telemetry`` uses when given bare).
TELEMETRY_PERIOD = 256

#: Host speed reference runs of a ``--setup-only`` process.
SETUP_REFERENCES = 3


def workload(name: str, seed: int):
    """(settings, experiment ids, id -> module) of a campaign workload."""
    if name == "paper_campaign":
        settings = Settings(all_programs=False, warmup=WARMUP,
                            measure=MEASURE, seed=seed)
        return settings, ("fig07", "fig08"), None
    if name == "riscv_observed":
        settings = Settings(only_programs=riscv_program_names(),
                            warmup=WARMUP, measure=MEASURE, seed=seed,
                            telemetry_period=TELEMETRY_PERIOD)
        return (settings, ("riscv_observed",),
                {"riscv_observed": riscv_observed.__name__})
    raise SystemExit(f"unknown campaign workload {name!r}")


def job_name(spec) -> str:
    """Stable name of one simulation, the digest table's key."""
    name = f"{spec.program}|{spec.config.model.value}-{spec.config.level}"
    if spec.policy is not None:
        name += f"|{riscv_observed.POLICY}"
    return name


def now() -> tuple[float, float]:
    """Monotonic and CPU seconds."""
    return perf_counter(), process_time()


class TimedStore(cache.ResultStore):
    """The campaign's result store, noting when each result lands.

    ``execute_campaign(jobs=1)`` runs jobs one after another and stores
    each as it finishes, so the gaps between writes are the
    per-simulation latencies.  After each write the store runs the host
    speed reference and notes when the campaign resumed.
    """

    def __init__(self, directory: str) -> None:
        super().__init__(directory)
        #: (stored, resumed) times of each write
        self.marks: list[tuple[tuple[float, float], tuple[float, float]]] = []
        self.references: list[float] = []

    def put(self, key, result) -> None:
        super().put(key, result)
        stored = now()
        self.references.append(hostspeed.reference())
        self.marks.append((stored, now()))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans", default="")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    settings, exp_ids, experiments = workload(args.workload, args.seed)
    modules = experiments or EXPERIMENTS
    tracer = Tracer().install() if args.trace else None
    store = TimedStore(os.environ["REPRO_CACHE_DIR"])
    # the CPU clock counts from the process's start
    setup = process_time()
    if args.setup_only:
        references = [hostspeed.reference()
                      for __ in range(SETUP_REFERENCES)]
        print(json.dumps({"setup": setup, "references": references}))
        return 0

    start = now()
    cache.set_active_store(store)
    try:
        recorder = parallel.plan_campaign(exp_ids, settings, experiments)
        exec_start = now()
        report = parallel.execute_campaign(recorder, store, jobs=1)
        exec_end = perf_counter()
        sweep = Sweep(settings, store=store)
        for exp_id in exp_ids:
            importlib.import_module(modules[exp_id]).run(sweep=sweep)
    finally:
        cache.set_active_store(None)
    end = now()
    layers = tracer.snapshot() if tracer is not None else None

    from repro.verify.digest import result_digest
    # a cold store runs every job, in the recorder's order
    marks = [m for m in store.marks if m[0][0] <= exec_end]
    stored = [m[0] for m in marks]
    resumed = [exec_start] + [m[1] for m in marks]
    paused = [sum(b[i] - a[i] for a, b in store.marks) for i in (0, 1)]
    names = [job_name(spec) for spec in recorder.jobs.values()]
    out = {
        "setup": setup, "references": store.references,
        "wall": end[0] - start[0] - paused[0],
        "cpu": end[1] - start[1] - paused[1],
        "jobs": len(recorder), "executed": report.executed,
        "wall_latencies": {n: b[0] - a[0]
                           for n, a, b in zip(names, resumed, stored)},
        "latencies": {n: b[1] - a[1]
                      for n, a, b in zip(names, resumed, stored)},
        "digests": {}, "uops": 0,
    }
    for name, spec in zip(names, recorder.jobs.values()):
        result = store.get(spec.key)
        if result is not None:
            out["digests"][name] = result_digest(result)
            out["uops"] += spec.warmup + result.instructions
    if tracer is not None:
        out["layers"] = layers
        if args.spans:
            tracer.write_spans(args.spans, origin=start[0])
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
