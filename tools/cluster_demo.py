#!/usr/bin/env python
"""Demo + gate for remote worker agents (`docs/serving.md`).

Three phases, each against a fresh job server with no local agents
(``workers=0``) and fresh stores:

1. **Baseline** — one worker process serves a duplicate-heavy batch;
   wall-clock and per-job digests are recorded.
2. **Scale-out** — N worker processes (default 4) serve the *same*
   batch.  The gate: digests bit-identical to the baseline run, every
   unique simulation executed exactly once across the workers, and
   throughput at least ``--min-speedup`` times the baseline
   (workers are separate processes, so the speedup is real
   parallelism, not thread interleaving).  Jobs must be long enough
   (``--measure``) that the phases time simulation rather than the
   lease round trips.
3. **Chaos** — two workers take a deliberately slow job; the worker
   *holding* it is SIGKILLed mid-execution.  The gate: the server's
   lease-timeout requeue reassigns it, the job completes with the
   digest an inline run produces, and every entry in the shared store
   still unpickles (atomic writes — no torn entries).

Usage::

    python tools/cluster_demo.py [--workers 4] [--min-speedup 3.0]
                                 [--unique 8] [--dups 3]
                                 [--measure 6000] [--no-chaos]
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import time

_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(_ROOT, "src"))

from repro.experiments.cache import ResultStore  # noqa: E402
from repro.experiments.parallel import _run_job  # noqa: E402
from repro.service.client import ServiceClient  # noqa: E402
from repro.service.jobs import build_spec  # noqa: E402
from repro.service.server import SimulationService  # noqa: E402
from repro.verify.digest import result_digest  # noqa: E402

PROGRAMS = ("mcf", "leslie3d", "libquantum", "gcc", "namd", "povray",
            "milc", "soplex")


def build_batch(unique: int, dups: int, measure: int) -> list[dict]:
    """A deterministic duplicate-heavy batch: ``unique`` distinct jobs,
    each submitted ``dups`` times (interleaved, the way a sweep's
    duplicate requests actually arrive)."""
    shapes = [{"program": PROGRAMS[i % len(PROGRAMS)], "model": "dynamic",
               "level": 1 + i % 3, "seed": 1 + i // len(PROGRAMS),
               "warmup": 500, "measure": measure}
              for i in range(unique)]
    return [shapes[i % unique] for i in range(unique * dups)]


def spawn_worker(port: int, name: str, workdir: str, slots: int = 1):
    env = dict(os.environ,
               PYTHONPATH=os.path.join(_ROOT, "src"))
    return subprocess.Popen(
        [sys.executable, "-m", "repro.service", "worker",
         "--coordinator", f"http://127.0.0.1:{port}",
         "--name", name, "--slots", str(slots),
         "--cache-dir", os.path.join(workdir, f"local-{name}")],
        env=env, cwd=workdir,
        stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)


def run_phase(workdir: str, label: str, n_workers: int,
              batch: list[dict], lease_ttl: float = 15.0):
    """One server + ``n_workers`` worker processes serving ``batch``;
    returns (wall_seconds, digests, metrics)."""
    phase_dir = os.path.join(workdir, label)
    os.makedirs(phase_dir, exist_ok=True)
    coord = SimulationService(workers=0, port=0,
                              queue_limit=max(64, len(batch)),
                              lease_ttl=lease_ttl,
                              cache_dir=os.path.join(phase_dir, "shared"))
    thread = coord.start_in_thread()
    workers = []
    try:
        client = ServiceClient(port=coord.port, timeout=600.0)
        client.wait_ready(timeout=30)
        workers = [spawn_worker(coord.port, f"{label}-{n}", phase_dir)
                   for n in range(n_workers)]
        deadline = time.monotonic() + 60
        while len(client.healthz()["workers"]) < n_workers:
            if time.monotonic() > deadline:
                raise RuntimeError(f"{label}: workers failed to register")
            time.sleep(0.05)

        started = time.perf_counter()
        records = client.submit_and_wait(batch, timeout=600.0)
        wall = time.perf_counter() - started
        bad = [r for r in records if r["state"] != "done"]
        if bad:
            raise RuntimeError(f"{label}: {len(bad)} jobs not done: "
                               f"{bad[0].get('error')}")
        digests = [r["result"]["digest"] for r in records]
        metrics = client.metrics()
        return wall, digests, metrics
    finally:
        for proc in workers:
            proc.terminate()
        for proc in workers:
            try:
                proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                proc.kill()
        coord.request_stop()
        thread.join(timeout=60)


def run_chaos(workdir: str) -> dict:
    """SIGKILL the worker holding a slow job; prove the requeue."""
    phase_dir = os.path.join(workdir, "chaos")
    os.makedirs(phase_dir, exist_ok=True)
    slow = {"program": "mcf", "model": "dynamic", "seed": 77,
            "warmup": 1_000, "measure": 40_000}
    coord = SimulationService(workers=0, port=0, lease_ttl=1.0,
                              cache_dir=os.path.join(phase_dir, "shared"))
    thread = coord.start_in_thread()
    workers = {}
    try:
        client = ServiceClient(port=coord.port, timeout=600.0)
        client.wait_ready(timeout=30)
        workers = {f"chaos-{n}": spawn_worker(coord.port, f"chaos-{n}",
                                              phase_dir)
                   for n in range(2)}
        deadline = time.monotonic() + 60
        while len(client.healthz()["workers"]) < 2:
            if time.monotonic() > deadline:
                raise RuntimeError("chaos: workers failed to register")
            time.sleep(0.05)

        record = client.submit(slow)[0]
        victim_name = None
        deadline = time.monotonic() + 60
        while victim_name is None:
            if time.monotonic() > deadline:
                raise RuntimeError("chaos: job never started running")
            for info in client.healthz()["workers"]:
                if record["key"] in info["held"]:
                    victim_name = info["name"]
            time.sleep(0.02)
        victim = workers[victim_name]
        victim.send_signal(signal.SIGKILL)
        victim.wait(timeout=10)

        finished = client.wait(record["id"], timeout=120)
        if finished["state"] != "done":
            raise RuntimeError(f"chaos: job ended {finished['state']}: "
                               f"{finished.get('error')}")
        if finished["attempts"] < 2:
            raise RuntimeError("chaos: job was not requeued")
        metrics = client.metrics()
        if metrics["repro_service_requeues_total"] < 1:
            raise RuntimeError("chaos: no requeue recorded")

        # bit-identity despite the murder
        __, local, __busy = _run_job(build_spec(slow))
        if finished["result"]["digest"] != result_digest(local):
            raise RuntimeError("chaos: digest diverged from inline run")
        # no torn entries: every stored file unpickles
        check = ResultStore(coord.store.directory)
        entries = list(check.iter_disk())
        for key, *__rest in entries:
            if check.get(key) is None:
                raise RuntimeError(f"chaos: torn store entry {key[:12]}")
        return {"attempts": finished["attempts"],
                "requeues": int(metrics["repro_service_requeues_total"]),
                "victim": victim_name,
                "store_entries_verified": len(entries)}
    finally:
        for proc in workers.values():
            if proc.poll() is None:
                proc.terminate()
        for proc in workers.values():
            try:
                proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                proc.kill()
        coord.request_stop()
        thread.join(timeout=60)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workers", type=int, default=4,
                        help="scale-out worker processes (default 4)")
    parser.add_argument("--min-speedup", type=float, default=3.0,
                        help="required cluster-over-baseline throughput "
                             "ratio (0 disables the gate)")
    parser.add_argument("--unique", type=int, default=8,
                        help="distinct jobs in the batch")
    parser.add_argument("--dups", type=int, default=3,
                        help="times each distinct job is submitted")
    parser.add_argument("--measure", type=int, default=6_000,
                        help="measured micro-ops per job (job duration)")
    parser.add_argument("--no-chaos", action="store_true",
                        help="skip the SIGKILL/requeue phase")
    parser.add_argument("--out", default="",
                        help="write the result summary as JSON here")
    args = parser.parse_args(argv)

    workdir = tempfile.mkdtemp(prefix="cluster-demo-")
    summary: dict = {"workers": args.workers,
                     "batch": args.unique * args.dups,
                     "unique": args.unique}
    try:
        batch = build_batch(args.unique, args.dups, args.measure)
        print(f"cluster-demo: batch of {len(batch)} jobs "
              f"({args.unique} unique x {args.dups} submissions)")

        base_wall, base_digests, base_metrics = run_phase(
            workdir, "baseline", 1, batch)
        base_sims = base_metrics["repro_service_simulations_total"]
        print(f"  baseline   1 worker : {base_wall:6.2f}s  "
              f"({len(batch) / base_wall:.1f} jobs/s, "
              f"{base_sims:.0f} simulations)")

        wall, digests, metrics = run_phase(
            workdir, "cluster", args.workers, batch)
        sims = metrics["repro_service_simulations_total"]
        speedup = base_wall / wall
        print(f"  cluster  {args.workers:2d} workers: {wall:6.2f}s  "
              f"({len(batch) / wall:.1f} jobs/s, {sims:.0f} simulations) "
              f"-> {speedup:.2f}x")

        if digests != base_digests:
            print("cluster-demo: FAIL — digests diverged between "
                  "single-node and cluster runs", file=sys.stderr)
            return 1
        print(f"  digests: all {len(digests)} bit-identical to the "
              f"single-node run")
        if sims != args.unique or base_sims != args.unique:
            print(f"cluster-demo: FAIL — expected exactly {args.unique} "
                  f"simulations (baseline ran {base_sims:.0f}, "
                  f"cluster ran {sims:.0f})", file=sys.stderr)
            return 1
        print(f"  dedup: each unique job simulated exactly once "
              f"cluster-wide")
        summary.update(baseline_seconds=round(base_wall, 3),
                       cluster_seconds=round(wall, 3),
                       speedup=round(speedup, 3),
                       digests_identical=True,
                       simulations=int(sims))
        if args.min_speedup and speedup < args.min_speedup:
            print(f"cluster-demo: FAIL — speedup {speedup:.2f}x below "
                  f"the {args.min_speedup:.1f}x gate", file=sys.stderr)
            return 1

        if not args.no_chaos:
            chaos = run_chaos(workdir)
            summary["chaos"] = chaos
            print(f"  chaos: SIGKILLed {chaos['victim']} mid-job -> "
                  f"requeued ({chaos['requeues']}), completed on "
                  f"attempt {chaos['attempts']}, "
                  f"{chaos['store_entries_verified']} store entries "
                  f"verified torn-free")

        if args.out:
            with open(args.out, "w") as fh:
                json.dump(summary, fh, indent=2, sort_keys=True)
            print(f"cluster-demo: summary -> {args.out}")
        print("cluster-demo: OK")
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    raise SystemExit(main())
