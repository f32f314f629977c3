"""Deterministic load generator for the simulation service.

``python -m repro.service.loadgen --rps N --duration S --seed S`` drives
a running server with an open-loop arrival schedule (request *i* fires
at ``i / rps`` seconds, regardless of how earlier requests fared — the
schedule never adapts to server latency, so two runs offer identical
load) and a seeded job mix drawn from a small pool of distinct job
shapes.  The duplicate-heavy mix is deliberate: it exercises exactly
the dedup/caching path a sweep workload produces, and makes the
reported cache-hit rate a meaningful serving metric rather than zero
by construction.

The report — achieved throughput, p50/p95/p99 latency, rejection rate,
cache-hit rate — makes serving performance a measured artifact, the
way ``benchmarks/`` does for the simulator itself.
"""

from __future__ import annotations

import argparse
import random
import sys
import threading
import time
from dataclasses import dataclass, field

from repro.service.client import QueueFull, ServiceClient, ServiceError
from repro.telemetry.reservoir import LatencyReservoir
from repro.workloads import known_program

#: default program pool: a memory-bound / compute-bound mix, plus one
#: riscv trace workload so serving CI exercises the ingestion frontend
#: under dedup/coalescing
DEFAULT_PROGRAMS = ("mcf", "leslie3d", "libquantum", "milc", "gcc", "namd",
                    "povray", "riscv:memcpy")

MODELS = ("base", "fixed", "ideal", "dynamic", "runahead")


@dataclass
class LoadReport:
    """Outcome of one load-generation run."""

    offered: int = 0
    completed: int = 0
    rejected: int = 0
    retried: int = 0
    failed: int = 0
    errors: int = 0
    cached: int = 0
    coalesced: int = 0
    simulated: int = 0
    wall_seconds: float = 0.0
    target_rps: float = 0.0
    latency: LatencyReservoir = field(default_factory=LatencyReservoir)

    @property
    def achieved_rps(self) -> float:
        return self.completed / self.wall_seconds if self.wall_seconds else 0.0

    @property
    def rejection_rate(self) -> float:
        return self.rejected / self.offered if self.offered else 0.0

    @property
    def cache_hit_rate(self) -> float:
        return ((self.cached + self.coalesced) / self.completed
                if self.completed else 0.0)

    def render(self) -> str:
        p = self.latency.summary()
        lines = [
            f"loadgen: offered {self.offered} jobs in "
            f"{self.wall_seconds:.1f}s (target {self.target_rps:.1f} rps)",
            f"  completed {self.completed} "
            f"({self.achieved_rps:.2f} done/s), "
            f"rejected {self.rejected} ({self.rejection_rate:.1%}, "
            f"{self.retried} retried after 429), "
            f"failed {self.failed}, transport errors {self.errors}",
            f"  latency: p50 {p['p50'] * 1e3:.1f}ms  "
            f"p95 {p['p95'] * 1e3:.1f}ms  p99 {p['p99'] * 1e3:.1f}ms  "
            f"max {p['max'] * 1e3:.1f}ms  (mean {p['mean'] * 1e3:.1f}ms)",
            f"  cache: {self.cached} store hits + {self.coalesced} "
            f"coalesced / {self.simulated} simulated "
            f"-> hit rate {self.cache_hit_rate:.1%}",
        ]
        return "\n".join(lines)


def build_job_mix(seed: int, distinct: int, programs, *,
                  measure: int, warmup: int) -> list[dict]:
    """``distinct`` job shapes, deterministically derived from ``seed``.

    Every shape is a complete job payload; the arrival loop cycles
    through them with a seeded RNG, so duplicates (and therefore cache
    hits and coalescing) occur by design.
    """
    rng = random.Random(seed)
    shapes = []
    for index in range(distinct):
        program = programs[index % len(programs)]
        model = MODELS[rng.randrange(len(MODELS))]
        shape = {"program": program, "model": model,
                 "seed": 1 + rng.randrange(3),
                 "warmup": warmup, "measure": measure}
        if model in ("fixed", "ideal", "dynamic"):
            shape["level"] = 1 + rng.randrange(3)
        shapes.append(shape)
    return shapes


def run_load(client: ServiceClient, *, rps: float, duration: float,
             seed: int, measure: int = 1_500, warmup: int = 500,
             distinct: int = 6, programs=None,
             job_timeout: float = 120.0, retry_429: int = 0,
             retry_cap: float = 5.0) -> LoadReport:
    """Drive the server and measure it; blocks until every request
    resolved (completed, rejected or failed).

    ``retry_429`` > 0 makes each rejected submit honour the server's
    ``Retry-After`` header (fractional seconds respected, capped at
    ``retry_cap``) and resubmit up to that many times before counting
    the request as rejected — the closed-loop behaviour a polite
    client exhibits, and the path that exercises admission-control
    backoff end to end.
    """
    if rps <= 0 or duration <= 0:
        raise ValueError("rps and duration must be positive")
    programs = tuple(programs) if programs else DEFAULT_PROGRAMS
    unknown = {p for p in programs if not known_program(p)}
    if unknown:
        raise ValueError(f"unknown programs: {', '.join(sorted(unknown))}")
    shapes = build_job_mix(seed, distinct, programs,
                           measure=measure, warmup=warmup)
    rng = random.Random(seed ^ 0x5EED)
    total = max(1, int(rps * duration))
    plan = [shapes[rng.randrange(len(shapes))] for __ in range(total)]

    report = LoadReport(offered=total, target_rps=rps)
    lock = threading.Lock()
    epoch = time.perf_counter()

    def submit_with_retry(payload: dict) -> dict:
        """One submit, honouring Retry-After up to ``retry_429`` times."""
        attempts = 0
        while True:
            try:
                return client.submit([payload])[0]
            except QueueFull as exc:
                if attempts >= retry_429:
                    raise
                attempts += 1
                with lock:
                    report.retried += 1
                # Retry-After may be fractional (the server emits
                # sub-second estimates); never sleep unboundedly long
                time.sleep(min(max(exc.retry_after, 0.0), retry_cap))

    def fire(index: int, payload: dict) -> None:
        wait = epoch + index / rps - time.perf_counter()
        if wait > 0:
            time.sleep(wait)
        started = time.perf_counter()
        try:
            record = submit_with_retry(payload)
            record = client.wait(record["id"], timeout=job_timeout)
        except QueueFull:
            with lock:
                report.rejected += 1
            return
        except (ServiceError, TimeoutError):
            with lock:
                report.errors += 1
            return
        elapsed = time.perf_counter() - started
        with lock:
            if record["state"] == "done":
                report.completed += 1
                report.latency.record(elapsed)
                if record.get("cached"):
                    report.cached += 1
                elif record.get("coalesced"):
                    report.coalesced += 1
                else:
                    report.simulated += 1
            else:
                report.failed += 1

    threads = [threading.Thread(target=fire, args=(i, payload), daemon=True)
               for i, payload in enumerate(plan)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    report.wall_seconds = time.perf_counter() - epoch
    return report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.service.loadgen", description=__doc__)
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=8321)
    parser.add_argument("--rps", type=float, default=5.0,
                        help="offered request rate (open loop)")
    parser.add_argument("--duration", type=float, default=10.0,
                        help="seconds of offered load")
    parser.add_argument("--seed", type=int, default=1,
                        help="job mix + arrival plan seed")
    parser.add_argument("--measure", type=int, default=1_500,
                        help="measured micro-ops per job")
    parser.add_argument("--warmup", type=int, default=500)
    parser.add_argument("--distinct", type=int, default=6,
                        help="distinct job shapes in the mix (lower = "
                             "more duplicates = more cache hits)")
    parser.add_argument("--programs", default="",
                        help="comma-separated program pool "
                             f"(default: {','.join(DEFAULT_PROGRAMS)})")
    parser.add_argument("--timeout", type=float, default=120.0,
                        help="per-job completion timeout")
    parser.add_argument("--retry-429", type=int, default=0,
                        metavar="N",
                        help="resubmit a 429-rejected job up to N times, "
                             "sleeping the server's Retry-After between "
                             "attempts (default: count it as rejected)")
    args = parser.parse_args(argv)

    client = ServiceClient(args.host, args.port, timeout=args.timeout)
    try:
        client.wait_ready(timeout=10.0)
    except ServiceError as exc:
        print(f"loadgen: no server at {args.host}:{args.port} ({exc})",
              file=sys.stderr)
        return 1
    programs = tuple(p for p in args.programs.split(",") if p) or None
    report = run_load(client, rps=args.rps, duration=args.duration,
                      seed=args.seed, measure=args.measure,
                      warmup=args.warmup, distinct=args.distinct,
                      programs=programs, job_timeout=args.timeout,
                      retry_429=args.retry_429)
    print(report.render())
    return 0 if report.completed or report.rejected else 1


if __name__ == "__main__":
    raise SystemExit(main())
