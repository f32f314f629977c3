"""Repository benchmark: three workloads, end to end and per layer.

Usage, from the repository root::

    python3 perfbench/run.py --workload paper_campaign --seed 1 \\
        --seconds 30 --trace 0

Workloads (see README.md for why each was chosen):

* ``paper_campaign`` — Fig. 7 + Fig. 8 over the paper's 14 selected
  programs (98 simulations), planned, executed serially and
  aggregated from a cold store;
* ``riscv_observed`` — the six riscv corpus kernels under base,
  dynamic and dynamic with ``bandit:ucb``, telemetry sampling on;
* ``service_mix`` — a fresh ``python -m repro.service serve`` under a
  seeded, duplicate-heavy closed-loop job mix.

Each pass (or service round) runs in fresh processes on a fresh store
under ``.perfbench/`` in the working directory; passes repeat until
``--seconds`` would be exceeded.  ``--trace 0`` reports the end-to-end
metrics, ``--trace 1`` alternates untraced and traced passes and
reports the per-layer metrics.  End-to-end timings are the CPU time of
the processes doing the work, which time a shared host withholds the
processor does not inflate, normalised to a nominal host speed with
the benchmark's own reference routine (``hostspeed.py``) run between
the operations; the raw and monotonic-clock timings are reported per
layer.  Every simulation's digest is checked against
``digests.json``, and the committed golden digests are checked once
per invocation.  The last line of standard output is the JSON
result; the lines before it are a readable report.

``--record`` writes this run's digests into ``digests.json`` (for a
new ``SIM_VERSION`` or seed).
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
from time import perf_counter

import hostspeed
import scale

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
DIGESTS = os.path.join(HERE, "digests.json")

WORKLOADS = ("paper_campaign", "riscv_observed", "service_mix")

#: Extra set-up-only processes (campaign processes or servers) per
#: run, so set-up time is a median of several samples even when one
#: pass fills the run.
SETUP_PROBES = 3

#: A pass that takes longer than this is a hung pass.
PASS_TIMEOUT = 120


def log(text: str) -> None:
    print(text, flush=True)


def median(values) -> float:
    return statistics.median(values) if values else 0.0


def mean(values) -> float:
    return statistics.fmean(values) if values else 0.0


def speed(p: dict) -> float:
    """The factor that takes pass ``p``'s CPU times to the host speed
    at which the compute reference takes ``REFERENCE_SECONDS``."""
    return hostspeed.REFERENCE_SECONDS / mean(p["references"])


def normalise(p: dict, hits=frozenset()) -> None:
    """Put pass ``p``'s raw CPU times under ``raw_cpu`` and
    ``raw_latencies``, and normalised ones in their place.

    Operations in ``hits`` (requests answered from the result store)
    scale with the loopback reference, everything else, time between
    operations too, with the compute reference.
    """
    fast = speed(p)
    loop = (hostspeed.LOOPBACK_SECONDS / mean(p["loopbacks"])
            if hits else fast)
    raw = p["raw_latencies"] = p["latencies"]
    p["latencies"] = {op: t * (loop if op in hits else fast)
                      for op, t in raw.items()}
    p["raw_cpu"] = p["cpu"]
    p["cpu"] = p["raw_cpu"] * fast + sum(
        t * (loop - fast) for op, t in raw.items() if op in hits)


# ----------------------------------------------------------------------
# scheduling


def repeat(seconds: float, traced_run: bool, one_pass) -> list[dict]:
    """Run passes until the next one would overrun ``seconds``.

    At least one pass runs; a traced run alternates untraced and
    traced passes and always completes a pair.
    """
    kinds = (False, True) if traced_run else (False,)
    passes: list[dict] = []
    start = perf_counter()
    while True:
        for traced in kinds:
            passes.append(one_pass(len(passes), traced))
        elapsed = perf_counter() - start
        per_round = elapsed * len(kinds) / len(passes)
        if elapsed + per_round > seconds:
            return passes


# ----------------------------------------------------------------------
# campaign workloads


def campaign_process(args, workdir: str, index: int, traced: bool,
                     setup_only: bool = False) -> dict:
    """Spawn one campaign pass (or set-up probe) on a fresh store."""
    store = os.path.join(workdir, f"store-{index}")
    os.makedirs(store)
    command = [sys.executable, os.path.join(HERE, "campaign.py"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--trace", str(int(traced))]
    if setup_only:
        command.append("--setup-only")
    elif traced:
        command += ["--spans", span_base(args, index) + ".jsonl"]
    env = dict(os.environ, REPRO_CACHE_DIR=store, PYTHONPATH=SRC)
    try:
        proc = subprocess.run(command, env=env, capture_output=True,
                              text=True, timeout=PASS_TIMEOUT)
    except subprocess.TimeoutExpired:
        return {"traced": traced, "error": "pass timed out"}
    finally:
        shutil.rmtree(store, ignore_errors=True)
    if proc.returncode != 0:
        tail = proc.stderr.strip().splitlines()[-3:]
        return {"traced": traced,
                "error": f"exit {proc.returncode}: {' | '.join(tail)}"}
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    out["traced"] = traced
    return out


def span_base(args, index: int) -> str:
    """Where traced pass ``index`` writes its spans: ``<base>.jsonl``
    for a campaign pass, a directory ``<base>`` for a service round."""
    return os.path.join(ROOT, ".perfbench", "spans",
                        f"{args.workload}-seed{args.seed}-pass{index}")


def run_campaign(args, workdir: str) -> dict:
    setups = []
    for probe in range(SETUP_PROBES):
        out = campaign_process(args, workdir, 1000 + probe, False,
                               setup_only=True)
        if "error" not in out:
            setups.append(out["setup"] * speed(out))
    passes = repeat(args.seconds, bool(args.trace),
                    lambda index, traced: campaign_process(
                        args, workdir, index, traced))
    good = [p for p in passes if "error" not in p]
    jobs = max((p["jobs"] for p in good), default=1)
    ops = []
    for p in passes:
        if "error" in p:
            ops.append({"failed": jobs, "why": p["error"]})
        else:
            ops.append({"attempted": p["jobs"],
                        "digests": sorted(p["digests"].items())})
    for p in good:
        normalise(p)
    setups += [p["setup"] * speed(p) for p in good]
    return {"passes": passes, "setups": setups, "ops": ops}


# ----------------------------------------------------------------------
# service workload


def run_service(args, workdir: str) -> dict:
    import service_mix

    def one_round(index: int, traced: bool) -> dict:
        store = os.path.join(workdir, f"store-{index}")
        trace_dir = span_base(args, index) if traced else None
        try:
            out = service_mix.run_round(
                args.seed, scale.WARMUP, scale.MEASURE,
                store, os.path.join(workdir, f"server-{index}.log"),
                trace_dir)
        except (OSError, RuntimeError) as exc:
            return {"traced": traced, "error": f"round failed: {exc}"}
        finally:
            shutil.rmtree(store, ignore_errors=True)
        out["traced"] = traced
        if trace_dir is not None:
            out["dumps"] = [json.load(open(os.path.join(trace_dir, name)))
                            for name in sorted(os.listdir(trace_dir))
                            if name.endswith(".json")]
        return out

    setups = []
    for probe in range(SETUP_PROBES):
        store = os.path.join(workdir, f"store-{1000 + probe}")
        try:
            out = service_mix.probe_setup(
                store, os.path.join(workdir, f"server-{1000 + probe}.log"))
            setups.append(out["setup"] * speed(out))
        except (OSError, RuntimeError):
            pass  # the rounds report a server that does not start
        finally:
            shutil.rmtree(store, ignore_errors=True)
    rounds = repeat(args.seconds, bool(args.trace), one_round)
    ops = []
    for r in rounds:
        if "error" in r:
            ops.append({"failed": service_mix.REQUESTS, "why": r["error"]})
            continue
        digests = []
        whys = []
        for (name, __), outcome in zip(r["mix"], r["outcomes"]):
            if "error" in outcome:
                whys.append(outcome["error"])
            else:
                digests.append((name, outcome["result"].get("digest")))
        failed = len(whys)
        # every round sends the same requests: request i is one
        # operation, repeated once per round
        answered = {str(i): o for i, o in enumerate(r["outcomes"])
                    if "error" not in o}
        r["latencies"] = {op: o["latency"] for op, o in answered.items()}
        r["wall_latencies"] = {op: o["wall_latency"]
                               for op, o in answered.items()}
        normalise(r, {op for op, o in answered.items() if o["hit"]})
        r["uops"] = sum(
            scale.WARMUP + o["result"]["instructions"]
            for o in {n: o for (n, __), o in zip(r["mix"], r["outcomes"])
                      if "result" in o}.values())
        ops.append({"attempted": len(r["outcomes"]), "failed": failed,
                    "why": "; ".join(sorted(set(whys))[:3]),
                    "digests": digests})
    setups += [r["setup"] * speed(r) for r in rounds if "error" not in r]
    return {"passes": rounds, "setups": setups, "ops": ops}


# ----------------------------------------------------------------------
# correctness


def load_tables() -> dict:
    try:
        with open(DIGESTS, encoding="utf-8") as fh:
            return json.load(fh)
    except FileNotFoundError:
        return {"tables": {}}


def scale_key() -> str:
    return f"{scale.WARMUP}/{scale.MEASURE}"


def simulation_seed(args) -> int:
    """The seed the workload's simulations run with, which keys its
    digest table."""
    if args.workload == "service_mix":
        import service_mix
        return service_mix.SIMULATION_SEED
    return args.seed


def digest_gate(args, ops: list[dict]) -> tuple[str, int, list[str]]:
    """Check every operation's digests against the recorded table.

    Returns (status, failed operations, notes).  ``unchecked`` means
    no table exists for this SIM_VERSION, seed and scale; the
    run-internal agreement checks still apply.
    """
    from repro.pipeline.core import SIM_VERSION
    entry = (load_tables()["tables"].get(SIM_VERSION, {})
             .get(args.workload, {}).get(str(simulation_seed(args))))
    if entry is not None and entry.get("scale") != scale_key():
        entry = None
    failed = 0
    notes = []
    first: dict[str, str] = {}
    for op in ops:
        for name, digest in op.get("digests", ()):
            if first.setdefault(name, digest) != digest:
                failed += 1
                notes.append(f"{name}: digests differ within the run")
            elif entry is not None and entry["digests"].get(name) != digest:
                failed += 1
                notes.append(f"{name}: digest {str(digest)[:12]} != table "
                             f"{str(entry['digests'].get(name))[:12]}")
    if entry is not None:
        missing = sorted(set(entry["digests"]) - set(first))
        if missing and any("digests" in op for op in ops):
            notes.append(f"{len(missing)} recorded jobs not run: "
                         f"{', '.join(missing[:3])}")
            failed += len(missing)
    if entry is None:
        status = "unchecked"
        notes.insert(0, f"no digest table for SIM_VERSION {SIM_VERSION}, "
                        f"seed {simulation_seed(args)}, "
                        f"scale {scale_key()}")
    else:
        status = "fail" if failed else "pass"
    distinct = sorted(set(notes), key=notes.index)
    if len(distinct) > 8:
        distinct[8:] = [f"... and {len(distinct) - 8} more"]
    return status, failed, distinct


def record_digests(args, ops: list[dict]) -> None:
    from repro.pipeline.core import SIM_VERSION
    merged = dict(pair for op in ops for pair in op.get("digests", ()))
    tables = load_tables()
    (tables["tables"].setdefault(SIM_VERSION, {})
     .setdefault(args.workload, {}))[str(simulation_seed(args))] = {
        "scale": scale_key(), "digests": dict(sorted(merged.items()))}
    with open(DIGESTS, "w", encoding="utf-8") as fh:
        json.dump(tables, fh, indent=1, sort_keys=True)
        fh.write("\n")
    log(f"recorded {len(merged)} digests for {args.workload} "
        f"seed {simulation_seed(args)}")


def golden_checks() -> tuple[bool, list[str]]:
    """The repository's committed golden digest checks."""
    from repro.verify.golden import check_golden
    from repro.verify.riscv_oracles import check_riscv_golden
    outcomes = check_golden() + check_riscv_golden()
    failures = [o.line()[:160] for o in outcomes if not o.passed]
    if len(failures) > 8:
        failures[8:] = [f"... and {len(failures) - 8} more"]
    return not failures, failures


# ----------------------------------------------------------------------
# metrics


def percentile_ms(latencies: list[float], q: int) -> float:
    """The ``q``-th percentile in ms, interpolated inside the sample
    (never extrapolated past its largest value)."""
    if len(latencies) < 2:
        return 1e3 * latencies[0] if latencies else 0.0
    return 1e3 * statistics.quantiles(latencies, n=100,
                                      method="inclusive")[q - 1]


def operation_latencies(passes: list[dict], kind: str) -> list[float]:
    """Each operation's latency of ``kind``, the median over the passes
    that ran it (every pass runs the same operations), so that one
    slow pass does not move the percentiles."""
    repeats: dict[str, list[float]] = {}
    for p in passes:
        for key, latency in p[kind].items():
            repeats.setdefault(key, []).append(latency)
    return [median(v) for v in repeats.values()]


def end_to_end(run: dict, peak_rss_mb: float) -> tuple[dict, list[str]]:
    passes = [p for p in run["passes"]
              if "error" not in p and not p["traced"]]
    latencies = operation_latencies(passes, "latencies")
    metrics = {
        "cpu_s": (median([p["cpu"] for p in passes]), "s"),
        "sim_uops_per_cpu_s": (median([p["uops"] / p["cpu"]
                                       for p in passes]), "1/s"),
        "p50_cpu_ms": (percentile_ms(latencies, 50), "ms"),
        "p99_cpu_ms": (percentile_ms(latencies, 99), "ms"),
        "setup_s": (median(run["setups"]), "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    raw = operation_latencies(passes, "raw_latencies")
    notes = [f"{len(passes)} passes, {len(latencies)} operations timed, "
             f"{len(run['setups'])} set-ups",
             f"unnormalised p50/p99 CPU ms: {percentile_ms(raw, 50):.4f}/"
             f"{percentile_ms(raw, 99):.4f}",
             "pass CPU s / raw CPU s / wall s: " + ", ".join(
                 f"{p['cpu']:.3f}/{p['raw_cpu']:.3f}/{p['wall']:.3f}"
                 for p in passes)]
    return metrics, notes


#: Per-layer metrics of the service layer (zero on the campaigns).
SERVICE_LAYER = ("service.submit_ms", "service.wait_ms",
                 "service.validate_ms", "service.queue_wait_ms",
                 "service.execute_ms", "service.simulations",
                 "service.coalesced", "service.retries", "service.hit_ratio")


def per_layer(run: dict) -> tuple[dict, list[str]]:
    import tracing
    passes = [p for p in run["passes"] if "error" not in p]
    traced = [p for p in passes if p["traced"]]
    plain = [p for p in passes if not p["traced"]]
    rows = []
    absent: dict[str, str] = {}
    for p in traced:
        snapshot = (tracing.merge(p["dumps"]) if "dumps" in p
                    else p["layers"])
        absent.update(snapshot["absent"])
        row = tracing.layer_metrics(snapshot)
        row["other_s"] = p["wall"] - tracing.self_seconds(snapshot)
        stages = p.get("stages_ms")
        if stages is not None:
            answered = [o for o in p["outcomes"] if "wall_latency" in o]
            submits = [o["submit"] for o in answered]
            waits = [o["wall_latency"] - o["submit"] for o in answered]
            scrape = p["metrics"]
            row.update({
                "service.submit_ms": 1e3 * mean(submits),
                "service.wait_ms": 1e3 * mean(waits),
                "service.validate_ms": stages["validate"],
                "service.queue_wait_ms": stages["queue_wait"],
                "service.execute_ms": stages["execute"],
                "service.simulations": scrape.get(
                    "repro_service_simulations_total", 0.0),
                "service.coalesced": scrape.get(
                    "repro_service_coalesced_total", 0.0),
                "service.retries": scrape.get(
                    "repro_service_retries_total", 0.0),
                "service.hit_ratio": scrape.get(
                    "repro_service_cache_hit_rate", 0.0),
            })
        rows.append(row)
    names = sorted({name for row in rows for name in row})
    metrics = {name: mean([row.get(name, 0.0) for row in rows])
               for name in names}
    for name in SERVICE_LAYER:
        metrics.setdefault(name, 0.0)
    metrics["trace_overhead_s"] = (mean([p["wall"] for p in traced])
                                   - mean([p["wall"] for p in plain]))
    # the untraced passes' raw timings; the monotonic clock also counts
    # the time a shared host withholds the processor
    wall_latencies = operation_latencies(plain, "wall_latencies")
    metrics["reference_ms"] = 1e3 * mean([t for p in passes
                                          for t in p["references"]])
    metrics["loopback_ms"] = 1e3 * mean([t for p in passes
                                         for t in p.get("loopbacks", ())])
    metrics["raw_cpu_s"] = median([p["raw_cpu"] for p in plain])
    metrics["wall_s"] = median([p["wall"] for p in plain])
    metrics["wall_p50_ms"] = percentile_ms(wall_latencies, 50)
    metrics["wall_p99_ms"] = percentile_ms(wall_latencies, 99)
    wall = mean([p["wall"] for p in traced])
    notes = [f"{len(traced)} traced / {len(plain)} untraced passes; "
             f"traced wall {wall:.3f} s, other_s {metrics['other_s']:.3f} s "
             f"({100 * metrics['other_s'] / wall if wall else 0:.1f}%)"]
    if absent:
        notes.append("absent: " + "; ".join(f"{k} ({v})"
                                           for k, v in sorted(absent.items())))
    return {name: (value, unit_of(name)) for name, value in metrics.items()}, \
        notes


def unit_of(name: str) -> str:
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ns_per_uop"):
        return "ns"
    if name.endswith("_ratio"):
        return "ratio"
    return "count"


# ----------------------------------------------------------------------


#: Hash seed of every process the benchmark runs.  With random seeds
#: each process lays out its dicts and sets differently, which moved
#: a server's set-up and request CPU time by up to 30%.
HASH_SEED = "0"


def main(argv=None) -> int:
    if os.environ.get("PYTHONHASHSEED") != HASH_SEED:
        # every process started from here inherits the seed
        os.execve(sys.executable, [sys.executable, *sys.argv],
                  dict(os.environ, PYTHONHASHSEED=HASH_SEED))
    # a terminated run still stops the processes it started
    signal.signal(signal.SIGTERM, lambda *__: sys.exit(128 + signal.SIGTERM))
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true",
                        help="write this run's digests into digests.json")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"perfbench: no repro sources under {SRC}; run from the "
              f"repository root", file=sys.stderr)
        return 2
    sys.path[:0] = [SRC, HERE]

    scratch = os.path.join(ROOT, ".perfbench")
    os.makedirs(scratch, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=scratch)
    try:
        if args.workload == "service_mix":
            run = run_service(args, workdir)
        else:
            run = run_campaign(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    peak_rss_mb = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss) / 1024

    ops = run["ops"]
    attempted = sum(op.get("attempted", op.get("failed", 0)) for op in ops)
    failed = sum(op.get("failed", 0) for op in ops)
    for op in ops:
        if op.get("why"):
            log(f"failed: {op['why']}")
    done = {p["traced"] for p in run["passes"] if "error" not in p}
    if done != ({False, True} if args.trace else {False}):
        print("perfbench: no pass of some kind succeeded",
              file=sys.stderr)
        return 1
    gate, mismatched, gate_notes = digest_gate(args, ops)
    golden_ok, golden_notes = golden_checks()
    failed += mismatched
    correct = failed == 0 and golden_ok and gate != "fail"
    if args.record and correct:
        record_digests(args, ops)
    elif args.record:
        log("not recording digests: the run is not correct")

    if args.trace:
        metrics, notes = per_layer(run)
    else:
        metrics, notes = end_to_end(run, peak_rss_mb)
    log(f"perfbench {args.workload} seed {args.seed} "
        f"({'traced' if args.trace else 'untraced'})")
    for note in notes:
        log(f"  {note}")
    log(f"  digest gate: {gate}" + "".join(f"\n    {n}" for n in gate_notes))
    log(f"  golden checks: {'pass' if golden_ok else 'FAIL'}"
        + "".join(f"\n    {n}" for n in golden_notes))
    for name, (value, unit) in metrics.items():
        log(f"  {name:32s} {value:14.6f} {unit}")
    print(json.dumps({
        "correct": correct,
        "attempted": max(1, attempted),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
