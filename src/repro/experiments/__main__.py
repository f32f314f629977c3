"""Run the full evaluation: every table and figure, sharing one sweep.

Usage::

    python -m repro.experiments [--selected] [--measure N] [--warmup N]
                                [--only fig07,fig12] [--seed N]
                                [--jobs N] [--cache-dir DIR]
                                [--no-cache] [--clear-cache]
    python -m repro.experiments cache [--stats] [--prune]
                                [--max-bytes N[K|M|G]] [--max-age SECONDS]

The campaign is planned first (a dry pass collects every simulation the
selected experiments will request), the de-duplicated jobs are fanned
out over ``--jobs`` worker processes into a content-addressed result
store, and the experiment modules then run unchanged against the warm
store.  A re-run with an unchanged configuration simulates nothing.
"""

from __future__ import annotations

import argparse
import importlib
import os
import sys
import time

from repro.experiments import EXPERIMENTS
from repro.experiments.cache import (
    ResultStore,
    default_cache_dir,
    set_active_store,
)
from repro.experiments.parallel import execute_campaign, plan_campaign
from repro.experiments.runner import Settings, Sweep


def _parse_size(text: str) -> int:
    """``500K`` / ``64M`` / ``2G`` / plain bytes — case-insensitive."""
    multipliers = {"K": 1024, "M": 1024 ** 2, "G": 1024 ** 3}
    text = text.strip()
    factor = multipliers.get(text[-1:].upper(), 1)
    digits = text[:-1] if factor != 1 else text
    try:
        value = int(digits)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"bad size {text!r} (expected bytes or N[K|M|G])") from None
    if value < 0:
        raise argparse.ArgumentTypeError("size must be >= 0")
    return value * factor


def cache_main(argv=None) -> int:
    """``python -m repro.experiments cache`` — inspect / prune the store.

    A long-lived serving process (``repro.service``) grows ``.simcache``
    without bound; this is the operator's pressure valve.
    """
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments cache",
        description=cache_main.__doc__)
    parser.add_argument("--stats", action="store_true",
                        help="print entry/byte/artifact counts (default "
                             "when no action is given)")
    parser.add_argument("--prune", action="store_true",
                        help="evict entries, LRU by mtime; telemetry "
                             "artifacts go with their entries")
    parser.add_argument("--max-bytes", type=_parse_size, default=None,
                        metavar="N[K|M|G]",
                        help="with --prune: evict oldest entries until "
                             "the store fits this budget")
    parser.add_argument("--max-age", type=float, default=None,
                        metavar="SECONDS",
                        help="with --prune: evict entries untouched for "
                             "longer than this")
    parser.add_argument("--cache-dir", type=str, default="",
                        help="store location (default: $REPRO_CACHE_DIR "
                             "or .simcache)")
    args = parser.parse_args(argv)
    if args.prune and args.max_bytes is None and args.max_age is None:
        print("cache --prune needs --max-bytes and/or --max-age "
              "(otherwise nothing would be evicted)", file=sys.stderr)
        return 2
    store = ResultStore(args.cache_dir or default_cache_dir())
    if args.prune:
        report = store.prune(max_bytes=args.max_bytes, max_age=args.max_age)
        print(f"cache {store.directory}: {report.summary()}")
        return 0
    from repro.experiments.cache import telemetry_dir
    artifacts = 0
    artifact_bytes = 0
    tdir = telemetry_dir(store)
    if tdir and os.path.isdir(tdir):
        for name in os.listdir(tdir):
            if name.endswith(".jsonl"):
                artifacts += 1
                artifact_bytes += os.path.getsize(os.path.join(tdir, name))
    print(f"cache {store.directory}: {store.disk_entries()} entries, "
          f"{store.disk_bytes() / 1024:.1f} KiB; "
          f"{artifacts} telemetry artifacts, "
          f"{artifact_bytes / 1024:.1f} KiB")
    return 0


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    if argv[:1] == ["cache"]:
        return cache_main(argv[1:])
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--selected", action="store_true",
                        help="only the paper's selected programs")
    parser.add_argument("--measure", type=int, default=15_000)
    parser.add_argument("--warmup", type=int, default=4_000)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--only", type=str, default="",
                        help="comma-separated experiment ids")
    parser.add_argument("--csv-dir", type=str, default="",
                        help="also export each result as CSV+JSON here")
    parser.add_argument("--jobs", type=int, default=None,
                        help="worker processes for the simulation fan-out "
                             "(default: all cores; 1 = fully serial)")
    parser.add_argument("--cache-dir", type=str, default="",
                        help="on-disk result store location (default: "
                             "$REPRO_CACHE_DIR or .simcache)")
    parser.add_argument("--no-cache", action="store_true",
                        help="keep results in memory only; nothing is "
                             "read from or written to disk")
    parser.add_argument("--clear-cache", action="store_true",
                        help="wipe the on-disk result store first")
    parser.add_argument("--sanitize", action="store_true",
                        help="attach the repro.debug invariant sanitizer "
                             "to every simulation (slower; cached results "
                             "are bypassed so the checks actually run)")
    parser.add_argument("--telemetry", type=int, nargs="?", const=256,
                        default=0, metavar="PERIOD",
                        help="record a per-job telemetry time-series "
                             "(sampled every PERIOD cycles; 256 when the "
                             "flag is given bare) into "
                             "<cache-dir>/telemetry/<key>.jsonl — render "
                             "one with `python -m repro.telemetry report`")
    args = parser.parse_args(argv)

    if args.telemetry and args.no_cache:
        print("--telemetry needs the on-disk store for its artifacts; "
              "it cannot be combined with --no-cache", file=sys.stderr)
        return 2
    if args.telemetry < 0:
        print(f"--telemetry period must be >= 1, got {args.telemetry}",
              file=sys.stderr)
        return 2

    settings = Settings(all_programs=not args.selected, warmup=args.warmup,
                        measure=args.measure, seed=args.seed,
                        sanitize=args.sanitize,
                        telemetry_period=args.telemetry)
    wanted = [e for e in args.only.split(",") if e] or list(EXPERIMENTS)
    unknown = [e for e in wanted if e not in EXPERIMENTS]
    if unknown:
        print(f"unknown experiment ids: {', '.join(unknown)}",
              file=sys.stderr)
        return 2

    jobs = args.jobs if args.jobs is not None else (os.cpu_count() or 1)
    if jobs < 1:
        print(f"--jobs must be >= 1, got {jobs}", file=sys.stderr)
        return 2
    cache_dir = None if args.no_cache else (args.cache_dir
                                            or default_cache_dir())
    store = ResultStore(cache_dir)
    if args.clear_cache:
        removed = store.clear_disk()
        print(f"cache: cleared {removed} stored results")

    start = time.time()
    set_active_store(store)
    try:
        recorder = plan_campaign(wanted, settings)
        report = execute_campaign(recorder, store, jobs=jobs)
        if report.planned:
            print(f"campaign: {report.summary()}\n")

        sweep = Sweep(settings, store=store)
        results = []
        for exp_id in wanted:
            module = importlib.import_module(EXPERIMENTS[exp_id])
            t0 = time.time()
            hits0, sims0 = sweep.cache_hits, sweep.sim_runs
            result = module.run(sweep=sweep)
            results.append(result)
            print(result.as_text())
            hits = sweep.cache_hits - hits0
            sims = sweep.sim_runs - sims0
            print(f"[{exp_id}: {time.time() - t0:.1f}s, "
                  f"cache {hits} hit / {sims} simulated]\n")
    finally:
        set_active_store(None)
    if args.csv_dir:
        from repro.experiments.export import export_results
        written = export_results(results, args.csv_dir)
        print(f"exported {len(written)} files to {args.csv_dir}")
    summary = [f"total: {time.time() - start:.1f}s",
               f"cache {sweep.cache_hits} hit / {sweep.sim_runs} simulated "
               f"this pass",
               f"store: {store.memory_hits} mem / {store.disk_hits} disk "
               f"hits, {store.misses} misses, "
               f"{store.disk_entries()} entries on disk"]
    if report.executed:
        summary.append(
            f"fan-out: {report.executed} jobs on {report.workers} worker"
            + ("s" if report.workers != 1 else "")
            + f" at {report.utilisation():.0%} utilisation "
            + f"({report.busy_seconds:.1f}s busy / "
            + f"{report.wall_seconds:.1f}s wall)")
    elif report.planned:
        summary.append("fan-out: warm cache, nothing simulated")
    artifacts = report.telemetry_artifacts + sweep.telemetry_artifacts
    if args.telemetry:
        from repro.experiments.cache import telemetry_dir
        summary.append(f"telemetry: {artifacts} artifacts in "
                       f"{telemetry_dir(store)} (period {args.telemetry})")
    print(" | ".join(summary))
    slowest = report.slowest_programs()
    if slowest:
        print("slowest programs: "
              + ", ".join(f"{prog} {secs:.1f}s/{jobs} jobs"
                          for prog, secs, jobs in slowest))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
