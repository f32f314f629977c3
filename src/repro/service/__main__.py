"""Entry point: ``python -m repro.service serve|worker|loadgen``.

``serve`` runs the HTTP job server in the foreground with ``--workers``
forked local agents until SIGINT or SIGTERM, then drains gracefully
(leased jobs finish, pending jobs are rejected, the local agents
exit).  ``worker`` runs one remote agent that registers with a server
and pulls jobs from it.  ``loadgen`` forwards to
:mod:`repro.service.loadgen`.
"""

from __future__ import annotations

import argparse
import sys


def serve_main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.service serve",
        description="run the simulation job server")
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=8321,
                        help="0 = pick a free port (printed on startup)")
    parser.add_argument("--workers", type=int, default=2,
                        help="local worker agents forked by the server "
                             "(0 = remote workers only)")
    parser.add_argument("--queue-limit", type=int, default=32,
                        help="max outstanding executions (pending + "
                             "leased) before 429")
    parser.add_argument("--timeout", type=float, default=120.0,
                        help="per-job execution timeout (seconds)")
    parser.add_argument("--lease-ttl", type=float, default=15.0,
                        help="seconds a worker may hold a job without "
                             "renewing before it is requeued")
    parser.add_argument("--max-requeues", type=int, default=2,
                        help="requeues after a worker dies or its lease "
                             "expires before a job fails")
    parser.add_argument("--cache-dir", type=str, default="",
                        help="result store every worker writes into "
                             "(default: $REPRO_CACHE_DIR or .simcache)")
    args = parser.parse_args(argv)

    from repro.service.server import SimulationService
    service = SimulationService(
        host=args.host, port=args.port, workers=args.workers,
        queue_limit=args.queue_limit, job_timeout=args.timeout,
        lease_ttl=args.lease_ttl, max_requeues=args.max_requeues,
        cache_dir=args.cache_dir)
    banner = (f"workers={service.local_workers}, "
              f"queue_limit={service.queue_limit}, "
              f"lease_ttl={service.lease_ttl}s, "
              f"cache={service.store.directory}")
    return _run_foreground(service, banner)


def worker_main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.service worker",
        description="run one worker agent against a job server")
    parser.add_argument("--coordinator", default="http://127.0.0.1:8321",
                        help="job server address (http://host:port)")
    parser.add_argument("--name", default=None,
                        help="worker name (default: host:pid)")
    parser.add_argument("--slots", type=int, default=1,
                        help="concurrent executions this worker offers")
    parser.add_argument("--cache-dir", type=str, default=None,
                        help="local store tier (default: "
                             ".simcache-<name>)")
    parser.add_argument("--shared-cache", type=str, default=None,
                        help="shared store tier (default: the path the "
                             "server advertises at registration)")
    args = parser.parse_args(argv)

    from repro.service.worker import WorkerAgent
    agent = WorkerAgent(args.coordinator, name=args.name,
                        slots=args.slots, cache_dir=args.cache_dir,
                        shared_dir=args.shared_cache)
    return agent.run()


def _run_foreground(service, banner: str) -> int:
    """Serve in the foreground with startup/drain progress lines."""
    import asyncio

    async def _serve() -> None:
        await service.start()
        print(f"repro.service: serving on "
              f"http://{service.host}:{service.port} ({banner})",
              flush=True)
        try:
            await service._stop_requested.wait()
            print("repro.service: draining (leased jobs finish, "
                  "pending jobs are rejected) ...", flush=True)
        finally:
            await service.drain()
            print("repro.service: drained, bye", flush=True)

    try:
        asyncio.run(_serve())
    except KeyboardInterrupt:
        pass
    return 0


_COMMANDS = ("serve", "worker", "loadgen")


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    if not argv or argv[0] not in _COMMANDS:
        print("usage: python -m repro.service "
              "serve|worker|loadgen [options]\n"
              "       (--help after the subcommand for its options)",
              file=sys.stderr)
        return 2
    if argv[0] == "serve":
        return serve_main(argv[1:])
    if argv[0] == "worker":
        return worker_main(argv[1:])
    from repro.service.loadgen import main as loadgen_main
    return loadgen_main(argv[1:])


if __name__ == "__main__":
    raise SystemExit(main())
