"""The worker agent: pull jobs, simulate, push results.

``python -m repro.service worker --coordinator URL`` runs one remote
worker against a job server (:mod:`repro.service.server`); the server
also forks its own local agents from this class.  The agent registers,
then loops: lease up to ``slots`` jobs (long-polling when idle,
heartbeating to renew its leases when busy), execute each through the
exact campaign worker function
(:func:`repro.experiments.parallel._run_job`), push the result into
its **tiered store** — local ``.simcache`` tier first, written back to
the shared store the server reads — and report completion.  A local
agent has no disk tier of its own: it writes straight into the
server's store.

Placement affinity comes from the store: the agent advertises the
shard prefixes (``key[:2]``) its local tier holds, refreshed on every
lease call, so the server can route jobs whose cache neighbours
already live here.  Read-through makes the affinity self-reinforcing:
a shared-store hit is promoted into the local tier and widens the
advertised shards.

Execution runs on daemon threads so the agent keeps renewing leases
while a simulation grinds (a slot's simulation is pure Python; the
heartbeat's sleeps and socket I/O release the GIL).  A slot that frees
up wakes the lease loop, so it is refilled at once rather than at the
next heartbeat.  SIGTERM/SIGINT finish the running jobs, deregister
(requeueing nothing — held work completes) and exit; SIGKILL is the
chaos case the server's requeue exists for, and the atomic store
writes guarantee it never leaves a torn entry.

Before executing, the agent re-derives the :class:`JobSpec` from the
shipped request payload and checks the content address matches the
server's — a mismatch means server/worker version skew (different
``SIM_VERSION``), and the job is failed loudly rather than poisoning
the shared store with wrong-version results.
"""

from __future__ import annotations

import os
import signal
import socket
import threading
import time

from repro.experiments.cache import TieredResultStore, telemetry_dir
from repro.experiments.parallel import _run_job
from repro.service.client import ClusterClient, QueueFull, ServiceError
from repro.service.jobs import ValidationError, build_spec

__all__ = ["WorkerAgent", "parse_coordinator"]


def parse_coordinator(url: str) -> tuple[str, int]:
    """``http://host:port``, ``host:port`` or bare ``host`` → address."""
    trimmed = url.strip()
    for scheme in ("http://", "https://"):
        if trimmed.startswith(scheme):
            trimmed = trimmed[len(scheme):]
    trimmed = trimmed.rstrip("/")
    host, sep, port = trimmed.partition(":")
    if not host:
        raise ValueError(f"bad coordinator address: {url!r}")
    return host, int(port) if sep else 8321


class WorkerAgent:
    """One worker node: lease loop, slot threads, tiered store."""

    def __init__(self, coordinator: str, *, name: str | None = None,
                 slots: int = 1, cache_dir: str | None = None,
                 shared_dir: str | None = None,
                 lease_wait: float = 2.0, retry_interval: float = 1.0) -> None:
        if slots < 1:
            raise ValueError("slots must be >= 1")
        host, port = parse_coordinator(coordinator)
        self.client = ClusterClient(host, port, timeout=60.0)
        self.name = name or f"{socket.gethostname()}:{os.getpid()}"
        self.slots = slots
        #: local tier location; defaults to a per-worker directory so
        #: several agents on one box do not share (and therefore do not
        #: skew) each other's affinity shards
        self.cache_dir = cache_dir or f".simcache-{self.name.replace(':', '-')}"
        #: shared tier; None = take the server's answer at
        #: registration (same-box/NFS deployments)
        self.shared_dir = shared_dir
        self.lease_wait = lease_wait
        self.retry_interval = retry_interval
        self.worker_id: str | None = None
        self.lease_ttl = 15.0
        self.store: TieredResultStore | None = None
        self.executed = 0
        self.failed = 0
        self._stop = threading.Event()
        #: set when a slot frees up or a stop is requested
        self._wake = threading.Event()
        self._busy = 0  # slots executing a grant
        self._busy_lock = threading.Lock()

    # ------------------------------------------------------------- lifecycle

    def stop(self) -> None:
        """Thread-safe graceful-stop signal."""
        self._stop.set()
        self._wake.set()

    def _install_signal_handlers(self) -> None:
        if threading.current_thread() is not threading.main_thread():
            return  # embedder (tests) owns signals
        for sig in (signal.SIGINT, signal.SIGTERM):
            signal.signal(sig, lambda *_: self.stop())

    def _register(self) -> bool:
        """Register (retrying until the server answers) and build
        the tiered store from the negotiated shared directory."""
        prefixes = ()
        if self.store is not None:
            prefixes = self.store.shard_prefixes()
        while not self._stop.is_set():
            try:
                answer = self.client.register_worker(
                    name=self.name, slots=self.slots, prefixes=prefixes)
            except ServiceError:
                self._stop.wait(self.retry_interval)
                continue
            self.worker_id = answer["worker_id"]
            self.lease_ttl = float(answer.get("lease_ttl", self.lease_ttl))
            shared = self.shared_dir or answer.get("shared_cache_dir")
            if self.store is None:
                self.store = TieredResultStore(self.cache_dir, shared)
            return True
        return False

    # ------------------------------------------------------------- main loop

    def run(self) -> int:
        """Blocking entry point; returns an exit code."""
        self._install_signal_handlers()
        if self.worker_id is None and not self._register():
            return 1
        print(f"repro.service worker {self.name} ({self.worker_id}): "
              f"serving {self.client.host}:{self.client.port} "
              f"(slots={self.slots}, local={self.store.directory}, "
              f"shared={self.store.shared.directory if self.store.shared else None})",
              flush=True)
        heartbeat = max(0.2, self.lease_ttl / 3)
        draining = False
        while not self._stop.is_set():
            free = self.slots - self._busy
            try:
                answer = self.client.lease(
                    self.worker_id,
                    prefixes=self.store.shard_prefixes(),
                    max_jobs=free,
                    wait=self.lease_wait if free and not draining else 0.0)
            except ServiceError as exc:
                if getattr(exc, "status", 0) == 404:
                    # the server restarted and forgot us: re-register
                    if not self._register():
                        break
                    continue
                self._stop.wait(self.retry_interval)
                continue
            draining = bool(answer.get("draining"))
            for grant in answer.get("jobs", ()):
                with self._busy_lock:
                    self._busy += 1
                threading.Thread(
                    target=self._execute_one, args=(grant,),
                    name=f"worker-slot-{grant['key'][:8]}",
                    daemon=True).start()
            if draining and not self._busy:
                break  # the server is shutting down and we are idle
            if draining or self._busy >= self.slots:
                # nothing to lease: renew held leases every heartbeat,
                # refill (or finish) as soon as a slot frees
                self._wake.wait(heartbeat)
                self._wake.clear()
            elif not answer.get("jobs") and self.lease_wait <= 0:
                # idle without a server-side long poll to pace us
                self._stop.wait(min(heartbeat, 0.2))
        return self._shutdown()

    def _shutdown(self) -> int:
        deadline = time.monotonic() + max(60.0, self.lease_ttl * 4)
        while self._busy and time.monotonic() < deadline:
            self._wake.wait(0.5)
            self._wake.clear()
        try:
            if self.worker_id is not None:
                self.client.deregister(self.worker_id)
        except ServiceError:
            pass
        print(f"repro.service worker {self.name}: exiting "
              f"({self.executed} simulated, {self.failed} failed)",
              flush=True)
        return 0

    # ------------------------------------------------------------- execution

    def _execute_one(self, grant: dict) -> None:
        key = grant["key"]
        started = time.perf_counter()
        try:
            spec = build_spec(
                grant.get("payload") or {},
                telemetry_dir=telemetry_dir(self.store.shared))
            if spec.key != key:
                raise ValidationError(
                    f"content-address mismatch: the server says "
                    f"{key[:12]}…, this worker derives {spec.key[:12]}… "
                    f"(simulator version skew?)")
            # read-through: another worker (or a previous campaign) may
            # already have produced this key — then the lease is served
            # from the store and nothing simulates twice
            if self.store.get(key) is None:
                __, result, __busy = _run_job(spec)
                self.store.put(key, result)
                self.executed += 1
            self._report(key, ok=True,
                         busy=time.perf_counter() - started)
        except Exception as exc:
            self.failed += 1
            self._report(key, ok=False,
                         error=f"{type(exc).__name__}: {exc}",
                         busy=time.perf_counter() - started)
        finally:
            with self._busy_lock:
                self._busy -= 1
            self._wake.set()

    def _report(self, key: str, *, ok: bool, error: str | None = None,
                busy: float = 0.0) -> None:
        deadline = time.monotonic() + max(30.0, self.lease_ttl * 2)
        while time.monotonic() < deadline:
            try:
                self.client.complete(self.worker_id, key, ok=ok,
                                     error=error, busy_seconds=busy)
                return
            except QueueFull:
                time.sleep(self.retry_interval)
            except ServiceError as exc:
                if getattr(exc, "status", 0) == 404:
                    return  # the server forgot us; the lease requeues
                time.sleep(self.retry_interval)
            if self._stop.is_set():
                return
