"""The simulation job server: one job API over leased executions.

``python -m repro.service serve`` exposes the simulator as a long-lived
service.  Jobs arrive as JSON, are validated against :mod:`repro.config`
(:func:`repro.service.jobs.build_spec`), content-addressed with the same
``result_key`` fingerprints as the campaign driver, and executed by
worker agents (:mod:`repro.service.worker`) that write every result
into the server's :class:`~repro.experiments.cache.ResultStore` — a job
the batch path already simulated is a cache hit here, and vice versa::

    POST /v1/jobs             submit one job or {"jobs": [...]} (atomic
                              admission: the whole batch or 429)
    GET  /v1/jobs/<id>        status + result
    GET  /v1/jobs/<id>/events chunked NDJSON stream of state changes
    GET  /v1/programs         available workload profiles
    GET  /healthz             liveness, backlog and registered workers
    GET  /metrics             text exposition (see service/metrics.py)

The server simulates nothing itself.  After the socket binds it forks
``workers`` local agents (one slot each, writing straight into the
server's store); remote agents (``python -m repro.service worker``)
join over the same worker protocol (all JSON over POST):

* ``/v1/workers/register`` ``{name, slots, prefixes}`` →
  ``{worker_id, lease_ttl, shared_cache_dir}``
* ``/v1/workers/<id>/lease`` ``{prefixes, max, wait}`` → up to ``max``
  granted jobs ``{key, job_id, payload, attempt}``.  Also the
  heartbeat: every call renews the worker's held leases (``max: 0`` is
  a pure renewal).  With ``wait > 0`` the call long-polls until work
  arrives or the wait expires.
* ``/v1/workers/<id>/complete`` ``{key, ok, error?, busy_seconds?}`` —
  on success the server reads the result back from the store (the
  worker wrote it there first; results never ride this request) and
  completes the job plus everything coalesced onto it.
* ``/v1/workers/<id>/deregister`` — graceful exit: the worker's held
  leases are requeued immediately instead of waiting for expiry.

Operational behaviour:

* **admission control** — at most ``queue_limit`` executions may be
  outstanding (pending + leased); a batch that does not fit is
  rejected whole with 429 and a ``Retry-After`` estimate (measured
  mean execution latency x backlog / worker slots, possibly
  fractional).  Cache hits and coalesced duplicates never consume
  slots.
* **deduplication** — identical jobs (same content address) already in
  flight are coalesced onto one execution; identical *stored* results
  are served without executing anything.
* **placement** — work-stealing with content-address affinity: a
  worker advertises the shard prefixes (``key[:2]``) its local store
  tier holds, and the grant loop prefers pending jobs in those shards
  before taking the FIFO head.
* **fault handling** — every grant is a lease.  A local agent that
  dies is deregistered and replaced, so its lease requeues at once; a
  remote agent that stops renewing has its lease expire.  Either way
  the job requeues up to ``max_requeues`` times, then fails.  A job
  leased for longer than ``job_timeout`` fails, and the local agent
  holding it is killed and replaced.  Store writes are atomic, so a
  killed agent leaves no torn entry, and a write that landed before
  the death completes the requeued job without a re-run.
* **graceful drain** — SIGINT/SIGTERM stops admission (503), rejects
  pending jobs, lets leased ones finish, waits for the local agents to
  exit, then closes the socket.
"""

from __future__ import annotations

import asyncio
import json
import os
import signal
import sys
import time
import traceback
from dataclasses import dataclass, field
from time import perf_counter

from repro.experiments.cache import (ResultStore, TieredResultStore,
                                     default_cache_dir, telemetry_dir)
from repro.service.http import HttpServiceBase
from repro.service.jobs import Job, ValidationError, build_spec
from repro.service.metrics import ServiceMetrics
from repro.service.worker import WorkerAgent
from repro.workloads import all_program_names, workload_namespaces

__all__ = ["SimulationService", "MAX_JOB_RECORDS", "format_retry_after"]

#: terminal job records kept for GET /v1/jobs/<id>; oldest are evicted
#: past this many total records so a long-lived server stays bounded.
MAX_JOB_RECORDS = 10_000


def format_retry_after(seconds: float) -> str:
    """``Retry-After`` header value: integral seconds stay integral
    (the classic header format), fractional estimates keep their
    precision — the client parses either."""
    if float(seconds).is_integer():
        return str(int(seconds))
    return f"{seconds:.3f}"


@dataclass
class WorkerInfo:
    """One registered worker, as the server sees it."""

    id: str
    name: str
    slots: int
    prefixes: frozenset[str] = frozenset()
    last_seen: float = 0.0
    held: set[str] = field(default_factory=set)

    def as_json(self) -> dict:
        return {"id": self.id, "name": self.name, "slots": self.slots,
                "held": sorted(self.held),
                "prefixes": len(self.prefixes)}


@dataclass
class Lease:
    """A grant of one job to one worker."""

    job: Job
    worker_id: str
    #: lease expiry, pushed back by every renewal
    deadline: float
    #: execution deadline: ``job_timeout`` after the grant
    timeout_at: float


class SimulationService(HttpServiceBase):
    """The job server: admission, dedup, leases and local agents."""

    def __init__(self, *, host: str = "127.0.0.1", port: int = 8321,
                 workers: int = 2, queue_limit: int = 32,
                 job_timeout: float = 120.0, lease_ttl: float = 15.0,
                 max_requeues: int = 2,
                 cache_dir: str | None = None) -> None:
        if workers < 0:
            raise ValueError("workers must be >= 0")
        if queue_limit < 1:
            raise ValueError("queue_limit must be >= 1")
        if lease_ttl <= 0:
            raise ValueError("lease_ttl must be > 0")
        super().__init__(host=host, port=port)
        #: local agents forked at start (and kept at this count)
        self.local_workers = workers
        self.queue_limit = queue_limit
        self.job_timeout = job_timeout
        self.lease_ttl = lease_ttl
        self.max_requeues = max_requeues
        # on disk: agents deliver results through it
        self.store = ResultStore(cache_dir or default_cache_dir())
        self.metrics = ServiceMetrics()
        self.draining = False
        self.jobs: dict[str, Job] = {}
        self._by_key: dict[str, Job] = {}
        self._finished_order: list[str] = []
        self._job_seq = 0
        self.workers: dict[str, WorkerInfo] = {}
        self._worker_seq = 0
        #: pid -> worker id of each forked local agent
        self.local_agents: dict[int, str] = {}
        self._pending: dict[str, Job] = {}  # insertion-ordered
        self._leased: dict[str, Lease] = {}
        self._work_available = asyncio.Event()
        self._long_polls = 0  # lease calls waiting for work
        self._reaper: asyncio.Task | None = None
        self.metrics.gauges.update({
            "pending": lambda: len(self._pending),
            "leased": lambda: len(self._leased),
            "workers": lambda: len(self.workers),
            "worker_slots": self._slots,
            "queue_limit": lambda: self.queue_limit,
            "draining": lambda: self.draining,
            "worker_utilisation": self._worker_utilisation,
        })

    def on_request(self) -> None:
        self.metrics.inc("requests")

    # ------------------------------------------------------------- lifecycle

    async def _on_start(self) -> None:
        self._reap_agents()  # forks the local agents
        self._reaper = asyncio.create_task(self._reaper_loop(),
                                           name="service-reaper")

    def _fork_agent(self) -> None:
        """Fork one local agent: one slot, no local store tier."""
        worker = self._register_worker(
            {"name": f"local-{self._worker_seq + 1}", "slots": 1})
        try:
            pid = os.fork()
        except OSError:
            del self.workers[worker.id]
            raise
        if pid:
            self.local_agents[pid] = worker.id
            return
        code = 1
        try:
            # A signal must not reach the parent's event loop through
            # the inherited wakeup fd, and the port must close when the
            # parent closes it.
            signal.set_wakeup_fd(-1)
            for sig in (signal.SIGINT, signal.SIGTERM):
                signal.signal(sig, signal.SIG_DFL)
            self._listener.close()
            agent = WorkerAgent(f"{self.host}:{self.port}", name=worker.name)
            agent.worker_id = worker.id
            agent.lease_ttl = self.lease_ttl
            agent.store = TieredResultStore(None, self.store.directory)
            code = agent.run()
        except BaseException:
            traceback.print_exc()
        finally:
            os._exit(code)  # never unwind into the parent's event loop

    async def _on_drain(self) -> None:
        """Stop admission, reject pending jobs, let leased ones finish
        (the reaper still expires and times them out), then wait for
        the local agents to exit."""
        self.draining = True
        for job in self._pending.values():
            dropped = self._reject_with_followers(job, "server draining")
            self.metrics.inc("jobs_dropped_on_drain", dropped)
        self._pending.clear()
        self._work_available.set()  # long-polling agents learn at once
        while self._leased or self._long_polls:
            await asyncio.sleep(0.05)
        deadline = time.monotonic() + self.lease_ttl
        while self.local_agents:
            if time.monotonic() > deadline:
                for pid in self.local_agents:
                    os.kill(pid, signal.SIGKILL)
            self._reap_agents()
            await asyncio.sleep(0.01)
        if self._reaper is not None:
            self._reaper.cancel()
            try:
                await self._reaper
            except asyncio.CancelledError:
                pass

    # ---------------------------------------------------------------- reaper

    async def _reaper_loop(self) -> None:
        period = max(0.05, min(1.0, self.lease_ttl / 4,
                               self.job_timeout / 4))
        while True:
            await asyncio.sleep(period)
            now = time.monotonic()
            for key, lease in list(self._leased.items()):
                if lease.timeout_at <= now:
                    self._time_out(key, lease)
                elif lease.deadline <= now:
                    self._expire_lease(key, lease)
            try:
                self._reap_agents()
            except OSError as exc:  # no fork now: the next tick retries
                print(f"service: cannot fork a local worker: {exc}",
                      file=sys.stderr)
            # forget workers that stopped heartbeating and hold nothing
            # (their leases expired above); their jobs moved on already
            horizon = now - 3 * self.lease_ttl
            for wid, worker in list(self.workers.items()):
                if worker.last_seen < horizon and not worker.held:
                    del self.workers[wid]
                    self.metrics.inc("workers_lost")

    def _reap_agents(self) -> None:
        """Deregister each local agent that exited (its leases requeue
        at once); unless draining, fork agents up to ``local_workers``."""
        for pid, wid in list(self.local_agents.items()):
            try:
                if not os.waitpid(pid, os.WNOHANG)[0]:
                    continue
            except ChildProcessError:
                pass  # reaped elsewhere: gone all the same
            del self.local_agents[pid]
            worker = self.workers.get(wid)
            if worker is not None:
                self._deregister_worker(worker, reason="local worker died")
        while not self.draining and len(self.local_agents) < self.local_workers:
            self._fork_agent()

    def _release(self, key: str, lease: Lease) -> None:
        self._leased.pop(key, None)
        worker = self.workers.get(lease.worker_id)
        if worker is not None:
            worker.held.discard(key)

    def _time_out(self, key: str, lease: Lease) -> None:
        self._release(key, lease)
        self.metrics.inc("timeouts")
        self._finish_failed(lease.job,
                            f"timed out after {self.job_timeout:g}s")
        for pid, wid in self.local_agents.items():
            if wid == lease.worker_id:
                os.kill(pid, signal.SIGKILL)  # replaced once reaped

    def _expire_lease(self, key: str, lease: Lease) -> None:
        self._release(key, lease)
        self.metrics.inc("leases_expired")
        self._requeue(lease.job, reason="lease expired",
                      worker=lease.worker_id)

    def _requeue(self, job: Job, *, reason: str, worker: str) -> None:
        if self.draining:
            dropped = self._reject_with_followers(job, "server draining")
            self.metrics.inc("jobs_dropped_on_drain", dropped)
            return
        # The worker may have finished the write before dying — or a
        # sibling may have raced it there.  A store hit makes the
        # requeue free and keeps "one execution per unique key"
        # observable in the digests.
        result = self.store.get(job.spec.key)
        if result is not None:
            self.metrics.inc("simulations")
            self._finish_done(job, result)
            return
        if job.attempts > self.max_requeues:
            self._finish_failed(
                job, f"{reason} after {job.attempts} attempts "
                     f"(last worker: {worker})")
            return
        self.metrics.inc("requeues")
        job.set_state("queued", requeued=True, reason=reason,
                      worker=worker)
        self._pending[job.spec.key] = job
        self._work_available.set()

    # ------------------------------------------------------- job bookkeeping

    def _new_job(self, spec, payload: dict | None = None) -> Job:
        self._job_seq += 1
        job = Job(f"j{self._job_seq:06d}", spec, payload=payload)
        self.jobs[job.id] = job
        return job

    def _remember_finished(self, job: Job) -> None:
        self._finished_order.append(job.id)
        while len(self.jobs) > MAX_JOB_RECORDS and self._finished_order:
            self.jobs.pop(self._finished_order.pop(0), None)

    def _finish_done(self, job: Job, result, *, cached: bool = False) -> None:
        if self._by_key.get(job.spec.key) is job:
            del self._by_key[job.spec.key]
        job.finish_done(result, cached=cached)
        self.metrics.observe("total", time.time() - job.created)
        self.metrics.inc("jobs_completed")
        self._remember_finished(job)
        for follower in job.followers:
            follower.finish_done(result, coalesced=True)
            self.metrics.observe("total", time.time() - follower.created)
            self.metrics.inc("jobs_completed")
            self._remember_finished(follower)

    def _finish_failed(self, job: Job, error: str) -> None:
        if self._by_key.get(job.spec.key) is job:
            del self._by_key[job.spec.key]
        job.finish_failed(error)
        self.metrics.inc("jobs_failed")
        self._remember_finished(job)
        for follower in job.followers:
            follower.finish_failed(error)
            self.metrics.inc("jobs_failed")
            self._remember_finished(follower)

    def _reject_with_followers(self, job: Job, reason: str) -> int:
        """Drain casualty: reject a primary and everything coalesced
        onto it; returns how many records were rejected."""
        self._by_key.pop(job.spec.key, None)
        casualties = [job] + job.followers
        for casualty in casualties:
            casualty.finish_rejected(reason)
            self._remember_finished(casualty)
        return len(casualties)

    def _slots(self) -> int:
        return sum(worker.slots for worker in self.workers.values())

    def _worker_utilisation(self) -> float:
        elapsed = time.time() - self.metrics.started
        if elapsed <= 0:
            return 0.0
        return min(1.0, self.metrics.worker_busy_seconds
                   / (elapsed * max(1, self._slots())))

    # ------------------------------------------------------------ submission

    def submit_batch(self, payloads: list[dict]) -> tuple[int, dict, dict]:
        """Admit (or reject) one batch; returns (status, headers, body)."""
        started = perf_counter()
        if self.draining:
            return 503, {}, {"error": "server draining"}
        if not payloads:
            return 400, {}, {"errors": [{"error": "empty batch"}]}
        tdir = telemetry_dir(self.store)
        specs = []
        errors = []
        for index, payload in enumerate(payloads):
            try:
                specs.append(build_spec(payload, telemetry_dir=tdir))
            except ValidationError as exc:
                errors.append({"index": index, "error": str(exc)})
        if errors:
            self.metrics.inc("bad_requests")
            return 400, {}, {"errors": errors}
        self.metrics.observe("validate", perf_counter() - started)

        # Atomic admission: count distinct executions this batch needs
        # (cache hits and coalesced duplicates are free), then either
        # admit everything or reject the whole request with 429.
        needed = set()
        for spec in specs:
            primary = self._by_key.get(spec.key)
            if primary is not None and not primary.terminal:
                continue
            if self.store.contains(spec.key):
                continue
            needed.add(spec.key)
        outstanding = len(self._pending) + len(self._leased)
        if needed and outstanding + len(needed) > self.queue_limit:
            self.metrics.inc("jobs_rejected", len(payloads))
            # measured execution latency x backlog / worker slots, so
            # worker-side pressure reaches the client as a
            # proportionally longer (possibly sub-second) hint
            execute = self.metrics.stage_latency["execute"]
            per_job = execute.mean if execute.count else 1.0
            retry_after = max(0.05, round(
                per_job * max(1, outstanding) / max(1, self._slots()), 3))
            return (429, {"Retry-After": format_retry_after(retry_after)},
                    {"error": "queue full",
                     "outstanding": outstanding,
                     "queue_limit": self.queue_limit,
                     "retry_after": retry_after})

        self.metrics.inc("jobs_submitted", len(payloads))
        batch = []
        for spec, payload in zip(specs, payloads):
            job = self._new_job(spec, payload)
            primary = self._by_key.get(spec.key)
            if primary is not None and not primary.terminal:
                job.coalesced = True
                job.add_event("queued", coalesced_into=primary.id)
                primary.followers.append(job)
                self.metrics.inc("coalesced")
            elif self.store.contains(spec.key):
                result = self.store.get(spec.key)
                if result is not None:
                    self.metrics.inc("cache_hits")
                    self._finish_done(job, result, cached=True)
                else:  # entry vanished between contains() and get()
                    self._admit(job)
            else:
                self._admit(job)
            batch.append(job.as_json(include_result=False))
        return 200, {}, {"jobs": batch}

    def _admit(self, job: Job) -> None:
        self._by_key[job.spec.key] = job
        job.enqueued_at = perf_counter()
        job.add_event("queued")
        self._pending[job.spec.key] = job
        self._work_available.set()

    # ------------------------------------------------------- worker protocol

    def _register_worker(self, body: dict) -> WorkerInfo:
        self._worker_seq += 1
        worker = WorkerInfo(
            id=f"w{self._worker_seq:04d}",
            name=str(body.get("name") or f"worker-{self._worker_seq}"),
            slots=max(1, int(body.get("slots", 1))),
            prefixes=frozenset(body.get("prefixes") or ()),
            last_seen=time.monotonic())
        self.workers[worker.id] = worker
        self.metrics.inc("workers_registered")
        return worker

    def _renew_leases(self, worker: WorkerInfo) -> None:
        deadline = time.monotonic() + self.lease_ttl
        for key in worker.held:
            lease = self._leased.get(key)
            if lease is not None and lease.worker_id == worker.id:
                lease.deadline = deadline

    def _take_jobs(self, worker: WorkerInfo, max_jobs: int) -> list[dict]:
        """Grant up to ``max_jobs`` pending jobs to ``worker``,
        affinity-first, FIFO within each class."""
        granted: list[dict] = []
        now = time.monotonic()
        while len(granted) < max_jobs and self._pending:
            key = None
            if worker.prefixes:
                for candidate in self._pending:
                    if candidate[:2] in worker.prefixes:
                        key = candidate
                        break
            if key is not None:
                self.metrics.inc("affinity_hits")
            else:
                key = next(iter(self._pending))
                self.metrics.inc("affinity_misses")
            job = self._pending.pop(key)
            job.attempts += 1
            self._leased[key] = Lease(job=job, worker_id=worker.id,
                                      deadline=now + self.lease_ttl,
                                      timeout_at=now + self.job_timeout)
            worker.held.add(key)
            self.metrics.inc("leases_granted")
            self.metrics.observe("queue_wait",
                                 perf_counter() - job.enqueued_at)
            job.started_at = time.time()
            job.set_state("running", worker=worker.name,
                          attempt=job.attempts)
            granted.append({"key": key, "job_id": job.id,
                            "payload": job.payload or {},
                            "attempt": job.attempts})
        if not self._pending:
            self._work_available.clear()
        return granted

    async def _lease_jobs(self, worker: WorkerInfo, body: dict) -> dict:
        worker.last_seen = time.monotonic()
        if "prefixes" in body:
            worker.prefixes = frozenset(body.get("prefixes") or ())
        if "slots" in body:
            worker.slots = max(1, int(body["slots"]))
        self._renew_leases(worker)
        max_jobs = max(0, int(body.get("max", 1)))
        wait = min(30.0, max(0.0, float(body.get("wait", 0.0))))
        granted = self._take_jobs(worker, max_jobs) if max_jobs else []
        if not granted and max_jobs and wait > 0 and not self.draining:
            self._long_polls += 1
            try:
                await asyncio.wait_for(self._work_available.wait(),
                                       timeout=wait)
            except asyncio.TimeoutError:
                pass
            finally:
                self._long_polls -= 1
            worker.last_seen = time.monotonic()
            self._renew_leases(worker)
            granted = self._take_jobs(worker, max_jobs)
        return {"jobs": granted, "lease_ttl": self.lease_ttl,
                "draining": self.draining}

    def _complete_job(self, worker: WorkerInfo, body: dict) -> dict:
        worker.last_seen = time.monotonic()
        key = str(body.get("key", ""))
        worker.held.discard(key)
        lease = self._leased.get(key)
        if lease is None or lease.worker_id != worker.id:
            # The lease expired (and was requeued or re-leased) or timed
            # out before this report arrived.  A result the worker wrote
            # is not wasted: the requeue path (or the next worker's
            # read-through) serves it from the store.
            self.metrics.inc("stale_completions")
            return {"accepted": False, "draining": self.draining}
        self._leased.pop(key, None)
        job = lease.job
        if not body.get("ok"):
            # Worker-side failures are deterministic simulation errors
            # (bad config reached a worker, version skew) — retrying
            # elsewhere would fail identically, so fail fast.
            self._finish_failed(job, str(body.get("error")
                                         or "worker failure"))
            return {"accepted": True, "draining": self.draining}
        result = self.store.get(key)
        if result is None:
            self._finish_failed(
                job, f"worker {worker.name} reported success but the "
                     f"store has no entry for {key[:12]}…")
            return {"accepted": True, "draining": self.draining}
        busy = float(body.get("busy_seconds", 0.0) or 0.0)
        self.metrics.inc("simulations")
        self.metrics.worker_busy_seconds += busy
        self.metrics.observe("execute", busy if busy > 0 else
                             time.time() - (job.started_at or job.created))
        self._finish_done(job, result)
        return {"accepted": True, "draining": self.draining}

    def _deregister_worker(self, worker: WorkerInfo, *,
                           reason: str = "worker deregistered") -> dict:
        requeued = 0
        for key in list(worker.held):
            lease = self._leased.get(key)
            worker.held.discard(key)
            if lease is None or lease.worker_id != worker.id:
                continue
            self._leased.pop(key, None)
            self._requeue(lease.job, reason=reason, worker=worker.name)
            requeued += 1
        self.workers.pop(worker.id, None)
        return {"requeued": requeued}

    # ------------------------------------------------------------------ HTTP

    async def _route(self, method: str, path: str, body: bytes,
                     writer: asyncio.StreamWriter) -> None:
        if path.startswith("/v1/workers"):
            status, response = await self._worker_request(method, path, body)
            self._write_response(writer, status, response)
        elif path == "/healthz" and method == "GET":
            self._write_response(writer, 200, self._health())
        elif path == "/metrics" and method == "GET":
            self._write_response(writer, 200, self.metrics.render())
        elif path == "/v1/programs" and method == "GET":
            self._write_response(writer, 200,
                                 {"programs": list(all_program_names()),
                                  "namespaces": workload_namespaces()})
        elif path == "/v1/jobs" and method == "POST":
            try:
                parsed = json.loads(body or b"null")
            except json.JSONDecodeError as exc:
                self.metrics.inc("bad_requests")
                self._write_response(writer, 400,
                                     {"errors": [{"error": f"bad JSON: {exc}"}]})
                await writer.drain()
                return
            if isinstance(parsed, dict) and "jobs" in parsed:
                payloads = parsed["jobs"]
                if not isinstance(payloads, list):
                    payloads = [payloads]
            elif isinstance(parsed, dict):
                payloads = [parsed]
            else:
                payloads = []
            status, headers, response = self.submit_batch(payloads)
            self._write_response(writer, status, response,
                                 extra_headers=headers)
        elif path.startswith("/v1/jobs/") and method == "GET":
            rest = path[len("/v1/jobs/"):]
            if rest.endswith("/events"):
                job = self.jobs.get(rest[:-len("/events")])
                if job is None:
                    self._write_response(writer, 404,
                                         {"error": "no such job"})
                else:
                    await self._stream_events(writer, job)
                    return
            else:
                job = self.jobs.get(rest)
                if job is None:
                    self._write_response(writer, 404,
                                         {"error": "no such job"})
                else:
                    self._write_response(writer, 200, job.as_json())
        elif path in ("/healthz", "/metrics", "/v1/jobs", "/v1/programs"):
            self._write_response(writer, 405,
                                 {"error": f"{method} not allowed"})
        else:
            self._write_response(writer, 404, {"error": "not found"})
        await writer.drain()

    async def _worker_request(self, method: str, path: str,
                              body: bytes) -> tuple[int, dict]:
        if method != "POST":
            return 405, {"error": f"{method} not allowed"}
        try:
            parsed = json.loads(body or b"{}")
            if not isinstance(parsed, dict):
                raise ValueError("body must be an object")
        except (json.JSONDecodeError, ValueError) as exc:
            self.metrics.inc("bad_requests")
            return 400, {"error": f"bad JSON: {exc}"}
        if path == "/v1/workers/register":
            worker = self._register_worker(parsed)
            return 200, {"worker_id": worker.id, "lease_ttl": self.lease_ttl,
                         "shared_cache_dir": self.store.directory,
                         "draining": self.draining}
        parts = path.split("/")  # ['', 'v1', 'workers', wid, action]
        worker = self.workers.get(parts[3]) if len(parts) == 5 else None
        if worker is None:
            # the worker restarted or was reaped: tell it to re-register
            return 404, {"error": "unknown worker"}
        action = parts[4]
        if action == "lease":
            return 200, await self._lease_jobs(worker, parsed)
        if action == "complete":
            return 200, self._complete_job(worker, parsed)
        if action == "deregister":
            return 200, self._deregister_worker(worker)
        return 404, {"error": "not found"}

    def _health(self) -> dict:
        states: dict[str, int] = {}
        for job in self.jobs.values():
            states[job.state] = states.get(job.state, 0) + 1
        return {
            "status": "draining" if self.draining else "ok",
            "queue_limit": self.queue_limit,
            "jobs": states,
            "uptime_seconds": round(time.time() - self.metrics.started, 3),
            "cache_dir": self.store.directory,
            "pending": len(self._pending),
            "leased": len(self._leased),
            "workers": [w.as_json()
                        for w in sorted(self.workers.values(),
                                        key=lambda w: w.id)],
            "worker_slots": self._slots(),
            "lease_ttl": self.lease_ttl,
        }

    async def _stream_events(self, writer: asyncio.StreamWriter,
                             job: Job) -> None:
        """Chunked NDJSON: one line per job event, until terminal."""
        writer.write(b"HTTP/1.1 200 OK\r\n"
                     b"Content-Type: application/x-ndjson\r\n"
                     b"Transfer-Encoding: chunked\r\n"
                     b"Cache-Control: no-store\r\n"
                     b"Connection: close\r\n\r\n")
        sent = 0
        while True:
            while sent < len(job.events):
                data = (json.dumps(job.events[sent], sort_keys=True)
                        + "\n").encode()
                writer.write(f"{len(data):X}\r\n".encode() + data + b"\r\n")
                sent += 1
            await writer.drain()
            if job.terminal:
                break
            await job.wait_update()
        writer.write(b"0\r\n\r\n")
        await writer.drain()
