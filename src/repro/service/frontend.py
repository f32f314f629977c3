"""The client-facing job API, shared by every serving topology.

A single-box server executes admitted jobs on a local process pool; a
cluster coordinator hands them to registered workers.  Everything a
*client* sees — validation, content-addressed dedup against the result
store, in-flight coalescing, atomic batch admission with 429 +
``Retry-After``, job records, the NDJSON event stream, health and
metrics — is identical, and lives here.  Subclasses provide three
hooks:

* :meth:`_dispatch` — send one admitted job toward execution;
* :meth:`_outstanding` — executions currently queued or running, for
  admission control;
* :meth:`_retry_after` — the backoff estimate a rejected client gets
  (seconds; may be fractional — sub-second capacity deserves a
  sub-second retry hint, and the client parses fractions).
"""

from __future__ import annotations

import asyncio
import json
import time
from time import perf_counter

from repro.experiments.cache import ResultStore, telemetry_dir
from repro.service.http import HttpServiceBase
from repro.service.jobs import Job, ValidationError, build_spec
from repro.service.metrics import ServiceMetrics
from repro.workloads import (all_program_names,
                             workload_namespaces)

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


class JobFrontendBase(HttpServiceBase):
    """HTTP job API over an abstract execution fabric."""

    def __init__(self, *, host: str = "127.0.0.1", port: int = 8321,
                 queue_limit: int = 32, store: ResultStore) -> None:
        if queue_limit < 1:
            raise ValueError("queue_limit must be >= 1")
        super().__init__(host=host, port=port)
        self.queue_limit = queue_limit
        self.store = store
        self.metrics = ServiceMetrics()
        self.draining = False
        self.jobs: dict[str, Job] = {}
        self._by_key: dict[str, Job] = {}
        self._finished_order: list[str] = []
        self._job_seq = 0

    def on_request(self) -> None:
        self.metrics.inc("requests")

    # ------------------------------------------------------- subclass hooks

    def _dispatch(self, job: Job) -> None:
        """Send one admitted (non-cached, non-coalesced) job toward
        execution.  ``job.spec.key`` is already registered in
        ``_by_key`` as the in-flight primary."""
        raise NotImplementedError

    def _outstanding(self) -> int:
        """Executions currently queued or running (admission control)."""
        raise NotImplementedError

    def _retry_after(self) -> float:
        """Seconds until an execution slot plausibly frees up."""
        raise NotImplementedError

    def _health_extra(self) -> dict:
        """Topology-specific fields merged into ``GET /healthz``."""
        return {}

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
        outstanding = self._outstanding()
        if needed and outstanding + len(needed) > self.queue_limit:
            self.metrics.inc("jobs_rejected", len(payloads))
            retry_after = self._retry_after()
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
        self._dispatch(job)

    # ------------------------------------------------------------------ HTTP

    async def _route(self, method: str, path: str, body: bytes,
                     writer: asyncio.StreamWriter) -> None:
        if await self._route_extra(method, path, body, writer):
            pass
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

    async def _route_extra(self, method: str, path: str, body: bytes,
                           writer: asyncio.StreamWriter) -> bool:
        """Topology-specific endpoints (e.g. the coordinator's worker
        protocol).  Return True when the request was handled — the
        response must already be written (not yet drained)."""
        return False

    def _health(self) -> dict:
        states: dict[str, int] = {}
        for job in self.jobs.values():
            states[job.state] = states.get(job.state, 0) + 1
        view = {
            "status": "draining" if self.draining else "ok",
            "queue_limit": self.queue_limit,
            "jobs": states,
            "uptime_seconds": round(time.time() - self.metrics.started, 3),
            "cache_dir": self.store.directory,
        }
        view.update(self._health_extra())
        return view

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
