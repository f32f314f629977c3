"""Thin stdlib client for the simulation service.

Speaks the JSON protocol of :mod:`repro.service.server` over plain
``http.client`` connections — one connection per request, no external
dependencies.  Used by the test suite, the CI service job and the load
generator; the documented examples in ``docs/serving.md`` are written
against this module.
"""

from __future__ import annotations

import http.client
import json
import time

from repro.service.jobs import TERMINAL_STATES
from repro.service.metrics import parse_exposition


class ServiceError(RuntimeError):
    """The server answered with an error (or not at all)."""

    def __init__(self, message: str, status: int = 0,
                 body: object = None) -> None:
        super().__init__(message)
        self.status = status
        self.body = body


class QueueFull(ServiceError):
    """Admission control rejected the batch (HTTP 429)."""

    def __init__(self, message: str, retry_after: float,
                 body: object = None) -> None:
        super().__init__(message, status=429, body=body)
        self.retry_after = retry_after


class ServiceClient:
    """Synchronous client bound to one server address."""

    def __init__(self, host: str = "127.0.0.1", port: int = 8321,
                 timeout: float = 60.0) -> None:
        self.host = host
        self.port = port
        self.timeout = timeout

    # ------------------------------------------------------------- transport

    def _request(self, method: str, path: str, payload: object = None):
        conn = http.client.HTTPConnection(self.host, self.port,
                                          timeout=self.timeout)
        try:
            body = None
            headers = {}
            if payload is not None:
                body = json.dumps(payload).encode("utf-8")
                headers["Content-Type"] = "application/json"
            try:
                conn.request(method, path, body=body, headers=headers)
                response = conn.getresponse()
                data = response.read()
            except (OSError, http.client.HTTPException) as exc:
                raise ServiceError(
                    f"{method} {path} failed: {exc}") from exc
            return response.status, dict(response.getheaders()), data
        finally:
            conn.close()

    def _json(self, method: str, path: str, payload: object = None) -> dict:
        status, headers, data = self._request(method, path, payload)
        try:
            body = json.loads(data) if data else {}
        except json.JSONDecodeError:
            body = {"raw": data.decode("utf-8", "replace")}
        if status == 429:
            raise QueueFull(f"queue full at {path}",
                            retry_after=float(headers.get("Retry-After", 1)),
                            body=body)
        if status >= 400:
            raise ServiceError(f"{method} {path} -> {status}: {body}",
                               status=status, body=body)
        return body

    # ------------------------------------------------------------------- API

    def healthz(self) -> dict:
        return self._json("GET", "/healthz")

    def programs(self) -> list[str]:
        return self._json("GET", "/v1/programs")["programs"]

    def metrics_text(self) -> str:
        status, __, data = self._request("GET", "/metrics")
        if status != 200:
            raise ServiceError(f"GET /metrics -> {status}", status=status)
        return data.decode("utf-8")

    def metrics(self) -> dict[str, float]:
        return parse_exposition(self.metrics_text())

    def submit(self, jobs) -> list[dict]:
        """Submit one job dict or a list; returns the job records.

        Raises :class:`QueueFull` when admission control rejects the
        batch — ``exc.retry_after`` is the server's backoff estimate.
        """
        if isinstance(jobs, dict):
            jobs = [jobs]
        return self._json("POST", "/v1/jobs", {"jobs": jobs})["jobs"]

    def job(self, job_id: str) -> dict:
        return self._json("GET", f"/v1/jobs/{job_id}")

    def events(self, job_id: str):
        """Yield the job's event stream (blocks until terminal state).

        Reads the chunked ``/events`` endpoint; ``http.client``
        de-chunks transparently, so each line is one JSON event.  The
        server only closes the stream after emitting a terminal event
        (``done``/``failed``/``rejected``), so an EOF *before* one is a
        dropped connection, not a completed stream — it raises
        :class:`ServiceError` instead of silently ending the generator
        exactly like a clean close would.
        """
        conn = http.client.HTTPConnection(self.host, self.port,
                                          timeout=self.timeout)
        try:
            conn.request("GET", f"/v1/jobs/{job_id}/events")
            response = conn.getresponse()
            if response.status != 200:
                body = response.read().decode("utf-8", "replace")
                raise ServiceError(f"events({job_id}) -> "
                                   f"{response.status}: {body}",
                                   status=response.status)
            terminal_seen = False
            while True:
                try:
                    line = response.readline()
                except (OSError, http.client.HTTPException) as exc:
                    raise ServiceError(
                        f"events({job_id}) stream dropped mid-flight: "
                        f"{exc}") from exc
                if not line:
                    break
                line = line.strip()
                if not line:
                    continue
                event = json.loads(line)
                if event.get("event") in TERMINAL_STATES:
                    terminal_seen = True
                yield event
            if not terminal_seen:
                raise ServiceError(
                    f"events({job_id}) stream truncated before a "
                    f"terminal event (connection dropped?)")
        finally:
            conn.close()

    def wait(self, job_id: str, timeout: float = 120.0,
             poll: float = 0.05) -> dict:
        """Poll until the job reaches a terminal state; returns it."""
        deadline = time.monotonic() + timeout
        while True:
            record = self.job(job_id)
            if record["state"] in TERMINAL_STATES:
                return record
            if time.monotonic() >= deadline:
                raise TimeoutError(
                    f"job {job_id} still {record['state']} "
                    f"after {timeout:.0f}s")
            time.sleep(poll)

    def submit_and_wait(self, jobs, timeout: float = 120.0) -> list[dict]:
        """Submit a batch and block until every job is terminal.

        ``timeout`` is one shared deadline for the *whole batch*, not a
        per-job allowance — waiting on N jobs sequentially can never
        block for N × timeout.  (The jobs run concurrently server-side,
        so waiting for the first consumes most of the batch's wall
        time; a per-job budget would multiply it.)
        """
        records = self.submit(jobs)
        deadline = time.monotonic() + timeout
        finished = []
        for record in records:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise TimeoutError(
                    f"batch deadline exceeded after {timeout:.0f}s with "
                    f"{len(records) - len(finished)} jobs still pending")
            finished.append(self.wait(record["id"], timeout=remaining))
        return finished

    def wait_ready(self, timeout: float = 30.0, poll: float = 0.1) -> dict:
        """Block until ``/healthz`` answers (server warm-up)."""
        deadline = time.monotonic() + timeout
        while True:
            try:
                return self.healthz()
            except ServiceError:
                if time.monotonic() >= deadline:
                    raise
                time.sleep(poll)


class ClusterClient(ServiceClient):
    """The worker side of the job server's worker protocol.

    Same transport as :class:`ServiceClient` (it *is* one — a worker
    can also submit and inspect jobs), plus the four worker endpoints:
    register, lease (also the heartbeat/renewal), complete, deregister.
    See :mod:`repro.service.server` for the protocol.
    """

    def register_worker(self, *, name: str, slots: int = 1,
                        prefixes=()) -> dict:
        return self._json("POST", "/v1/workers/register",
                          {"name": name, "slots": slots,
                           "prefixes": list(prefixes)})

    def lease(self, worker_id: str, *, prefixes=(), max_jobs: int = 1,
              wait: float = 0.0, slots: int | None = None) -> dict:
        payload = {"prefixes": list(prefixes), "max": max_jobs,
                   "wait": wait}
        if slots is not None:
            payload["slots"] = slots
        return self._json("POST", f"/v1/workers/{worker_id}/lease",
                          payload)

    def complete(self, worker_id: str, key: str, *, ok: bool,
                 error: str | None = None,
                 busy_seconds: float = 0.0) -> dict:
        payload: dict = {"key": key, "ok": ok,
                         "busy_seconds": busy_seconds}
        if error is not None:
            payload["error"] = error
        return self._json("POST", f"/v1/workers/{worker_id}/complete",
                          payload)

    def deregister(self, worker_id: str) -> dict:
        return self._json("POST", f"/v1/workers/{worker_id}/deregister",
                          {})
