"""The single-box simulation service: job API over a local pool.

``python -m repro.service serve`` exposes the simulator as a long-lived
service.  Jobs arrive as JSON, are validated against :mod:`repro.config`
(:func:`repro.service.jobs.build_spec`), content-addressed with the same
``result_key`` fingerprints as the campaign driver, and executed on a
:class:`~concurrent.futures.ProcessPoolExecutor` feeding the shared
:class:`~repro.experiments.cache.ResultStore` — a job the batch path
already simulated is a cache hit here, and vice versa.

The whole client-facing surface (endpoints, dedup, coalescing, atomic
admission, event streams) lives in :mod:`repro.service.frontend` and is
shared with the cluster coordinator (:mod:`repro.service.cluster`);
this module adds the *local* execution fabric::

    POST /v1/jobs             submit one job or {"jobs": [...]} (atomic
                              admission: the whole batch or 429)
    GET  /v1/jobs/<id>        status + result
    GET  /v1/jobs/<id>/events chunked NDJSON stream of state changes
    GET  /v1/programs         available workload profiles
    GET  /healthz             liveness + queue/drain status
    GET  /metrics             text exposition (see service/metrics.py)

Operational behaviour:

* **admission control** — at most ``queue_limit`` executions may be
  outstanding (queued + running); a batch that does not fit is rejected
  whole with 429 and a ``Retry-After`` estimate.  Cache hits and
  coalesced duplicates never consume slots.
* **deduplication** — identical jobs (same content address) already in
  flight are coalesced onto one execution; identical *stored* results
  are served without executing anything.
* **fault handling** — a crashed worker process (``BrokenProcessPool``)
  is retried with exponential backoff on a fresh executor; a job
  exceeding ``job_timeout`` fails, and its stuck worker is reaped by
  recycling the pool (in-flight siblings are retried automatically).
* **graceful drain** — SIGINT/SIGTERM stops admission (503), rejects
  queued jobs, lets running jobs finish, reaps the workers, then exits.
"""

from __future__ import annotations

import asyncio
import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from time import perf_counter

from repro.experiments.cache import ResultStore, default_cache_dir
from repro.experiments.parallel import _run_job
from repro.service.frontend import MAX_JOB_RECORDS, JobFrontendBase
from repro.service.jobs import Job

__all__ = ["SimulationService", "MAX_JOB_RECORDS"]


class SimulationService(JobFrontendBase):
    """One serving process: HTTP front end, bounded queue, worker pool."""

    def __init__(self, *, host: str = "127.0.0.1", port: int = 8321,
                 workers: int = 2, queue_limit: int = 32,
                 job_timeout: float = 120.0, max_retries: int = 2,
                 retry_backoff: float = 0.25,
                 cache_dir: str | None = "",
                 store: ResultStore | None = None) -> None:
        if workers < 1:
            raise ValueError("workers must be >= 1")
        if store is None:
            directory = (default_cache_dir() if cache_dir == ""
                         else cache_dir)
            store = ResultStore(directory)
        super().__init__(host=host, port=port, queue_limit=queue_limit,
                         store=store)
        self.workers = workers
        self.job_timeout = job_timeout
        self.max_retries = max_retries
        self.retry_backoff = retry_backoff
        self._in_flight = 0
        self._queue: asyncio.Queue | None = None
        self._executor: ProcessPoolExecutor | None = None
        self._worker_tasks: list[asyncio.Task] = []
        self.metrics.gauges.update({
            "queue_depth": lambda: (self._queue.qsize()
                                    if self._queue is not None else 0),
            "in_flight": lambda: self._in_flight,
            "queue_limit": lambda: self.queue_limit,
            "workers": lambda: self.workers,
            "draining": lambda: self.draining,
            "worker_utilisation": self._worker_utilisation,
        })

    # ------------------------------------------------------------- lifecycle

    async def _on_start(self) -> None:
        """Spin up the worker pool and its feeder tasks."""
        self._queue = asyncio.Queue()
        self._executor = ProcessPoolExecutor(max_workers=self.workers)
        self._worker_tasks = [
            asyncio.create_task(self._worker_loop(), name=f"svc-worker-{i}")
            for i in range(self.workers)]

    async def _on_drain(self) -> None:
        """Reject queued jobs, finish running ones, reap the workers."""
        self.draining = True
        while True:
            try:
                job = self._queue.get_nowait()
            except asyncio.QueueEmpty:
                break
            if job is None:
                continue
            dropped = self._reject_with_followers(job, "server draining")
            self.metrics.inc("jobs_dropped_on_drain", dropped)
        for __ in self._worker_tasks:
            self._queue.put_nowait(None)
        if self._worker_tasks:
            await asyncio.gather(*self._worker_tasks,
                                 return_exceptions=True)
        if self._executor is not None:
            self._executor.shutdown(wait=True, cancel_futures=True)

    # ------------------------------------------------------------- execution

    async def _worker_loop(self) -> None:
        while True:
            job = await self._queue.get()
            if job is None:
                return
            if job.terminal:  # rejected while queued
                continue
            self._in_flight += 1
            try:
                await self._execute(job)
            finally:
                self._in_flight -= 1

    async def _execute(self, job: Job) -> None:
        loop = asyncio.get_running_loop()
        queue_wait = perf_counter() - job.enqueued_at
        self.metrics.observe("queue_wait", queue_wait)
        job.started_at = time.time()
        job.set_state("running", queue_wait=round(queue_wait, 6))
        exec_start = perf_counter()
        attempts = 0
        while True:
            attempts += 1
            job.attempts = attempts
            executor = self._executor
            try:
                __, result, busy = await asyncio.wait_for(
                    loop.run_in_executor(executor, _run_job, job.spec),
                    timeout=self.job_timeout)
            except asyncio.TimeoutError:
                # The worker is still grinding on the job; recycling the
                # pool with reap=True terminates it (siblings killed
                # with it come back as BrokenProcessPool and retry).
                self.metrics.inc("timeouts")
                self._recycle_executor(reap=True)
                self._finish_failed(
                    job, f"timed out after {self.job_timeout:.0f}s")
                return
            except BrokenProcessPool:
                self.metrics.inc("retries")
                if attempts > self.max_retries:
                    self._finish_failed(
                        job, f"worker crashed ({attempts} attempts)")
                    return
                if self._executor is executor:
                    self._recycle_executor(reap=False)
                job.add_event("retry", attempt=attempts)
                await asyncio.sleep(
                    self.retry_backoff * (2 ** (attempts - 1)))
            except Exception as exc:  # the simulation itself raised
                self._finish_failed(job, f"{type(exc).__name__}: {exc}")
                return
            else:
                break
        self.store.put(job.spec.key, result)
        self.metrics.inc("simulations")
        self.metrics.worker_busy_seconds += busy
        self.metrics.observe("execute", perf_counter() - exec_start)
        self._finish_done(job, result)

    def _recycle_executor(self, *, reap: bool) -> None:
        old = self._executor
        self._executor = ProcessPoolExecutor(max_workers=self.workers)
        if old is None:
            return
        stuck = list(getattr(old, "_processes", {}).values())
        old.shutdown(wait=False, cancel_futures=True)
        if reap:
            for proc in stuck:
                if proc.is_alive():
                    proc.terminate()

    def _worker_utilisation(self) -> float:
        elapsed = time.time() - self.metrics.started
        if elapsed <= 0:
            return 0.0
        return min(1.0, self.metrics.worker_busy_seconds
                   / (elapsed * self.workers))

    # ----------------------------------------------------- frontend hooks

    def _dispatch(self, job: Job) -> None:
        job.enqueued_at = perf_counter()
        job.add_event("queued")
        self._queue.put_nowait(job)

    def _outstanding(self) -> int:
        return self._queue.qsize() + self._in_flight

    def _retry_after(self) -> float:
        """Seconds until a queue slot plausibly frees up."""
        execute = self.metrics.stage_latency["execute"]
        per_job = execute.mean if execute.count else 1.0
        estimate = per_job * max(1, self._outstanding()) / self.workers
        return max(1, int(estimate + 0.999))

    def _health_extra(self) -> dict:
        return {
            "queue_depth": self._queue.qsize() if self._queue else 0,
            "in_flight": self._in_flight,
            "workers": self.workers,
        }
