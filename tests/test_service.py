"""The simulation service: job API, dedup, admission control, drain.

The acceptance bar (ISSUE 5): a batch submitted twice through
``repro.service.client`` is served entirely from the ``ResultStore``
the second time (0 simulations), results are bit-identical to direct
``simulate()`` calls, queue-full requests receive 429, and a drain
finishes running jobs, rejects queued ones and leaves no orphaned
workers or corrupt cache entries.
"""

from __future__ import annotations

import time

import pytest

from repro.config import dynamic_config
from repro.energy import EnergyModel
from repro.pipeline import simulate
from repro.service.client import QueueFull, ServiceClient, ServiceError
from repro.service.jobs import ValidationError, build_spec
from repro.service.loadgen import build_job_mix, run_load
from repro.service.metrics import ServiceMetrics, parse_exposition
from repro.service.server import SimulationService
from repro.verify.digest import result_digest
from repro.workloads import generate_trace, profile

#: small but non-trivial job: ~60 ms of simulation
JOB = {"program": "mcf", "model": "dynamic", "level": 3,
       "warmup": 500, "measure": 1_500, "seed": 1}
BATCH = [
    JOB,
    {"program": "gcc", "model": "base", "warmup": 500, "measure": 1_500},
    dict(JOB),  # exact duplicate: must coalesce, not re-execute
    {"program": "leslie3d", "model": "ideal", "level": 2,
     "warmup": 500, "measure": 1_500},
]


def _start(tmp_path, **kwargs):
    defaults = dict(port=0, workers=2, queue_limit=16,
                    cache_dir=str(tmp_path / "cache"))
    defaults.update(kwargs)
    service = SimulationService(**defaults)
    thread = service.start_in_thread()
    client = ServiceClient(port=service.port)
    client.wait_ready(timeout=30)
    return service, thread, client


def _stop(service, thread):
    service.request_stop()
    thread.join(timeout=60)
    assert not thread.is_alive()


@pytest.fixture(scope="module")
def served(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("svc")
    service, thread, client = _start(tmp)
    yield service, client
    _stop(service, thread)


# ---------------------------------------------------------------- validation


class TestValidation:
    def test_unknown_program(self):
        with pytest.raises(ValidationError, match="unknown program"):
            build_spec({"program": "nope"})

    def test_unknown_model_and_keys(self):
        with pytest.raises(ValidationError, match="unknown model"):
            build_spec({"program": "mcf", "model": "quantum"})
        with pytest.raises(ValidationError, match="unknown job keys"):
            build_spec({"program": "mcf", "frobnicate": 1})

    def test_level_bounds(self):
        with pytest.raises(ValidationError):
            build_spec({"program": "mcf", "model": "fixed", "level": 9})

    def test_policy_only_for_dynamic(self):
        with pytest.raises(ValidationError, match="policy"):
            build_spec({"program": "mcf", "model": "base",
                        "policy": "mlp"})
        spec = build_spec({"program": "mcf", "model": "dynamic",
                           "policy": "occupancy"})
        assert type(spec.policy).__name__ == "OccupancyPolicy"

    def test_config_overrides_validated(self):
        spec = build_spec({"program": "mcf",
                           "config": {"transition_penalty": 20,
                                      "memory": {"min_latency": 400}}})
        assert spec.config.transition_penalty == 20
        assert spec.config.memory.min_latency == 400
        with pytest.raises(ValidationError, match="unknown config field"):
            build_spec({"program": "mcf", "config": {"warp_drive": 1}})
        with pytest.raises(ValidationError,
                           match="unknown config field 'engine'"):
            build_spec({"program": "mcf", "config": {"engine": "fast"}})
        with pytest.raises(ValidationError):
            build_spec({"program": "mcf", "config": {"width": -1}})

    def test_telemetry_needs_disk_store(self):
        with pytest.raises(ValidationError, match="telemetry_period"):
            build_spec({"program": "mcf", "telemetry_period": 128},
                       telemetry_dir=None)

    def test_same_key_as_campaign_path(self):
        """The service addresses jobs exactly like Sweep.run does."""
        from repro.experiments.cache import result_key
        spec = build_spec(JOB)
        assert spec.key == result_key(
            "mcf", dynamic_config(3), seed=1, warmup=500, measure=1_500,
            trace_ops=500 + 1_500 + 1_000)

    def test_http_400_names_the_field(self, served):
        __, client = served
        with pytest.raises(ServiceError) as err:
            client.submit({"program": "mcf", "model": "quantum"})
        assert err.value.status == 400
        assert "unknown model" in str(err.value)


# ----------------------------------------------------------------- execution


class TestExecution:
    def test_dedup_and_bit_identity(self, served):
        """The acceptance criterion: second submission fully cached,
        results bit-identical to a direct simulate() call."""
        service, client = served
        before = client.metrics()

        first = client.submit_and_wait(BATCH, timeout=120)
        assert [r["state"] for r in first] == ["done"] * len(BATCH)
        # the in-batch duplicate coalesced onto one execution
        assert first[2]["coalesced"] and not first[2]["cached"]
        assert first[0]["result"]["digest"] == first[2]["result"]["digest"]

        after_first = client.metrics()
        executed = (after_first["repro_service_simulations_total"]
                    - before["repro_service_simulations_total"])
        assert executed == 3  # 4 jobs, 1 duplicate

        second = client.submit_and_wait(BATCH, timeout=120)
        assert all(r["state"] == "done" and r["cached"] for r in second)
        after_second = client.metrics()
        assert (after_second["repro_service_simulations_total"]
                == after_first["repro_service_simulations_total"])
        assert [r["result"]["digest"] for r in second] \
            == [r["result"]["digest"] for r in first]

        # bit-identity against the library path, via the canonical digest
        trace = generate_trace(profile("mcf"), n_ops=3_000, seed=1)
        local = simulate(dynamic_config(3), trace, warmup=500,
                         measure=1_500)
        EnergyModel().annotate(local, dynamic_config(3))
        assert first[0]["result"]["digest"] == result_digest(local)
        assert first[0]["result"]["ipc"] == local.ipc
        assert first[0]["result"]["cycles"] == local.cycles

    def test_events_stream_records_lifecycle(self, served):
        __, client = served
        record = client.submit({"program": "milc", "model": "base",
                                "warmup": 400, "measure": 1_000})[0]
        events = [e["event"] for e in client.events(record["id"])]
        assert events[0] == "queued"
        assert events[-1] in ("done", "failed")
        if events[-1] == "done" and "running" in events:
            assert events.index("running") < events.index("done")

    def test_job_endpoint_and_404(self, served):
        __, client = served
        record = client.submit_and_wait(
            {"program": "mcf", "model": "base",
             "warmup": 400, "measure": 1_000})[0]
        fetched = client.job(record["id"])
        assert fetched["state"] == "done"
        assert fetched["result"]["program"] == "mcf"
        with pytest.raises(ServiceError) as err:
            client.job("j999999")
        assert err.value.status == 404

    def test_healthz_programs_metrics(self, served):
        __, client = served
        health = client.healthz()
        assert health["status"] == "ok"
        assert health["workers"] == 2
        assert "mcf" in client.programs()
        metrics = client.metrics()
        assert metrics["repro_service_up"] == 1
        assert metrics["repro_service_workers"] == 2
        assert ('repro_service_stage_latency_seconds'
                '{stage="total",quantile="0.5"}') in metrics


# ------------------------------------------------- admission control + drain


class TestAdmissionAndDrain:
    def test_queue_full_gets_429_with_retry_after(self, tmp_path):
        service, thread, client = _start(tmp_path, workers=1,
                                         queue_limit=2)
        try:
            slow = [{"program": p, "model": "dynamic", "seed": 5,
                     "warmup": 1_000, "measure": 12_000}
                    for p in ("mcf", "leslie3d")]
            admitted = client.submit(slow)
            assert len(admitted) == 2
            with pytest.raises(QueueFull) as err:
                client.submit({"program": "milc", "model": "dynamic",
                               "seed": 5, "warmup": 1_000,
                               "measure": 12_000})
            assert err.value.retry_after >= 1
            # cached work is admission-free even when the queue is full
            for record in admitted:
                client.wait(record["id"], timeout=60)
        finally:
            _stop(service, thread)

    def test_drain_finishes_running_rejects_queued(self, tmp_path):
        service, thread, client = _start(tmp_path, workers=1,
                                         queue_limit=4)
        slow = [{"program": p, "model": "dynamic", "seed": 6,
                 "warmup": 1_000, "measure": 10_000}
                for p in ("mcf", "leslie3d", "milc")]
        admitted = client.submit(slow)
        deadline = time.monotonic() + 30
        while time.monotonic() < deadline:
            if client.job(admitted[0]["id"])["state"] == "running":
                break
            time.sleep(0.02)
        workers = list(getattr(service._executor, "_processes", {}).values())
        _stop(service, thread)  # SIGTERM-equivalent: request_stop + join

        states = [service.jobs[r["id"]].state for r in admitted]
        assert states[0] == "done"  # the running job finished
        assert "rejected" in states  # queued ones were dropped
        assert all(s in ("done", "rejected") for s in states)
        # workers reaped: no orphaned pool processes from this service
        # (other fixtures' pools may still be alive in-process)
        assert workers
        for proc in workers:
            proc.join(timeout=10)
            assert not proc.is_alive()
        # no corrupt cache entries: every stored file unpickles
        from repro.experiments.cache import ResultStore
        check = ResultStore(service.store.directory)
        for key, *__ in check.iter_disk():
            assert check.get(key) is not None

    def test_submissions_rejected_while_draining(self, tmp_path):
        service, thread, client = _start(tmp_path)
        _stop(service, thread)
        status, __, body = service.submit_batch([dict(JOB)])
        assert status == 503

    def test_worker_crash_is_retried(self, tmp_path):
        service, thread, client = _start(tmp_path, workers=1,
                                         queue_limit=4, max_retries=2)
        try:
            record = client.submit({"program": "mcf", "model": "dynamic",
                                    "seed": 7, "warmup": 1_000,
                                    "measure": 15_000})[0]
            deadline = time.monotonic() + 30
            while time.monotonic() < deadline:
                if client.job(record["id"])["state"] == "running":
                    break
                time.sleep(0.02)
            # murder the worker processes mid-job
            for proc in list(getattr(service._executor,
                                     "_processes", {}).values()):
                proc.terminate()
            finished = client.wait(record["id"], timeout=60)
            assert finished["state"] == "done"
            assert finished["attempts"] >= 2
            assert client.metrics()["repro_service_retries_total"] >= 1
        finally:
            _stop(service, thread)


# ---------------------------------------------------------- client semantics


class _StuckClient(ServiceClient):
    """A client whose jobs never finish — and no server to bother."""

    def __init__(self, jobs=3):
        super().__init__(port=1)
        self._jobs = jobs

    def submit(self, jobs):
        return [{"id": f"j{n}", "state": "queued"}
                for n in range(self._jobs)]

    def job(self, job_id):
        return {"id": job_id, "state": "running"}


class TestClientSemantics:
    def test_submit_and_wait_deadline_is_shared_across_the_batch(self):
        """Regression: the timeout used to be per *job*, so a stuck
        batch of N jobs blocked for N x timeout."""
        client = _StuckClient(jobs=3)
        started = time.monotonic()
        with pytest.raises(TimeoutError, match="still"):
            client.submit_and_wait([{}] * 3, timeout=0.5)
        elapsed = time.monotonic() - started
        assert elapsed < 1.25  # one shared deadline, not 3 x 0.5s

    def test_truncated_event_stream_raises_not_silently_ends(self):
        """Regression: a connection dropped before the terminal event
        used to end the generator exactly like a completed stream."""
        import socket as socketlib

        server = socketlib.socket()
        server.bind(("127.0.0.1", 0))
        server.listen(1)
        port = server.getsockname()[1]

        def serve_one_truncated_stream():
            conn, __ = server.accept()
            conn.recv(65536)
            line = b'{"event": "queued", "job": "j1", "seq": 0}\n'
            conn.sendall(b"HTTP/1.1 200 OK\r\n"
                         b"Content-Type: application/x-ndjson\r\n"
                         b"Transfer-Encoding: chunked\r\n\r\n"
                         + f"{len(line):X}\r\n".encode() + line + b"\r\n")
            conn.close()  # dies without a terminal event or final chunk
            server.close()

        import threading
        threading.Thread(target=serve_one_truncated_stream,
                         daemon=True).start()
        client = ServiceClient(port=port, timeout=10.0)
        with pytest.raises(ServiceError, match="truncated|dropped"):
            list(client.events("j1"))

    def test_fractional_retry_after_round_trips(self):
        from repro.service.frontend import format_retry_after
        assert format_retry_after(3.0) == "3"
        assert format_retry_after(0.25) == "0.250"
        # the client parses either form back to the same float
        assert float(format_retry_after(0.25)) == 0.25
        assert float(format_retry_after(3.0)) == 3.0


# ------------------------------------------------------------------- loadgen


class TestLoadgen:
    def test_job_mix_is_deterministic(self):
        a = build_job_mix(42, 6, ("mcf", "gcc"), measure=1_000, warmup=300)
        b = build_job_mix(42, 6, ("mcf", "gcc"), measure=1_000, warmup=300)
        assert a == b
        c = build_job_mix(43, 6, ("mcf", "gcc"), measure=1_000, warmup=300)
        assert a != c

    def test_run_reports_throughput_latency_and_hits(self, served):
        __, client = served
        report = run_load(client, rps=10, duration=1.5, seed=11,
                          measure=1_000, warmup=300, distinct=3)
        assert report.offered == 15
        assert report.completed + report.rejected + report.failed \
            + report.errors == report.offered
        assert report.completed > 0
        assert report.failed == report.errors == 0
        # 3 distinct shapes over 15 requests: duplicates must hit
        assert report.cache_hit_rate > 0
        assert report.latency.count == report.completed
        assert report.latency.percentile(0.5) > 0
        text = report.render()
        assert "p95" in text and "hit rate" in text

        # identical seed -> identical offered mix -> fully cached rerun
        again = run_load(client, rps=10, duration=1.5, seed=11,
                         measure=1_000, warmup=300, distinct=3)
        assert again.cache_hit_rate == 1.0

    def test_retry_429_honours_fractional_retry_after(self):
        """A 429'd submit sleeps the server's (fractional) Retry-After
        and resubmits instead of counting the request as rejected."""

        class FlakyAdmission(ServiceClient):
            def __init__(self):
                super().__init__(port=1)
                self.rejections = 2
                self.submits = 0

            def submit(self, jobs):
                self.submits += 1
                if self.rejections:
                    self.rejections -= 1
                    raise QueueFull("queue full", retry_after=0.05)
                return [{"id": "j1", "state": "queued"}]

            def wait(self, job_id, timeout=120.0, poll=0.05):
                return {"id": job_id, "state": "done", "cached": True}

        client = FlakyAdmission()
        report = run_load(client, rps=10, duration=0.1, seed=3,
                          retry_429=3)
        assert report.offered == 1
        assert report.retried == 2 and client.submits == 3
        assert report.rejected == 0 and report.completed == 1

        # with retries exhausted the request counts as rejected
        client = FlakyAdmission()
        client.rejections = 99
        report = run_load(client, rps=10, duration=0.1, seed=3,
                          retry_429=2)
        assert report.rejected == 1 and report.retried == 2
        assert "retried after 429" in report.render()


# ------------------------------------------------------------------- metrics


class TestMetrics:
    def test_exposition_round_trip(self):
        metrics = ServiceMetrics()
        metrics.inc("jobs_submitted", 3)
        metrics.inc("cache_hits")
        metrics.inc("simulations")
        metrics.observe("total", 0.25)
        metrics.gauges["queue_depth"] = lambda: 4
        parsed = parse_exposition(metrics.render())
        assert parsed["repro_service_jobs_submitted_total"] == 3
        assert parsed["repro_service_queue_depth"] == 4
        assert parsed["repro_service_cache_hit_rate"] == 0.5
        assert parsed['repro_service_stage_latency_seconds_count'
                      '{stage="total"}'] == 1

    def test_latency_reservoir_percentiles(self):
        from repro.telemetry import LatencyReservoir
        reservoir = LatencyReservoir(limit=100)
        for value in range(1, 101):
            reservoir.record(value / 100.0)
        assert reservoir.percentile(0.0) == 0.01
        assert reservoir.percentile(1.0) == 1.0
        assert abs(reservoir.percentile(0.5) - 0.5) <= 0.011
        assert reservoir.count == 100
        # ring behaviour past the limit stays deterministic
        reservoir.record(9.9)
        assert reservoir.count == 101
        assert reservoir.max == 9.9
