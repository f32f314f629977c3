"""The distributed fabric: coordinator/worker serving, cluster dedup.

The acceptance bar (ISSUE 7): N workers serving a duplicate-heavy
stream produce bit-identical digests to a single-node run while each
unique simulation executes exactly once cluster-wide; a worker killed
mid-job triggers a lease-timeout requeue with no torn store entries
and no duplicate execution visible in the digests; admission pressure
propagates through the coordinator as (possibly fractional)
``Retry-After`` hints.
"""

from __future__ import annotations

import os
import signal
import socket
import subprocess
import sys
import threading
import time

import pytest

import repro
from repro.experiments.cache import ResultStore, TieredResultStore
from repro.experiments.parallel import _run_job
from repro.service.client import ClusterClient, QueueFull, ServiceClient, ServiceError
from repro.service.server import SimulationService, format_retry_after
from repro.service.worker import WorkerAgent, parse_coordinator
from repro.service.jobs import build_spec
from repro.verify.digest import result_digest

#: ~60 ms of simulation per unique shape
FAST = {"program": "mcf", "model": "dynamic", "level": 3,
        "warmup": 500, "measure": 1_500, "seed": 1}
#: seconds of simulation: long enough to SIGKILL a worker mid-job
SLOW = {"program": "mcf", "model": "dynamic", "seed": 9,
        "warmup": 1_000, "measure": 40_000}


def _start_coordinator(tmp_path, **kwargs):
    defaults = dict(port=0, queue_limit=16,
                    cache_dir=str(tmp_path / "shared"))
    defaults.update(kwargs)
    coord = SimulationService(workers=0, **defaults)
    thread = coord.start_in_thread()
    client = ClusterClient(port=coord.port)
    client.wait_ready(timeout=30)
    return coord, thread, client


def _stop(coord, thread):
    coord.request_stop()
    thread.join(timeout=60)
    assert not thread.is_alive()


def _start_agent(coord, tmp_path, name, **kwargs):
    defaults = dict(name=name, slots=2,
                    cache_dir=str(tmp_path / f"local-{name}"),
                    lease_wait=0.5, retry_interval=0.1)
    defaults.update(kwargs)
    agent = WorkerAgent(f"http://127.0.0.1:{coord.port}", **defaults)
    thread = threading.Thread(target=agent.run, daemon=True)
    thread.start()
    return agent, thread


def _wait_until(predicate, timeout=20.0, poll=0.02):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(poll)
    return False


def _execute_grant(grant, shared_dir):
    """What a worker does, inlined: derive the spec, run, write back."""
    spec = build_spec(grant["payload"])
    assert spec.key == grant["key"]
    __, result, __busy = _run_job(spec)
    ResultStore(shared_dir).put(spec.key, result)
    return result


# ----------------------------------------------------------- worker protocol


class TestWorkerProtocol:
    def test_register_lease_complete_roundtrip(self, tmp_path):
        coord, thread, client = _start_coordinator(tmp_path)
        try:
            answer = client.register_worker(name="proto", slots=2)
            wid = answer["worker_id"]
            assert answer["lease_ttl"] == coord.lease_ttl
            assert answer["shared_cache_dir"] == coord.store.directory

            record = client.submit(dict(FAST))[0]
            grants = client.lease(wid, max_jobs=2)["jobs"]
            assert len(grants) == 1
            assert grants[0]["job_id"] == record["id"]
            assert grants[0]["attempt"] == 1
            assert grants[0]["payload"] == FAST
            assert client.job(record["id"])["state"] == "running"

            result = _execute_grant(grants[0], coord.store.directory)
            client.complete(wid, grants[0]["key"], ok=True,
                            busy_seconds=0.05)
            finished = client.job(record["id"])
            assert finished["state"] == "done"
            assert finished["result"]["digest"] == result_digest(result)
            assert client.metrics()["repro_service_simulations_total"] == 1
        finally:
            _stop(coord, thread)

    def test_unknown_worker_gets_404(self, tmp_path):
        coord, thread, client = _start_coordinator(tmp_path)
        try:
            with pytest.raises(ServiceError) as err:
                client.lease("w9999")
            assert err.value.status == 404
        finally:
            _stop(coord, thread)

    def test_success_report_without_store_entry_fails_the_job(self, tmp_path):
        """'ok' is only believed when the shared store backs it up."""
        coord, thread, client = _start_coordinator(tmp_path)
        try:
            wid = client.register_worker(name="liar")["worker_id"]
            record = client.submit(dict(FAST))[0]
            grant = client.lease(wid)["jobs"][0]
            client.complete(wid, grant["key"], ok=True)  # never wrote it
            finished = client.job(record["id"])
            assert finished["state"] == "failed"
            assert "no entry" in finished["error"]
        finally:
            _stop(coord, thread)

    def test_worker_failure_fails_fast_without_requeue(self, tmp_path):
        coord, thread, client = _start_coordinator(tmp_path)
        try:
            wid = client.register_worker(name="sad")["worker_id"]
            record = client.submit(dict(FAST))[0]
            grant = client.lease(wid)["jobs"][0]
            client.complete(wid, grant["key"], ok=False,
                            error="ValidationError: version skew")
            finished = client.job(record["id"])
            assert finished["state"] == "failed"
            assert "version skew" in finished["error"]
            assert client.metrics()["repro_service_requeues_total"] == 0
        finally:
            _stop(coord, thread)

    def test_affinity_prefers_jobs_in_advertised_shards(self, tmp_path):
        coord, thread, client = _start_coordinator(tmp_path)
        try:
            jobs = [dict(FAST, seed=seed) for seed in range(1, 9)]
            keys = [build_spec(payload).key for payload in jobs]
            client.submit(jobs)
            # advertise exactly one queued job's shard: not the first,
            # so FIFO and affinity would pick differently
            wid = client.register_worker(
                name="affine", prefixes=[keys[5][:2]])["worker_id"]
            grant = client.lease(wid, prefixes=[keys[5][:2]],
                                 max_jobs=1)["jobs"][0]
            assert grant["key"] == keys[5]
            metrics = client.metrics()
            assert metrics["repro_service_affinity_hits_total"] == 1
            # without a matching shard, work-stealing takes the FIFO head
            grant = client.lease(wid, prefixes=["zz"], max_jobs=1)["jobs"][0]
            assert grant["key"] == keys[0]
            assert client.metrics()["repro_service_affinity_misses_total"] == 1
            # hand both leases back, so stopping need not wait them out
            client.deregister(wid)
        finally:
            _stop(coord, thread)

    def test_lease_expiry_requeues_for_the_next_worker(self, tmp_path):
        coord, thread, client = _start_coordinator(tmp_path,
                                                   lease_ttl=0.3)
        try:
            dead = client.register_worker(name="doomed")["worker_id"]
            record = client.submit(dict(FAST))[0]
            grant = client.lease(dead)["jobs"][0]
            # the worker never renews: the reaper requeues after the TTL
            assert _wait_until(
                lambda: client.job(record["id"])["state"] == "queued")
            events = coord.jobs[record["id"]].events
            assert any(e.get("requeued") for e in events)

            rescuer = client.register_worker(name="rescuer")["worker_id"]
            regrant = client.lease(rescuer)["jobs"][0]
            assert regrant["key"] == grant["key"]
            assert regrant["attempt"] == 2
            _execute_grant(regrant, coord.store.directory)
            client.complete(rescuer, regrant["key"], ok=True)
            finished = client.job(record["id"])
            assert finished["state"] == "done"
            assert finished["attempts"] == 2
            metrics = client.metrics()
            assert metrics["repro_service_leases_expired_total"] >= 1
            assert metrics["repro_service_requeues_total"] >= 1
        finally:
            _stop(coord, thread)

    def test_requeue_budget_exhaustion_fails_the_job(self, tmp_path):
        coord, thread, client = _start_coordinator(tmp_path,
                                                   lease_ttl=0.2,
                                                   max_requeues=0)
        try:
            wid = client.register_worker(name="onlyshot")["worker_id"]
            record = client.submit(dict(FAST))[0]
            client.lease(wid)
            assert _wait_until(
                lambda: client.job(record["id"])["state"] == "failed")
            assert "lease expired" in client.job(record["id"])["error"]
        finally:
            _stop(coord, thread)

    def test_dead_workers_landed_write_satisfies_the_requeue(self, tmp_path):
        """A worker can die *after* its atomic store write: the requeue
        path finds the entry and the job completes with no re-run."""
        coord, thread, client = _start_coordinator(tmp_path,
                                                   lease_ttl=0.3)
        try:
            wid = client.register_worker(name="posthumous")["worker_id"]
            record = client.submit(dict(FAST))[0]
            grant = client.lease(wid)["jobs"][0]
            result = _execute_grant(grant, coord.store.directory)
            # no complete() call: the worker died right after the write
            assert _wait_until(
                lambda: client.job(record["id"])["state"] == "done")
            finished = client.job(record["id"])
            assert finished["result"]["digest"] == result_digest(result)
            assert client.metrics()["repro_service_requeues_total"] == 0
        finally:
            _stop(coord, thread)

    def test_deregister_requeues_held_leases_immediately(self, tmp_path):
        coord, thread, client = _start_coordinator(tmp_path)
        try:
            wid = client.register_worker(name="leaver")["worker_id"]
            record = client.submit(dict(FAST))[0]
            client.lease(wid)
            assert client.deregister(wid)["requeued"] == 1
            assert client.job(record["id"])["state"] == "queued"
            assert client.healthz()["workers"] == []
        finally:
            _stop(coord, thread)

    def test_stale_completion_after_expiry_is_tolerated(self, tmp_path):
        coord, thread, client = _start_coordinator(tmp_path,
                                                   lease_ttl=0.2)
        try:
            wid = client.register_worker(name="slowpoke")["worker_id"]
            record = client.submit(dict(FAST))[0]
            grant = client.lease(wid)["jobs"][0]
            assert _wait_until(  # lease expires, job requeued
                lambda: client.job(record["id"])["state"] == "queued")
            answer = client.complete(wid, grant["key"], ok=True)
            assert answer["accepted"] is False
            assert client.metrics()["repro_service_stale_completions_total"] == 1
            assert client.job(record["id"])["state"] == "queued"
        finally:
            _stop(coord, thread)


# ----------------------------------------------- admission + backpressure


class TestClusterAdmission:
    def test_retry_after_propagates_measured_worker_pressure(self, tmp_path):
        """The 429 hint scales with measured execute latency over
        cluster slots — and may be fractional."""
        coord, thread, client = _start_coordinator(tmp_path,
                                                   queue_limit=2)
        try:
            wid = client.register_worker(name="meter", slots=1)["worker_id"]
            record = client.submit(dict(FAST))[0]
            grant = client.lease(wid)["jobs"][0]
            _execute_grant(grant, coord.store.directory)
            # teach the coordinator its per-job cost: 123 ms
            client.complete(wid, grant["key"], ok=True, busy_seconds=0.123)
            assert client.job(record["id"])["state"] == "done"

            client.submit([dict(SLOW, seed=21), dict(SLOW, seed=22)])
            with pytest.raises(QueueFull) as err:
                client.submit(dict(SLOW, seed=23))
            # 2 outstanding / 1 slot x 0.123s mean = 0.246s
            assert err.value.retry_after == pytest.approx(0.246, abs=0.05)
            assert 0 < err.value.retry_after < 1
        finally:
            _stop(coord, thread)

    def test_drain_rejects_pending_and_refuses_new_work(self, tmp_path):
        coord, thread, client = _start_coordinator(tmp_path)
        record = client.submit(dict(FAST))[0]  # pending: no workers
        _stop(coord, thread)
        assert coord.jobs[record["id"]].state == "rejected"
        status, __, body = coord.submit_batch([dict(FAST)])
        assert status == 503

    def test_format_retry_after(self):
        assert format_retry_after(2.0) == "2"
        assert format_retry_after(1) == "1"
        assert format_retry_after(0.25) == "0.250"
        assert format_retry_after(0.05) == "0.050"


# ------------------------------------------------------------- end to end


class TestClusterEndToEnd:
    def test_duplicate_heavy_stream_dedups_cluster_wide(self, tmp_path):
        """Two workers, duplicate-heavy batch: every unique simulation
        runs exactly once cluster-wide, digests are bit-identical to
        the library path, and a resubmission is served from the store."""
        coord, thread, client = _start_coordinator(tmp_path)
        agents = []
        try:
            for index in range(2):
                agents.append(_start_agent(coord, tmp_path, f"w{index}"))
            batch = [dict(FAST, seed=seed)
                     for seed in (1, 2, 3) for __ in range(2)]
            records = client.submit_and_wait(batch, timeout=120)
            assert [r["state"] for r in records] == ["done"] * 6
            assert client.metrics()["repro_service_simulations_total"] == 3

            # bit-identity against the direct library path
            for record, payload in zip(records, batch):
                __, local, __b = _run_job(build_spec(payload))
                assert record["result"]["digest"] == result_digest(local)
            # both records of each duplicate pair carry one digest
            digests = [r["result"]["digest"] for r in records]
            assert digests[0::2] == digests[1::2]

            again = client.submit_and_wait(batch, timeout=120)
            assert all(r["cached"] for r in again)
            assert client.metrics()["repro_service_simulations_total"] == 3
            assert [r["result"]["digest"] for r in again] == digests
        finally:
            for agent, __ in agents:
                agent.stop()
            for __, athread in agents:
                athread.join(timeout=30)
            _stop(coord, thread)

    def test_freed_slot_is_refilled_before_the_next_heartbeat(self, tmp_path):
        """A one-slot agent leases its next job as soon as its slot
        frees, not one heartbeat (``lease_ttl / 3``) later."""
        coord, thread, client = _start_coordinator(tmp_path)
        agent, athread = _start_agent(coord, tmp_path, "single", slots=1)
        try:
            assert _wait_until(lambda: client.healthz()["workers"])
            started = time.monotonic()
            records = client.submit_and_wait(
                [dict(FAST, seed=seed) for seed in (1, 2, 3)], timeout=60)
            elapsed = time.monotonic() - started
            assert [r["state"] for r in records] == ["done"] * 3
            assert elapsed < coord.lease_ttl / 3
        finally:
            agent.stop()
            athread.join(timeout=30)
            _stop(coord, thread)

    def test_sigkill_mid_job_requeues_with_no_torn_entries(self, tmp_path):
        """The chaos case: a worker *process* SIGKILLed mid-execution.
        The lease expires, the job requeues onto a healthy worker, and
        every store entry still unpickles (atomic writes)."""
        coord, thread, client = _start_coordinator(tmp_path,
                                                   lease_ttl=1.0)
        rescuer = athread = None
        try:
            src = os.path.abspath(
                os.path.join(os.path.dirname(repro.__file__), ".."))
            env = dict(os.environ, PYTHONPATH=src)
            victim = subprocess.Popen(
                [sys.executable, "-m", "repro.service", "worker",
                 "--coordinator", f"http://127.0.0.1:{coord.port}",
                 "--name", "victim", "--slots", "1",
                 "--cache-dir", str(tmp_path / "victim-local")],
                env=env, cwd=str(tmp_path),
                stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
            try:
                assert _wait_until(lambda: client.healthz()["workers"],
                                   timeout=30)
                record = client.submit(dict(SLOW))[0]
                assert _wait_until(
                    lambda: client.job(record["id"])["state"] == "running",
                    timeout=30)
                victim.send_signal(signal.SIGKILL)
                victim.wait(timeout=10)
            finally:
                if victim.poll() is None:
                    victim.kill()

            rescuer, athread = _start_agent(coord, tmp_path, "rescuer",
                                            slots=1)
            finished = client.wait(record["id"], timeout=120)
            assert finished["state"] == "done"
            assert finished["attempts"] >= 2
            metrics = client.metrics()
            assert metrics["repro_service_leases_expired_total"] >= 1
            assert metrics["repro_service_requeues_total"] >= 1
            # digest identical to the library path despite the murder
            __, local, __b = _run_job(build_spec(SLOW))
            assert finished["result"]["digest"] == result_digest(local)
            # no torn store entries: every file on disk unpickles
            check = ResultStore(coord.store.directory)
            entries = list(check.iter_disk())
            assert entries
            for key, *__rest in entries:
                assert check.get(key) is not None
        finally:
            if rescuer is not None:
                rescuer.stop()
                athread.join(timeout=30)
            _stop(coord, thread)

    def test_worker_version_skew_is_detected_not_stored(self, tmp_path):
        """A grant whose content address this worker cannot re-derive
        (simulator version skew) fails loudly instead of writing a
        wrong-version result into the shared store."""
        coord, thread, client = _start_coordinator(tmp_path)
        try:
            agent = WorkerAgent(f"http://127.0.0.1:{coord.port}",
                                name="skewed", cache_dir=str(tmp_path / "sk"))
            assert agent._register()
            agent._execute_one({"key": "0" * 64, "payload": dict(FAST)})
            assert agent.failed == 1 and agent.executed == 0
            assert ResultStore(coord.store.directory).disk_entries() == 0
        finally:
            _stop(coord, thread)


# ---------------------------------------------------------- tiered store


class TestTieredStore:
    def _result(self):
        spec = build_spec(dict(FAST))
        key, result, __ = _run_job(spec)
        return key, result

    def test_write_back_reaches_the_shared_tier(self, tmp_path):
        store = TieredResultStore(str(tmp_path / "local"),
                                  str(tmp_path / "shared"))
        key, result = self._result()
        store.put(key, result)
        assert ResultStore(str(tmp_path / "local")).get(key) is not None
        assert ResultStore(str(tmp_path / "shared")).get(key) is not None

    def test_read_through_promotes_into_the_local_tier(self, tmp_path):
        shared = ResultStore(str(tmp_path / "shared"))
        key, result = self._result()
        shared.put(key, result)
        store = TieredResultStore(str(tmp_path / "local"), shared)
        assert store.shard_prefixes() == []
        fetched = store.get(key)
        assert fetched is not None
        assert store.shared_hits == 1 and store.misses == 0
        # promoted: now a local disk entry, and the shard is advertised
        assert store.shard_prefixes() == [key[:2]]
        assert ResultStore(str(tmp_path / "local")).get(key) is not None

    def test_miss_in_both_tiers_counts_once(self, tmp_path):
        store = TieredResultStore(str(tmp_path / "local"),
                                  str(tmp_path / "shared"))
        assert store.get("ab" * 32) is None
        assert store.misses == 1
        assert store.contains("ab" * 32) is False

    def test_contains_spans_both_tiers(self, tmp_path):
        shared = ResultStore(str(tmp_path / "shared"))
        key, result = self._result()
        shared.put(key, result)
        store = TieredResultStore(str(tmp_path / "local"), shared)
        assert store.contains(key)


# ------------------------------------------------------------------- CLI


class TestAddressParsing:
    def test_parse_coordinator_forms(self):
        assert parse_coordinator("http://box:9000") == ("box", 9000)
        assert parse_coordinator("https://box:9000/") == ("box", 9000)
        assert parse_coordinator("box:9000") == ("box", 9000)
        assert parse_coordinator("box") == ("box", 8321)
        with pytest.raises(ValueError):
            parse_coordinator("http://:9000")
