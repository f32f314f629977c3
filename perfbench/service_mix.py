"""The ``service_mix`` workload: a fresh job server under closed-loop load.

One round starts ``python -m repro.service serve`` on an empty result
store, waits for ``/healthz``, and sends a seeded, duplicate-heavy list
of job requests from one closed-loop client: it sends its next request
only after the previous one finished — submit, follow
``/v1/jobs/<id>/events`` to the terminal event unless the submit
answer already was terminal, then read the job record with its result
digest.  After the load the round scrapes ``/metrics`` and stops the
server with SIGTERM (its graceful drain).  Every distinct job shape
simulates once per round; every other request is a store hit.

Each request is timed twice: on the monotonic clock, and as the CPU
time the client thread, the server and its pool worker used from
submit to terminal event.  With one request in flight at a time, that
CPU time is the request's cost to the system; unlike the monotonic
clock it leaves out the time a shared host withholds the processor.
For the same reason the server runs one pool worker (``--workers 1``):
a second one would never run in parallel and would only make it a
matter of chance which worker pays which first-use cost.

The client, the server and its worker share one CPU for the round.
Between requests, every ``REFERENCE_PERIOD`` seconds, the client runs
both host speed references (``hostspeed.py``) on that CPU and reports
their CPU times; the round's time leaves their runs out.
"""

from __future__ import annotations

import os
import random
import signal
import subprocess
import sys
import time
from contextlib import contextmanager
from time import perf_counter, thread_time

from repro.service.client import QueueFull, ServiceClient

import hostspeed

#: Distinct job shapes: (program, model, policy).  Synthetic and riscv
#: programs, all five single-thread models, one learned policy and one
#: SMT pair; memory-bound and compute-bound programs alike.  No two
#: shapes share a program, so the work a shape costs does not depend
#: on which pool worker generated which trace before.
SHAPES = (
    ("mcf", "base", None),
    ("omnetpp", "dynamic", None),
    ("libquantum", "fixed", None),
    ("lbm", "dynamic", None),
    ("soplex", "dynamic", "bandit:ucb"),
    ("milc", "ideal", None),
    ("GemsFDTD", "runahead", None),
    ("leslie3d", "dynamic", None),
    ("gcc", "base", None),
    ("bzip2", "dynamic", None),
    ("namd", "fixed", None),
    ("povray", "runahead", None),
    ("riscv:memcpy", "base", None),
    ("riscv:hashprobe", "dynamic", None),
    ("riscv:matmul", "ideal", None),
    ("riscv:listchase", "runahead", None),
    ("astar+sjeng", "smt", None),
)

#: Requests per round.
REQUESTS = 400

#: The seed every request simulates with.  The benchmark's seed draws
#: the request order; were it the simulations' seed too, the cost of
#: the few slowest simulations, and with it p99, would move by 15%
#: from seed to seed.
SIMULATION_SEED = 1

#: Seconds between two runs of the host speed reference, so that its
#: runs sample the host's speed evenly over the round.
REFERENCE_PERIOD = 0.1

#: Host speed reference runs after a set-up probe.
SETUP_REFERENCES = 3

TERMINAL = ("done", "failed", "rejected")


def shape_name(shape) -> str:
    program, model, policy = shape
    return f"{program}|{model}" + (f"|{policy}" if policy else "")


def job_mix(seed: int, warmup: int,
            measure: int) -> list[tuple[str, dict]]:
    """A round's requests as (shape name, payload).

    The round opens with every shape once, in ``SHAPES`` order, so the
    server's first-use costs land on the same requests whatever the
    seed.  The remaining requests repeat the shapes with Zipf-like
    popularity (the k-th shape about 1/k as often as the first), in an
    order drawn from ``seed``: every seed sends the same requests in
    another order, and every round of a run sends them in the same
    order.  Every request simulates with ``SIMULATION_SEED``.
    """
    extra = REQUESTS - len(SHAPES)
    weights = [1.0 / rank for rank in range(1, len(SHAPES) + 1)]
    counts = [int(extra * weight / sum(weights)) for weight in weights]
    counts[0] += extra - sum(counts)
    repeats = [shape for shape, count in zip(SHAPES, counts)
               for __ in range(count)]
    random.Random(seed).shuffle(repeats)
    mix = []
    for shape in list(SHAPES) + repeats:
        program, model, policy = shape
        payload = {"program": program, "model": model,
                   "seed": SIMULATION_SEED,
                   "warmup": warmup, "measure": measure}
        if policy:
            payload["policy"] = policy
        mix.append((shape_name(shape), payload))
    return mix


def children(pid: int) -> list[int]:
    """Child processes of ``pid``, started by any of its threads."""
    found: list[int] = []
    try:
        tasks = os.listdir(f"/proc/{pid}/task")
    except OSError:
        return found
    for tid in tasks:
        try:
            with open(f"/proc/{pid}/task/{tid}/children") as fh:
                found += [int(child) for child in fh.read().split()]
        except OSError:
            pass
    return found


class ProcessTree:
    """CPU seconds used by a process and its descendants.

    A descendant is followed from the first :meth:`adopt` after it
    appeared; one that exited keeps its last reading.
    """

    def __init__(self, pid: int) -> None:
        self.root = pid
        self.used: dict[int, float] = {}
        self.adopt()

    def read(self) -> float:
        for pid in self.used:
            try:
                self.used[pid] = time.clock_gettime(
                    hostspeed.cpu_clock(pid))
            except OSError:
                pass
        return sum(self.used.values())

    def adopt(self) -> float:
        """Follow the descendants that appeared since the last call;
        returns the CPU seconds they had used by now."""
        new = 0.0
        pending = [self.root]
        while pending:
            pid = pending.pop()
            if pid not in self.used:
                try:
                    self.used[pid] = time.clock_gettime(
                        hostspeed.cpu_clock(pid))
                except OSError:
                    continue
                new += self.used[pid]
            pending += children(pid)
        return new


def start_server(command: list[str], env: dict, log_path: str):
    """Spawn a server; returns (process, client, its process tree,
    set-up CPU seconds).

    Set-up runs from the spawn until ``/healthz`` answers; its CPU
    seconds are the server's.
    """
    log = open(log_path, "w", encoding="utf-8")
    proc = subprocess.Popen(command, env=env, stdout=subprocess.PIPE,
                            stderr=log, text=True, start_new_session=True)
    log.close()
    try:
        port = None
        for line in proc.stdout:
            if "serving on http://" in line:
                port = int(line.split("serving on http://", 1)[1]
                           .split()[0].rsplit(":", 1)[1])
                break
        if port is None:
            raise RuntimeError(f"server exited before serving (see "
                               f"{log_path})")
        client = ServiceClient("127.0.0.1", port, timeout=120.0)
        client.wait_ready(timeout=60.0, poll=0.01)
        tree = ProcessTree(proc.pid)
        setup_cpu = tree.read()
    except BaseException:
        stop_server(proc)
        raise
    return proc, client, tree, setup_cpu


def stop_server(proc) -> None:
    """SIGTERM (graceful drain), then wait; if it hangs, kill the
    server's whole process group, pool workers included."""
    if proc.poll() is None:
        proc.send_signal(signal.SIGTERM)
    try:
        proc.communicate(timeout=60)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()


def request(client: ServiceClient, tree: ProcessTree, payload) -> dict:
    """One closed-loop request: its CPU latency (``latency``, seconds
    of CPU from submit to terminal event), its ``wall_latency``, the
    ``submit`` time, whether the submit answer already was terminal
    (``hit``: a store hit), a failure reason, and the result."""
    cpu_sent = tree.read() + thread_time()
    sent = perf_counter()
    try:
        record = client.submit(payload)[0]
    except QueueFull:
        return {"error": "429 queue full"}
    submitted = perf_counter()
    state = record["state"]
    hit = state in TERMINAL
    if not hit:
        for event in client.events(record["id"]):
            state = event["event"]
            if state in TERMINAL:
                break
    finished = perf_counter()
    cpu = tree.read() + thread_time() - cpu_sent + tree.adopt()
    outcome = {"latency": cpu, "wall_latency": finished - sent,
               "submit": submitted - sent, "hit": hit}
    if state != "done":
        outcome["error"] = f"terminal state {state}"
        return outcome
    outcome["result"] = client.job(record["id"]).get("result") or {}
    return outcome


def drive(client: ServiceClient, tree: ProcessTree,
          loopback: hostspeed.LoopbackReference, mix) -> dict:
    """Send ``mix`` closed-loop from one client; returns the outcomes
    in mix order (see :func:`request`), both host speed references'
    CPU times and the load's monotonic seconds without them."""
    outcomes = []
    references = []
    loopbacks = []
    paused = 0.0
    start = due = perf_counter()
    for __, payload in mix:
        began = perf_counter()
        if began >= due:
            references.append(hostspeed.reference())
            loopbacks.append(loopback.measure())
            due = perf_counter() + REFERENCE_PERIOD
            paused += due - REFERENCE_PERIOD - began
        try:
            outcomes.append(request(client, tree, payload))
        except Exception as exc:  # recorded as a failed request
            outcomes.append({"error": f"{type(exc).__name__}: {exc}"})
    return {"wall": perf_counter() - start - paused, "outcomes": outcomes,
            "references": references, "loopbacks": loopbacks}


def stage_means_ms(scrape: dict) -> dict[str, float]:
    """Mean server-side latency of each job stage, from ``/metrics``."""
    base = "repro_service_stage_latency_seconds"
    means = {}
    for stage in ("validate", "queue_wait", "execute"):
        count = scrape.get(f'{base}_count{{stage="{stage}"}}', 0.0)
        total = scrape.get(f'{base}_sum{{stage="{stage}"}}', 0.0)
        means[stage] = 1e3 * total / count if count else 0.0
    return means


def server_command(trace_dir: str | None) -> list[str]:
    """The server's command line: the public entry point, or the traced
    launcher when ``trace_dir`` is given."""
    if trace_dir is None:
        command = [sys.executable, "-m", "repro.service", "serve"]
    else:
        os.makedirs(trace_dir, exist_ok=True)
        command = [sys.executable,
                   os.path.join(os.path.dirname(__file__), "serve.py"),
                   trace_dir]
    return command + ["--port", "0", "--workers", "1"]


def server_env(store_dir: str) -> dict:
    return dict(os.environ, REPRO_CACHE_DIR=store_dir,
                PYTHONPATH=os.path.join(os.getcwd(), "src"))


@contextmanager
def one_cpu():
    """Run on one CPU; processes started meanwhile inherit it."""
    allowed = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(allowed)})
    try:
        yield
    finally:
        os.sched_setaffinity(0, allowed)


def probe_setup(store_dir: str, log_path: str) -> dict:
    """Start a server only to time its set-up, then stop it."""
    with one_cpu():
        proc, __, __, setup = start_server(
            server_command(None), server_env(store_dir), log_path)
        try:
            references = [hostspeed.reference()
                          for __ in range(SETUP_REFERENCES)]
        finally:
            stop_server(proc)
    return {"setup": setup, "references": references}


def run_round(seed: int, warmup: int, measure: int,
              store_dir: str, log_path: str,
              trace_dir: str | None = None) -> dict:
    """One round on a fresh server and an empty store."""
    mix = job_mix(seed, warmup, measure)
    with one_cpu():
        loopback = hostspeed.LoopbackReference()
        try:
            proc, client, tree, setup = start_server(
                server_command(trace_dir), server_env(store_dir), log_path)
            try:
                load = drive(client, tree, loopback, mix)
                scrape = client.metrics()
            finally:
                stop_server(proc)
        finally:
            loopback.close()
    outcomes = load["outcomes"]
    return {"setup": setup, "wall": load["wall"],
            "references": load["references"],
            "loopbacks": load["loopbacks"],
            "cpu": sum(o.get("latency", 0.0) for o in outcomes),
            "mix": mix, "outcomes": outcomes, "metrics": scrape,
            "stages_ms": stage_means_ms(scrape)}
