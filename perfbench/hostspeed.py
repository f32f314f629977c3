"""Host speed references for normalised timings.

The benchmark runs on shared hosts whose speed changes by up to 2x
within minutes as other tenants load the machine, and the CPU clock
sees it as much as the monotonic clock does.  To cancel it, every
measuring process runs a fixed reference between its timed
operations, and the benchmark reports each CPU time at the
reference's nominal speed: multiplied by the reference's nominal CPU
time over the mean CPU time of the references run around it.

There are two references, because different work slows differently:
:func:`reference` for simulations and set-up, and
:class:`LoopbackReference` for requests answered from the result
store, which are made of small socket reads and writes, context
switches and JSON coding.

The :func:`reference` routine does what the simulator's hot loop does
(attribute access on slotted objects, method calls, pointer chasing
through a pool of objects and lookups in a large dict, list updates,
integer arithmetic).  A tight loop over a small working set would not
do: its CPU time moved about 1.5 times as much as the simulator's as
the host's load changed, while this routine's moves about as much.
Neither reference calls repository code, so a change to the
repository cannot change them.  Changing a reference or its constants
rescales the timings it normalises and needs a new baseline.
"""

from __future__ import annotations

import json
import os
import signal
import socket
import time
from time import process_time

#: CPU seconds one :func:`reference` took on the 2-core virtual
#: machine the bounds were set on; normalised timings are seconds at
#: that speed.
REFERENCE_SECONDS = 0.012

#: Iterations of the routine.
STEPS = 4_000

#: Nodes of the pointer-chasing pool (a power of two): several
#: megabytes, so the routine leans on the caches the way the
#: simulator does and slows as much as the simulator when other
#: tenants contend for them.
POOL_SIZE = 1 << 16


class _Node:
    __slots__ = ("seq", "reg", "addr", "ready", "next")

    def __init__(self, seq: int) -> None:
        self.seq = seq
        self.reg = seq & 31
        self.addr = (seq * 2_654_435_761) & 0xF_FFFF
        self.ready = False
        self.next: _Node | None = None

    def wake(self, now: int) -> bool:
        self.ready = (self.seq + self.addr) % 3 != now % 3
        return self.ready


_POOL: list[_Node] = []
_TABLE: dict[int, int] = {}


def _build() -> None:
    _POOL.extend(_Node(seq) for seq in range(POOL_SIZE))
    for seq, node in enumerate(_POOL):
        node.next = _POOL[(seq * 40_503 + 7) % POOL_SIZE]
    _TABLE.update((key * 7_919, key) for key in range(POOL_SIZE // 2))


def _routine(steps: int) -> int:
    state = 12_345
    total = 0
    regs: dict[int, int] = {}
    window: list[_Node] = []
    for step in range(steps):
        state = (state * 1_103_515_245 + 12_345) & 0x7FFF_FFFF
        node = _POOL[state % POOL_SIZE]
        for __ in range(3):
            node = node.next
        if node.wake(step):
            total += _TABLE.get((node.addr & 0x7FFF) * 7_919, 0)
        regs[node.reg] = regs.get(node.reg, 0) + (node.addr & 7)
        window.append(node)
        if len(window) > 32:
            window = [n for n in window if not n.wake(step)]
    return total + sum(regs.values()) + len(window)


def reference() -> float:
    """Run the routine once; returns the CPU seconds it took.  The
    first call also builds the pool, untimed."""
    if not _POOL:
        _build()
    start = process_time()
    _routine(STEPS)
    return process_time() - start


#: Loopback round trips of one :meth:`LoopbackReference.measure`.
ROUND_TRIPS = 10

#: CPU seconds one :meth:`LoopbackReference.measure` took on the same
#: machine as ``REFERENCE_SECONDS``.
LOOPBACK_SECONDS = 0.002


def cpu_clock(pid: int) -> int:
    """Clock id of process ``pid``'s CPU-time clock, for
    :func:`time.clock_gettime` (Linux's ``clock_getcpuclockid``)."""
    return ((~pid) << 3) | 2


class LoopbackReference:
    """A request-shaped reference: JSON round trips over loopback TCP.

    A forked echo process answers each connection with the JSON it
    received, re-encoded.  :meth:`measure` opens ``ROUND_TRIPS``
    connections and returns the CPU seconds the caller's thread and the
    echo process spent on them: connection set-up, small reads and
    writes, context switches and JSON coding, what a request that hits
    the result store costs.  It forks, so create it from a
    single-threaded process.
    """

    def __init__(self) -> None:
        self.listener = socket.create_server(("127.0.0.1", 0))
        self.address = self.listener.getsockname()
        parent = os.getpid()
        self.pid = os.fork()
        if self.pid == 0:
            try:
                self._serve(parent)
            finally:
                os._exit(0)
        self.listener.close()
        self.payload = json.dumps(
            {"program": "mcf", "model": "dynamic", "seed": 1,
             "warmup": 1000, "measure": 3000,
             "result": {f"stat{k}": k * 0.5 for k in range(32)}}).encode()

    def _serve(self, parent: int) -> None:
        """Echo until the parent goes away."""
        self.listener.settimeout(1.0)
        while os.getppid() == parent:
            try:
                conn, __ = self.listener.accept()
            except TimeoutError:
                continue
            conn.settimeout(None)
            with conn:
                data = b""
                while chunk := conn.recv(65536):
                    data += chunk
                conn.sendall(json.dumps(json.loads(data)).encode())

    def measure(self) -> float:
        """Make the round trips; returns the CPU seconds they took."""
        clock = cpu_clock(self.pid)
        start = time.clock_gettime(clock) + time.thread_time()
        for __ in range(ROUND_TRIPS):
            with socket.create_connection(self.address) as conn:
                conn.sendall(self.payload)
                conn.shutdown(socket.SHUT_WR)
                data = b""
                while chunk := conn.recv(65536):
                    data += chunk
            json.loads(data)
        return time.clock_gettime(clock) + time.thread_time() - start

    def close(self) -> None:
        """Stop the echo process and wait for it."""
        os.kill(self.pid, signal.SIGKILL)
        os.waitpid(self.pid, 0)
