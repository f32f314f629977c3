"""Traced launcher of the job server.

Usage (from the repository root)::

    python3 perfbench/serve.py DUMP_DIR [serve options...]

Installs the timing wrappers of :mod:`tracing`, then runs the public
``python -m repro.service serve`` entry point with the given options.
Pool workers are forked from this process, so they inherit the
wrappers; each starts from empty aggregates and rewrites
``DUMP_DIR/worker-<pid>.json`` whenever a top-level traced call ends.
The server's own aggregates go to ``DUMP_DIR/server.json`` after the
server has drained; each process's spans go next to its aggregates.
"""

from __future__ import annotations

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.getcwd(), "src"), HERE]

import repro.experiments.parallel  # noqa: E402,F401  (the pool's job runner)
import repro.service.server  # noqa: E402,F401
from repro.service.__main__ import main as service_main  # noqa: E402

from tracing import Tracer  # noqa: E402


class ProcessTracer(Tracer):
    """A tracer that dumps its aggregates when it runs in a pool worker."""

    def __init__(self, directory: str) -> None:
        super().__init__()
        self.directory = directory
        self.home = os.getpid()

    def on_top_level_end(self) -> None:
        if os.getpid() != self.home:
            self.dump(f"worker-{os.getpid()}.json")

    def dump(self, name: str) -> None:
        """Write the aggregates to ``name`` and the spans (absolute
        monotonic times) next to it."""
        path = os.path.join(self.directory, name)
        with open(path + ".tmp", "w", encoding="utf-8") as fh:
            json.dump(self.snapshot(), fh)
        os.replace(path + ".tmp", path)
        self.write_spans(path[:-len(".json")] + ".spans.jsonl", origin=0.0)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    tracer = ProcessTracer(argv[0]).install()
    os.register_at_fork(after_in_child=tracer.reset)
    try:
        return service_main(["serve"] + argv[1:])
    finally:
        tracer.dump("server.json")


if __name__ == "__main__":
    raise SystemExit(main())
