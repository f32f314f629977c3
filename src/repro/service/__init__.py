"""Simulation service layer: async job API over the campaign machinery.

``python -m repro.service serve`` turns the one-shot simulation stack
into a long-lived HTTP service — jobs as JSON, deduplicated by the
campaign layer's content addresses, leased to worker agents (forked
local ones, and remote ones that register over HTTP) which write into
the shared :class:`~repro.experiments.cache.ResultStore`, observable
via ``/metrics`` and per-job event streams.  See ``docs/serving.md``.
"""

from repro.service.client import QueueFull, ServiceClient, ServiceError
from repro.service.jobs import Job, ValidationError, build_spec, result_to_json
from repro.service.metrics import ServiceMetrics, parse_exposition
from repro.service.server import SimulationService


def __getattr__(name):
    # lazy: importing the package from `python -m repro.service.loadgen`
    # must not pre-load the loadgen module (runpy would warn and run a
    # second copy)
    if name in ("LoadReport", "run_load"):
        from repro.service import loadgen
        return getattr(loadgen, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

__all__ = [
    "Job",
    "LoadReport",
    "QueueFull",
    "ServiceClient",
    "ServiceError",
    "ServiceMetrics",
    "SimulationService",
    "ValidationError",
    "build_spec",
    "parse_exposition",
    "result_to_json",
    "run_load",
]
