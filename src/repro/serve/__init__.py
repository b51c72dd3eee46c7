"""The resilient async query service (docs/SERVICE.md).

A dependency-free asyncio HTTP service over a durable index store:
immutable reader generations hot-swapped behind live traffic, a single
WAL-appending writer, bounded admission with load shedding, and a
circuit breaker that degrades to a known-good serial path on integrity
failures.  Every request carries a correlation id (``X-Request-Id``)
through a per-request telemetry context (:mod:`repro.obs.telemetry`)
feeding ``/debug/requests``, ``/debug/slow``, and the ``/status``
latency summary.  ``repro serve`` runs one server process per core
(:mod:`repro.serve.supervisor`).
"""

from repro.serve.admission import (
    AdmissionController,
    AdmissionTimeout,
    CircuitBreaker,
    ServiceConfig,
    ShedRequest,
)
from repro.serve.console import run_top
from repro.serve.http import HttpError, Request, read_request, response_bytes
from repro.serve.loadgen import (
    DEFAULT_QUERIES,
    LoadgenReport,
    run_loadgen,
)
from repro.obs.telemetry import TelemetryHub, new_request_id
from repro.serve.server import HttpServer
from repro.serve.service import GenerationHandle, QueryService, WriterDead
from repro.serve.supervisor import run_server

__all__ = [
    "AdmissionController",
    "AdmissionTimeout",
    "CircuitBreaker",
    "DEFAULT_QUERIES",
    "GenerationHandle",
    "HttpError",
    "HttpServer",
    "LoadgenReport",
    "QueryService",
    "Request",
    "ServiceConfig",
    "ShedRequest",
    "TelemetryHub",
    "WriterDead",
    "new_request_id",
    "read_request",
    "response_bytes",
    "run_loadgen",
    "run_server",
    "run_top",
]
