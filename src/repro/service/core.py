"""The transport-agnostic service core: one route table, two transports.

:class:`ServiceCore` maps ``(method, path)`` to the injected services and
returns ``(status, body)`` pairs of plain JSON-ready dicts.  Both adapters —
the stdlib HTTP server behind ``repro serve`` and the in-process client the
tier-1 tests use — call :meth:`ServiceCore.handle` and nothing else, so
everything the tests exercise is exactly what a network client reaches.

Routes::

    GET  /health                 liveness + job counts + warm-pool gauge
    GET  /schema                 full machine-readable op/recipe catalog
    GET  /ops                    compact operator listing
    GET  /ops/<name>             one operator's schema + effect signature
    GET  /recipes                built-in recipe listing
    GET  /recipes/<name>         one recipe's payload
    POST /validate               schema + dataflow validation of a recipe
    POST /jobs                   submit a job (202, bounded FIFO queue)
    GET  /jobs                   every job's view, in submission order
    GET  /jobs/<id>[?wait=S]     one job's view, once it ends or S seconds pass
    POST /jobs/<id>/cancel       cancel a *queued* job
    GET  /jobs/<id>/report       the finished job's RunReport
    GET  /jobs/<id>/trace        just the report's tracer summary
"""

from __future__ import annotations

from pathlib import Path
from typing import Any
from urllib.parse import parse_qs

from repro.service.catalog import CatalogService, ValidationService
from repro.service.jobs import DEFAULT_QUEUE_LIMIT, JobManager
from repro.service.runtime import ServiceRuntime
from repro.service.types import JobSpec, ServiceError

MAX_WAIT_S = 30.0  # the longest one ``GET /jobs/<id>?wait=S`` is held open


class ServiceCore:
    """Dependency-injected request dispatcher shared by every transport."""

    def __init__(
        self,
        catalog: CatalogService,
        validation: ValidationService,
        runtime: ServiceRuntime,
        jobs: JobManager,
    ):
        self.catalog = catalog
        self.validation = validation
        self.runtime = runtime
        self.jobs = jobs

    # ------------------------------------------------------------------
    def handle(
        self, method: str, path: str, payload: Any = None
    ) -> tuple[int, dict]:
        """Dispatch one request; never raises — errors become status bodies."""
        path, _, query = path.partition("?")  # a query never changes the route
        try:
            return self._route(method.upper(), path, parse_qs(query, True), payload)
        except ServiceError as error:
            return error.status, error.as_dict()

    def _route(self, method: str, path: str, query: dict, payload: Any) -> tuple[int, dict]:
        parts = [part for part in path.split("/") if part]
        if not parts:
            raise ServiceError.not_found("no route at '/' (try GET /health)")
        head, rest = parts[0], parts[1:]
        if head == "health" and not rest:
            self._require(method, "GET", path)
            return 200, self._health()
        if head == "schema" and not rest:
            self._require(method, "GET", path)
            return 200, self.catalog.schema()
        if head == "ops":
            self._require(method, "GET", path)
            if not rest:
                return 200, self.catalog.list_ops()
            if len(rest) == 1:
                return 200, self.catalog.get_op(rest[0])
        if head == "recipes":
            self._require(method, "GET", path)
            if not rest:
                return 200, self.catalog.list_recipes()
            if len(rest) == 1:
                return 200, self.catalog.get_recipe(rest[0])
        if head == "validate" and not rest:
            self._require(method, "POST", path)
            return 200, self.validation.validate(payload)
        if head == "jobs":
            return self._route_jobs(method, path, rest, query, payload)
        raise ServiceError.not_found(f"no route for {method} {path}")

    def _route_jobs(
        self, method: str, path: str, rest: list[str], query: dict, payload: Any
    ) -> tuple[int, dict]:
        if not rest:
            if method == "POST":
                job = self.jobs.submit(JobSpec.from_payload(payload))
                return 202, {"job": job.view.as_dict()}
            self._require(method, "GET", path)
            return 200, {"jobs": [view.as_dict() for view in self.jobs.list_views()]}
        job = self.jobs.get(rest[0])
        action = rest[1] if len(rest) > 1 else None
        if action is None:
            self._require(method, "GET", path)
            if "wait" in query:  # answered once the job ends, or the wait passes
                job.done.wait(_wait_s(query["wait"][-1]))
            return 200, {"job": job.view.as_dict()}
        if action == "cancel" and len(rest) == 2:
            self._require(method, "POST", path)
            return 200, {"job": self.jobs.cancel(job.id).view.as_dict()}
        if action == "report" and len(rest) == 2:
            self._require(method, "GET", path)
            report = self.runtime.load_report(job)
            return 200, {"job": job.view.as_dict(), "report": report.as_dict()}
        if action == "trace" and len(rest) == 2:
            self._require(method, "GET", path)
            report = self.runtime.load_report(job)
            return 200, {"job": job.view.as_dict(), "trace": list(report.trace)}
        raise ServiceError.not_found(f"no route for {method} {path}")

    @staticmethod
    def _require(method: str, expected: str, path: str) -> None:
        if method != expected:
            raise ServiceError.method_not_allowed(
                f"{path} only accepts {expected}, not {method}"
            )

    # ------------------------------------------------------------------
    def _health(self) -> dict:
        from repro.parallel.pool import _SHARED_POOLS, _SHARED_POOLS_LOCK

        with _SHARED_POOLS_LOCK:
            warm_pools = sum(1 for pool in _SHARED_POOLS.values() if pool.alive)
        return {
            "status": "ok",
            "root": str(self.runtime.root),
            "jobs": self.jobs.counts(),
            "warm_pools": warm_pools,
        }

    # ------------------------------------------------------------------
    def shutdown(self) -> None:
        """Drain the queue and stop the worker (shared pools stay with atexit)."""
        self.jobs.shutdown()


def _wait_s(raw: str) -> float:
    """A ``wait`` query value (decimal seconds), capped at :data:`MAX_WAIT_S`."""
    if not raw.replace(".", "", 1).isdecimal():  # negative, NaN or not a number
        raise ServiceError.bad_request(f"wait must be a number of seconds >= 0, not {raw!r}")
    return min(float(raw), MAX_WAIT_S)


def create_core(
    root: str | Path, queue_limit: int = DEFAULT_QUEUE_LIMIT
) -> ServiceCore:
    """Wire the default service graph over a root directory."""
    runtime = ServiceRuntime(root)
    return ServiceCore(
        catalog=CatalogService(),
        validation=ValidationService(),
        runtime=runtime,
        jobs=JobManager(runtime, queue_limit=queue_limit),
    )


__all__ = ["MAX_WAIT_S", "ServiceCore", "create_core"]
