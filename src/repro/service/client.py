"""Service clients: the in-process test transport and a urllib HTTP client.

Both speak the same ``request(method, path, payload) -> ServiceResponse``
protocol over the same route table, so a test written against
:class:`InProcessClient` exercises byte-for-byte what an
:class:`HTTPClient` (and hence any network consumer) would see — without
binding a port.  The shared convenience helpers (``submit_job``,
``wait_for_job``, which never polls) are the job workflow of both.
"""

from __future__ import annotations

import json
import time
import urllib.error
import urllib.request
from dataclasses import dataclass
from typing import Any

from repro.service.core import ServiceCore
from repro.service.types import JobState

WAIT_WINDOW_S = 10.0  # the longest wait one status request asks for (< the socket timeout)


@dataclass(frozen=True)
class ServiceResponse:
    """One response: HTTP-shaped status plus the parsed JSON body."""

    status: int
    body: dict

    @property
    def ok(self) -> bool:
        return 200 <= self.status < 300

    def raise_for_status(self) -> "ServiceResponse":
        if not self.ok:
            error = (self.body or {}).get("error") or {}
            raise RuntimeError(
                f"service request failed with {self.status}: "
                f"{error.get('message', self.body)}"
            )
        return self


class _BaseClient:
    """The verb helpers and job workflow shared by both transports."""

    def request(self, method: str, path: str, payload: Any = None) -> ServiceResponse:
        raise NotImplementedError

    def get(self, path: str) -> ServiceResponse:
        return self.request("GET", path)

    def post(self, path: str, payload: Any = None) -> ServiceResponse:
        return self.request("POST", path, payload)

    # -- job workflow ---------------------------------------------------
    def submit_job(self, payload: dict) -> dict:
        """``POST /jobs`` and return the accepted job view."""
        return self.post("/jobs", payload).raise_for_status().body["job"]

    def job(self, job_id: str, wait: float | None = None) -> dict:
        """``GET /jobs/<id>``; with ``wait``, answered once the job ends or ``wait`` s pass."""
        query = "" if wait is None else f"?wait={wait:.3f}"
        return self.get(f"/jobs/{job_id}{query}").raise_for_status().body["job"]

    def wait_for_job(self, job_id: str, timeout: float = 120.0) -> dict:
        """Wait until the job is terminal, one :data:`WAIT_WINDOW_S` window at a time.

        A job ending inside one window costs one status request (the endpoint a
        remote client has), answered when it ends; ``TimeoutError`` after ``timeout``.
        """
        deadline = time.monotonic() + timeout
        while True:
            remaining = max(0.0, deadline - time.monotonic())
            view = self.job(job_id, wait=min(WAIT_WINDOW_S, remaining))
            if view["state"] in JobState.TERMINAL:
                return view
            if time.monotonic() >= deadline:
                raise TimeoutError(
                    f"job {job_id} still {view['state']!r} after {timeout}s"
                )

    def job_report(self, job_id: str) -> dict:
        """``GET /jobs/<id>/report`` and return the RunReport payload."""
        return self.get(f"/jobs/{job_id}/report").raise_for_status().body["report"]


class InProcessClient(_BaseClient):
    """Calls :meth:`ServiceCore.handle` directly — tier-1's portless transport."""

    def __init__(self, core: ServiceCore):
        self.core = core

    def request(self, method: str, path: str, payload: Any = None) -> ServiceResponse:
        # round-trip the payload through JSON so in-process requests can
        # carry exactly what the HTTP transport can (no live objects)
        encoded = json.loads(json.dumps(payload)) if payload is not None else None
        status, body = self.core.handle(method, path, encoded)
        return ServiceResponse(status=status, body=json.loads(json.dumps(body, default=repr)))


class HTTPClient(_BaseClient):
    """A tiny urllib client for ``repro serve`` (used by the smoke check)."""

    def __init__(self, base_url: str, timeout: float = 30.0):
        self.base_url = base_url.rstrip("/")
        self.timeout = timeout

    def request(self, method: str, path: str, payload: Any = None) -> ServiceResponse:
        data = None
        headers = {"Accept": "application/json"}
        if payload is not None:
            data = json.dumps(payload).encode("utf-8")
            headers["Content-Type"] = "application/json"
        request = urllib.request.Request(
            self.base_url + path, data=data, headers=headers, method=method
        )
        try:
            with urllib.request.urlopen(request, timeout=self.timeout) as response:
                return ServiceResponse(
                    status=response.status,
                    body=json.loads(response.read().decode("utf-8")),
                )
        except urllib.error.HTTPError as error:
            # service errors are JSON bodies with non-2xx statuses, not faults
            raw = error.read().decode("utf-8", errors="replace")
            try:
                body = json.loads(raw)
            except json.JSONDecodeError:
                body = {"error": {"status": error.code, "message": raw}}
            return ServiceResponse(status=error.code, body=body)


__all__ = ["WAIT_WINDOW_S", "HTTPClient", "InProcessClient", "ServiceResponse"]
