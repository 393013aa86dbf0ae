"""The job queue: bounded FIFO submissions drained by one worker thread.

Jobs are executed strictly one at a time, in submission order, by a single
daemon thread.  That single-consumer design is what makes sharing the
process-wide :func:`repro.parallel.get_shared_pool` workers and one shard
cache directory across concurrent *submissions* safe: requests enqueue
concurrently (the transports are threaded), but pipeline execution — the
only code that touches the pool and the cache — is serialized.  Parallelism
within a job still comes from the recipe's ``np`` worker processes.

Cancellation is honest about what the executor guarantees: a ``queued`` job
cancels immediately; a ``running`` pipeline is never killed mid-shard (the
request is rejected with 409), matching the crash-consistency story of the
checkpoint/spill layers.
"""

from __future__ import annotations

import itertools
import threading
import time
from collections import OrderedDict, deque
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.service.types import JobSpec, JobState, JobView, ServiceError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.service.runtime import ServiceRuntime

#: default bound of the submission queue (pending jobs, not counting running)
DEFAULT_QUEUE_LIMIT = 16


@dataclass
class Job:
    """One submission's full server-side record (the view plus the spec)."""

    id: str
    spec: JobSpec
    view: JobView
    #: set while the job is queued and a cancel request arrives
    cancel_requested: bool = False
    #: signalled when the job reaches a terminal state
    done: threading.Event = field(default_factory=threading.Event)


class JobManager:
    """Bounded FIFO job queue with a single execution worker thread.

    All public methods are thread-safe; state transitions happen under one
    lock and every terminal transition sets the job's ``done`` event, which
    ``GET /jobs/<id>?wait=S`` blocks on.  ``pause``/``resume`` gate the
    worker *between* jobs — used by tests to cancel a queued job
    deterministically and by shutdown to drain cleanly.
    """

    def __init__(self, runtime: "ServiceRuntime", queue_limit: int = DEFAULT_QUEUE_LIMIT):
        if queue_limit < 1:
            raise ValueError("queue_limit must be >= 1")
        self._runtime = runtime
        self._queue_limit = queue_limit
        self._lock = threading.Lock()
        self._state_changed = threading.Condition(self._lock)
        self._queue: deque[Job] = deque()
        self._jobs: "OrderedDict[str, Job]" = OrderedDict()
        self._ids = itertools.count(1)
        self._paused = False
        self._stopping = False
        self._worker = threading.Thread(
            target=self._worker_loop, name="repro-service-jobs", daemon=True
        )
        self._worker.start()

    # ------------------------------------------------------------------
    # Submission API (called from transport threads)
    # ------------------------------------------------------------------
    def submit(self, spec: JobSpec) -> Job:
        """Enqueue a validated spec; 503 when the bounded queue is full."""
        with self._lock:
            if self._stopping:
                raise ServiceError.overloaded("server is shutting down")
            if len(self._queue) >= self._queue_limit:
                raise ServiceError.overloaded(
                    f"job queue is full ({self._queue_limit} pending); retry later"
                )
            job_id = f"job-{next(self._ids):06d}"
            view = JobView(
                id=job_id,
                state=JobState.QUEUED,
                recipe_name=str(spec.recipe.get("project_name") or "(inline)"),
                mode=spec.mode,
                work_dir=str(self._runtime.job_dir(job_id)),
            )
            job = Job(id=job_id, spec=spec, view=view)
            self._jobs[job_id] = job
            self._queue.append(job)
            self._state_changed.notify_all()
        return job

    def get(self, job_id: str) -> Job:
        """Look up one job; 404 with the known ids when absent."""
        with self._lock:
            job = self._jobs.get(job_id)
        if job is None:
            raise ServiceError.not_found(f"unknown job id {job_id!r}")
        return job

    def list_views(self) -> list[JobView]:
        """Snapshot of every job's view, in submission order."""
        with self._lock:
            return [job.view for job in self._jobs.values()]

    def counts(self) -> dict[str, int]:
        """Per-state job counts (the health endpoint's queue gauge)."""
        with self._lock:
            counts = dict.fromkeys(JobState.ALL, 0)
            for job in self._jobs.values():
                counts[job.view.state] = counts.get(job.view.state, 0) + 1
            return counts

    def cancel(self, job_id: str) -> Job:
        """Cancel a queued job; running/terminal jobs reject with 409."""
        job = self.get(job_id)
        with self._lock:
            state = job.view.state
            if state == JobState.QUEUED:
                job.cancel_requested = True
                self._finish(job, JobState.CANCELLED)
                return job
            if state in JobState.TERMINAL:
                raise ServiceError.conflict(
                    f"job {job_id} already finished ({state})"
                )
            raise ServiceError.conflict(
                f"job {job_id} is running; a running pipeline cannot be killed "
                "mid-shard (wait for it to finish)"
            )

    # ------------------------------------------------------------------
    # Worker gating / lifecycle
    # ------------------------------------------------------------------
    def pause(self) -> None:
        """Stop the worker from *starting* new jobs (the running one finishes)."""
        with self._lock:
            self._paused = True

    def resume(self) -> None:
        with self._lock:
            self._paused = False
            self._state_changed.notify_all()

    def shutdown(self, timeout: float = 30.0) -> None:
        """Refuse new work, cancel everything still queued, stop the worker."""
        with self._lock:
            self._stopping = True
            while self._queue:
                job = self._queue.popleft()
                self._finish(job, JobState.CANCELLED)
            self._state_changed.notify_all()
        self._worker.join(timeout)

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _finish(self, job: Job, state: str, error: str | None = None) -> None:
        """Terminal transition (caller must hold the lock)."""
        job.view.state = state
        job.view.finished_at = time.time()
        if error is not None:
            job.view.error = error
        job.done.set()
        self._state_changed.notify_all()

    def _next_job(self) -> Job | None:
        """Block until a startable job exists (skipping cancelled entries)."""
        with self._state_changed:
            while True:
                if self._stopping:
                    return None
                if not self._paused and self._queue:
                    job = self._queue.popleft()
                    if job.cancel_requested:
                        continue
                    job.view.state = JobState.RUNNING
                    job.view.started_at = time.time()
                    return job
                self._state_changed.wait(timeout=0.5)

    def _worker_loop(self) -> None:
        while True:
            job = self._next_job()
            if job is None:
                return
            try:
                self._runtime.run_job(job)
            except Exception as error:  # noqa: BLE001 - the loop must survive any job
                with self._lock:
                    self._finish(job, JobState.FAILED, error=repr(error))
            else:
                with self._lock:
                    self._finish(job, JobState.SUCCEEDED)


__all__ = ["DEFAULT_QUEUE_LIMIT", "Job", "JobManager"]
