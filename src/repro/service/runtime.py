"""Job execution runtime: warm shared resources, cold per-job isolation.

Each job runs in its own work directory (``<root>/jobs/<id>``: report,
trace, checkpoints, quarantine, default export), while the expensive state
is shared across jobs and kept warm for the server's lifetime:

* **worker processes** — executors are built with ``shared_pool=True``, so
  parallel stages borrow the process-wide :func:`repro.parallel.
  get_shared_pool` workers (op instances resolve against the residents by
  config equivalence) and :meth:`Executor.close` detaches instead of
  killing them;
* **the shard cache** — one ``<root>/cache`` directory serves every job.
  Shard-cache keys are content-based (op fingerprint chain + the signature
  of the source lines an input shard was read from), so a resubmitted
  recipe over unchanged data replays every cached shard output without
  decoding its input (``shards.decoded_shards == 0`` in its report) and
  without any cross-contamination between different recipes or inputs.

The per-job fault policy comes from the job's own recipe (``on_error``,
``max_retries``, ``task_timeout_s``, ...) exactly as it would from the CLI.
"""

from __future__ import annotations

from pathlib import Path
from typing import TYPE_CHECKING

from repro.core.report import REPORT_FILE, RunReport
from repro.service.types import ServiceError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.service.jobs import Job

#: file a failed job's exception is persisted to, next to where report.json
#: would have been
ERROR_FILE = "error.txt"


class ServiceRuntime:
    """Owns the service root directory and executes jobs against it."""

    def __init__(self, root: str | Path):
        self.root = Path(root)
        self.jobs_dir = self.root / "jobs"
        self.cache_dir = self.root / "cache"
        self.jobs_dir.mkdir(parents=True, exist_ok=True)
        self.cache_dir.mkdir(parents=True, exist_ok=True)

    # ------------------------------------------------------------------
    def job_dir(self, job_id: str) -> Path:
        """The isolated work directory of one job."""
        return self.jobs_dir / job_id

    def job_config(self, job: "Job") -> dict:
        """The effective recipe payload of a job: isolation + warm defaults.

        The submitted recipe is taken as-is, then pinned to the job's own
        ``work_dir`` and the server's shared ``cache_dir``; ``use_cache``
        defaults on (that is the point of a warm server) but an explicit
        ``use_cache: false`` in the submission is honoured.  A recipe with
        no ``export_path`` exports to ``<job work_dir>/export.jsonl``.
        """
        payload = dict(job.spec.recipe)
        work_dir = self.job_dir(job.id)
        payload["work_dir"] = str(work_dir)
        payload["cache_dir"] = str(self.cache_dir)
        payload.setdefault("use_cache", True)
        payload.setdefault("export_path", str(work_dir / "export.jsonl"))
        return payload

    # ------------------------------------------------------------------
    def run_job(self, job: "Job") -> RunReport:
        """Execute one job end to end (called only by the queue worker).

        Failures are persisted to ``<work_dir>/error.txt`` and re-raised for
        the manager to record on the job view.
        """
        from repro.core.executor import Executor

        payload = self.job_config(job)
        work_dir = Path(payload["work_dir"])
        work_dir.mkdir(parents=True, exist_ok=True)
        try:
            with Executor(payload, shared_pool=True) as executor:
                report = executor.execute(
                    mode=job.spec.mode, shard_output=job.spec.shard_output
                )
            job.view.export_paths = [str(path) for path in report.export_paths]
            return report
        except Exception as error:
            try:
                (work_dir / ERROR_FILE).write_text(repr(error), encoding="utf-8")
            except OSError:
                pass
            raise

    # ------------------------------------------------------------------
    def load_report(self, job: "Job") -> RunReport:
        """The persisted :class:`RunReport` of a finished job (404 until then)."""
        path = self.job_dir(job.id) / REPORT_FILE
        if not path.exists():
            raise ServiceError.not_found(
                f"job {job.id} has no report yet (state: {job.view.state})"
            )
        return RunReport.load(path)


def resolve_job_report(root: str | Path, job_id: str) -> Path:
    """Path of a job's ``report.json`` under a service root (CLI helper).

    This is what lets ``repro report --service-root <root> --job <id>``
    render a queued job's report with the same code path as a CLI run.
    """
    path = Path(root) / "jobs" / job_id / REPORT_FILE
    if not path.exists():
        raise FileNotFoundError(
            f"no run report for job {job_id!r} under {root} (expected {path})"
        )
    return path


__all__ = ["ERROR_FILE", "ServiceRuntime", "resolve_job_report"]
