"""Unified run reports: one observability surface for every execution mode.

Both :meth:`repro.core.executor.Executor.run` (in-memory, serial or
worker-pool parallel) and :meth:`~repro.core.executor.Executor.run_streaming`
(out-of-core) emit a :class:`RunReport`: the executed plan, per-operator
sections (rows in/out, wall time, throughput, peak RSS, cache activity), the
dataset/shard cache counters, the tracer summary and the run-level resource
profile.  The report is the programmatic form of the paper's feedback loop —
the ``repro report`` CLI subcommand renders it as text or JSON, and
:meth:`repro.analysis.analyzer.Analyzer.analyze_run` consumes it to analyze a
run's exported output without re-loading the corpus into memory.

``RunReport`` is a :class:`collections.abc.Mapping`, so existing code that
indexes ``executor.last_report`` like a plain dict keeps working unchanged.
"""

from __future__ import annotations

import json
from collections.abc import Mapping
from copy import copy
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path
from typing import Any, Iterator

#: file name of the persisted report inside a run's ``work_dir``
REPORT_FILE = "report.json"


@dataclass
class OpReport:
    """Per-operator section of a :class:`RunReport`.

    ``rows_in`` / ``rows_out`` aggregate every *executed* call (shards in
    streaming mode, the whole dataset in memory mode); calls answered from
    the cache are counted in ``cached_calls`` but contribute no rows, because
    the operator never saw them.
    """

    name: str
    op_type: str
    rows_in: int = 0
    rows_out: int = 0
    calls: int = 0
    cached_calls: int = 0
    wall_time_s: float = 0.0
    max_rss_mb: float = 0.0

    @property
    def removed(self) -> int:
        """Number of rows dropped by this operator across executed calls."""
        return max(0, self.rows_in - self.rows_out)

    @property
    def rows_per_sec(self) -> float:
        """Input-row throughput of the executed calls (0.0 when untimed)."""
        if self.wall_time_s <= 0:
            return 0.0
        return self.rows_in / self.wall_time_s

    def as_dict(self) -> dict:
        """Plain-dict view, including the derived throughput fields."""
        payload = asdict(self)
        payload["removed"] = self.removed
        payload["rows_per_sec"] = self.rows_per_sec
        return payload

    @classmethod
    def from_dict(cls, payload: dict) -> "OpReport":
        """Rebuild an :class:`OpReport` from :meth:`as_dict` output."""
        known = {item.name for item in fields(cls)}
        return cls(**{key: value for key, value in payload.items() if key in known})


@dataclass
class RunReport(Mapping):
    """The full observability record of one executor run (any mode)."""

    mode: str = "memory"
    plan: list = field(default_factory=list)
    num_output_samples: int = 0
    ops: list[OpReport] = field(default_factory=list)
    cache: dict = field(default_factory=dict)
    resources: dict = field(default_factory=dict)
    trace: list = field(default_factory=list)
    parallel: dict = field(default_factory=dict)
    export_paths: list[str] = field(default_factory=list)
    #: streaming runs only (None, and left out of :meth:`as_dict`, otherwise)
    shards: dict | None = None
    shard_budget: dict | None = None
    segments: int | None = None
    #: the mode decision of :func:`repro.core.planner.plan_execution` when the
    #: run went through ``Executor.execute`` (None for direct run/run_streaming)
    planner: dict | None = None
    #: fault-tolerance accounting of the run — the active error policy plus
    #: every retry, pool rebuild, quarantined row/shard, per-op error count
    #: and degradation (see :class:`repro.core.faults.FaultTracker`)
    faults: dict | None = None

    # ------------------------------------------------------------------
    # Mapping interface (backwards compatibility with the old dict report):
    # a read-only view of :meth:`as_dict`
    # ------------------------------------------------------------------
    def __getitem__(self, key: str) -> Any:
        return self.as_dict()[key]

    def __iter__(self) -> Iterator[str]:
        return iter(self.as_dict())

    def __len__(self) -> int:
        return len(self.as_dict())

    # ------------------------------------------------------------------
    def as_dict(self) -> dict:
        """JSON-safe plain-dict view of the whole report: a shallow copy of
        every field in declaration order, but the optional ones left unset."""
        payload = {item.name: copy(getattr(self, item.name)) for item in fields(self)}
        payload["ops"] = [op.as_dict() for op in self.ops]
        return {key: value for key, value in payload.items() if value is not None}

    @classmethod
    def from_dict(cls, payload: dict) -> "RunReport":
        """Rebuild a :class:`RunReport` from :meth:`as_dict` output."""
        known = {item.name for item in fields(cls)}
        report = cls(**{key: copy(value) for key, value in payload.items() if key in known})
        report.ops = [OpReport.from_dict(entry) for entry in report.ops]
        return report

    # ------------------------------------------------------------------
    def op_summary(self) -> list[tuple[str, str, int, int]]:
        """Compact ``(name, type, rows_in, rows_out)`` tuples, in plan order.

        This is the structural identity the streaming engine guarantees:
        ``run()`` and ``run_streaming()`` over the same recipe and input
        produce equal summaries.
        """
        return [(op.name, op.op_type, op.rows_in, op.rows_out) for op in self.ops]

    # ------------------------------------------------------------------
    def save(self, path: str | Path) -> Path:
        """Write the report as JSON atomically and return the path.

        Atomic (tmp + replace) so a crash mid-write never leaves a truncated
        ``report.json`` behind a completed run.
        """
        from repro.core.cache import atomic_write

        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        atomic_write(
            path,
            json.dumps(self.as_dict(), indent=2, ensure_ascii=False, default=repr).encode("utf-8"),
        )
        return path

    @classmethod
    def load(cls, path: str | Path) -> "RunReport":
        """Load a report previously written by :meth:`save`.

        ``path`` may be the report file itself or a run's ``work_dir``
        containing a :data:`REPORT_FILE`.
        """
        path = Path(path)
        if path.is_dir():
            path = path / REPORT_FILE
        return cls.from_dict(json.loads(path.read_text(encoding="utf-8")))

    # ------------------------------------------------------------------
    def render(self) -> str:
        """Human-readable multi-line rendering (the ``repro report`` output)."""
        lines = [
            f"Run report — mode={self.mode}, "
            f"{self.num_output_samples} output samples"
        ]
        resources = self.resources or {}
        if resources.get("wall_time_s") is not None:
            lines.append(
                f"  wall time {resources['wall_time_s']:.3f}s, "
                f"peak RSS {resources.get('max_rss_mb', 0.0):.1f} MB"
            )
        if self.mode == "streaming" and self.shards is not None:
            budget = self.shard_budget or {}
            lines.append(
                "  shards: "
                + ", ".join(f"{key}={value}" for key, value in self.shards.items())
                + f" (budget rows={budget.get('max_shard_rows')}, "
                f"chars={budget.get('max_shard_chars')})"
            )
        planner = self.planner or {}
        if planner:
            lines.append(
                f"  planner: requested={planner.get('requested')}, "
                f"chose {planner.get('mode')} "
                f"({'; '.join(planner.get('reasons', []))})"
            )
        cache = self.cache or {}
        if cache:
            lines.append(
                "  cache: "
                + ", ".join(f"{key}={value}" for key, value in sorted(cache.items()))
            )
        parallel = self.parallel or {}
        if parallel:
            lines.append(
                f"  parallel: np={parallel.get('np')}, "
                f"batch_size={parallel.get('batch_size')}, "
                f"start_method={parallel.get('start_method')}"
            )
        faults = self.faults or {}
        counter_keys = (
            "retries", "pool_rebuilds", "degradations",
            "quarantined_rows", "skipped_rows", "quarantined_shards",
        )
        if faults and (
            any(faults.get(key) for key in counter_keys) or faults.get("op_errors")
        ):
            policy = faults.get("policy") or {}
            lines.append(
                "  faults (on_error="
                + str(policy.get("on_error", "raise"))
                + "): "
                + ", ".join(f"{key}={faults.get(key, 0)}" for key in counter_keys)
            )
            op_errors = faults.get("op_errors") or {}
            if op_errors:
                lines.append(
                    "    op errors: "
                    + ", ".join(
                        f"{name}={count}" for name, count in sorted(op_errors.items())
                    )
                )
            for path in faults.get("quarantine_paths") or []:
                lines.append(f"    quarantine: {path}")
        if self.ops:
            header = (
                f"  {'op':<44} {'type':<13} {'rows_in':>9} {'rows_out':>9} "
                f"{'removed':>8} {'time_s':>8} {'rows/s':>10} {'cached':>6}"
            )
            lines.append(header)
            lines.append("  " + "-" * (len(header) - 2))
            for op in self.ops:
                lines.append(
                    f"  {op.name:<44} {op.op_type:<13} {op.rows_in:>9} "
                    f"{op.rows_out:>9} {op.removed:>8} {op.wall_time_s:>8.3f} "
                    f"{op.rows_per_sec:>10.0f} {op.cached_calls:>6}"
                )
        if self.export_paths:
            lines.append("  exports: " + ", ".join(self.export_paths))
        return "\n".join(lines)


__all__ = ["OpReport", "REPORT_FILE", "RunReport"]
