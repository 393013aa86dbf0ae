"""Resource monitoring: wall-clock time and memory usage of processing runs.

The end-to-end system comparison of the paper (Sec. 7.2.1, Figure 8) monitors
processing time and average memory usage.  This module provides a lightweight
equivalent based on ``tracemalloc`` (Python heap) plus ``resource`` peak RSS,
good enough to compare the relative footprint of pipelines running in the same
process.

Besides the run-level :class:`ResourceMonitor`, the module provides the
per-operator :class:`RunProfiler`: every executor mode (in-memory, pooled,
streaming) tracks each operator's executed calls through it, accumulating
wall time, rows in/out and peak RSS into the :class:`repro.core.report.
OpReport` sections of the unified run report.
"""

from __future__ import annotations

import resource
import time
import tracemalloc
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Iterator

from repro.core.report import OpReport


def max_rss_mb() -> float:
    """Current peak RSS of this process, in megabytes."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


@dataclass
class ResourceReport:
    """Result of one monitored run."""

    wall_time_s: float
    peak_python_mb: float
    current_python_mb: float
    max_rss_mb: float

    def as_dict(self) -> dict:
        """Return the report as a plain dict (for benchmark tables)."""
        return {
            "wall_time_s": self.wall_time_s,
            "peak_python_mb": self.peak_python_mb,
            "current_python_mb": self.current_python_mb,
            "max_rss_mb": self.max_rss_mb,
        }


class ResourceMonitor:
    """Context manager measuring wall time and (optionally) Python heap usage.

    ``trace_memory=True`` enables ``tracemalloc``, which gives precise Python
    heap peaks but slows execution noticeably; the end-to-end benchmarks turn
    it on for *both* compared systems so the overhead cancels out, while the
    executor's routine bookkeeping keeps it off.

    Example::

        with ResourceMonitor(trace_memory=True) as monitor:
            run_pipeline()
        print(monitor.report.wall_time_s)
    """

    def __init__(self, trace_memory: bool = False):
        self.trace_memory = trace_memory
        self.report: ResourceReport | None = None
        self._start_time = 0.0
        self._started_tracing = False

    def __enter__(self) -> "ResourceMonitor":
        if self.trace_memory:
            self._started_tracing = not tracemalloc.is_tracing()
            if self._started_tracing:
                tracemalloc.start()
            tracemalloc.reset_peak()
        self._start_time = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc_value, traceback) -> None:
        wall_time = time.perf_counter() - self._start_time
        if self.trace_memory:
            current, peak = tracemalloc.get_traced_memory()
            if self._started_tracing:
                tracemalloc.stop()
        else:
            current, peak = 0, 0
        max_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        self.report = ResourceReport(
            wall_time_s=wall_time,
            peak_python_mb=peak / (1024 * 1024),
            current_python_mb=current / (1024 * 1024),
            max_rss_mb=max_rss_kb / 1024,
        )


class _Tracking:
    """Mutable handle yielded by :meth:`RunProfiler.track`.

    The caller sets :attr:`rows_out` before the ``with`` block ends; rows are
    only accumulated when it did (an aborted call still accounts its time).
    """

    __slots__ = ("rows_out",)

    def __init__(self) -> None:
        self.rows_out: int | None = None


class RunProfiler:
    """Accumulate per-operator execution metrics across calls and shards.

    One profiler lives for one executor run.  Operators are keyed by object
    identity, so an operator touched many times (once per shard in streaming
    mode, or a Deduplicator's hash stage plus its global step) aggregates
    into a single :class:`~repro.core.report.OpReport` section, in first-touch
    (= pipeline) order.

    Wall time is host wall-clock for calls timed with :meth:`track` (host-side
    ops).  Ops a segment ran are accounted with :meth:`record` instead: their
    time is the *sum of the op seconds measured around each chunk*, where the
    chunk ran — compute only, so it can exceed the run's wall time at
    ``np > 1`` and never hides the dispatch round trip (that is the report's
    ``parallel.dispatch_s``).
    ``max_rss_mb`` is the host process's peak RSS observed after any call of
    the op.
    """

    def __init__(self) -> None:
        self._profiles: dict[int, OpReport] = {}

    def profile_for(self, op: Any) -> OpReport:
        """Return (creating on first touch) the profile of an operator."""
        key = id(op)
        if key not in self._profiles:
            from repro.core.base_op import op_category

            self._profiles[key] = OpReport(name=op.name, op_type=op_category(op))
        return self._profiles[key]

    @contextmanager
    def track(self, op: Any, rows_in: int) -> Iterator[_Tracking]:
        """Time one executed call of ``op`` over ``rows_in`` input rows.

        Usage::

            with profiler.track(op, rows_in=len(dataset)) as tracking:
                dataset = op.run(dataset)
                tracking.rows_out = len(dataset)
        """
        profile = self.profile_for(op)
        tracking = _Tracking()
        start = time.perf_counter()
        try:
            yield tracking
        finally:
            profile.wall_time_s += time.perf_counter() - start
            profile.calls += 1
            profile.max_rss_mb = max(profile.max_rss_mb, max_rss_mb())
            if tracking.rows_out is not None:
                profile.rows_in += rows_in
                profile.rows_out += tracking.rows_out

    def record(
        self, op: Any, seconds: float, rows_in: int | None = None, rows_out: int | None = None
    ) -> None:
        """Account one call measured elsewhere (inside a segment's chunks).

        Without rows only the seconds count: a Deduplicator's hashing has no
        row verdict and is no call of its own — its call, and its rows, are
        the global step's (timed with :meth:`track`).
        """
        profile = self.profile_for(op)
        profile.wall_time_s += seconds
        profile.max_rss_mb = max(profile.max_rss_mb, max_rss_mb())
        if rows_out is not None:
            profile.calls += 1
            profile.rows_in += rows_in
            profile.rows_out += rows_out

    def record_cached(self, op: Any, rows_out: int) -> None:
        """Account a call answered entirely from the cache (op never ran)."""
        del rows_out  # the operator never saw these rows; only count the call
        self.profile_for(op).cached_calls += 1

    def reports(self) -> list[OpReport]:
        """Per-op sections in first-touch (pipeline) order."""
        return list(self._profiles.values())


def time_call(function, *args, **kwargs) -> tuple[float, object]:
    """Return (elapsed_seconds, result) of calling ``function``."""
    start = time.perf_counter()
    result = function(*args, **kwargs)
    return time.perf_counter() - start, result
