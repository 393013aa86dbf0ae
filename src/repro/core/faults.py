"""Fault tolerance: error policies, retry/backoff, quarantine and accounting.

A production corpus run must survive three failure classes that a clean-room
benchmark never sees: *poison rows* (one malformed record crashing an
operator), *transient faults* (an op or I/O path that succeeds on retry) and
*infrastructure faults* (a worker process dying or hanging mid-dispatch).
This module provides the shared vocabulary every engine path uses to contain
them:

* :class:`ErrorPolicy` — the user-facing knob set (``on_error`` =
  ``raise`` | ``skip`` | ``quarantine``, plus ``max_retries`` / ``backoff_s``
  / ``task_timeout_s`` / ``max_pool_rebuilds``), threaded from
  :class:`repro.core.config.RecipeConfig` through the fluent API, the CLI and
  both executors.
* :func:`run_op_with_policy` — the verdict on one failing op of a segment
  (a Mapper, a Filter or a Deduplicator's hashing): retry with capped
  exponential backoff, then (under a lenient policy) per-row isolation so
  one poison row never takes its batch down.
* :func:`run_segment_with_policy` — the same contract for a whole run of ops
  applied chunk by chunk (:mod:`repro.core.segment`), in the worker pool or
  in-process: the op a chunk reports as failing re-enters
  :func:`run_op_with_policy` with that failure as its first attempt.
* :func:`retry_call` — the retry loop of the stages outside every op (a
  streaming shard's local work, the global step); the caller gives the verdict.
* :class:`QuarantineWriter` — the ``quarantine-00001.jsonl.gz`` export of
  dropped rows (payload + op name + exception repr + shard id + row index).
* :class:`FaultTracker` — the counters behind the report's ``faults``
  section; every retry, rebuild, quarantine and degradation is accounted.

Operators are lint-certified pure functions of their config (see
``docs/linting.md``), which is what makes retrying and per-row replay safe:
re-running an op over the same rows cannot produce different results or
observable side effects.
"""

from __future__ import annotations

import logging
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Iterable

from repro.core.base_op import Deduplicator, Filter, Mapper
from repro.core.dataset import NestedDataset, _stable_hash
from repro.core.errors import ConfigError, OpExecutionError
from repro.core.monitor import RunProfiler
from repro.core.sample import get_field
from repro.core.segment import run_dataset_segment
from repro.core.serialization import JsonSanitizer
from repro.core.tracer import segment_examples

logger = logging.getLogger(__name__)

#: the legal values of ``on_error`` (recipe key / ``--on-error`` flag)
ERROR_POLICIES = ("raise", "skip", "quarantine")

#: upper bound on any single backoff sleep, so exponential growth stays sane
BACKOFF_CAP_S = 2.0

#: bounded length of the tracker's detailed event log
MAX_FAULT_EVENTS = 50

#: how many rows the failing-row probe inspects before giving up
ROW_PROBE_LIMIT = 2048


class DegradedExecutionWarning(UserWarning):
    """Issued when the worker pool gives up on parallelism and runs serial.

    Emitted after ``max_pool_rebuilds`` pool reconstructions failed to
    produce a healthy pool: the run continues in-process instead of
    aborting, at serial speed.
    """


@dataclass(frozen=True)
class ErrorPolicy:
    """How the engines react to operator and worker failures.

    The default (``raise`` with zero retries and no dispatch timeout) is the
    exact historical behaviour: the first error aborts the run, and pool
    dispatches block indefinitely.  Every field maps 1:1 onto a
    :class:`repro.core.config.RecipeConfig` key of the same name.
    """

    #: ``raise`` aborts on persistent failure; ``skip`` drops the failing
    #: rows/shards; ``quarantine`` drops them *and* writes them to the
    #: quarantine export for inspection and replay
    on_error: str = "raise"
    #: retries per failing unit (op call, row, shard) before the policy verdict
    max_retries: int = 0
    #: base of the capped exponential backoff between retries (seconds)
    backoff_s: float = 0.05
    #: per-dispatch worker-pool timeout; ``None`` blocks forever (no
    #: supervision, zero overhead) — a dead or hung worker is detected only
    #: when this is set
    task_timeout_s: float | None = None
    #: pool reconstructions before degrading to serial in-parent execution
    max_pool_rebuilds: int = 2

    def __post_init__(self) -> None:
        if self.on_error not in ERROR_POLICIES:
            raise ConfigError(
                f"on_error must be one of {ERROR_POLICIES}, got {self.on_error!r}"
            )

    @property
    def lenient(self) -> bool:
        """True when persistent failures drop data instead of aborting."""
        return self.on_error != "raise"

    def backoff(self, attempt: int) -> float:
        """Backoff delay before retry number ``attempt`` (0-based), capped."""
        if self.backoff_s <= 0:
            return 0.0
        return min(self.backoff_s * (2 ** attempt), BACKOFF_CAP_S)

    def sleep(self, attempt: int) -> None:
        """Sleep the capped exponential backoff for retry ``attempt``."""
        delay = self.backoff(attempt)
        if delay > 0:
            time.sleep(delay)

    @classmethod
    def from_config(cls, config: Any) -> "ErrorPolicy":
        """Build the policy from any object carrying the recipe's fault keys."""
        return cls(
            on_error=getattr(config, "on_error", "raise"),
            max_retries=int(getattr(config, "max_retries", 0)),
            backoff_s=float(getattr(config, "backoff_s", 0.05)),
            task_timeout_s=getattr(config, "task_timeout_s", None),
            max_pool_rebuilds=int(getattr(config, "max_pool_rebuilds", 2)),
        )

    def as_dict(self) -> dict:
        """Plain-dict view (embedded in the report's ``faults`` section)."""
        return {
            "on_error": self.on_error,
            "max_retries": self.max_retries,
            "backoff_s": self.backoff_s,
            "task_timeout_s": self.task_timeout_s,
            "max_pool_rebuilds": self.max_pool_rebuilds,
        }


class FaultTracker:
    """Mutable per-run accounting of every fault-tolerance action.

    One tracker lives for the duration of one executor run; its
    :meth:`as_dict` becomes the ``faults`` section of the
    :class:`repro.core.report.RunReport`.  The worker pool shares the same
    instance (via ``WorkerPool.fault_tracker``) so pool rebuilds and
    degradations land in the same ledger as row quarantines.
    """

    def __init__(self) -> None:
        #: retry attempts across every granularity (op call, row, shard)
        self.retries = 0
        #: worker-pool reconstructions after a dead/hung-worker detection
        self.pool_rebuilds = 0
        #: times an engine gave up on an op or on parallelism and continued
        self.degradations = 0
        #: rows dropped to the quarantine export
        self.quarantined_rows = 0
        #: rows silently dropped under ``on_error=skip``
        self.skipped_rows = 0
        #: whole shards dropped (to quarantine or skipped) in streaming mode
        self.quarantined_shards = 0
        #: op name -> number of exceptions observed from that op
        self.op_errors: dict[str, int] = {}
        #: bounded detail log of individual fault events
        self.events: list[dict] = []

    # ------------------------------------------------------------------
    @property
    def total_faults(self) -> int:
        """Monotonic sum of every counter — cheap change detection.

        The executors snapshot this before an op and skip the cache save
        when it moved: results shaped by fault handling must never poison
        the clean-run cache.
        """
        return (
            self.retries
            + self.pool_rebuilds
            + self.degradations
            + self.quarantined_rows
            + self.skipped_rows
            + self.quarantined_shards
            + sum(self.op_errors.values())
        )

    def _event(self, kind: str, detail: str, **extra: Any) -> None:
        if len(self.events) < MAX_FAULT_EVENTS:
            self.events.append({"kind": kind, "detail": detail, **extra})

    # ------------------------------------------------------------------
    def record_op_error(
        self, op_name: str, error: BaseException, shard_id: str | None = None
    ) -> None:
        """Account one exception raised by (or while running) ``op_name``."""
        self.op_errors[op_name] = self.op_errors.get(op_name, 0) + 1
        self._event("op_error", repr(error), op=op_name, shard=shard_id)

    def record_retry(self, op_name: str, shard_id: str | None = None) -> None:
        """Account one retry attempt for ``op_name``."""
        self.retries += 1
        self._event("retry", f"retrying {op_name}", op=op_name, shard=shard_id)

    def record_rebuild(self, detail: str) -> None:
        """Account one worker-pool reconstruction."""
        self.pool_rebuilds += 1
        self._event("pool_rebuild", detail)

    def record_degradation(self, detail: str) -> None:
        """Account one degradation (op skipped, or pool fell back to serial)."""
        self.degradations += 1
        self._event("degradation", detail)
        logger.warning("degraded execution: %s", detail)

    def record_dropped_rows(
        self, op_name: str, count: int, quarantined: bool, shard_id: str | None = None
    ) -> None:
        """Account rows dropped by the policy (quarantined or skipped)."""
        if quarantined:
            self.quarantined_rows += count
        else:
            self.skipped_rows += count
        self._event(
            "quarantine_rows" if quarantined else "skip_rows",
            f"{count} row(s) dropped at {op_name}",
            op=op_name,
            shard=shard_id,
        )

    def record_dropped_shard(self, shard_id: str | None, rows: int) -> None:
        """Account one whole shard dropped after persistent failure."""
        self.quarantined_shards += 1
        self._event("quarantine_shard", f"shard dropped ({rows} rows)", shard=shard_id)

    # ------------------------------------------------------------------
    def as_dict(self) -> dict:
        """JSON-safe view — the ``faults`` section of the run report."""
        return {
            "retries": self.retries,
            "pool_rebuilds": self.pool_rebuilds,
            "degradations": self.degradations,
            "quarantined_rows": self.quarantined_rows,
            "skipped_rows": self.skipped_rows,
            "quarantined_shards": self.quarantined_shards,
            "op_errors": dict(self.op_errors),
            "events": list(self.events),
        }


class QuarantineWriter:
    """Rolling ``quarantine-00001.jsonl.gz`` export of policy-dropped rows.

    Each line is one JSON entry: the row payload plus the op name, the
    exception repr, the shard id and the row index within its shard/dataset,
    which is everything needed to replay the failure with
    ``--on-error raise``.  Files roll at ``rows_per_file`` entries with the
    same numbered naming scheme as output shards, and are written through the
    deterministic gzip writer so identical failures produce identical bytes.
    """

    FILE_TEMPLATE = "quarantine-{index:05d}.jsonl.gz"

    def __init__(self, directory: str | Path, rows_per_file: int = 10000):
        self.directory = Path(directory)
        self.rows_per_file = rows_per_file
        #: quarantine files written so far, in order
        self.paths: list[Path] = []
        #: total entries written
        self.count = 0
        self._handle: Any = None
        self._rows_in_file = 0
        self._sanitizer = JsonSanitizer()

    def _roll(self) -> None:
        from repro.formats.sharded import open_shard

        if self._handle is not None:
            self._handle.close()
        self.directory.mkdir(parents=True, exist_ok=True)
        path = self.directory / self.FILE_TEMPLATE.format(index=len(self.paths) + 1)
        self._handle = open_shard(path, "w")
        self._rows_in_file = 0
        self.paths.append(path)

    def write(
        self,
        row: dict,
        op_name: str,
        error: BaseException | str,
        shard_id: str | None = None,
        row_index: int | None = None,
    ) -> None:
        """Append one dropped row with its full failure context."""
        if self._handle is None or self._rows_in_file >= self.rows_per_file:
            self._roll()
        entry = {
            "op": op_name,
            "error": error if isinstance(error, str) else repr(error),
            "shard": shard_id,
            "row_index": row_index,
            "row": row,
        }
        self._handle.write(self._sanitizer.dumps(entry, ensure_ascii=False) + "\n")
        self._rows_in_file += 1
        self.count += 1

    def write_rows(
        self,
        rows: Iterable[dict],
        op_name: str,
        error: BaseException | str,
        shard_id: str | None = None,
    ) -> int:
        """Append every row of a dropped shard; returns the count written."""
        written = 0
        for index, row in enumerate(rows):
            self.write(row, op_name, error, shard_id=shard_id, row_index=index)
            written += 1
        return written

    def close(self) -> None:
        """Flush and close the current quarantine file (idempotent)."""
        if self._handle is not None:
            self._handle.close()
            self._handle = None
        self._sanitizer.warn("quarantine export")


# ----------------------------------------------------------------------
# Policy-aware op execution
# ----------------------------------------------------------------------
def describe_failure(
    op_name: str,
    error: BaseException,
    shard_id: str | None = None,
    row_index: int | None = None,
) -> str:
    """One-line failure message carrying op name, shard id and row index."""
    where = f"operator {op_name!r}"
    if shard_id is not None:
        where += f" on shard {shard_id}"
    message = f"{where} failed: {error!r}"
    if row_index is not None:
        message += f" (first failing row index: {row_index})"
    return message + (
        "; reproduce with --on-error raise"
        + (" on this shard's input" if shard_id is not None else "")
    )


def _probe_failing_row(op: Any, dataset: NestedDataset) -> int | None:
    """Index of the first row whose per-row execution fails, or ``None``.

    Only used on the fatal (``raise``) path to enrich the error message;
    bounded by :data:`ROW_PROBE_LIMIT` so a batched-only failure over a huge
    dataset cannot stall the abort.
    """
    limit = min(len(dataset), ROW_PROBE_LIMIT)
    for index in range(limit):
        try:
            _run_single_row(op, dict(dataset[index]))
        except Exception:
            return index
    return None


def _run_single_row(op: Any, row: dict) -> tuple[bool, dict]:
    """One row through a Mapper, a Filter or a Deduplicator's hashing: ``(keep, row_out)``."""
    if isinstance(op, Mapper):
        return True, op.process(row)
    if isinstance(op, Filter):
        row = op.compute_stats(row)
        return bool(op.process(row)), row
    return True, op.compute_hash(row)


def _isolate_rows(
    op: Any,
    dataset: NestedDataset,
    policy: ErrorPolicy,
    tracker: FaultTracker,
    quarantine: QuarantineWriter | None,
    shard_id: str | None = None,
    trace_num: int = 0,
) -> tuple[NestedDataset, list]:
    """Re-run a failed segment op row by row, dropping only poison rows.

    Every batched stage has an equivalence-tested per-row fallback, so
    replaying the batch one row at a time is semantically identical —
    surviving rows keep their order, and only the rows that themselves raise
    (after ``max_retries`` per-row retries) are dropped or quarantined.  The
    output fingerprint is salted with the dropped indices so downstream cache
    keys can never collide with a clean run's.  The trace entry covers the
    rows the op ran on (not the poison rows), found from their own verdicts;
    a Deduplicator's hashing has none (its global step traces the op).
    """
    quarantined = policy.on_error == "quarantine"
    survivors: list[dict] = []
    dropped: list[int] = []
    found: list[tuple] = []
    for index in range(len(dataset)):
        row_in = dict(dataset[index])
        text = get_field(row_in, op.text_key, "")
        try:
            keep, row_out = retry_call(
                lambda: _run_single_row(op, dict(row_in)), policy, tracker, op.name, shard_id
            )
        except Exception as error:
            dropped.append(index)
            tracker.record_dropped_rows(op.name, 1, quarantined, shard_id)
            if quarantine is not None and quarantined:
                quarantine.write(row_in, op.name, error, shard_id=shard_id, row_index=index)
            continue
        healthy, edited = index - len(dropped), get_field(row_out, op.text_key, "")
        if len(found) < trace_num and not keep:
            found.append((healthy, row_out))
        elif len(found) < trace_num and edited != text:
            found.append((healthy, text, edited))
        if keep:
            survivors.append(row_out)
    hashing = isinstance(op, Deduplicator)
    # a hashing stage stamps no link of its own: the global step does
    fingerprint = dataset.fingerprint if hashing else dataset.derive_fingerprint(
        op.name, op.config()
    )
    if dropped:
        fingerprint = _stable_hash({"parent": fingerprint, "fault_dropped": dropped})
    result = NestedDataset.from_list(survivors, fingerprint=fingerprint)
    if hashing:
        return result, []
    healthy = len(dataset) - len(dropped)
    examples = segment_examples(op, [(healthy, len(result), 0.0, found)])
    return result, [(op, healthy, len(result), examples)]


def run_op_with_policy(
    op: Any,
    dataset: NestedDataset,
    policy: ErrorPolicy,
    tracker: FaultTracker,
    profiler: RunProfiler,
    quarantine: QuarantineWriter | None = None,
    pool: Any = None,
    shard_id: str | None = None,
    first_error: BaseException | None = None,
    trace_num: int = 0,
) -> tuple[NestedDataset, list]:
    """Run one segment op (a Mapper, a Filter or a Deduplicator's hashing) under the policy.

    An attempt is the segment of this one op (:func:`_dispatch_segment`, in
    the workers of ``pool`` when it holds the op, else here).  On failure it
    is retried ``max_retries`` times with capped exponential backoff; a
    persistent failure then either aborts with a fully-contextualised
    :class:`repro.core.errors.OpExecutionError` (``raise``), or under a
    lenient policy falls back to per-row isolation (:func:`_isolate_rows`).

    ``first_error`` is a failure of this op over this dataset that already
    happened inside a segment (in a pool worker or in-process): it is
    recorded and counted as the first attempt instead of running the op.
    Returns the output and its trace entries ``(op, rows in, rows out,
    examples)``, at most ``trace_num`` examples each; the op's rows and
    seconds go to ``profiler``.
    """
    attempt = 0
    error = first_error
    while True:
        if error is None:
            result, trace, failure = _dispatch_segment([op], dataset, pool, profiler, trace_num)
            if failure is None:
                return result, trace
            error = failure[1]
        tracker.record_op_error(op.name, error, shard_id)
        if attempt < policy.max_retries:
            tracker.record_retry(op.name, shard_id)
            policy.sleep(attempt)
            attempt += 1
            error = None
            continue
        if not policy.lenient:
            row_index = _probe_failing_row(op, dataset)
            raise OpExecutionError(
                describe_failure(op.name, error, shard_id, row_index),
                op_name=op.name,
                shard_id=shard_id,
                row_index=row_index,
            ) from error
        logger.warning("operator %r failed persistently (%r); isolating rows", op.name, error)
        start = time.perf_counter()
        result, trace = _isolate_rows(op, dataset, policy, tracker, quarantine, shard_id, trace_num)
        rows = () if isinstance(op, Deduplicator) else (len(dataset), len(result))
        profiler.record(op, time.perf_counter() - start, *rows)
        return result, trace


def _dispatch_segment(
    ops: list, dataset: NestedDataset, pool: Any, profiler: Any, trace_num: int
) -> tuple[NestedDataset | None, list, tuple[int, BaseException] | None]:
    """One attempt at a segment: ``(result, trace, None)`` or ``(None, [], failure)``.

    ``failure`` is ``(op index, exception)`` of the earliest failing op —
    what a serial run would have hit first.  Per-op rows and seconds,
    measured where the ops ran, reach the profiler only when the whole
    segment succeeded, so a replay after a failure never counts a row twice.
    ``trace`` holds an entry per Mapper/Filter: rows in and out, and examples
    built lazily from the chunks' records, so a Filter row's stats are
    completed only if a reservoir takes it.  A closing Deduplicator only
    hashed: its rows, its call and its trace entry are the global step's.
    """
    result, per_chunk, failure = run_dataset_segment(ops, dataset, pool, trace_num)
    if failure is not None:
        return None, [], failure
    trace = []
    for index, op in enumerate(ops):
        records = [chunk[index] for chunk in per_chunk]
        seconds = sum((record[2] for record in records), 0.0)
        if isinstance(op, Deduplicator):
            profiler.record(op, seconds)
            continue
        rows_in = sum(record[0] for record in records)
        rows_out = sum(record[1] for record in records)
        profiler.record(op, seconds, rows_in, rows_out)
        trace.append((op, rows_in, rows_out, segment_examples(op, records)))
    return result, trace, None


def run_segment_with_policy(
    ops: list,
    dataset: NestedDataset,
    pool: Any,
    policy: ErrorPolicy,
    tracker: FaultTracker,
    quarantine: QuarantineWriter | None,
    profiler: Any,
    shard_id: str | None = None,
    trace_num: int = 0,
) -> tuple[NestedDataset, list]:
    """Run a segment under the error policy: one task per chunk, not per op.

    ``ops`` is a run of Mappers/Filters, optionally closed by a Deduplicator
    whose hashing stage is part of the segment; the chunks run in the workers
    of ``pool`` (which holds every op) or, with ``pool`` ``None``, in the
    calling process — the same :func:`repro.core.segment.run_segment` either
    way.  The hashed dataset comes back for the caller's global step.  The
    output carries the chained fingerprint of the ops, equal to what running
    them one by one would stamp.  It comes back with the trace entries of
    the ops it ran (see :func:`_dispatch_segment`), built by the segment.

    Faults keep the per-op contract.  When op *k* fails, the dataset entering
    it is rebuilt by replaying ops ``< k`` (pure, and fault-free on this
    input), op *k* goes through :func:`run_op_with_policy` with the reported
    failure as its first attempt — retries, error context, row isolation and
    quarantine payloads do not depend on where the chunks ran — and the rest
    of the segment is run again from its output.
    """
    trace: list = []
    while ops:
        result, done, failure = _dispatch_segment(ops, dataset, pool, profiler, trace_num)
        if failure is None:
            return result, trace + done
        failed_at, error = failure
        if failed_at:
            dataset, done = run_segment_with_policy(
                ops[:failed_at], dataset, pool, policy, tracker, quarantine,
                profiler, shard_id, trace_num,
            )
            trace += done
        dataset, done = run_op_with_policy(
            ops[failed_at], dataset, policy, tracker, profiler, quarantine,
            pool, shard_id, error, trace_num,
        )
        trace += done
        ops = ops[failed_at + 1:]
    return dataset, trace


def retry_call(
    function: Any,
    policy: ErrorPolicy,
    tracker: FaultTracker,
    op_name: str,
    shard_id: str | None = None,
) -> Any:
    """Call ``function()`` with the policy's retry/backoff loop.

    The one retry loop of the non-op engine stages (a streaming shard's local
    work, the global resolve): retry first, verdict after — the final failure
    is re-raised unwrapped, so the caller applies its own policy verdict.  An
    :class:`OpExecutionError` is a verdict the per-op layer already reached
    and passes straight through.
    """
    attempt = 0
    while True:
        try:
            return function()
        except OpExecutionError:
            raise
        except Exception as error:
            tracker.record_op_error(op_name, error, shard_id)
            if attempt >= policy.max_retries:
                raise
            tracker.record_retry(op_name, shard_id)
            policy.sleep(attempt)
            attempt += 1


__all__ = [
    "BACKOFF_CAP_S",
    "DegradedExecutionWarning",
    "ERROR_POLICIES",
    "ErrorPolicy",
    "FaultTracker",
    "MAX_FAULT_EVENTS",
    "QuarantineWriter",
    "describe_failure",
    "retry_call",
    "run_op_with_policy",
    "run_segment_with_policy",
]
