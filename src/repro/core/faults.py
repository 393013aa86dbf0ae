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
* :func:`run_segment_with_policy` — the verdict on a run of ops applied
  chunk by chunk (:mod:`repro.core.segment`), in the worker pool or
  in-process.  A fault costs its chunk, not the dataset: chunks that ran
  clean keep their output, and a failed chunk is contained in the calling
  process, through the same :func:`repro.core.segment.run_segment` a clean
  run uses.
* :func:`retry_call` — the retry loop of the stages outside every op (a
  streaming shard's local work, the global step); the caller gives the verdict.
* :class:`QuarantineWriter` — the ``quarantine-00001.jsonl.gz`` export of
  dropped rows (payload + op name + exception repr + shard id + row index).
* :class:`FaultTracker` — the counters behind the report's ``faults``
  section; every retry, rebuild, quarantine and degradation is accounted.

The containment contract, at every ``np``:

* **What a retry re-runs.**  A failed chunk is re-sliced by position from
  the segment's input and the whole segment reruns over it, ``max_retries``
  times.  If it still fails it is halved by position and each half reruns
  the segment once; a failing half is halved again, and only a failing
  one-row piece gets ``max_retries`` retries of its own and a ledger entry.
* **Verdicts.**  ``raise`` names the earliest op a chunk still fails at, with
  that chunk's error, and the chunk's first one-row piece failing there (none
  for a one-shot fault).  ``skip`` / ``quarantine`` drop exactly the one-row
  pieces that still fail; every other row keeps its output.
* **``row_index``** is a row's position in the input of the op it failed
  in, over the whole dataset or shard the segment ran on: the rows earlier
  ones dropped (by a Filter, or by a fault) before that op do not count.
* **Quarantine order** is segment-input order.  An entry carries the op the
  row failed in and the row as it entered that op.

Operators are lint-certified pure functions of their config (see
``docs/linting.md``), which is what makes a retry safe and a piece's rows
equal to the same rows run in their chunk: rerunning a segment over the same
rows cannot produce different results or observable side effects.  So the
healthy rows of a faulted run come out byte-identical to a clean run's.
"""

from __future__ import annotations

import logging
import time
from dataclasses import dataclass
from itertools import count
from pathlib import Path
from typing import Any, Iterable, Iterator

from repro.core.base_op import Deduplicator
from repro.core.batch import batch_length, batch_to_rows
from repro.core.dataset import NestedDataset
from repro.core.errors import ConfigError, OpExecutionError
from repro.core.sample import Fields, fold_stats
from repro.core.segment import entered, run_chunks, run_dataset_segment, segment_output
from repro.core.serialization import JsonSanitizer
from repro.core.tracer import segment_examples

logger = logging.getLogger(__name__)

#: the legal values of ``on_error`` (recipe key / ``--on-error`` flag)
ERROR_POLICIES = ("raise", "skip", "quarantine")

#: upper bound on any single backoff sleep, so exponential growth stays sane
BACKOFF_CAP_S = 2.0

#: bounded length of the tracker's detailed event log
MAX_FAULT_EVENTS = 50

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
    A row's stats show folded into one ``__stats__`` dict; with
    ``empty_stats`` (the run reads a file) a row with none shows ``{}``.
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
        self.empty_stats = False

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
        row = fold_stats(row)
        if self.empty_stats and Fields.stats not in row:
            row = {**row, Fields.stats: {}}
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
# Policy-aware segment execution
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


def _contain(
    ops: list,
    dataset: NestedDataset,
    size: int,
    outcomes: list,
    policy: ErrorPolicy,
    tracker: FaultTracker,
    quarantine: QuarantineWriter | None,
    shard_id: str | None,
    trace_num: int,
) -> list:
    """Apply the policy to a segment that had failed chunks, as the module
    docstring sets out: the piece outcomes it keeps, in order.  A dropped
    row's failed one-row outcome stays in the list: the ops before its
    failure did run on it."""

    def settle(chunk: dict, outcome: tuple | None = None) -> tuple:
        # the chunk's outcome once the segment ran clean on it or its retries
        # ran out; ``outcome`` is its first run, if it had one
        for attempt in count():
            if outcome is None:
                (outcome,) = run_chunks(ops, [chunk], trace_num)
            if outcome[2] is None:
                return outcome
            op_name = ops[outcome[2][0]].name
            tracker.record_op_error(op_name, outcome[2][1], shard_id)
            if attempt == policy.max_retries:
                logger.warning("operator %r failed persistently: %r", op_name, outcome[2][1])
                return outcome
            tracker.record_retry(op_name, shard_id)
            policy.sleep(attempt)
            outcome = None

    def search(chunk: dict, outcome: tuple) -> Iterator[tuple]:
        # ``chunk``'s outcome if it ran clean or is one row, else its halves',
        # each run once and searched alike (a lenient policy settles a one-row half)
        if outcome[2] is None or batch_length(chunk) == 1:
            yield outcome
            return
        for half in NestedDataset(chunk, "segment").iter_batches((batch_length(chunk) + 1) // 2):
            (piece,) = run_chunks(ops, [half], trace_num)
            if policy.lenient and batch_length(half) == 1:
                piece = settle(half, piece)
            yield from search(half, piece)

    quarantined = policy.on_error == "quarantine"
    pieces: list = []
    rows_in = [0] * len(ops)  # rows that entered each op over the pieces so far
    fatal = None  # the earliest persistent failure: (failure, chunk, outcome, rows before it)
    for chunk, outcome in zip(dataset.iter_batches(size), outcomes):
        outcome = settle(chunk, outcome)
        failure = outcome[2]
        found: Iterable[tuple] = [outcome]
        if failure is None or policy.lenient:
            found = search(chunk, outcome)
        elif fatal is None or failure[0] < fatal[0][0]:
            fatal = (failure, chunk, outcome, rows_in[failure[0]])
        for piece in found:
            if piece[2] is not None and policy.lenient:
                op_index, error = piece[2]
                op_name = ops[op_index].name
                tracker.record_dropped_rows(op_name, 1, quarantined, shard_id)
                if quarantine is not None and quarantined:
                    (row,) = batch_to_rows(piece[0])
                    quarantine.write(
                        row, op_name, error, shard_id=shard_id, row_index=rows_in[op_index]
                    )
            for op_index in range(len(ops)):
                rows_in[op_index] += entered(piece, op_index)
            pieces.append(piece)
    if fatal is None:
        return pieces
    (op_index, error), chunk, outcome, row_index = fatal
    # the first one-row piece of the chunk that fails at that op, by its index in the op's input
    for piece in search(chunk, outcome):
        if piece[2] is not None and piece[2][0] == op_index:
            break
        row_index += entered(piece, op_index)
    else:
        row_index = None
    op_name = ops[op_index].name
    raise OpExecutionError(
        describe_failure(op_name, error, shard_id, row_index),
        op_name=op_name,
        shard_id=shard_id,
        row_index=row_index,
    ) from error


def _account(ops: list, outcomes: list, profiler: Any) -> list:
    """Each op's rows and seconds over the kept chunk outcomes, to
    ``profiler``; returns a trace entry ``(op, rows in, rows out, examples)``
    per Mapper/Filter, the examples built lazily from the chunks' records.
    A closing Deduplicator only hashed: its rows, its call and its trace
    entry are the global step's."""
    trace = []
    for index, op in enumerate(ops):
        records = [chunk[index] for _, chunk, _ in outcomes if index < len(chunk)]
        seconds = sum((record[2] for record in records), 0.0)
        if isinstance(op, Deduplicator):
            profiler.record(op, seconds)
            continue
        rows_in = sum(record[0] for record in records)
        rows_out = sum(record[1] for record in records)
        profiler.record(op, seconds, rows_in, rows_out)
        trace.append((op, rows_in, rows_out, segment_examples(op, records)))
    return trace


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
) -> tuple[NestedDataset, list[int] | None, list]:
    """Run a segment under the error policy: one task per chunk, not per op.

    ``ops`` is a run of Mappers/Filters, optionally closed by a Deduplicator
    whose hashing stage is part of the segment; the chunks run in the workers
    of ``pool`` (which holds every op) or, with ``pool`` ``None``, in the
    calling process — the same :func:`repro.core.segment.run_segment` either
    way.  A failed chunk is contained in this process (:func:`_contain`), so
    a fault adds no pool task.  The hashed dataset comes back for the
    caller's global step, with the chained fingerprint of the ops (salted by
    the rows the policy dropped), its rows' positions in ``dataset`` and the
    trace entries of :func:`_account`.
    """
    size, outcomes = run_dataset_segment(ops, dataset, pool, trace_num)
    if any(failure is not None for _batch, _records, failure in outcomes):
        outcomes = _contain(
            ops, dataset, size, outcomes, policy, tracker, quarantine, shard_id, trace_num
        )
    output, positions = segment_output(ops, dataset, outcomes)
    return output, positions, _account(ops, outcomes, profiler)


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
    :class:`OpExecutionError` is a verdict the segment layer already reached
    and passes straight through.
    """
    for attempt in count():
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
    "run_segment_with_policy",
]
