"""Worker-side entry points of the parallel engine.

Every function here runs inside a pool worker process.  The module keeps the
instantiated operator list in a process-global so that a worker pays operator
construction (and asset loading: stop-word tables, flagged-word lists, the
unigram LM) exactly once, at pool start-up, instead of once per dispatched
task — the root cause of the Figure-10 regression in the original fork-per-run
implementation.

Tasks are small tuples ``(kind, op_ref, payload)``; operators are referenced
by index into the worker-resident list — or, for fused filters assembled
after pool construction, by a *tuple* of member indices (the worker builds
and caches an equivalent ``FusedFilter`` over its resident members).  There
are two kinds, both over one column batch (``dict[str, list]``).  The engines
dispatch ``"segment"`` tasks: several op references plus a batch that
:func:`run_segment` drives through every op in order, so a chunk crosses the
process boundary once per segment.  ``"filter_cols_full"`` is a traced
Filter's pass, returning every row's stats plus the keep flags.

Every task returns ``(payload, cpu_seconds, pid)`` where ``cpu_seconds`` is
the CPU time this worker spent executing the operator code
(:func:`time.process_time`), excluding IPC serialisation, and ``pid`` is the
process id of the worker that actually executed the task.  Callers use the
CPU time to attribute cost to simulated cluster nodes independently of how
the host OS multiplexes the workers onto physical cores, and the pid as
direct evidence that the work really ran out-of-process in a pool worker.
"""

from __future__ import annotations

import math
import os
import pickle
import time
from typing import Any, Sequence

from repro.core.base_op import Deduplicator, Filter, Mapper
from repro.core.batch import batch_concat, batch_length
from repro.core.dataset import NestedDataset


class ResidentOps:
    """An op list plus the fused filters assembled over it; task references
    resolve against one: a worker's process-global, or a degraded pool's own
    table in the parent (pools sharing a process never see each other's ops)."""

    def __init__(self, ops: Sequence):
        self.ops = list(ops)
        self._fused: dict[tuple, Any] = {}

    def resolve(self, op_ref: int | tuple) -> Any:
        """Look up a task's operator: an index, or a member-index tuple (fused)."""
        if isinstance(op_ref, tuple):
            fused = self._fused.get(op_ref)
            if fused is None:
                from repro.core.fusion import FusedFilter

                fused = FusedFilter([self.ops[index] for index in op_ref])
                self._fused[op_ref] = fused
            return fused
        return self.ops[op_ref]


#: operator table of this worker process, set once by :func:`initialize_worker`
_RESIDENT: ResidentOps | None = None


def initialize_worker(ops: Sequence | None, process_list: list | None, op_fusion: bool) -> None:
    """Install the operator list in this worker (runs once per worker process).

    Under the ``fork`` start method the parent passes its already-instantiated
    ``ops`` (inherited without pickling).  Under ``spawn``/``forkserver`` the
    parent passes the recipe ``process_list`` instead and each worker
    re-instantiates the operators here, applying the same fusion setting the
    parent used so operator indices line up.
    """
    global _RESIDENT
    if ops is None:
        if process_list is None:
            raise ValueError("worker needs either instantiated ops or a process list")
        from repro.ops import build_ops

        ops = build_ops(process_list, op_fusion=op_fusion)
    _RESIDENT = ResidentOps(ops)
    # warm the shared assets (word lists, unigram LM) so the first dispatched
    # chunk is not billed for lazy loading — see ops.common.preload_assets
    from repro.ops.common import preload_assets

    preload_assets()


def default_chunk_size(num_rows: int, num_workers: int, tasks_per_worker: int = 4) -> int:
    """Chunk size that yields ~``tasks_per_worker`` chunks per worker."""
    if num_rows <= 0:
        return 1
    return max(1, math.ceil(num_rows / max(1, num_workers * tasks_per_worker)))


def _apply_batched(op: Any, batch: dict) -> dict:
    """One op's shard-local stage over a chunk, sliced to the op's batch size.

    Mappers transform, Filters compute stats and drop rejected rows at once
    (the short-circuiting ``filter_batched``), a Deduplicator runs its
    hashing stage only — its clustering is global and stays on the host.
    """
    if isinstance(op, Mapper):
        function = op.process_batched
    elif isinstance(op, Filter):
        def function(part: dict) -> dict:
            return op.filter_batched(part)[0]
    elif isinstance(op, Deduplicator):
        function = op.compute_hash_batched
    else:
        raise TypeError(f"a segment only holds Mappers/Filters/Deduplicators, got {op!r}")
    chunk = NestedDataset(batch, fingerprint="segment")
    if len(chunk) == 0:
        return batch
    return batch_concat(
        [function(part) for part in chunk.iter_batches(op.effective_batch_size(chunk))]
    )


def _portable(error: BaseException) -> BaseException:
    """``error`` if it survives a pickle round trip, else a stand-in that does."""
    try:
        pickle.loads(pickle.dumps(error))
    except Exception:
        return RuntimeError(f"{type(error).__name__}: {error}")
    return error


def run_segment(
    ops: Sequence, batch: dict
) -> tuple[dict | None, list[tuple[int, int, float]], tuple[int, BaseException] | None]:
    """Drive one column batch through ``ops`` in order.

    Returns ``(batch, stats, failure)``: the surviving batch, one
    ``(rows_in, rows_out, seconds)`` triple per completed op, and ``None`` —
    or, when op *k* raised, ``(None, stats of ops < k, (k, exception))`` so
    the host can hand exactly that op to the error policy.  Output equals the
    per-op engine's for per-sample ops, whose results do not depend on batch
    boundaries.
    """
    stats: list[tuple[int, int, float]] = []
    for index, op in enumerate(ops):
        rows_in = batch_length(batch)
        start = time.perf_counter()
        try:
            batch = _apply_batched(op, batch)
        except Exception as error:
            return None, stats, (index, _portable(error))
        stats.append((rows_in, batch_length(batch), time.perf_counter() - start))
    return batch, stats, None


def run_task(task: tuple[str, Any, Any], resident: ResidentOps | None = None) -> tuple[Any, float, int]:
    """Execute one dispatched task against a resident operator table.

    ``resident`` defaults to this worker's table; a degraded pool passes its
    own when it runs tasks in the parent.

    Both kinds carry one column batch (``dict[str, list]``):

    * ``"segment"`` — ``op_ref`` is a tuple of references; see
      :func:`run_segment` for the returned payload.
    * ``"filter_cols_full"`` — stats for *every* row then decision; payload:
      ``(stat_batch, keep_flags)`` (used when a tracer needs rejected rows).

    Returns ``(payload, cpu_seconds, pid)``; the pid identifies the process
    that served the task.
    """
    kind, op_ref, payload_in = task
    resident = resident or _RESIDENT
    if resident is None:
        raise RuntimeError("worker not initialized; WorkerPool must set the op list")
    start_cpu = time.process_time()
    if kind == "segment":
        payload: Any = run_segment([resident.resolve(ref) for ref in op_ref], payload_in)
    elif kind == "filter_cols_full":
        op = resident.resolve(op_ref)
        batch = op.compute_stats_batched(dict(payload_in))
        payload = (batch, op.process_batched(batch))
    else:
        raise ValueError(f"unknown task kind {kind!r}")
    return payload, time.process_time() - start_cpu, os.getpid()
