"""Worker-side entry points of the parallel engine.

Every function here runs inside a pool worker process.  The module keeps the
instantiated operator list in a process-global so that a worker pays operator
construction (and asset loading: stop-word tables, flagged-word lists, the
unigram LM) exactly once, at pool start-up, instead of once per dispatched
task.

Tasks are small tuples ``(kind, op_refs, batch, trace_num)``; operators are referenced
by index into the worker-resident list — or, for fused filters assembled
after pool construction, by a *tuple* of member indices (the worker builds
and caches an equivalent ``FusedFilter`` over its resident members).  There
is one kind, ``"segment"``: several op references plus one column batch
(``dict[str, list]``) that :func:`repro.core.segment.run_segment` — the same
function an ``np = 1`` run calls in-process — drives through every op in
order, so a chunk crosses the process boundary once per segment.

Every task returns ``(payload, cpu_seconds, pid)`` where ``cpu_seconds`` is
the CPU time this worker spent executing the operator code
(:func:`time.process_time`), excluding IPC serialisation, and ``pid`` is the
process id of the worker that actually executed the task.  The pool sums the
CPU time into its ``worker_s`` / ``dispatch_s`` counters (what a run's report
shows under ``parallel``) and keeps the pids as ``last_served_pids``: direct
evidence that the work really ran out-of-process in a pool worker.
"""

from __future__ import annotations

import math
import os
import time
from typing import Any, Sequence

from repro.core.segment import run_segment


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


def run_task(task: tuple[str, tuple, dict, int]) -> tuple[Any, float, int]:
    """Execute one dispatched ``("segment", op_refs, batch, trace_num)`` task here.

    Returns ``(payload, cpu_seconds, pid)``: the ``(batch, records, failure)``
    of :func:`repro.core.segment.run_segment` over the referenced resident
    ops, and the process that served the task.
    """
    kind, op_refs, batch, trace_num = task
    if _RESIDENT is None:
        raise RuntimeError("worker not initialized; WorkerPool must set the op list")
    if kind != "segment":
        raise ValueError(f"unknown task kind {kind!r}")
    return timed_segment([_RESIDENT.resolve(ref) for ref in op_refs], batch, trace_num)


def timed_segment(ops: Sequence, batch: dict, trace_num: int) -> tuple[Any, float, int]:
    """A task's ``(payload, cpu_seconds, pid)`` for ``ops`` over ``batch``, run here
    (in a worker, or in the parent for a degraded pool)."""
    start_cpu = time.process_time()
    payload = run_segment(ops, batch, trace_num)
    return payload, time.process_time() - start_cpu, os.getpid()
