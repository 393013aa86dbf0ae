"""Parallel execution engine: a persistent worker pool for sample-level ops.

This package is the parallel runtime of the core
:class:`~repro.core.executor.Executor` (via the ``np`` recipe knob).  The
design follows the paper's Ray adaptation: sample-level operators (Mappers,
Filters, a Deduplicator's hashing) are embarrassingly parallel over rows, so
they are dispatched as column-batch *chunks* to a pool of long-lived worker
processes, while dataset-level stages (duplicate clustering, Selectors) run
globally on the merged result.

Key properties:

* **Persistent workers** — a :class:`WorkerPool` keeps its processes alive
  across runs; workers are initialized exactly once with the instantiated
  operator list (via a ``Pool`` initializer), so per-run operator construction
  and asset loading costs are paid once, not per task.
* **Segment dispatch** — a ``("segment", op_refs, batch)`` task, the only
  kind, carries one chunk plus references into the worker-resident op list;
  a chunk crosses the process boundary once per pipeline segment, operators
  never do.  What a worker does with it is :func:`repro.core.segment.run_segment`,
  the function a serial run calls in-process: this package decides *where*
  a segment runs, never *how*.
* **Start-method fallback** — ``fork`` is preferred (workers inherit the
  already-instantiated ops and warm asset caches for free); on spawn-only
  platforms workers re-instantiate the ops from the recipe entries inside the
  initializer.
* **Dispatch accounting** — every task reports the CPU time its worker spent
  on it (``time.process_time``) and the worker's pid; the pool keeps the
  ``tasks`` / ``worker_s`` / ``dispatch_s`` counters and the pids that served
  the last dispatch, which a run reports under ``parallel``.
"""

from repro.parallel.pool import (
    WorkerPool,
    get_shared_pool,
    is_shared_pool,
    resolve_start_method,
    shutdown_shared_pools,
)
from repro.parallel.worker import default_chunk_size

__all__ = [
    "WorkerPool",
    "default_chunk_size",
    "get_shared_pool",
    "is_shared_pool",
    "resolve_start_method",
    "shutdown_shared_pools",
]
