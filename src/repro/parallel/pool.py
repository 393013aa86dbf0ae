"""The persistent :class:`WorkerPool` and the shared pool registry.

A ``WorkerPool`` wraps a :mod:`multiprocessing` pool whose workers are
initialized exactly once with the instantiated operator list (see
:mod:`repro.parallel.worker`).  Its dispatch surface is one method over one
task kind: :meth:`WorkerPool.run_segment` sends one ``segment`` task per
column-batch chunk, each driven through a whole run of resident ops inside the
worker by :func:`repro.core.segment.run_segment` — the function an ``np = 1``
run calls in-process.  The executor's op-run driver reaches it once per
pipeline segment, ``op.run(dataset, pool=pool)`` as a segment of one, traced
or not.  The pool stays alive across any number of calls, so workers build
their ops and load their assets once, not once per run.

:func:`get_shared_pool` adds process-wide pool reuse: callers that repeatedly
run the same recipe at the same worker count (the jobs of a ``repro serve``
server, repeated ``Executor(shared_pool=True)`` runs) receive the same live
pool.
"""

from __future__ import annotations

import atexit
import json
import logging
import multiprocessing
import threading
import time
import warnings
from collections import OrderedDict
from concurrent.futures.process import BrokenProcessPool
from typing import Any, Sequence

from repro.core.dataset import _stable_hash
from repro.core.faults import BACKOFF_CAP_S, DegradedExecutionWarning
from repro.parallel import worker as _worker
from repro.parallel.worker import default_chunk_size

logger = logging.getLogger(__name__)

#: fallback preference order; ``fork`` inherits instantiated ops and warm
#: asset caches for free, ``forkserver`` and ``spawn`` re-instantiate per worker
_START_METHOD_ORDER = ("fork", "forkserver", "spawn")

#: exception types that indicate pool infrastructure failure (dead or hung
#: workers, broken result pipes) rather than an operator error.  A worker
#: killed mid-task never raises through ``multiprocessing.Pool`` — its result
#: simply never arrives — so the per-dispatch timeout is the detection signal.
_POOL_FAILURES = (
    multiprocessing.TimeoutError,
    BrokenPipeError,
    EOFError,
    BrokenProcessPool,
)


def _op_equivalence_key(op: Any) -> tuple[str, str, str]:
    """Identity of an op up to configuration: ``(class, name, config hash)``.

    Two instances with equal keys are interchangeable for dispatch because
    operators are pure functions of their ``config()`` (the lint-enforced
    contract); execution-tuning state (underscored attributes such as
    ``_batch_size``) is deliberately outside the key, as batch boundaries are
    always sliced caller-side.
    """
    return (type(op).__name__, op.name, _stable_hash(op.config()))


def resolve_start_method(preferred: str | None = None, available: Sequence[str] | None = None) -> str:
    """Pick a usable multiprocessing start method, falling back gracefully.

    ``preferred`` is honoured when the platform supports it; otherwise (and
    when no preference is given) the first supported entry of
    ``fork > forkserver > spawn`` is used.  Raises :class:`RuntimeError` only
    when the platform reports no start method at all.
    """
    methods = list(available if available is not None else multiprocessing.get_all_start_methods())
    if not methods:
        raise RuntimeError("no multiprocessing start method available on this platform")
    if preferred is not None and preferred in methods:
        return preferred
    for method in _START_METHOD_ORDER:
        if method in methods:
            return method
    return methods[0]


class WorkerPool:
    """A persistent pool of worker processes holding an instantiated op list.

    Parameters
    ----------
    num_workers:
        Number of worker processes (>= 1).
    ops:
        The instantiated operator list the workers should hold.  When omitted
        it is built from ``process_list`` in the parent.
    process_list:
        Recipe entries used to rebuild the ops inside workers under ``spawn``
        (where live instances cannot be inherited); also the fallback source
        of ``ops``.
    op_fusion:
        Whether the spawn-side rebuild should fuse the operator list the same
        way the parent did.
    start_method:
        Preferred multiprocessing start method; silently falls back via
        :func:`resolve_start_method` on platforms that lack it.
    chunk_size:
        Default rows per dispatched chunk (auto-sized per call when ``None``).
    task_timeout_s:
        Per-dispatch timeout of the supervision layer.  ``None`` (default)
        blocks indefinitely — zero supervision overhead, but a dead or hung
        worker can only be detected when a timeout is set.
    max_rebuilds:
        Pool reconstructions after infrastructure failures before the pool
        degrades to serial in-parent execution (with a
        :class:`repro.core.faults.DegradedExecutionWarning`).
    rebuild_backoff_s:
        Base of the capped exponential backoff slept between rebuilds.
    """

    def __init__(
        self,
        num_workers: int,
        ops: Sequence | None = None,
        process_list: list | None = None,
        op_fusion: bool = False,
        start_method: str | None = None,
        chunk_size: int | None = None,
        task_timeout_s: float | None = None,
        max_rebuilds: int = 2,
        rebuild_backoff_s: float = 0.05,
    ):
        if num_workers < 1:
            raise ValueError("num_workers must be >= 1")
        if ops is None:
            if process_list is None:
                raise ValueError("WorkerPool needs ops or a process_list")
            from repro.ops import build_ops

            ops = build_ops(process_list, op_fusion=op_fusion)
        self.num_workers = num_workers
        self.chunk_size = chunk_size
        self.start_method = resolve_start_method(start_method)
        self.task_timeout_s = task_timeout_s
        self.max_rebuilds = max_rebuilds
        self.rebuild_backoff_s = rebuild_backoff_s
        #: pool reconstructions performed so far (supervision diagnostics)
        self.rebuilds = 0
        #: True once the pool gave up on worker processes and runs serial
        self.degraded = False
        #: optional :class:`repro.core.faults.FaultTracker` sharing the
        #: executor's per-run fault ledger (set by the executor each run)
        self.fault_tracker: Any = None
        #: the drain error :meth:`close` fell back to ``terminate()`` on
        self.close_error: BaseException | None = None
        #: pids of the workers that executed the most recent dispatch — direct
        #: evidence of out-of-process execution (unlike :meth:`worker_pids`,
        #: which only lists the live processes)
        self.last_served_pids: list[int] = []
        #: lifetime dispatch counters (callers report per-run deltas): tasks
        #: sent, worker CPU seconds, and host wall inside dispatch minus the
        #: busiest worker's CPU — what pickling, IPC and scheduling cost
        self.tasks = 0
        self.worker_s = 0.0
        self.dispatch_s = 0.0
        #: the parent-side op table degraded mode runs tasks against
        self._serial_ops: _worker.ResidentOps | None = None
        self._ops = list(ops)
        self._op_index = {id(op): index for index, op in enumerate(self._ops)}
        # equivalence index: ops are pure functions of their config() (the
        # lint-enforced contract), so any instance with the same registered
        # name and config hash is interchangeable with the resident one.
        # This is what lets a long-lived shared pool serve executors that
        # built their own (equal) op instances from the same recipe.
        self._config_index = {
            _op_equivalence_key(op): index for index, op in enumerate(self._ops)
        }
        self._closed = False
        self._context = multiprocessing.get_context(self.start_method)
        if self.start_method == "fork":
            # forked workers inherit the live instances without pickling
            self._initargs: tuple = (self._ops, None, False)
        elif process_list is not None:
            # spawned workers re-instantiate from the (picklable) recipe
            self._initargs = (None, list(process_list), op_fusion)
        else:
            self._initargs = (self._ops, None, False)
        self._pool = self._spawn_pool()

    def _spawn_pool(self) -> Any:
        """Create the underlying multiprocessing pool (initial or rebuild)."""
        return self._context.Pool(
            processes=self.num_workers,
            initializer=_worker.initialize_worker,
            initargs=self._initargs,
        )

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    @property
    def alive(self) -> bool:
        """True while the pool can accept work."""
        return not self._closed

    def close(self) -> None:
        """Shut the worker processes down; the pool accepts no further work.

        Drains gracefully — in-flight tasks finish before the workers exit —
        falling back to ``terminate()`` only when the drain itself fails.
        """
        if self._closed:
            return
        self._closed = True
        try:
            self._pool.close()
            self._pool.join()
        except Exception as drain_error:
            # never discard the drain failure: log it, remember it, and chain
            # it onto any terminate failure so neither error disappears
            self.close_error = drain_error
            logger.warning(
                "WorkerPool drain failed (%r); terminating workers", drain_error
            )
            try:
                self._pool.terminate()
                self._pool.join()
            except Exception as terminate_error:
                terminate_error.__cause__ = drain_error
                logger.error(
                    "WorkerPool terminate after failed drain also failed: %r "
                    "(drain error: %r)",
                    terminate_error,
                    drain_error,
                )

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    def worker_pids(self) -> list[int]:
        """Process ids of the live worker processes (diagnostics / tests)."""
        processes = getattr(self._pool, "_pool", None) or []
        return [process.pid for process in processes]

    # ------------------------------------------------------------------
    # Dispatch
    # ------------------------------------------------------------------
    def _resolve(self, op: Any) -> int | tuple | None:
        """Worker-side reference for ``op``: its index, or the member-index
        tuple of a :class:`~repro.core.fusion.FusedFilter` whose members are
        all pool-resident (fused plans assembled *after* pool construction,
        e.g. by ``fuse_operators`` over a shared pool's op list).

        Resolution is by object identity first, then by *equivalence*: an op
        with the same registered name and ``config()`` hash as a resident op
        dispatches to the resident instance (identical output by the purity
        contract).  Equivalence is what lets every :class:`Executor` of a
        long-running service share one warm pool built from the recipe.
        """
        index = self._resolve_single(op)
        if index is not None:
            return index
        from repro.core.fusion import FusedFilter

        if isinstance(op, FusedFilter):
            members = [self._resolve_single(member) for member in op.fused_filters]
            if members and all(index is not None for index in members):
                return tuple(members)
        return None

    def _resolve_single(self, op: Any) -> int | None:
        """Index of one (non-fused) op: by identity, then by config equivalence."""
        index = self._op_index.get(id(op))
        if index is not None:
            return index
        try:
            return self._config_index.get(_op_equivalence_key(op))
        except Exception:  # unhashable/unserialisable config: identity only
            return None

    def holds(self, op: Any) -> bool:
        """True when ``op`` is resident in this (open) pool.

        A ``FusedFilter`` counts as resident when every member filter is —
        workers assemble (and cache) an equivalent fused op over their own
        resident members, so post-fusion plans never silently fall back to
        in-process serial execution.
        """
        return not self._closed and self._resolve(op) is not None

    def _supervised_map(self, tasks: list) -> list[tuple[Any, float, int]]:
        """Dispatch with dead/hung-worker detection, rebuild and degradation.

        Operator exceptions re-raise untouched for the error-policy layer;
        only infrastructure failures (:data:`_POOL_FAILURES` — a timed-out
        dispatch, a broken result pipe) trigger a pool rebuild.  The retried
        chunk is safe to replay because operators are pure functions of their
        config (the lint-enforced contract).  After ``max_rebuilds``
        reconstructions the pool degrades to serial in-parent execution with
        a warning instead of aborting the run.
        """
        if self.degraded:
            return self._run_serial(tasks)
        attempt = 0
        while True:
            try:
                # map_async + get(timeout) instead of map: identical semantics
                # and cost with timeout=None, but a set timeout is the only
                # way to notice a worker that died (its result never arrives;
                # multiprocessing.Pool repopulates workers silently)
                return self._pool.map_async(_worker.run_task, tasks).get(
                    self.task_timeout_s
                )
            except _POOL_FAILURES as error:
                if self.rebuilds >= self.max_rebuilds:
                    self._degrade(error)
                    return self._run_serial(tasks)
                self._rebuild(error, attempt)
                attempt += 1

    def _rebuild(self, error: BaseException, attempt: int) -> None:
        """Tear down the broken pool and build a fresh one in place."""
        detail = f"worker pool failure ({error!r}); rebuilding pool"
        logger.warning("%s (rebuild %d/%d)", detail, self.rebuilds + 1, self.max_rebuilds)
        try:
            self._pool.terminate()
            self._pool.join()
        except Exception:
            logger.warning("terminating the broken pool failed; abandoning it")
        if self.rebuild_backoff_s > 0:
            time.sleep(min(self.rebuild_backoff_s * (2 ** attempt), BACKOFF_CAP_S))
        self._pool = self._spawn_pool()
        self.rebuilds += 1
        if self.fault_tracker is not None:
            self.fault_tracker.record_rebuild(detail)

    def _degrade(self, error: BaseException) -> None:
        """Give up on worker processes; subsequent dispatches run in-parent."""
        self.degraded = True
        # this pool's own table, built once from the list the parent always
        # holds; the worker-process global stays untouched
        self._serial_ops = _worker.ResidentOps(self._ops)
        detail = (
            f"worker pool failed {self.rebuilds} rebuild(s) deep ({error!r}); "
            "degrading to serial in-parent execution"
        )
        warnings.warn(detail, DegradedExecutionWarning, stacklevel=3)
        if self.fault_tracker is not None:
            self.fault_tracker.record_degradation(detail)
        try:
            self._pool.terminate()
            self._pool.join()
        except Exception:
            logger.warning("terminating the degraded pool failed; abandoning it")

    def _run_serial(self, tasks: list) -> list[tuple[Any, float, int]]:
        """Execute one dispatch's tasks in the parent process (degraded mode)."""
        _kind, refs, _batch, trace_num = tasks[0]
        ops = [self._serial_ops.resolve(ref) for ref in refs]
        return [_worker.timed_segment(ops, task[2], trace_num) for task in tasks]

    def chunk_size_for(self, num_rows: int) -> int:
        """Rows per dispatched chunk: the pool's setting, else auto-sized."""
        return self.chunk_size or default_chunk_size(num_rows, self.num_workers)

    def run_segment(self, ops: Sequence, batches: list[dict], trace_num: int = 0) -> list[tuple]:
        """Drive every column batch through ``ops`` in order, one task per batch.

        The engines' unit of dispatch: a batch crosses the process boundary
        once however many ops the segment holds.  Returns one ``(batch,
        records, failure)`` per input batch, in order (see
        :func:`repro.core.segment.run_segment`, which gets ``trace_num``); an
        op that raises in a worker comes back as that batch's ``failure``,
        never as an exception.
        """
        if self._closed:
            raise RuntimeError("WorkerPool is closed")
        refs = tuple(self._resolve(op) for op in ops)
        if None in refs:
            raise ValueError(f"{ops[refs.index(None)]!r} is not resident in this pool")
        if not batches:
            self.last_served_pids = []
            return []
        start = time.perf_counter()
        results = self._supervised_map([("segment", refs, batch, trace_num) for batch in batches])
        wall = time.perf_counter() - start
        busy: dict[int, float] = {}
        for _payload, cpu, pid in results:
            busy[pid] = busy.get(pid, 0.0) + cpu
        self.last_served_pids = sorted(busy)
        self.tasks += len(batches)
        self.worker_s += sum(busy.values())
        self.dispatch_s += max(0.0, wall - max(busy.values()))
        return [payload for payload, _cpu, _pid in results]


# ----------------------------------------------------------------------
# Process-wide shared pools
# ----------------------------------------------------------------------
#: most-recently-used ordering; bounded so a long-lived caller cycling through
#: many recipes / worker counts does not accumulate idle worker processes
_SHARED_POOLS: "OrderedDict[tuple, WorkerPool]" = OrderedDict()

#: guards the registry's check-then-create: once a long-running server (or
#: any threaded caller) drives :func:`get_shared_pool`, an unguarded race
#: would fork two pools for one key and leak the loser's worker processes
_SHARED_POOLS_LOCK = threading.RLock()

#: maximum number of live shared pools; the least-recently-used pool is
#: closed and evicted when the bound is exceeded.  Sized so a server cycling
#: through a handful of recipes and worker counts keeps each one's pool warm
#: instead of forking fresh workers for every job
MAX_SHARED_POOLS = 8


def _pool_key(num_workers: int, process_list: list, start_method: str, op_fusion: bool) -> tuple:
    signature = json.dumps(process_list, sort_keys=True, default=repr)
    return (num_workers, start_method, op_fusion, signature)


def get_shared_pool(
    num_workers: int,
    process_list: list,
    start_method: str | None = None,
    op_fusion: bool = False,
    task_timeout_s: float | None = None,
    max_rebuilds: int | None = None,
    rebuild_backoff_s: float | None = None,
) -> WorkerPool:
    """Return a live shared pool for ``(num_workers, process_list)``, creating it once.

    Repeated callers with the same recipe and worker count — every job of a
    ``repro serve`` server, or repeated ``Executor(shared_pool=True)`` runs —
    reuse the same worker processes instead of forking fresh ones.  ``op_fusion`` registers the
    post-fusion plan, so a caller executing a fused op list gets a pool whose
    residents are the fused operators.  The registry keeps at most
    :data:`MAX_SHARED_POOLS` live pools, closing the least recently used one
    when a new pool would exceed the bound.

    The supervision knobs (``task_timeout_s``, ``max_rebuilds``,
    ``rebuild_backoff_s``) are per-*caller*, not part of the pool identity:
    they are (re)applied to the returned pool on every call, so each job of a
    long-running service runs the shared pool under its own fault policy.

    Thread-safe: the whole check-then-create (and LRU eviction) runs under a
    process-wide lock, so concurrent callers with one key get one pool.
    """
    method = resolve_start_method(start_method)
    key = _pool_key(num_workers, process_list, method, op_fusion)
    with _SHARED_POOLS_LOCK:
        pool = _SHARED_POOLS.get(key)
        if pool is None or not pool.alive:
            pool = WorkerPool(
                num_workers,
                process_list=list(process_list),
                op_fusion=op_fusion,
                start_method=method,
            )
            _SHARED_POOLS[key] = pool
        _SHARED_POOLS.move_to_end(key)
        evicted_pools = []
        while len(_SHARED_POOLS) > MAX_SHARED_POOLS:
            _, evicted = _SHARED_POOLS.popitem(last=False)
            evicted_pools.append(evicted)
        if task_timeout_s is not None:
            pool.task_timeout_s = task_timeout_s
        if max_rebuilds is not None:
            pool.max_rebuilds = max_rebuilds
        if rebuild_backoff_s is not None:
            pool.rebuild_backoff_s = rebuild_backoff_s
    # close evicted pools outside the lock: a graceful drain can block
    for evicted in evicted_pools:
        evicted.close()
    return pool


def is_shared_pool(pool: WorkerPool) -> bool:
    """True when ``pool`` is owned by the process-wide shared registry."""
    with _SHARED_POOLS_LOCK:
        return any(entry is pool for entry in _SHARED_POOLS.values())


def shutdown_shared_pools() -> None:
    """Terminate every shared pool (also registered as an ``atexit`` hook)."""
    with _SHARED_POOLS_LOCK:
        pools = list(_SHARED_POOLS.values())
        _SHARED_POOLS.clear()
    for pool in pools:
        pool.close()


atexit.register(shutdown_shared_pools)
