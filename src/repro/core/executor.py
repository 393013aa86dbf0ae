"""The end-to-end pipeline executor tying together every core component.

``Executor`` takes a validated :class:`~repro.core.config.RecipeConfig` and
runs the full pipeline: load/unify the dataset via a Formatter, instantiate the
operator list, optionally fuse and reorder operators, execute them with cache,
checkpoint and tracing support, and export the processed dataset.

There are two run loops — :meth:`Executor.run` persists per *op* (the paper's
cache/checkpoint model), :meth:`Executor.run_streaming` per *(stage, shard)* —
over the same :func:`repro.core.stream.plan_segments` segments: a run of
Mappers/Filters, closed by a Deduplicator or a Selector.  A segment's local
ops (a closing Deduplicator contributes its hashing stage) go through one
op-run driver, :meth:`Executor._drive`, applied chunk by chunk by one
function (:mod:`repro.core.segment`); its dataset-level op then takes the one
global step, :meth:`Executor._global_step`, over the signature columns.  At
``np = 1`` the chunks run in this process; when the recipe sets ``np > 1``
the executor lazily creates a persistent :class:`repro.parallel.WorkerPool`
(workers hold the instantiated op list) and a chunk crosses the process
boundary once per segment, not once per op.  A segment ends at a
Deduplicator's hashing or before a Selector — where the host needs the
whole corpus — and an enabled per-op cache or checkpoint cuts it to one op.
An open tracer cuts nothing: each segment hands back its ops' trace
examples.  The pool survives across ``run`` calls — close the executor (or
use it as a context manager) to shut the workers down.

Every run — in-memory or streaming — emits a unified
:class:`repro.core.report.RunReport` (``last_report``, also persisted to
``<work_dir>/report.json``): per-op rows in/out, wall time, throughput and
peak RSS from the :class:`repro.core.monitor.RunProfiler`, plus cache
counters, the tracer summary and the run-level resource profile.  Profiler,
fault ledger and :class:`repro.core.tracer.Tracer` are created per run.

Persistence (:mod:`repro.core.cache`): each op output (memory mode: a delta
over its input) or shard stage output is written once, to the cache when it
is clean and ``use_cache`` is on, else to the run's own store; the checkpoint
is a state file pointing at the chain of entries a resume replays.  The
executor deletes no entry: it names the run's root to ``RunStore.retain``.
"""

from __future__ import annotations

import sys
import warnings
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Iterator, Sequence

from repro.core.batch import batch_concat
from repro.core.cache import FAULTED, CacheManager, RunStore, decode, encode, is_scalar
from repro.core.checkpoint import CheckpointManager
from repro.core.config import RecipeConfig, load_config
from repro.core.errors import ConfigError, DataflowWarning, DatasetError, OpExecutionError
from repro.core.dataset import NestedDataset, _stable_hash
from repro.core.exporter import Exporter
from repro.core.faults import (
    ErrorPolicy,
    FaultTracker,
    QuarantineWriter,
    describe_failure,
    retry_call,
    run_segment_with_policy,
)
from repro.core.fusion import describe_plan
from repro.core.monitor import ResourceMonitor, RunProfiler
from repro.core.planner import ExecutionPlan, ResourceBudget, plan_execution
from repro.core.report import REPORT_FILE, RunReport
from repro.core.sample import is_internal
from repro.core.segment import compose_positions
from repro.core.stream import (
    DEFAULT_SHARD_ROWS,
    HASH_COLUMNS,
    ROW_ID_COLUMN,
    StreamSegment,
    columns_signature,
    decode_shard,
    iter_record_shards,
    mask_shards,
    op_config_hash,
    plan_segments,
    resolve_global_keep,
    resolve_in_memory,
    signature_column_names,
    signature_columns,
    stage_chain_hash,
)
from repro.core.tracer import Tracer
from repro.formats.source import shard_signature, source_rows
from repro.parallel import WorkerPool


class Executor:
    """Run a data recipe end to end.

    Parameters
    ----------
    config:
        Anything :func:`repro.core.config.load_config` accepts (dict, path or
        RecipeConfig instance).
    shared_pool:
        When True, parallel runs borrow the process-wide pool from
        :func:`repro.parallel.get_shared_pool` instead of forking a private
        one, and :meth:`close` leaves it alive for the next borrower.  This
        is how the ``repro serve`` job runtime keeps workers warm across
        jobs: every job's executor resolves its own op instances against the
        shared pool's residents by config equivalence.
    """

    def __init__(
        self, config: dict | str | Path | RecipeConfig, shared_pool: bool = False
    ):
        # imported lazily to avoid a circular import at package-init time
        from repro.ops import build_ops
        from repro.tools.lint.framework import check_in_place

        self.cfg = load_config(config)
        work_dir = Path(self.cfg.work_dir)
        #: the tracer of the current / most recent run (None unless ``open_tracer``)
        self.tracer: Tracer | None = None
        checkpoint_dir = self.cfg.checkpoint_dir or (work_dir / "checkpoint")
        #: the resume pointer (None unless ``use_checkpoint``)
        self.checkpoint = CheckpointManager(checkpoint_dir) if self.cfg.use_checkpoint else None
        cache_dir = self.cfg.cache_dir or work_dir / "cache"
        compression = self.cfg.cache_compression
        cache = CacheManager(cache_dir, compression) if self.cfg.use_cache else None
        own = CacheManager(checkpoint_dir, compression) if self.cfg.use_checkpoint else None
        if cache and own and cache.cache_dir.resolve() == own.cache_dir.resolve():
            # a run deletes from its own store what it no longer names: never the cache
            raise ConfigError("cache_dir and checkpoint_dir must differ when both are in use")
        #: where a run's entries live (see the module docstring)
        self._stores = RunStore(cache, own)
        #: where clean entries go; None when the recipe configures no persistence
        self.store: CacheManager | None = cache or own
        #: lookups of the store, and the entry bytes written to it
        self._cache_stats = {
            "hits": 0, "misses": 0, "shard_hits": 0, "shard_misses": 0, "bytes_written": 0
        }
        check_in_place(self.cfg.process)  # no op may edit a cell a store compares against
        self.ops = build_ops(
            self.cfg.process, op_fusion=self.cfg.op_fusion, batch_size=self.cfg.batch_size
        )
        self.plan = describe_plan(self.ops)
        #: unified report of the most recent run (Mapping-compatible)
        self.last_report: RunReport = RunReport(plan=self.plan)
        #: mode decision of the most recent :meth:`execute` call (None before)
        self.last_plan: ExecutionPlan | None = None
        #: planner decision to embed into the next run's report (set by execute)
        self._planner_payload: dict | None = None
        self._pool: WorkerPool | None = None
        self._shared_pool = bool(shared_pool)
        self._profiler = RunProfiler()
        #: the pool's lifetime dispatch counters when this run first saw it
        self._dispatch_base = (0, 0.0, 0.0)
        #: whether the current streaming run's checkpoint state matched, and
        #: its root: the keys of the shards it found or wrote
        self._resuming = False
        self._root: set[str] = set()
        #: what the current run signs its input (shards) under: the
        #: formatter's name (None for an in-memory dataset) and text keys
        self._source: tuple[str | None, tuple[str, ...]] = (None, ())
        #: the fault policy of every run of this executor (from the recipe)
        self.policy = ErrorPolicy.from_config(self.cfg)
        self._faults = FaultTracker()
        self._quarantine: QuarantineWriter | None = None

    # ------------------------------------------------------------------
    def _ensure_pool(self) -> WorkerPool | None:
        """Return the persistent worker pool when ``np > 1`` (created lazily).

        With ``shared_pool=True`` the pool comes from the process-wide
        registry (one set of workers per ``(np, recipe, fusion)`` shared by
        every borrower); otherwise the executor owns a private pool.  Either
        way this run's fault policy and ledger are (re)applied on every call.
        """
        if self.cfg.np <= 1:
            return None
        if self._pool is None or not self._pool.alive:
            options = {
                "op_fusion": self.cfg.op_fusion,
                "task_timeout_s": self.policy.task_timeout_s,
                "max_rebuilds": self.policy.max_pool_rebuilds,
                "rebuild_backoff_s": self.policy.backoff_s,
            }
            if self._shared_pool:
                from repro.parallel import get_shared_pool

                self._pool = get_shared_pool(self.cfg.np, self.cfg.process, **options)
            else:
                self._pool = WorkerPool(
                    self.cfg.np, ops=self.ops, process_list=self.cfg.process, **options
                )
            self._dispatch_base = self._dispatch_counters()
        # the pool outlives individual runs; point it at the current ledger
        self._pool.fault_tracker = self._faults
        return self._pool

    def _dispatch_counters(self) -> tuple[int, float, float]:
        pool = self._pool
        return (pool.tasks, pool.worker_s, pool.dispatch_s) if pool is not None else (0, 0.0, 0.0)

    def _drive(
        self, ops: list, dataset: NestedDataset, shard_id: str | None = None
    ) -> tuple[NestedDataset, Sequence[int] | None]:
        """Run a segment's local ops (:attr:`StreamSegment.local_ops`) over
        ``dataset`` under the fault policy: the one op-run driver.  Returns
        the output and its rows' positions in ``dataset`` (or None).

        Memory mode hands it the whole dataset, streaming one shard.  The ops
        go to :func:`run_segment_with_policy`, which applies them chunk by
        chunk: in the workers of the pool when ``np > 1`` (one task per
        chunk), in this process otherwise.  They are cut only where that
        placement changes — a run of ops the pool does not hold runs here —
        and never for the tracer, which is handed the ops' trace entries here.
        """
        tracer, trace_num = self.tracer, getattr(self.tracer, "show_num", 0)
        positions: Sequence[int] | None = range(len(dataset))
        while ops:
            # where the segment runs: the pool holding its ops, or None = here
            pool = self._ensure_pool()
            segment, where = [], None
            for op in ops:
                target = pool if pool is not None and pool.holds(op) else None
                if segment and target is not where:
                    break
                where = target
                segment.append(op)
            dataset, kept, trace = run_segment_with_policy(
                segment, dataset, where, self.policy, self._faults, self._quarantine,
                self._profiler, shard_id=shard_id, trace_num=trace_num,
            )
            positions = compose_positions(positions, kept)
            if tracer is not None:
                for entry in trace:
                    tracer.add(*entry)
            ops = ops[len(segment):]
        return dataset, positions

    def _global_step(
        self, op: Any, signature: NestedDataset, show_num: int = 0
    ) -> tuple[list[bool], set[str], list[tuple[int, int]]]:
        """:func:`resolve_global_keep` under the fault policy: the one global
        step of every Deduplicator and Selector, in both run loops.

        There is no shard to contain a failure to: it is retried, then aborts
        with full context under ``raise``, or under a lenient policy degrades
        to a keep-everything mask that still strips the hash columns — the
        conservative outcome, no row is wrongly dropped.
        """
        with self._profiler.track(op, rows_in=len(signature)) as tracking:
            try:
                keep_mask, dropped_columns, pairs = retry_call(
                    lambda: resolve_global_keep(op, signature, show_num),
                    self.policy, self._faults, op.name,
                )
            except Exception as error:
                if not self.policy.lenient:
                    raise OpExecutionError(
                        describe_failure(op.name, error), op_name=op.name
                    ) from error
                self._faults.record_degradation(
                    f"global resolve of {op.name!r} skipped after persistent failure: {error!r}"
                )
                keep_mask, pairs = [True] * len(signature), []
                dropped_columns = set(HASH_COLUMNS).intersection(signature.column_names)
            tracking.rows_out = sum(keep_mask)
        return keep_mask, dropped_columns, pairs

    def _run_segments(
        self, ops: list, dataset: NestedDataset
    ) -> tuple[NestedDataset, Sequence[int] | None]:
        """Memory mode: each :func:`plan_segments` segment of ``ops`` over the
        whole dataset — its local ops, then its global step.  Returns the
        output and its rows' positions in ``dataset`` (or None)."""
        positions: Sequence[int] | None = range(len(dataset))
        for segment in plan_segments(ops):
            if segment.local_ops:
                dataset, kept = self._drive(segment.local_ops, dataset)
                positions = compose_positions(positions, kept)
            if segment.global_op is not None:
                degradations = self._faults.degradations
                dataset, kept = resolve_in_memory(
                    segment.global_op, dataset, self.tracer, self._global_step
                )
                positions = compose_positions(positions, kept)
                if self._faults.degradations != degradations:
                    # not the op's output: no clean run's cache key may match it
                    salted = _stable_hash({"parent": dataset.fingerprint, "fault_skipped": True})
                    dataset = NestedDataset(dataset.to_dict(), fingerprint=salted)
        return dataset, positions

    # ------------------------------------------------------------------
    def _faults_payload(self) -> dict:
        """The report's ``faults`` section: policy + every counter."""
        payload = self._faults.as_dict()
        payload["policy"] = self.policy.as_dict()
        if self._quarantine is not None and self._quarantine.paths:
            payload["quarantine_paths"] = [str(path) for path in self._quarantine.paths]
        return payload

    def close(self) -> None:
        """Shut down the worker pool (no-op for serial executors).

        A borrowed shared pool is detached, not closed — it stays warm for
        the next executor; :func:`repro.parallel.shutdown_shared_pools`
        owns its lifetime.
        """
        if self._pool is not None:
            if not self._shared_pool:
                self._pool.close()
            self._pool = None

    def __enter__(self) -> "Executor":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    # ------------------------------------------------------------------
    def _source_records(self, dataset: NestedDataset | None) -> Iterator:
        """The input's source records (:mod:`repro.formats.source`) — a caller's
        dataset's are its rows — and sets ``_source``."""
        from repro.formats.load import load_formatter

        text_keys = tuple(self.cfg.text_keys)
        if dataset is not None:
            self._source = (None, text_keys)
            return iter(dataset)
        if not self.cfg.dataset_path:
            raise ValueError("no dataset given and no dataset_path configured")
        formatter = load_formatter(self.cfg.dataset_path, text_keys=text_keys)
        self._source = (formatter.name, text_keys)
        if self._quarantine is not None:  # a row read from a file shows ``__stats__: {}``
            self._quarantine.empty_stats = True
        return formatter.iter_sources()

    def _load_input(self, dataset: NestedDataset | None) -> NestedDataset:
        """Memory mode's input; with a store, fingerprinted by its content: a
        file as streaming signs a stage-0 shard, a caller's dataset (a copy of
        its column lists, so it keeps its own fingerprint) by :func:`columns_signature`."""
        if dataset is not None:
            signed = columns_signature(dataset) if self.store is not None else dataset.fingerprint
            return NestedDataset(dataset._columns, fingerprint=signed)
        shard = next(iter_record_shards(self._source_records(None), sys.maxsize), [])
        signed = self.store is not None
        return decode_shard(shard, shard_signature(*self._source, shard) if signed else None)

    def _run_state(self, input_identity: Any) -> dict:
        """The run identity a checkpoint state file records (and must match)."""
        return {
            "op_names": [op.name for op in self.ops],
            "op_hashes": [op_config_hash(op) for op in self.ops],
            "input": input_identity,
        }

    def _resume(
        self, current: NestedDataset, run_state: dict
    ) -> tuple[NestedDataset, int, list[str]]:
        """Where a checkpointed memory run starts: ``(dataset, op index, key chain)``.

        The state file is honoured only when it describes *this* run — same
        input fingerprint, and for every already-applied op the same name
        *and* config hash (an edited recipe must re-execute, not reuse data
        of the old configuration).  Its ``keys`` are replayed in order: with
        ``use_cache`` one delta entry per applied op onto the loaded input,
        checkpoint-only the one self-contained latest entry.  A chain that
        stops reading back midway resumes after the last entry that did;
        nothing read back starts over (the next checkpoint write retains the
        new chain only).
        """
        if self.checkpoint is None:
            return current, 0, []
        saved = self.checkpoint.read_state() or {}
        done, keys = saved.get("op_index"), saved.get("keys")
        if not isinstance(keys, list) or not all(isinstance(key, str) for key in keys):
            keys = []  # a corrupt state file is no checkpoint
        restored, first, replayed = current, 0, 0
        if (
            isinstance(done, int)
            and 0 < len(keys) <= done
            and saved.get("input") == run_state["input"]
            and saved.get("op_names", [])[:done] == run_state["op_names"][:done]
            and saved.get("op_hashes", [])[:done] == run_state["op_hashes"][:done]
        ):
            # the op index the chain starts from; past the input, its first
            # entry must be self-contained (decoded with no parent)
            first = done - len(keys)
            restored = None if first else current
            for key in keys:
                decoded = decode(restored, self._stores.get(key))
                if decoded is None:
                    break
                restored, replayed = decoded, replayed + 1
        if not replayed:
            restored, first = current, 0
        return restored, first + replayed, keys[:replayed]

    def _put_result(self, key: str, payload: Any, faults_before: int, spill: bool = False) -> str:
        """Store one op/shard result, once; returns the key it went under.

        Output shaped by a fault (rows dropped by a lenient policy) goes under
        a key no clean run ever computes, in the run's own store, and only
        when something reads it back: this run's checkpoint — it is the
        actual progress — or the mask pass (``spill``).
        """
        clean = self._faults.total_faults == faults_before
        if not clean:
            key += FAULTED
        if spill or clean or self.checkpoint is not None:
            place = self._stores.place(key)
            path = place.put(key, payload)
            if place is self.store or self.checkpoint is not None:  # not a per-run spill
                self._cache_stats["bytes_written"] += path.stat().st_size
        return key

    def _count_cache(self, counter: str) -> None:
        """Count one ``use_cache`` lookup (checkpoint-only runs report zeros)."""
        if self.cfg.use_cache:
            self._cache_stats[counter] += 1

    def _parallel_payload(self) -> dict:
        """The report's ``parallel`` section.

        ``worker_pids`` lists the live worker processes of the pool this run
        used (empty for serial / fully cache-hit runs); together with
        ``shared`` it lets callers — the service tests in particular — prove
        two runs executed on the same warm workers.  ``tasks`` is the exact
        number of tasks this run sent to the pool, ``worker_s`` the CPU
        seconds the workers spent on them and ``dispatch_s`` the host wall
        inside dispatch beyond the busiest worker's CPU — pickling, IPC and
        scheduling.
        """
        tasks, worker_s, dispatch_s = (
            now - base for now, base in zip(self._dispatch_counters(), self._dispatch_base)
        )
        return {
            "tasks": tasks,
            "worker_s": worker_s,
            "dispatch_s": dispatch_s,
            "np": self.cfg.np,
            "batch_size": self.cfg.batch_size,
            # None when no pool was needed (np=1, or every stage cache-hit)
            "start_method": self._pool.start_method if self._pool is not None else None,
            "worker_pids": self._pool.worker_pids() if self._pool is not None else [],
            "shared": self._shared_pool and self._pool is not None,
        }

    def _persist_report(self, report: RunReport) -> None:
        """Write the run report under the work directory (best effort)."""
        try:
            report.save(Path(self.cfg.work_dir) / REPORT_FILE)
        except OSError:
            # observability must never fail a run that already succeeded
            pass

    def _preflight_dataflow(self, decision: ExecutionPlan) -> None:
        """Statically check the recipe before any data is touched.

        Findings are attached to the plan (``decision.dataflow``) and warn as
        :class:`DataflowWarning` by default; ``strict_dataflow: true`` turns
        them into a :class:`ConfigError` before any data is touched.
        """
        from repro.tools.dataflow import check_recipe

        result = check_recipe(self.cfg)
        decision.dataflow = [finding.as_dict() for finding in result.findings]
        if not result.findings:
            return
        summary = "\n  ".join(str(finding) for finding in result.findings)
        if self.cfg.strict_dataflow:
            raise ConfigError(
                f"dataflow check failed for recipe {self.cfg.project_name!r} "
                f"(strict_dataflow is on):\n  {summary}"
            )
        warnings.warn(
            f"recipe {self.cfg.project_name!r} has "
            f"{len(result.findings)} dataflow finding(s):\n  {summary}",
            DataflowWarning,
            stacklevel=3,
        )

    def execute(
        self,
        dataset: NestedDataset | None = None,
        mode: str = "auto",
        shard_output: bool = False,
        budget: ResourceBudget | None = None,
    ) -> RunReport:
        """Plan the execution mode, run the pipeline, return the unified report.

        This is the mode-agnostic front door used by the fluent
        :class:`repro.api.Pipeline` and ``repro process --mode``: the
        :func:`repro.core.planner.plan_execution` decision (stored as
        ``last_plan`` and embedded in the report's ``planner`` section)
        dispatches to :meth:`run` or :meth:`run_streaming`, replacing the
        caller-side fork between them.  The kept rows are identical either
        way (for the keys of an exported row, see :meth:`run_streaming`).
        """
        requested = mode
        if shard_output:
            # sharded output only exists out-of-core; steering the planner here
            # keeps every front door (fluent API, CLI) consistent instead of
            # silently writing one monolithic export in memory mode
            if mode == "memory":
                raise ConfigError(
                    "shard_output requires streaming execution; it conflicts "
                    "with mode='memory'"
                )
            mode = "streaming"
        decision = plan_execution(self.cfg, dataset=dataset, mode=mode, budget=budget)
        if shard_output:
            # report the caller's actual request, not the coerced mode
            decision.requested = requested
            decision.reasons.append("sharded output requested; streaming engine required")
        self._preflight_dataflow(decision)
        self.last_plan = decision
        # the run itself builds (and persists) the report; handing the payload
        # down keeps that a single complete write instead of write-then-amend
        self._planner_payload = decision.as_dict()
        try:
            if decision.mode == "streaming":
                self.run_streaming(dataset, shard_output=shard_output)
            else:
                self.run(dataset)
        finally:
            self._planner_payload = None
        return self.last_report

    @contextmanager
    def _reporting(self, mode: str) -> Iterator[dict]:
        """Prologue and epilogue of a run, written once for both run loops.

        Starts the run's monitor, profiler, tracer, fault ledger and
        quarantine export, yields the dict the loop fills with its own report
        fields (``num_output_samples``, ``export_paths``, shard accounting),
        and — when the loop completed — assembles and persists the
        :class:`RunReport`.  The quarantine export is flushed either way.
        """
        monitor = ResourceMonitor()
        self._profiler = RunProfiler()
        self.tracer = (
            Tracer(show_num=self.cfg.trace_num, trace_dir=Path(self.cfg.work_dir) / "trace")
            if self.cfg.open_tracer
            else None
        )
        self._faults = FaultTracker()
        self._dispatch_base = self._dispatch_counters()
        if self._pool is not None:
            self._pool.fault_tracker = self._faults
        self._quarantine = (
            QuarantineWriter(Path(self.cfg.work_dir) / "quarantine")
            if self.policy.on_error == "quarantine"
            else None
        )
        fields: dict = {}
        try:
            with monitor:
                yield fields
        finally:
            if self._quarantine is not None:
                self._quarantine.close()
        self.last_report = RunReport(
            mode=mode,
            plan=self.plan,
            ops=self._profiler.reports(),
            resources=monitor.report.as_dict() if monitor.report else {},
            cache=dict(self._cache_stats),
            trace=self.tracer.summary() if self.tracer else [],
            parallel=self._parallel_payload(),
            planner=self._planner_payload,
            faults=self._faults_payload(),
            **fields,
        )
        self._persist_report(self.last_report)

    def run(self, dataset: NestedDataset | None = None) -> NestedDataset:
        """Execute the configured pipeline and return the processed dataset.

        Besides the dataset, the run emits a :class:`RunReport`
        (``last_report``, persisted to ``<work_dir>/report.json``) with one
        per-op section each covering rows in/out, wall time and throughput.
        """
        with self._reporting("memory") as report:
            stores, checkpoint = self._stores, self.checkpoint
            if self.store is None:
                # nothing needs an intermediate dataset: one segment per
                # global op.  The input is handed over unnamed, so this frame
                # does not keep the loaded corpus alive while the pipeline runs
                current = self._run_segments(self.ops, self._load_input(dataset))[0]
            else:
                current = self._load_input(dataset)
                run_state = self._run_state(current.fingerprint)
                # chain: the store keys whose entries, replayed in order, give
                # ``current`` (what the checkpoint state points at)
                current, start, chain = self._resume(current, run_state)
                # a cache keeps every entry, so each is a delta over its
                # parent; checkpoint-only keeps the latest alone, whole
                delta = self.cfg.use_cache
                for index in range(start, len(self.ops)):
                    op = self.ops[index]
                    key = CacheManager.make_key(current.fingerprint, op.name, op.config())
                    cached = decode(current, stores.get(key)) if delta else None
                    if cached is not None:
                        self._count_cache("hits")
                        current = cached
                        self._profiler.record_cached(op, len(current))
                    else:
                        self._count_cache("misses")
                        faults_before = self._faults.total_faults
                        parent = current if delta else None
                        current, positions = self._run_segments([op], current)
                        payload = encode(parent, current, positions)
                        del parent  # not held while the entry is written
                        key = self._put_result(key, payload, faults_before)
                    if checkpoint is not None:
                        chain = [*chain, key] if delta else [key]
                        # entry first, pointer second: a crash in between
                        # leaves the previous (complete) checkpoint
                        checkpoint.write_state({**run_state, "op_index": index + 1, "keys": chain})
                        stores.retain(chain)

            report["num_output_samples"] = len(current)
            if self.cfg.export_path:
                exporter = Exporter(
                    self.cfg.export_path,
                    keep_stats=self.cfg.keep_stats_in_export,
                    empty_stats=dataset is None,
                )
                report["export_paths"] = [str(exporter.export(current))]
        return current

    # ------------------------------------------------------------------
    # Streaming (out-of-core) execution
    # ------------------------------------------------------------------
    def run_streaming(
        self, dataset: NestedDataset | None = None, shard_output: bool = False
    ) -> dict[str, Any]:
        """Execute the pipeline shard-by-shard with bounded memory.

        The input is streamed into shards capped by the recipe's
        ``max_shard_rows`` / ``max_shard_chars`` budget; Mappers and Filters
        run shard-local on the batched columnar engine (worker-pool dispatch
        included), while Deduplicators and Selectors resolve globally via the
        two-pass signature strategy (see :mod:`repro.core.stream`).  Output
        rows stream straight into the :class:`Exporter` — with
        ``shard_output`` they are written as size-capped output shards.

        With ``use_cache`` a re-run over unchanged input lines replays the
        stored shards (``cached_shards``, see :meth:`_shard_output`); with
        ``use_checkpoint`` an interrupted run resumes mid-corpus
        (``resumed_shards``) unless the recipe, shard budget or input lines
        changed, and a completed run leaves only the shards it found or wrote
        in ``checkpoint_dir``.  Without, the spill is a per-run directory
        removed when the run ends, failed or not.  The rows kept are
        those of :meth:`run`, and so are the exported bytes when every input
        row has the same keys: a shard None-fills only its own rows' key
        union, so otherwise row keys depend on the budget (ROADMAP item 4).

        Observability matches the in-memory path: the one tracer and the
        per-op profiler accumulate across shards.

        Returns the unified :class:`RunReport` (also stored as
        ``last_report`` and persisted to ``<work_dir>/report.json``) instead
        of a materialised dataset.
        """
        spill_root = Path(self.cfg.work_dir) / "stream-spill"
        with self._reporting("streaming") as report, self._stores.spilling(spill_root):
            segments = plan_segments(self.ops)
            shard_rows, shard_chars = self.cfg.max_shard_rows, self.cfg.max_shard_chars
            progress = {
                "input_shards": 0,
                "resumed_shards": 0,
                "executed_shards": 0,
                "cached_shards": 0,
                # input shards whose rows were decoded (not only signed), and
                # the columns of objects unpickled from stored shard entries
                "decoded_shards": 0,
                "unpickled_columns": 0,
                # the largest signature table a global resolve held on the
                # host: its rows and the ``sys.getsizeof`` of its cells
                "signature_rows": 0,
                "signature_bytes": 0,
            }
            records = self._source_records(dataset)
            source: Iterator = iter_record_shards(records, shard_rows, shard_chars)

            self._resuming, self._root = False, set()
            if self.checkpoint is not None:
                run_state = self._run_state(
                    {"max_shard_rows": shard_rows, "max_shard_chars": shard_chars}
                )
                self._resuming = self.checkpoint.read_state() == run_state
                if not self._resuming:
                    # recipe or shard budget changed (an edited input needs
                    # no guard: its shards key differently)
                    self._stores.retain(())
                    self.checkpoint.write_state(run_state)

            for stage, segment in enumerate(segments):
                if segment.global_op is None:
                    # only the final segment can lack a global op; its
                    # shards flow straight through
                    source = self._local_stage(stage, segment, source, progress)
                else:
                    final = stage == len(segments) - 1
                    source = self._resolved_stage(stage, segment, source, progress, final)

            total_rows = 0
            export_paths: list[str] = []

            def final_shards() -> Iterator[NestedDataset]:
                nonlocal total_rows
                for shard in source:
                    total_rows += len(shard)
                    yield shard

            if self.cfg.export_path:
                # a shard-output request with no explicit budget still
                # shards, at the same default the input chunker applies
                export_rows, export_chars = shard_rows, shard_chars
                if shard_output and export_rows is None and export_chars is None:
                    export_rows = DEFAULT_SHARD_ROWS
                exporter = Exporter(
                    self.cfg.export_path,
                    keep_stats=self.cfg.keep_stats_in_export,
                    empty_stats=dataset is None,
                    shard_rows=export_rows if shard_output else None,
                    shard_chars=export_chars if shard_output else None,
                )
                rows = (row for shard in final_shards() for row in exporter.rows(shard))
                export_paths = [str(path) for path in exporter.export_stream(rows)]
            else:
                for _shard in final_shards():
                    pass
            # what a later run resumes from: the shards this run found or wrote
            self._stores.retain(self._root)

            report.update(
                num_output_samples=total_rows,
                segments=len(segments),
                shards=dict(progress),
                shard_budget={"max_shard_rows": shard_rows, "max_shard_chars": shard_chars},
                export_paths=export_paths,
            )
        return self.last_report

    def _read_shard(self, key: str, progress: dict, columns: Any = None) -> NestedDataset | None:
        """The stored shard entry of ``key`` built for the ``columns`` its reader
        uses (:func:`decode`; None on a miss), counting the columns of objects
        (not scalars) it unpickled."""
        payload = self._stores.get(key)
        shard = decode(None, payload, columns)
        if shard is not None:
            progress["unpickled_columns"] += sum(
                not is_scalar(cells) for cells in shard._columns.values()
            )
        return shard

    def _shard_output(
        self,
        stage: int,
        index: int,
        segment: StreamSegment,
        chain: str,
        shard: Any,
        progress: dict[str, int],
        spill: bool = False,
    ) -> tuple[str | None, NestedDataset]:
        """One shard's shard-local work (sample ops + dedup hashing), stored once.

        Returns the output's store key (it joins the run's root; the mask pass
        of a ``spill`` caller reads it back) and the output, stored as a
        self-contained :func:`encode` entry.  With a store the key is ``(stage
        chain hash, shard signature)``, and an entry that decodes replays the
        shard without touching any operator: a ``resumed_shards`` shard when
        the checkpoint state matched, else a ``cached_shards`` one (a cached
        call per op).  Without, only a ``spill`` is stored, under a
        positional key.

        A stage-0 shard arrives as source records, signed by their text and
        decoded (its lines freed) only when it must run; a later stage's is
        the previous stage's dataset, signed by :func:`columns_signature`.  A
        ``spill`` caller reads a replayed entry's signature columns alone.

        Failures are contained per shard: an op's errors (dedup hashing
        included) are handled row-wise by the error policy inside
        :meth:`_drive`; a failure outside every op retries the whole shard
        (:func:`retry_call`), then aborts the run (``raise``) or drops and
        quarantines the shard whole (lenient).  Fault-shaped output goes under
        a key only a resumed run of the same checkpoint looks up.
        """
        shard_ops = segment.local_ops
        shard_id = f"stage{stage}:shard{index:05d}"  # names the shard in fault records
        key = f"{stage}:{index}" if spill else None
        input_shard = stage == 0
        progress["input_shards"] += int(input_shard)
        if self.store is not None:
            signature = (
                shard_signature(*self._source, shard) if input_shard else columns_signature(shard)
            )
            key = CacheManager.make_shard_key(chain, signature)
            op = segment.global_op
            columns = (lambda names: signature_column_names(op, names, op.text_key)) if spill else None
            for found in (key, key + FAULTED) if self._resuming else (key,):
                stored = self._read_shard(found, progress, columns)
                if stored is None:
                    continue
                if input_shard and (isinstance(shard, list) or shard.rows is not None):
                    # a character budget or a source of rows decoded it already
                    progress["decoded_shards"] += 1
                if self._resuming:
                    progress["resumed_shards"] += 1
                else:
                    self._count_cache("shard_hits")
                    progress["cached_shards"] += 1
                    for op in shard_ops:
                        self._profiler.record_cached(op, len(stored))
                self._root.add(found)
                return found, stored
            self._count_cache("shard_misses")
        quarantined = shard  # a dropped stage-0 shard's rows as decoded, not None-filled
        if input_shard:
            progress["decoded_shards"] += 1
            quarantined = list(source_rows(shard)) if self._quarantine is not None else []
            shard = decode_shard(shard)
        faults_before = self._faults.total_faults
        stage_name = getattr(segment.global_op, "name", None) or (
            segment.sample_ops[0].name if segment.sample_ops else "shard"
        )
        try:
            output = retry_call(
                lambda: self._drive(shard_ops, shard, shard_id=shard_id)[0],
                self.policy,
                self._faults,
                stage_name,
                shard_id,
            )
        except OpExecutionError:
            # already contextualised by the per-op policy layer (raise
            # policy); containment does not apply
            raise
        except Exception as error:
            if not self.policy.lenient:
                raise OpExecutionError(
                    describe_failure(stage_name, error, shard_id),
                    op_name=stage_name,
                    shard_id=shard_id,
                ) from error
            # persistent shard failure under a lenient policy: drop the
            # shard whole (quarantining its rows when configured) so the
            # rest of the corpus still completes
            self._faults.record_dropped_shard(shard_id, len(shard))
            if self._quarantine is not None:
                self._quarantine.write_rows(quarantined, stage_name, error, shard_id=shard_id)
            output = NestedDataset.empty()
        if key is not None:
            key = self._put_result(key, encode(None, output), faults_before, spill)
            self._root.add(key)
        progress["executed_shards"] += 1
        return key, output

    def _local_stage(
        self,
        stage: int,
        segment: StreamSegment,
        source: Iterator[Any],
        progress: dict[str, int],
    ) -> Iterator[NestedDataset]:
        """Shard-local transform of the final segment (nothing reads it back)."""
        chain = stage_chain_hash(segment)
        for index, shard in enumerate(source):
            yield self._shard_output(stage, index, segment, chain, shard, progress)[1]

    def _resolved_stage(
        self,
        stage: int,
        segment: Any,
        source: Iterator[Any],
        progress: dict[str, int],
        final: bool = False,
    ) -> Iterator[NestedDataset]:
        """Two-pass execution of a segment closed by a dataset-level op.

        Pass one runs eagerly: each shard is transformed, hashed (for
        Deduplicators), stored, and its :func:`signature_columns` appended to
        one table.  The global op then resolves once over that table, and the
        returned iterator is the mask pass (:func:`mask_shards`, as memory
        mode's one shard takes it) over the stored shards read back without
        the columns the resolve drops — nor, for an untraced ``final`` stage,
        those the exporter drops.
        """
        global_op = segment.global_op
        chain = stage_chain_hash(segment)
        #: per shard, its signature columns (never a dict per row) and store key
        tables: list[dict] = []
        stored_shards: list[str] = []
        total = 0
        for index, shard in enumerate(source):
            key, output = self._shard_output(stage, index, segment, chain, shard, progress, True)
            stored_shards.append(key)
            tables.append(signature_columns(global_op, output, total))
            total += len(output)
        # a column first seen in a later shard, or absent from one, is
        # None-filled, exactly like the in-memory dataset's column union
        signature = NestedDataset(batch_concat(tables), fingerprint="signature")
        del tables
        progress["signature_rows"] = max(progress["signature_rows"], total)
        cells = (column for name, column in signature._columns.items() if name != ROW_ID_COLUMN)
        progress["signature_bytes"] = max(
            progress["signature_bytes"], sum(sum(map(sys.getsizeof, column)) for column in cells)
        )
        tracer, show_num = self.tracer, getattr(self.tracer, "show_num", 0)
        keep_mask, dropped_columns, pairs = self._global_step(global_op, signature, show_num)
        if tracer is not None:
            tracer.add(global_op, 0, 0)  # its pipeline position; the mask pass adds the rest
        del signature
        exported, keep_stats = final and tracer is None, self.cfg.keep_stats_in_export

        def read(names: list[str]) -> list[str]:  # what the mask pass and an export use
            return [name for name in names if name not in dropped_columns
                    and not (exported and is_internal(name, keep_stats))]

        def stored() -> Iterator[NestedDataset]:
            for key in stored_shards:
                shard = self._read_shard(key, progress, read)
                if shard is None:
                    raise DatasetError(
                        f"stage {stage} shard entry vanished from "
                        f"{self._stores.place(key).cache_dir} before the mask pass "
                        "(does another run share this directory, or was it edited by hand?)"
                    )
                yield shard

        return mask_shards(global_op, stored(), keep_mask, dropped_columns, pairs, tracer)
