"""The traced pass: replay one workload layer by layer, from the outside.

End-to-end numbers come from untraced repetitions (``workloads.py``).  This
module answers *where the time went*: it replays what the workload's front
door does, calling each layer's **public** functions itself and wrapping
every call in an in-memory span (name, layer, start, end, parent, workload).
Nothing is recorded inside ``src/repro``; the spans are written to
``trace-<workload>.jsonl`` when the pass ends.

Two kinds of spans exist.  Children of the ``replay`` root mirror the steps
of one front-door call in order, so their sum can be held against the
untraced wall time (``trace.coverage``).  Children of the ``probes`` root
measure things the call does not do by itself on this workload (a cache
read-back, a serial run beside the pooled one, pickling the batches a pool
would ship) and never count towards coverage.

Every public name a probe calls is looked up through :func:`resolve` before
the probe does any work.  A name that moved makes that probe's metrics
``null`` with a reason under ``probe_unavailable`` — the run itself, and the
end-to-end numbers, survive refactors of the internals.
"""

from __future__ import annotations

import dataclasses
import hashlib
import importlib
import json
import math
import pickle
import statistics
import subprocess
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from types import SimpleNamespace
from typing import Any, Iterator

from workloads import (
    BY_NAME,
    REPO_ROOT,
    WORKLOADS,
    Workload,
    call_api,
    child_env,
    ensure_importable,
    export_digest,
    recipe_payload,
    tree_bytes,
)

#: trace.coverage outside this band marks a workload's layer table unresolved
COVERAGE_BAND = (0.85, 1.15)
#: workloads (1-based) whose coverage is gated: single process, in-process door
COVERAGE_GATED = (1, 2, 5, 7)


@dataclass(frozen=True)
class Metric:
    """One per-layer metric: where it comes from and which workloads report it."""

    name: str
    unit: str
    better: str
    layer: str
    on: tuple[int, ...]  # 1-based workload numbers, in WORKLOADS order
    what: str


ALL = (1, 2, 3, 4, 5, 6, 7)
_WEB_OPS = (
    "fix_unicode_mapper", "whitespace_normalization_mapper", "lowercase_mapper",
    "text_length_filter", "whitespace_ratio_filter", "digit_ratio_filter",
    "special_characters_filter", "character_repetition_filter", "fused_filter",
    "document_deduplicator",
)
_DEDUP_ONLY_OPS = ("document_minhash_deduplicator", "document_simhash_deduplicator")
_WEB = (1, 2, 3, 4, 5)


def _op_metrics() -> list[Metric]:
    metrics = []
    for slug in _WEB_OPS + _DEDUP_ONLY_OPS:
        on = (7,) if slug in _DEDUP_ONLY_OPS else _WEB
        if slug in ("whitespace_normalization_mapper", "document_deduplicator"):
            on = _WEB + (7,)
        metrics.append(Metric(
            f"ops.{slug}.s", "s", "lower", "repro.ops", on,
            "op.run(dataset, batched=True) chained over build_ops(recipe, op_fusion=True); "
            "streaming: RunProfiler wall inside run_sample_ops, dedup = compute_hash_batched",
        ))
        metrics.append(Metric(
            f"ops.{slug}.rows_out", "count", "higher", "repro.ops", on,
            "rows the op let through (dedup on streaming: rows kept by the global resolve)",
        ))
    return metrics


PER_LAYER: list[Metric] = [
    Metric("formats.decode_jsonl_s", "s", "lower", "repro.formats", (1, 2, 3, 5, 7),
           "load_dataset(path); streaming: list(load_formatter(path).iter_records())"),
    Metric("formats.decode_gz_s", "s", "lower", "repro.formats", (4,),
           "drain load_formatter(dir).iter_records() over the 8 .jsonl.gz shards"),
    Metric("formats.decode_bytes", "bytes", "higher", "repro.formats", (1, 2, 3, 4, 5, 7),
           "uncompressed input bytes decoded"),
    Metric("dataset.from_list_s", "s", "lower", "repro.core.dataset", (1, 2, 4, 7),
           "NestedDataset.from_list: whole corpus (1, 2) or the dedup signature table (4, 7)"),
    Metric("dataset.to_list_s", "s", "lower", "repro.core.dataset", (1, 2, 4, 7),
           "NestedDataset.to_list: whole corpus (1, 2) or every processed shard (4, 7)"),
    Metric("batch.roundtrip_s", "s", "lower", "repro.core.batch", (1, 2),
           "map_batches(identity) at the first op's effective_batch_size"),
    Metric("batch.batches", "count", "lower", "repro.core.batch", (1, 2),
           "column batches one op pass makes of the corpus"),
    *_op_metrics(),
    Metric("ops.kernel_s", "s", "lower", "repro.ops", (1, 2, 3, 4, 5, 7),
           "sum of every ops.<name>.s"),
    Metric("parallel.pool_start_s", "s", "lower", "repro.parallel", (3,),
           "WorkerPool(2, ops=..., process_list=...) until a 2-row first result is back"),
    Metric("parallel.pooled_s", "s", "lower", "repro.parallel", (3,),
           "the op chain with pool=WorkerPool"),
    Metric("parallel.serial_s", "s", "lower", "repro.parallel", (3,),
           "the same op chain without a pool"),
    Metric("parallel.overhead_s", "s", "lower", "repro.parallel", (3,),
           "pooled_s - serial_s / np"),
    Metric("parallel.speedup", "ratio", "higher", "repro.parallel", (3,),
           "serial_s / pooled_s"),
    Metric("parallel.pickle_s", "s", "lower", "repro.parallel", (3,),
           "pickle dumps+loads of every column batch the pool ships out and back"),
    Metric("parallel.pickle_bytes", "bytes", "lower", "repro.parallel", (3,),
           "pickled size of those batches"),
    Metric("cache.op_write_s", "s", "lower", "repro.core.cache", (5,),
           "CacheManager.save after each op"),
    Metric("cache.op_read_s", "s", "lower", "repro.core.cache", (5,),
           "CacheManager.load of each entry just written"),
    Metric("cache.op_bytes", "bytes", "lower", "repro.core.cache", (5,),
           "CacheManager.total_bytes after the run"),
    Metric("cache.shard_key_s", "s", "lower", "repro.core.cache", (4,),
           "sha1 over the json of each input shard + CacheManager.make_shard_key"),
    Metric("cache.shard_write_s", "s", "lower", "repro.core.cache", (4,),
           "CacheManager.save_shard_rows per processed shard"),
    Metric("cache.shard_bytes", "bytes", "lower", "repro.core.cache", (4,),
           "CacheManager.total_bytes after the run"),
    Metric("cache.shard_read_s", "s", "lower", "repro.core.cache", (6,),
           "CacheManager.load_shard_rows of every shard entry of the service cache"),
    Metric("cache.hit_ratio", "ratio", "higher", "repro.core.cache", (6,),
           "shard_hits / (shard_hits + shard_misses) of the last job's RunReport; must be 1.0"),
    Metric("checkpoint.save_s", "s", "lower", "repro.core.checkpoint", (5,),
           "CheckpointManager.save after each op"),
    Metric("checkpoint.load_s", "s", "lower", "repro.core.checkpoint", (5,),
           "CheckpointManager.load of the final checkpoint"),
    Metric("checkpoint.bytes", "bytes", "lower", "repro.core.checkpoint", (5,),
           "bytes under the checkpoint directory after the run"),
    Metric("stream.shard_s", "s", "lower", "repro.core.stream", (4, 7),
           "iter_record_shards over the decoded records"),
    Metric("stream.sample_ops_s", "s", "lower", "repro.core.stream", (4, 7),
           "run_sample_ops per shard, minus the op time inside it"),
    Metric("stream.spill_write_s", "s", "lower", "repro.core.stream", (4, 7),
           "ShardStore.write_shard"),
    Metric("stream.spill_read_s", "s", "lower", "repro.core.stream", (4, 7),
           "ShardStore.read_shard_rows"),
    Metric("stream.spill_bytes", "bytes", "lower", "repro.core.stream", (4, 7),
           "bytes under the ShardStore root after the last stage"),
    Metric("stream.resolve_s", "s", "lower", "repro.core.stream", (4, 7),
           "resolve_global_keep, once per global op"),
    Metric("stream.signature_rows", "count", "lower", "repro.core.stream", (4, 7),
           "rows of the largest signature table"),
    Metric("stream.signature_mb", "MiB", "lower", "repro.core.stream", (4, 7),
           "pickled size of the largest signature table"),
    Metric("exporter.export_s", "s", "lower", "repro.core.exporter", (1, 2, 3, 5, 7),
           "Exporter.export (7: export_stream into one file)"),
    Metric("exporter.export_gz_s", "s", "lower", "repro.core.exporter", (4,),
           "Exporter(shard_rows=...).export_stream into numbered .jsonl.gz shards"),
    Metric("exporter.bytes", "bytes", "lower", "repro.core.exporter", (1, 2, 3, 4, 5, 7),
           "bytes of the export files on disk"),
    Metric("executor.init_s", "s", "lower", "repro.core.executor", (1, 2, 3, 4, 5, 7),
           "Executor(cfg)"),
    Metric("api.compile_s", "s", "lower", "repro.api", (1, 2, 3, 4, 5, 7),
           "Pipeline.from_recipe + Pipeline.to_config + build_ops"),
    Metric("dataflow.check_s", "s", "lower", "repro.tools.dataflow", (1, 2, 3, 4, 5, 7),
           "check_recipe(cfg)"),
    Metric("executor.unattributed_s", "s", "lower", "repro.core.executor", ALL,
           "untraced median wall - sum of the replay's top-level spans"),
    Metric("service.submit_s", "s", "lower", "repro.service", (6,),
           "InProcessClient.submit_job round trips of one repetition"),
    Metric("service.queue_wait_s", "s", "lower", "repro.service", (6,),
           "started_at - created_at of the job views"),
    Metric("service.run_s", "s", "lower", "repro.service", (6,),
           "finished_at - started_at of the job views"),
    Metric("service.notify_s", "s", "lower", "repro.service", (6,),
           "wait_for_job return - finished_at: the poll granularity"),
    Metric("service.cold_job_s", "s", "lower", "repro.service", (6,),
           "the set-up job that fills the shard cache"),
    Metric("service.root_bytes", "bytes", "lower", "repro.service", (6,),
           "bytes under the service root after the repetition"),
    Metric("cli.startup_s", "s", "lower", "repro.cli", (4,),
           "wall of `python -m repro list-recipes`"),
    Metric("faults.policy_overhead_frac", "ratio", "lower", "repro.core.faults", (1,),
           "median of 3 front-door calls with on_error=skip (zero faults) / "
           "median of 3 plain calls interleaved with them - 1"),
    Metric("tracer.overhead_frac", "ratio", "lower", "repro.core.tracer", (1,),
           "the same with open_tracer=true"),
    Metric("trace.coverage", "ratio", "higher", "bench", ALL,
           "sum of the replay's top-level spans / untraced median wall"),
]


def op_slug(op_name: str, taken: dict[str, str]) -> str:
    """Metric-safe name of an op: a fused group keeps only its ``fused_filter`` head."""
    slug = op_name.split("(", 1)[0]
    candidate, serial = slug, 1
    while taken.get(candidate, op_name) != op_name:
        serial += 1
        candidate = f"{slug}.{serial}"
    taken[candidate] = op_name
    return candidate


# ----------------------------------------------------------------------
# Spans
# ----------------------------------------------------------------------
class SpanRecorder:
    """In-memory spans of one traced pass; written out once, at the end."""

    def __init__(self, workload: str):
        self.workload = workload
        self.spans: list[dict] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str, layer: str, **detail: Any) -> Iterator[dict]:
        record = {
            "id": len(self.spans),
            "name": name,
            "layer": layer,
            "parent": self._stack[-1] if self._stack else None,
            "workload": self.workload,
            "start": time.perf_counter(),
            "end": None,
        }
        record.update(detail)
        self.spans.append(record)
        self._stack.append(record["id"])
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()

    def add_child(self, parent: dict, name: str, layer: str, start: float, seconds: float) -> None:
        """A span whose length was measured by the program (``RunProfiler``), not by us."""
        self.spans.append({
            "id": len(self.spans), "name": name, "layer": layer, "parent": parent["id"],
            "workload": self.workload, "start": start, "end": start + seconds,
            "synthetic": True,
        })

    def rollback(self, mark: int) -> None:
        """Forget the spans a failed probe recorded: half a replay is not a measurement."""
        del self.spans[mark:]
        self._stack.clear()

    def self_times(self, key: str = "name", under: str | None = None) -> dict[str, float]:
        """Duration minus the part covered by child spans, summed per name (or layer).

        ``under`` keeps only the spans below a root of that name (``"replay"``).
        """
        covered: dict[int, float] = {}
        inside: set[int] = set()
        for span in self.spans:  # parents are recorded before their children
            if span["parent"] is not None:
                covered[span["parent"]] = covered.get(span["parent"], 0.0) + (
                    span["end"] - span["start"]
                )
            if span["name"] == under or span["parent"] in inside:
                inside.add(span["id"])
        totals: dict[str, float] = {}
        for span in self.spans:
            if under is None or (span["id"] in inside and span["name"] != under):
                own = span["end"] - span["start"] - covered.get(span["id"], 0.0)
                totals[span[key]] = totals.get(span[key], 0.0) + own
        return totals

    def children_sum(self, root_name: str) -> float:
        roots = {span["id"] for span in self.spans if span["name"] == root_name}
        return sum(
            span["end"] - span["start"] for span in self.spans if span["parent"] in roots
        )

    def flush(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(span) + "\n")


@dataclass
class Context:
    """Everything one traced pass shares between its probes."""

    workload: Workload
    number: int
    dataset_path: str
    input_bytes: int
    scratch: Path
    untraced_wall_s: float
    recorder: SpanRecorder
    values: dict[str, float] = field(default_factory=dict)
    failures: list[str] = field(default_factory=list)
    slugs: dict[str, str] = field(default_factory=dict)
    replay_sha256: str | None = None

    def span(self, name: str, layer: str, **detail: Any):
        return self.recorder.span(name, layer, **detail)

    def slug(self, op: Any) -> str:
        return op_slug(op.name, self.slugs)


# ----------------------------------------------------------------------
# The public names the probes call, looked up before a probe does any work
# ----------------------------------------------------------------------
COMPILE_NAMES = {
    "Pipeline": ("repro.api", "Pipeline"),
    "build_ops": ("repro.ops", "build_ops"),
    "Executor": ("repro.core.executor", "Executor"),
    "check_recipe": ("repro.tools.dataflow", "check_recipe"),
    "Exporter": ("repro.core.exporter", "Exporter"),
    "CacheManager": ("repro.core.cache", "CacheManager"),
}
MEMORY_NAMES = {
    **COMPILE_NAMES,
    "load_dataset": ("repro.formats.load", "load_dataset"),
    "CheckpointManager": ("repro.core.checkpoint", "CheckpointManager"),
    "op_config_hash": ("repro.core.stream", "op_config_hash"),
    "WorkerPool": ("repro.parallel", "WorkerPool"),
}
STREAM_NAMES = {
    **COMPILE_NAMES,
    "load_formatter": ("repro.formats.load", "load_formatter"),
    "NestedDataset": ("repro.core.dataset", "NestedDataset"),
    "Deduplicator": ("repro.core.base_op", "Deduplicator"),
    "RunProfiler": ("repro.core.monitor", "RunProfiler"),
    "iter_record_shards": ("repro.core.stream", "iter_record_shards"),
    "plan_segments": ("repro.core.stream", "plan_segments"),
    "stage_chain_hash": ("repro.core.stream", "stage_chain_hash"),
    "run_sample_ops": ("repro.core.stream", "run_sample_ops"),
    "ShardStore": ("repro.core.stream", "ShardStore"),
    "signature_column_names": ("repro.core.stream", "signature_column_names"),
    "ROW_ID_COLUMN": ("repro.core.stream", "ROW_ID_COLUMN"),
    "resolve_global_keep": ("repro.core.stream", "resolve_global_keep"),
    "apply_keep_mask": ("repro.core.stream", "apply_keep_mask"),
}
SERVICE_NAMES = {
    "create_core": ("repro.service", "create_core"),
    "InProcessClient": ("repro.service", "InProcessClient"),
    "CacheManager": ("repro.core.cache", "CacheManager"),
}
SIDE_NAMES = {
    "load_dataset": ("repro.formats.load", "load_dataset"),
    "build_ops": ("repro.ops", "build_ops"),
    "NestedDataset": ("repro.core.dataset", "NestedDataset"),
}


def resolve(module: str, name: str) -> Any:
    """Look up one public name of the program; raises when it moved."""
    return getattr(importlib.import_module(module), name)


def resolve_all(names: dict[str, tuple[str, str]]) -> SimpleNamespace:
    """Every name a probe needs, or an exception before it has measured anything."""
    return SimpleNamespace(**{key: resolve(*target) for key, target in names.items()})


# ----------------------------------------------------------------------
# Replays (children of the "replay" root: one front-door call, step by step)
# ----------------------------------------------------------------------
def _compile(ctx: Context, api: SimpleNamespace, recipe: dict) -> tuple[Any, list]:
    """What every door does before touching data: compile, build, pre-flight."""
    with ctx.span("api.compile", "repro.api"):
        cfg = api.Pipeline.from_recipe(recipe).to_config()
        ops = api.build_ops(cfg.process, op_fusion=cfg.op_fusion)
    with ctx.span("executor.init", "repro.core.executor"):
        api.Executor(cfg).close()
    with ctx.span("dataflow.check", "repro.tools.dataflow"):
        api.check_recipe(cfg, stream=ctx.workload.mode == "streaming")
    return cfg, ops


def _finish_export(ctx: Context, paths: list) -> None:
    paths = [str(path) for path in paths]
    ctx.values["exporter.bytes"] = sum(Path(path).stat().st_size for path in paths)
    ctx.replay_sha256, _ids = export_digest(paths)


def replay_memory(ctx: Context) -> None:
    """Workloads 1, 2, 3, 5: load, run each op on the whole dataset, export."""
    api = resolve_all(MEMORY_NAMES)
    workload = ctx.workload
    work_dir = ctx.scratch / "replay-work"
    export_path = ctx.scratch / "replay-export" / "out.jsonl"
    recipe = recipe_payload(workload, ctx.dataset_path, work_dir=str(work_dir))
    cache = checkpoint = pool = None
    keys: list[str] = []
    with ctx.span("replay", "bench"):
        cfg, ops = _compile(ctx, api, recipe)
        with ctx.span("formats.decode_jsonl", "repro.formats"):
            dataset = api.load_dataset(ctx.dataset_path)
        if cfg.use_cache:
            cache = api.CacheManager(work_dir / "cache")
        if cfg.use_checkpoint:
            checkpoint = api.CheckpointManager(work_dir / "checkpoint")
        names = [op.name for op in ops]
        hashes = [api.op_config_hash(op) for op in ops]
        try:
            if cfg.np > 1:
                with ctx.span("parallel.pool_start", "repro.parallel"):
                    pool = api.WorkerPool(
                        cfg.np, ops=ops, process_list=cfg.process, op_fusion=cfg.op_fusion
                    )
                    ops[0].run(dataset.take(2), batched=True, pool=pool)
            for index, op in enumerate(ops):
                slug = ctx.slug(op)
                if cache is not None:
                    keys.append(cache.make_key(dataset.fingerprint, op.name, op.config()))
                    cache.load(keys[-1])  # the miss the cold run pays
                with ctx.span(f"ops.{slug}", "repro.ops"):
                    dataset = op.run(dataset, batched=True, pool=pool)
                ctx.values[f"ops.{slug}.rows_out"] = len(dataset)
                if cache is not None:
                    with ctx.span("cache.op_write", "repro.core.cache"):
                        cache.save(keys[-1], dataset)
                if checkpoint is not None:
                    with ctx.span("checkpoint.save", "repro.core.checkpoint"):
                        checkpoint.save(dataset, index + 1, names, hashes)
            with ctx.span("exporter.export", "repro.core.exporter"):
                exported = api.Exporter(export_path).export(dataset)
        finally:
            if pool is not None:
                with ctx.span("parallel.pool_close", "repro.parallel"):
                    pool.close()
    _finish_export(ctx, [exported])
    with ctx.span("probes", "bench"):
        if cache is not None:
            ctx.values["cache.op_bytes"] = cache.total_bytes()
            for key in keys:
                with ctx.span("cache.op_read", "repro.core.cache"):
                    cache.load(key)
        if checkpoint is not None:
            ctx.values["checkpoint.bytes"] = tree_bytes(checkpoint.checkpoint_dir)
            with ctx.span("checkpoint.load", "repro.core.checkpoint"):
                checkpoint.load()


def _replay_stage(ctx: Context, api: SimpleNamespace, stage: int, segment: Any, shards: list,
                  store: Any, cache: Any, profiler: Any, signatures: list) -> list:
    """One streaming segment over every shard, as ``Executor.run_streaming`` drives it."""
    stream = "repro.core.stream"
    global_op = segment.global_op
    is_dedup = isinstance(global_op, api.Deduplicator)
    chain = api.stage_chain_hash(segment)
    counts: list[int] = []
    signature_rows: list[dict] = []
    passed: list[list[dict]] = []
    for index, rows in enumerate(shards):
        key = None
        if cache is not None:
            with ctx.span("cache.shard_key", "repro.core.cache"):
                encoded = json.dumps(rows, sort_keys=True, default=repr).encode("utf-8")
                key = cache.make_shard_key(chain, hashlib.sha1(encoded).hexdigest())
            cache.load_shard_rows(key)  # the miss the cold run pays
        before = {id(op): profiler.profile_for(op).wall_time_s for op in segment.sample_ops}
        with ctx.span("stream.sample_ops", stream, stage=stage, shard=index) as parent:
            shard = api.run_sample_ops(rows, segment.sample_ops, profiler=profiler)
        cursor = parent["start"]
        for op in segment.sample_ops:
            seconds = profiler.profile_for(op).wall_time_s - before[id(op)]
            ctx.recorder.add_child(parent, f"ops.{ctx.slug(op)}", "repro.ops", cursor, seconds)
            cursor += seconds
        if is_dedup:
            with ctx.span(f"ops.{ctx.slug(global_op)}", "repro.ops", stage=stage, shard=index):
                shard = shard.map_batches(
                    global_op.compute_hash_batched,
                    batch_size=global_op.effective_batch_size(shard),
                    new_fingerprint=shard.derive_fingerprint(
                        f"{global_op.name}:hash", global_op.config()
                    ),
                )
        with ctx.span("dataset.to_list", "repro.core.dataset"):
            out_rows = shard.to_list()
        if cache is not None:
            with ctx.span("cache.shard_write", "repro.core.cache"):
                cache.save_shard_rows(key, out_rows)
        if global_op is None:
            passed.append(out_rows)
            continue
        with ctx.span("stream.spill_write", stream):
            store.write_shard(stage, index, out_rows)
        counts.append(len(out_rows))
        if out_rows:
            with ctx.span("stream.signature", stream):
                columns = api.signature_column_names(
                    global_op, list(out_rows[0].keys()), getattr(global_op, "text_key", "text")
                )
                base = len(signature_rows)
                for offset, row in enumerate(out_rows):
                    skinny = {name: row.get(name) for name in columns}
                    skinny[api.ROW_ID_COLUMN] = base + offset
                    signature_rows.append(skinny)
    for op in segment.sample_ops:
        ctx.values[f"ops.{ctx.slug(op)}.rows_out"] = profiler.profile_for(op).rows_out
    if global_op is None:
        return passed
    with ctx.span("dataset.from_list", "repro.core.dataset"):
        signature = api.NestedDataset.from_list(signature_rows)
    with ctx.span("stream.resolve", stream, op=global_op.name):
        keep, dropped = api.resolve_global_keep(global_op, signature)
    ctx.values[f"ops.{ctx.slug(global_op)}.rows_out"] = sum(keep)
    signatures.append(signature_rows)
    offset = 0
    for index, count in enumerate(counts):
        with ctx.span("stream.spill_read", stream):
            rows = store.read_shard_rows(stage, index)
        with ctx.span("stream.mask", stream):
            passed.append(api.apply_keep_mask(rows, keep[offset:offset + count], dropped))
        offset += count
    return passed


def replay_streaming(ctx: Context) -> None:
    """Workloads 4 and 7: decode, shard, per-shard ops, spill, global resolve, export."""
    api = resolve_all(STREAM_NAMES)
    workload = ctx.workload
    work_dir = ctx.scratch / "replay-work"
    sharded_gz = workload.door == "cli"
    export_path = ctx.scratch / "replay-export" / ("out.jsonl.gz" if sharded_gz else "out.jsonl")
    recipe = recipe_payload(workload, ctx.dataset_path, work_dir=str(work_dir))
    signatures: list[list[dict]] = []
    with ctx.span("replay", "bench"):
        if workload.door == "cli":
            with ctx.span("cli.startup", "repro.cli"):
                subprocess.run(
                    [sys.executable, "-m", "repro", "list-recipes"], env=child_env(),
                    cwd=str(REPO_ROOT), check=True, capture_output=True,
                )
        cfg, ops = _compile(ctx, api, recipe)
        formatter = api.load_formatter(ctx.dataset_path)
        decode = "formats.decode_gz" if workload.gz_shards else "formats.decode_jsonl"
        with ctx.span(decode, "repro.formats"):
            records = list(formatter.iter_records())
        with ctx.span("stream.shard", "repro.core.stream"):
            shards = list(api.iter_record_shards(
                records, max_rows=cfg.max_shard_rows, max_chars=cfg.max_shard_chars
            ))
        del records
        store = api.ShardStore(work_dir / "stream-spill" / "replay")
        cache = api.CacheManager(work_dir / "cache") if cfg.use_cache else None
        profiler = api.RunProfiler()
        for stage, segment in enumerate(api.plan_segments(ops)):
            shards = _replay_stage(
                ctx, api, stage, segment, shards, store, cache, profiler, signatures
            )
        exporter = api.Exporter(
            export_path, shard_rows=cfg.max_shard_rows if sharded_gz else None
        )
        with ctx.span("exporter.export_gz" if sharded_gz else "exporter.export",
                      "repro.core.exporter"):
            exported = exporter.export_stream(row for shard in shards for row in shard)
    _finish_export(ctx, exported)
    ctx.values["stream.spill_bytes"] = tree_bytes(store.root)
    if cache is not None:
        ctx.values["cache.shard_bytes"] = cache.total_bytes()
    largest = max(signatures, key=len, default=[])
    ctx.values["stream.signature_rows"] = len(largest)
    ctx.values["stream.signature_mb"] = len(pickle.dumps(largest)) / 2**20


def replay_service(ctx: Context) -> None:
    """Workload 6: one cold job, then the repetition's resubmits through the client."""
    api = resolve_all(SERVICE_NAMES)
    workload = ctx.workload
    root = ctx.scratch / "replay-service-root"
    export_dir = ctx.scratch / "replay-export"
    payload = {
        "recipe": recipe_payload(
            workload, ctx.dataset_path, export_path=str(export_dir / "out.jsonl")
        ),
        "mode": workload.mode,
    }
    core = api.create_core(root)
    client = api.InProcessClient(core)
    queue_wait = run = notify = 0.0
    try:
        with ctx.span("probes", "bench"):
            with ctx.span("service.cold_job", "repro.service"):
                client.wait_for_job(client.submit_job(payload)["id"])
        with ctx.span("replay", "bench"):
            for _ in range(workload.jobs_per_rep):
                with ctx.span("service.submit", "repro.service"):
                    job = client.submit_job(payload)
                with ctx.span("service.wait", "repro.service"):
                    view = client.wait_for_job(job["id"])
                    observed = time.time()
                if view["state"] != "succeeded":
                    raise RuntimeError(f"job {job['id']} ended {view['state']}")
                queue_wait += view["started_at"] - view["created_at"]
                run += view["finished_at"] - view["started_at"]
                notify += observed - view["finished_at"]
        report = client.job_report(job["id"])
    finally:
        core.shutdown()
    _finish_export(ctx, report["export_paths"])
    counters = report["cache"]
    ctx.values.update({
        "service.queue_wait_s": queue_wait,
        "service.run_s": run,
        "service.notify_s": notify,
        "service.root_bytes": tree_bytes(root),
        "cache.hit_ratio": counters["shard_hits"]
        / max(1, counters["shard_hits"] + counters["shard_misses"]),
    })
    # read every shard entry of the service cache back through the public
    # loader; the entries are re-keyed because the service's keys are private
    probe_cache = api.CacheManager(ctx.scratch / "probe-cache")
    entries = sorted((root / "cache").glob("shard-*.pkl"))
    for index, entry in enumerate(entries):
        # bytes this benchmark's own service run wrote a moment ago
        probe_cache.save_shard_rows(f"probe-{index}", pickle.loads(entry.read_bytes()))
    with ctx.span("probes", "bench"):
        for index in range(len(entries)):
            with ctx.span("cache.shard_read", "repro.core.cache"):
                probe_cache.load_shard_rows(f"probe-{index}")


# ----------------------------------------------------------------------
# Side probes (children of a "probes" root; never counted in coverage)
# ----------------------------------------------------------------------
def _identity(batch: dict) -> dict:
    return batch


def probe_dataset_batch(ctx: Context) -> None:
    """Workloads 1, 2: rows<->columns conversion and the bare batch loop."""
    api = resolve_all(SIDE_NAMES)
    dataset = api.load_dataset(ctx.dataset_path)
    ops = api.build_ops(recipe_payload(ctx.workload, ctx.dataset_path)["process"], op_fusion=True)
    batch_size = ops[0].effective_batch_size(dataset)
    with ctx.span("probes", "bench"):
        with ctx.span("dataset.to_list", "repro.core.dataset"):
            rows = dataset.to_list()
        with ctx.span("dataset.from_list", "repro.core.dataset"):
            api.NestedDataset.from_list(rows)
        with ctx.span("batch.roundtrip", "repro.core.batch"):
            dataset.map_batches(_identity, batch_size=batch_size)
    ctx.values["batch.batches"] = math.ceil(len(dataset) / batch_size)


def probe_overheads(ctx: Context, rounds: int = 3) -> None:
    """Workload 1: what the (idle) fault policy and the tracer add to a front-door call.

    Plain calls are interleaved with the variants in this same process: the
    host's speed drifts by more between two processes than either overhead.
    """
    variants = (
        ("overhead.plain", "bench", {}),
        ("faults.policy_overhead", "repro.core.faults", {"on_error": "skip"}),
        ("tracer.overhead", "repro.core.tracer", {"open_tracer": True}),
    )
    walls: dict[str, list[float]] = {name: [] for name, _layer, _extra in variants}
    with ctx.span("probes", "bench"):
        for attempt in range(rounds):
            for name, layer, extra in variants:
                variant = dataclasses.replace(
                    ctx.workload, options={**ctx.workload.options, **extra}
                )
                scratch = ctx.scratch / f"{name}-{attempt}"
                with ctx.span(name, layer) as span:
                    call_api(variant, ctx.dataset_path, scratch / "work", scratch / "export")
                walls[name].append(span["end"] - span["start"])
    plain = statistics.median(walls.pop("overhead.plain"))
    for name, seconds in walls.items():
        ctx.values[f"{name}_frac"] = statistics.median(seconds) / plain - 1.0


def _op_seconds(ctx: Context) -> float:
    return sum(
        seconds for name, seconds in ctx.recorder.self_times().items() if name.startswith("ops.")
    )


def probe_parallel(ctx: Context) -> None:
    """Workload 3: the serial run beside the pooled one, and what the pool must pickle."""
    api = resolve_all(SIDE_NAMES)
    # the replay ran the op chain through the pool: its op spans are the pooled time
    pooled = _op_seconds(ctx)
    dataset = api.load_dataset(ctx.dataset_path)
    ops = api.build_ops(recipe_payload(ctx.workload, ctx.dataset_path)["process"], op_fusion=True)
    stages = []
    with ctx.span("probes", "bench"):
        with ctx.span("parallel.serial", "repro.parallel"):
            for op in ops:
                result = op.run(dataset, batched=True)
                stages.append((op, dataset, result))
                dataset = result
        shipped = 0
        for op, before, after in stages:
            size = op.effective_batch_size(before)
            batches = list(before.iter_batches(size)) + list(after.iter_batches(size))
            with ctx.span("parallel.pickle", "repro.parallel", op=op.name):
                for batch in batches:
                    blob = pickle.dumps(batch)
                    pickle.loads(blob)
                    shipped += len(blob)
    serial = ctx.recorder.self_times()["parallel.serial"]
    ctx.values.update({
        "parallel.pooled_s": pooled,
        "parallel.pickle_bytes": shipped,
        "parallel.overhead_s": pooled - serial / ctx.workload.options["np"],
        "parallel.speedup": serial / pooled,
    })


REPLAYS = {"memory": replay_memory, "streaming": replay_streaming}
SIDE_PROBES = {
    1: (probe_dataset_batch, probe_overheads),
    2: (probe_dataset_batch,),
    3: (probe_parallel,),
}


# ----------------------------------------------------------------------
# The traced child
# ----------------------------------------------------------------------
def _warm_up(ctx: Context, rows: int = 300) -> None:
    """One front-door call over the head of the input, outside every span.

    The untraced repetitions run after a warm-up, with lazy imports, schema
    and effect catalogs and op assets already loaded; the replay must start
    from the same state or its spans would hold one-off costs the untraced
    wall time does not.  The cold CLI pays them on every call and the
    service's cold job is its warm-up, so neither is warmed here.
    """
    head = ctx.scratch / "warm-up.jsonl"
    with open(ctx.dataset_path, "rb") as source, head.open("wb") as target:
        for _ in range(rows):
            target.write(source.readline())
    call_api(ctx.workload, str(head), ctx.scratch / "warm-up-work", ctx.scratch / "warm-up-export")


def run_traced(spec: dict) -> dict:
    """Replay one workload, run its side probes, write the span file."""
    ensure_importable()
    workload = BY_NAME[spec["workload"]]
    number = WORKLOADS.index(workload) + 1
    ctx = Context(
        workload=workload,
        number=number,
        dataset_path=spec["dataset_path"],
        input_bytes=spec["input_bytes"],
        scratch=Path(spec["scratch"]),
        untraced_wall_s=spec["untraced_wall_s"],
        recorder=SpanRecorder(workload.name),
    )
    ctx.scratch.mkdir(parents=True, exist_ok=True)
    replay = replay_service if workload.door == "service" else REPLAYS[workload.mode]
    if workload.door == "api":
        _warm_up(ctx)
    for probe in (replay, *SIDE_PROBES.get(number, ())):
        mark, values = len(ctx.recorder.spans), dict(ctx.values)
        try:
            probe(ctx)
        except Exception as error:  # noqa: BLE001 - a broken probe degrades to null
            ctx.failures.append(f"{probe.__name__}: {error!r}")
            ctx.recorder.rollback(mark)
            ctx.values = values
    ctx.recorder.flush(Path(spec["span_file"]))

    self_times = ctx.recorder.self_times()
    if "replay" in self_times:
        top_level = ctx.recorder.children_sum("replay")
        ctx.values["executor.unattributed_s"] = ctx.untraced_wall_s - top_level
        ctx.values["trace.coverage"] = top_level / ctx.untraced_wall_s
        if workload.door != "service":
            ctx.values["formats.decode_bytes"] = ctx.input_bytes
            ctx.values["ops.kernel_s"] = _op_seconds(ctx)

    metrics: dict[str, float | None] = {}
    unavailable: dict[str, str] = {}
    for metric in PER_LAYER:
        if number not in metric.on:
            continue
        span_name = metric.name[:-2] if metric.name.endswith(("_s", ".s")) else None
        if metric.name in ctx.values:
            metrics[metric.name] = ctx.values[metric.name]
        elif span_name in self_times:
            metrics[metric.name] = self_times[span_name]
        else:
            metrics[metric.name] = None
            unavailable[metric.name] = "; ".join(ctx.failures) or "no span recorded"
    coverage = metrics.get("trace.coverage")
    return {
        "metrics": metrics,
        "probe_unavailable": unavailable,
        # where one front-door call spends its time: self times of the replay only
        "replay_layer_s": ctx.recorder.self_times("layer", under="replay"),
        "replay_span_s": ctx.recorder.self_times("name", under="replay"),
        "op_names": dict(ctx.slugs),
        "replay_sha256": ctx.replay_sha256,
        "layer_table": (
            "ok"
            if number not in COVERAGE_GATED
            or (coverage is not None and COVERAGE_BAND[0] <= coverage <= COVERAGE_BAND[1])
            else "unresolved"
        ),
        "span_file": spec["span_file"],
        "spans": len(ctx.recorder.spans),
    }
