"""The seven workloads and the untraced repetitions that time them.

Everything here runs inside the *measurement child* (``run.py --timed-child``): a
fresh interpreter that imports ``repro``, does one warm-up call and then the
timed repetitions, and nothing else — so the ``ru_maxrss`` its parent reads
from ``os.wait4`` is the memory of the front-door calls alone.

A repetition is one complete front-door call with its input on disk and its
export on disk (``service-warm``: five sequential jobs each waited to
``succeeded``).  All loops are closed: one caller, the next call starts when
the previous one has returned.
"""

from __future__ import annotations

import gzip
import hashlib
import json
import os
import shutil
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

REPO_ROOT = Path(__file__).resolve().parent.parent
SRC_DIR = REPO_ROOT / "src"

#: the 13-op list of ``benchmarks/test_batch_throughput.py::PROCESS``
WEB_CLEAN = [
    {"fix_unicode_mapper": {}},
    {"whitespace_normalization_mapper": {}},
    {"lowercase_mapper": {}},
    {"text_length_filter": {"min_len": 40}},
    {"whitespace_ratio_filter": {"min_ratio": 0.01, "max_ratio": 0.5}},
    {"digit_ratio_filter": {"max_ratio": 0.3}},
    {"special_characters_filter": {"max_ratio": 0.4}},
    {"character_repetition_filter": {"rep_len": 8, "max_ratio": 0.6}},
    {"words_num_filter": {"min_num": 10}},
    {"word_repetition_filter": {"rep_len": 5, "max_ratio": 0.6}},
    {"stopwords_filter": {"min_ratio": 0.0}},
    {"flagged_words_filter": {"max_ratio": 1.0}},
    {"document_deduplicator": {}},
]
DEDUP_FUZZY = [
    {"whitespace_normalization_mapper": {}},
    {"document_deduplicator": {}},
    {"document_minhash_deduplicator": {}},
    {"document_simhash_deduplicator": {}},
]
RECIPES = {"web-clean": WEB_CLEAN, "dedup-fuzzy": DEDUP_FUZZY}

#: workloads whose exports must share one sha256 (same rows, same recipe)
WEB_SHORT_GROUP = "web-short"


@dataclass(frozen=True)
class Workload:
    """One benchmark workload: an input, a recipe and a front door."""

    name: str
    why: str
    corpus: str  # short-web | long-web | near-dup
    recipe: str  # key of RECIPES
    door: str  # api | cli | service
    mode: str  # memory | streaming
    options: dict = field(default_factory=dict)
    gz_shards: bool = False  # input is the 8-file .jsonl.gz directory
    jobs_per_rep: int = 1
    digest_group: str | None = None


WORKLOADS = [
    Workload(
        "web-short-memory",
        "control: pure op-kernel and per-row/batch compute; pool, caches, spill and gzip do nothing",
        "short-web", "web-clean", "api", "memory",
        {"np": 1}, digest_group=WEB_SHORT_GROUP,
    ),
    Workload(
        "web-long-memory",
        "same kernels on 8k-char rows: per-character cost dominates, per-row/batch overhead vanishes",
        "long-web", "web-clean", "api", "memory", {"np": 1},
    ),
    Workload(
        "web-short-pool2",
        "np=2 private pool started inside the call: repro.parallel dispatch (pickle+IPC) vs worker compute",
        "short-web", "web-clean", "api", "memory",
        {"np": 2}, digest_group=WEB_SHORT_GROUP,
    ),
    Workload(
        "web-short-stream-gz",
        "cold CLI over 8 gz shards, streaming with shard-cache writes: every I/O layer at once",
        "short-web", "web-clean", "cli", "streaming",
        {"np": 1, "use_cache": True, "max_shard_rows": 4000},
        gz_shards=True, digest_group=WEB_SHORT_GROUP,
    ),
    Workload(
        "web-short-persist-cold",
        "memory mode with op cache and checkpoint on, empty work dir: the persistence write path",
        "short-web", "web-clean", "api", "memory",
        {"np": 1, "use_cache": True, "use_checkpoint": True}, digest_group=WEB_SHORT_GROUP,
    ),
    Workload(
        "service-warm",
        "5 identical resubmits to a warm in-process service: shard-cache reads plus per-job fixed cost",
        "short-web", "web-clean", "service", "streaming",
        {"np": 1, "max_shard_rows": 4000}, jobs_per_rep=5, digest_group=WEB_SHORT_GROUP,
    ),
    Workload(
        "dedup-fuzzy-stream",
        "near-duplicate corpus through exact+MinHash+SimHash dedup, streaming: hashing and global resolve",
        "near-dup", "dedup-fuzzy", "api", "streaming", {"np": 1, "max_shard_rows": 2000},
    ),
]
BY_NAME = {workload.name: workload for workload in WORKLOADS}


# ----------------------------------------------------------------------
# Helpers shared with the traced pass
# ----------------------------------------------------------------------
def ensure_importable() -> None:
    """Put the checkout's ``src`` first on ``sys.path`` (no install needed)."""
    if str(SRC_DIR) not in sys.path:
        sys.path.insert(0, str(SRC_DIR))


def child_env() -> dict:
    """Environment of every ``python -m repro`` subprocess the benchmark starts."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC_DIR) + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    return env


def tree_bytes(root: Path) -> int:
    """Bytes of every regular file under ``root`` (0 when it does not exist)."""
    total = 0
    for directory, _names, files in os.walk(root):
        for name in files:
            total += os.path.getsize(os.path.join(directory, name))
    return total


def export_digest(paths: list[str]) -> tuple[str, list[int]]:
    """sha256 of the export (gunzipped, concatenated in shard order) and its row ids."""
    digest = hashlib.sha256()
    ids: list[int] = []
    for path in sorted(paths):
        opener = gzip.open if path.endswith(".gz") else open
        with opener(path, "rb") as handle:
            for line in handle:
                digest.update(line)
                ids.append(json.loads(line)["id"])
    return digest.hexdigest(), ids


def recipe_payload(workload: Workload, dataset_path: str, **extra) -> dict:
    """The recipe mapping a workload submits through its front door."""
    payload = {
        "project_name": f"bench-{workload.name}",
        "dataset_path": dataset_path,
        "process": RECIPES[workload.recipe],
        "op_fusion": True,
    }
    payload.update(workload.options)
    payload.update(extra)
    return payload


def report_fault_rows(report: dict) -> int:
    """Rows or shards a run dropped instead of processing (must be 0)."""
    faults = report.get("faults") or {}
    return sum(
        int(faults.get(key, 0))
        for key in ("quarantined_rows", "skipped_rows", "quarantined_shards")
    )


# ----------------------------------------------------------------------
# One front-door call per door
# ----------------------------------------------------------------------
def call_api(workload: Workload, dataset_path: str, work_dir: Path, export_dir: Path) -> dict:
    from repro.api import Pipeline

    recipe = recipe_payload(workload, dataset_path, work_dir=str(work_dir))
    report = Pipeline.from_recipe(recipe).export(
        export_dir / "out.jsonl", mode=workload.mode
    )
    return report.as_dict()


def call_cli(workload: Workload, dataset_path: str, work_dir: Path, export_dir: Path) -> dict:
    recipe_file = export_dir / "recipe.json"
    export_dir.mkdir(parents=True, exist_ok=True)
    options = dict(workload.options)
    shard_rows = options.pop("max_shard_rows")
    recipe = {"process": RECIPES[workload.recipe], "op_fusion": True, **options}
    recipe_file.write_text(json.dumps(recipe), encoding="utf-8")
    command = [
        sys.executable, "-m", "repro", "process",
        "--recipe-file", str(recipe_file),
        "--dataset", dataset_path,
        "--export", str(export_dir / "out.jsonl.gz"),
        "--work-dir", str(work_dir),
        "--mode", workload.mode,
        "--max-shard-rows", str(shard_rows),
        "--shard-output",
    ]
    done = subprocess.run(
        command, env=child_env(), cwd=str(REPO_ROOT), capture_output=True, text=True
    )
    if done.returncode != 0:
        raise RuntimeError(f"repro process exited {done.returncode}: {done.stderr[-500:]}")
    return json.loads((work_dir / "report.json").read_text(encoding="utf-8"))


class ServiceDoor:
    """A warm in-process service; ``call`` is one submit waited to a terminal state."""

    def __init__(self, root: Path):
        from repro.service import InProcessClient, create_core

        self.core = create_core(root)
        self.client = InProcessClient(self.core)

    def call(self, workload: Workload, dataset_path: str, export_dir: Path) -> dict:
        payload = {
            "recipe": recipe_payload(
                workload, dataset_path, export_path=str(export_dir / "out.jsonl")
            ),
            "mode": workload.mode,
        }
        job = self.client.submit_job(payload)
        view = self.client.wait_for_job(job["id"])
        if view["state"] != "succeeded":
            raise RuntimeError(f"job {job['id']} ended {view['state']}: {view.get('error')}")
        return self.client.job_report(job["id"])

    def close(self) -> None:
        self.core.shutdown()


# ----------------------------------------------------------------------
# The measurement child
# ----------------------------------------------------------------------
def _one_repetition(call: Callable[[Path, Path], list[dict]], scratch: Path, index: int,
                    persistent_root: Path | None) -> dict:
    """Time one repetition and describe what it left on disk."""
    work_dir = persistent_root or scratch / f"work-{index}"
    export_dir = scratch / f"export-{index}"
    result: dict = {"failed": False, "error": None}
    start = time.perf_counter()
    try:
        reports = call(work_dir, export_dir)
        result["wall_s"] = time.perf_counter() - start
        report = reports[-1]
        result["rows_out"] = int(report["num_output_samples"])
        result["sha256"], ids = export_digest([str(p) for p in report["export_paths"]])
        result["disk_bytes"] = tree_bytes(work_dir)
        dropped = sum(report_fault_rows(r) for r in reports)
        if dropped:
            result["failed"], result["error"] = True, f"{dropped} rows/shards dropped"
        elif len(ids) != result["rows_out"] or any(a >= b for a, b in zip(ids, ids[1:])):
            result["failed"], result["error"] = True, "export rows are not an ordered subset"
    except Exception as error:  # noqa: BLE001 - a failed repetition is data, not a crash
        result.setdefault("wall_s", time.perf_counter() - start)
        result["failed"], result["error"] = True, repr(error)[:500]
    finally:
        shutil.rmtree(export_dir, ignore_errors=True)
        if persistent_root is None:
            shutil.rmtree(work_dir, ignore_errors=True)
    return result


def run_child(spec: dict) -> dict:
    """Warm up once, then repeat until ``seconds`` of timed work and ``min_reps`` are done."""
    workload = BY_NAME[spec["workload"]]
    scratch = Path(spec["scratch"])
    dataset_path = spec["dataset_path"]
    import_s = 0.0
    if workload.door != "cli":
        # the cold CLI imports the program inside every repetition; importing it
        # here as well would only raise the floor of its children's ru_maxrss
        import_start = time.perf_counter()
        ensure_importable()
        import repro.api  # noqa: F401 - the import cost an in-process door pays once
        import repro.service  # noqa: F401
        import_s = time.perf_counter() - import_start

    service: ServiceDoor | None = None
    persistent_root: Path | None = None
    if workload.door == "service":
        persistent_root = scratch / "service-root"
        service = ServiceDoor(persistent_root)

    def call(work_dir: Path, export_dir: Path, jobs: int = workload.jobs_per_rep) -> list[dict]:
        if service is not None:
            return [service.call(workload, dataset_path, export_dir) for _ in range(jobs)]
        door = call_cli if workload.door == "cli" else call_api
        return [door(workload, dataset_path, work_dir, export_dir)]

    try:
        # the service's warm-up is one cold job that fills the shard cache
        warmup = _one_repetition(
            lambda work_dir, export_dir: call(work_dir, export_dir, jobs=1),
            scratch, 0, persistent_root,
        )
        reps: list[dict] = []
        measured = 0.0
        while len(reps) < spec["max_reps"] and (
            len(reps) < spec["min_reps"] or measured < spec["seconds"]
        ):
            rep = _one_repetition(call, scratch, len(reps) + 1, persistent_root)
            measured += rep["wall_s"]
            reps.append(rep)
    finally:
        if service is not None:
            service.close()
    return {"import_s": import_s, "warmup": warmup, "reps": reps}
