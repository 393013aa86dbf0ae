"""Streaming engine — bounded peak memory at matched throughput and output.

The out-of-core run mode must (1) process a corpus several times larger than
its shard budget while holding only ~one shard of payload in memory, (2)
produce byte-identical exports to the in-memory path, and (3) stay within
~15% of the in-memory path's wall-clock.  This suite generates an on-disk
jsonl corpus >= 5x the configured shard budget, runs both paths through the
same web-refinement pipeline and asserts all three (``make bench-stream``
prints the table).  Each path is the fastest of three interleaved rounds; it
is still an assertion, not a ruler: repeatable numbers come from ``bench/``
(``python bench/run.py``).

Peak memory is asserted on the tracemalloc Python-heap peak, which is
resettable per run and therefore robust inside a long pytest session; the
process RSS delta is recorded alongside (``resource.ru_maxrss`` is a
process-lifetime high-water mark, so under a full test session — and in any
round but the first — it can only be reported, not tightly asserted).
"""

import json
import resource
import tempfile
import time
import tracemalloc
from pathlib import Path

from conftest import best_of_interleaved, print_table, run_once

from repro.core.executor import Executor
from repro.synth.generators import DocumentGenerator, NoiseInjector

#: shard budget under test; the corpus is generated >= 5x larger
MAX_SHARD_ROWS = 600
NUM_SAMPLES = 6000  # 10x the shard budget

PROCESS = [
    {"whitespace_normalization_mapper": {}},
    {"clean_links_mapper": {}},
    {"text_length_filter": {"min_len": 60}},
    {"special_characters_filter": {"max_ratio": 0.4}},
    {"words_num_filter": {"min_num": 10}},
    {"document_deduplicator": {}},
]


def build_corpus(path: Path, num_samples: int, seed: int = 13) -> int:
    """Write a noisy web-like jsonl corpus to disk; returns its size in bytes."""
    import random

    generator = DocumentGenerator(seed)
    noise = NoiseInjector(seed + 1)
    rng = random.Random(seed + 2)
    with path.open("w", encoding="utf-8") as handle:
        for _ in range(num_samples):
            roll = rng.random()
            if roll < 0.55:
                text = generator.document(num_paragraphs=rng.randint(1, 2))
            elif roll < 0.85:
                text = noise.corrupt(generator.paragraph(), kinds=["links", "repetition"])
            else:
                text = noise.gibberish(length=rng.randint(100, 300))
            handle.write(json.dumps({"text": text}, ensure_ascii=False) + "\n")
    return path.stat().st_size


def _measure(run) -> dict:
    """Wall time, resettable Python-heap peak and RSS delta of one call."""
    started_tracing = not tracemalloc.is_tracing()
    if started_tracing:
        tracemalloc.start()
    tracemalloc.reset_peak()
    rss_before_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    start = time.perf_counter()
    run()
    wall = time.perf_counter() - start
    _current, peak = tracemalloc.get_traced_memory()
    if started_tracing:
        tracemalloc.stop()
    rss_after_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "wall_time_s": round(wall, 3),
        "peak_heap_mb": round(peak / (1024 * 1024), 2),
        "rss_delta_mb": round((rss_after_kb - rss_before_kb) / 1024, 2),
    }


def reproduce_stream_memory() -> dict:
    workdir = Path(tempfile.mkdtemp(prefix="bench-stream-"))
    corpus_path = workdir / "corpus.jsonl"
    corpus_bytes = build_corpus(corpus_path, NUM_SAMPLES)

    def config(mode: str) -> dict:
        return {
            "dataset_path": str(corpus_path),
            "export_path": str(workdir / f"{mode}.jsonl"),
            "process": PROCESS,
            "work_dir": str(workdir / f"work-{mode}"),
            "max_shard_rows": MAX_SHARD_ROWS,
        }

    # warm-up on a small slice: one-time costs (lazy imports, codepoint class
    # tables, refinement caches) must not be billed to either measured run
    warm_path = workdir / "warm.jsonl"
    build_corpus(warm_path, 64)
    for mode in ("warm-stream", "warm-memory"):
        warm_cfg = config(mode)
        warm_cfg["dataset_path"] = str(warm_path)
        executor = Executor(warm_cfg)
        if mode == "warm-stream":
            executor.run_streaming()
        else:
            executor.run()

    def run_streaming() -> dict:
        executor = Executor(config("stream"))
        measured = _measure(executor.run_streaming)
        measured["rows_out"] = executor.last_report["num_output_samples"]
        measured["shards"] = executor.last_report["shards"]["input_shards"]
        return measured

    def run_memory() -> dict:
        executor = Executor(config("memory"))
        measured = _measure(lambda: executor.run())
        measured["rows_out"] = executor.last_report["num_output_samples"]
        return measured

    # streaming first: ru_maxrss is a process high-water mark, so measuring
    # the bounded path before the materialising one keeps its delta honest
    best = best_of_interleaved(
        {"streaming": run_streaming, "in_memory": run_memory},
        seconds=lambda measured: measured["wall_time_s"],
    )
    streaming, in_memory = best["streaming"], best["in_memory"]

    identical = (workdir / "stream.jsonl").read_bytes() == (workdir / "memory.jsonl").read_bytes()
    return {
        "pipeline": PROCESS,
        "corpus": {
            "rows": NUM_SAMPLES,
            "bytes": corpus_bytes,
            "mb": round(corpus_bytes / (1024 * 1024), 2),
        },
        "shard_budget": {"max_shard_rows": MAX_SHARD_ROWS},
        "corpus_over_budget": round(NUM_SAMPLES / MAX_SHARD_ROWS, 1),
        "streaming": streaming,
        "in_memory": in_memory,
        "byte_identical_export": identical,
        "heap_ratio": round(streaming["peak_heap_mb"] / max(in_memory["peak_heap_mb"], 1e-9), 3),
        "throughput_ratio": round(streaming["wall_time_s"] / max(in_memory["wall_time_s"], 1e-9), 3),
    }


def test_stream_memory(benchmark):
    result = run_once(benchmark, reproduce_stream_memory)
    rows = [
        {
            "path": "streaming",
            "time_s": result["streaming"]["wall_time_s"],
            "peak_heap_mb": result["streaming"]["peak_heap_mb"],
            "rss_delta_mb": result["streaming"]["rss_delta_mb"],
            "rows_out": result["streaming"]["rows_out"],
        },
        {
            "path": "in-memory",
            "time_s": result["in_memory"]["wall_time_s"],
            "peak_heap_mb": result["in_memory"]["peak_heap_mb"],
            "rss_delta_mb": result["in_memory"]["rss_delta_mb"],
            "rows_out": result["in_memory"]["rows_out"],
        },
    ]
    print_table(
        f"Streaming vs in-memory ({result['corpus']['mb']} MB corpus, "
        f"{result['corpus_over_budget']}x the shard budget)",
        rows,
    )

    # the gating scenario: the corpus is >= 5x the shard budget ...
    assert result["corpus_over_budget"] >= 5.0
    # ... the exported bytes are identical ...
    assert result["byte_identical_export"]
    assert result["streaming"]["rows_out"] == result["in_memory"]["rows_out"]
    # ... peak memory is bounded: a fraction of the in-memory peak and well
    # below the corpus size (the in-memory path must hold the whole corpus,
    # the streaming path roughly one shard plus skinny dedup signatures) ...
    corpus_mb = result["corpus"]["mb"]
    assert result["streaming"]["peak_heap_mb"] < corpus_mb, result
    assert result["heap_ratio"] < 0.5, result
    # ... and throughput stays within ~15% of the in-memory path
    assert result["throughput_ratio"] <= 1.15, result
