"""Figure 8 — end-to-end processing time and memory vs the RedPajama / Dolma baselines.

Paper result: across the Books, arXiv and C4 workloads and several process
counts, Data-Juicer needs on average ~50% less time and ~55% less memory than
the baseline pipelines (both baselines load the whole dataset and keep full
per-stage copies).  Here the three workloads are the synthetic books-like,
arXiv-like and C4-like corpora and the "process count" dimension is replaced
by the corpus scale (the single-process substrate).
"""

from conftest import best_of_interleaved, print_table, run_once

from repro.baselines import DolmaLikePipeline, RedPajamaLikePipeline
from repro.core.executor import Executor
from repro.core.monitor import ResourceMonitor
from repro.recipes import get_recipe
from repro.synth import arxiv_like, books_like, c4_like

WORKLOADS = {
    "Books": (books_like, {"num_samples": 60, "seed": 1}, "pretrain-books-refine-en"),
    "arXiv": (arxiv_like, {"num_samples": 150, "seed": 2}, "pretrain-arxiv-refine-en"),
    "C4": (c4_like, {"num_samples": 250, "seed": 3}, "pretrain-c4-refine-en"),
}


def _measure(run) -> dict:
    with ResourceMonitor(trace_memory=True) as monitor:
        run()
    return monitor.report.as_dict()


def reproduce_figure8() -> list[dict]:
    rows = []
    for workload, (builder, kwargs, recipe_name) in WORKLOADS.items():
        corpus = builder(**kwargs)
        process = get_recipe(recipe_name)["process"]

        # warm-up pass per system: one-time process costs (lazy imports,
        # codepoint class tables, token caches) are not per-run costs and
        # would otherwise be billed to whichever system runs first
        warmup = corpus.take(8)
        Executor({"process": process, "op_fusion": True}).run(warmup)
        RedPajamaLikePipeline(process).run(warmup)
        DolmaLikePipeline(process).run(warmup)

        # the Books margin is a few percent: single-shot timings flip on host drift
        reports = best_of_interleaved(
            {
                "Data-Juicer": lambda: _measure(
                    lambda: Executor({"process": process, "op_fusion": True}).run(corpus)
                ),
                "RedPajama": lambda: _measure(lambda: RedPajamaLikePipeline(process).run(corpus)),
                "Dolma": lambda: _measure(lambda: DolmaLikePipeline(process).run(corpus)),
            },
            seconds=lambda report: report["wall_time_s"],
        )
        for system, report in reports.items():
            rows.append(
                {
                    "workload": workload,
                    "system": system,
                    "time_s": report["wall_time_s"],
                    "peak_mem_mb": report["peak_python_mb"],
                }
            )
    return rows


def test_fig8_end_to_end(benchmark):
    rows = run_once(benchmark, reproduce_figure8)
    print_table("Figure 8: end-to-end time and memory vs baselines", rows)

    by_key = {(row["workload"], row["system"]): row for row in rows}
    time_savings = []
    for workload in WORKLOADS:
        juicer = by_key[(workload, "Data-Juicer")]
        for baseline in ("RedPajama", "Dolma"):
            other = by_key[(workload, baseline)]
            # Data-Juicer is never slower than either baseline on any workload
            assert juicer["time_s"] <= other["time_s"], (workload, baseline)
            time_savings.append(1.0 - juicer["time_s"] / other["time_s"])
            # and does not need more Python heap than the copy-heavy baselines
            assert juicer["peak_mem_mb"] <= other["peak_mem_mb"] * 1.2, (workload, baseline)
    # the average time saving is clearly positive (paper: ~50.6% on average on
    # its much larger workloads; the pure-Python scaled-down substrate keeps
    # the direction and a smaller but consistent margin)
    assert sum(time_savings) / len(time_savings) > 0.1
