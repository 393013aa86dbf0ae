"""Figure 9 — processing time before and after OP fusion / reordering.

Paper result: on a 14-OP recipe (5 mappers, 8 filters, 1 deduplicator, 5 of
them fusible), context sharing + OP fusion + reordering saves up to ~25% of
total processing time and up to ~42% of the time spent in fusible OPs, across
three dataset sizes.
"""

from conftest import print_table, run_once

from repro.core.executor import Executor
from repro.core.monitor import time_call
from repro.synth import c4_like

# the 14-OP recipe of the paper's fusion experiment: 5 mappers, 8 filters
# (5 of them word-based and therefore fusible), 1 deduplicator.
FUSION_PROCESS = [
    {"fix_unicode_mapper": {}},
    {"whitespace_normalization_mapper": {}},
    {"punctuation_normalization_mapper": {}},
    {"clean_links_mapper": {}},
    {"clean_email_mapper": {}},
    {"alphanumeric_filter": {"tokenization": True, "min_ratio": 0.1}},
    {"words_num_filter": {"min_num": 5}},
    {"word_repetition_filter": {"rep_len": 5, "max_ratio": 0.8}},
    {"stopwords_filter": {"min_ratio": 0.05}},
    {"flagged_words_filter": {"max_ratio": 0.2}},
    {"text_length_filter": {"min_len": 20}},
    {"special_characters_filter": {"max_ratio": 0.6}},
    {"maximum_line_length_filter": {"max_len": 4000}},
    {"document_deduplicator": {}},
]

DATASET_SIZES = {"small": 80, "medium": 200, "large": 400}


def reproduce_figure9(work_dir: str) -> list[dict]:
    rows = []
    for label, num_samples in DATASET_SIZES.items():
        corpus = c4_like(num_samples=num_samples, seed=17)
        unfused_time, unfused_out = time_call(
            Executor({"process": FUSION_PROCESS, "op_fusion": False, "work_dir": work_dir}).run,
            corpus,
        )
        fused_time, fused_out = time_call(
            Executor({"process": FUSION_PROCESS, "op_fusion": True, "work_dir": work_dir}).run,
            corpus,
        )
        rows.append(
            {
                "dataset": f"{label} ({num_samples} docs)",
                "unfused_s": unfused_time,
                "fused_s": fused_time,
                "saving_%": 100.0 * (1.0 - fused_time / unfused_time),
                "same_output": len(unfused_out) == len(fused_out),
            }
        )
    return rows


def test_fig9_op_fusion(benchmark, tmp_path):
    rows = run_once(benchmark, reproduce_figure9, str(tmp_path))
    print_table("Figure 9: processing time before/after OP fusion", rows)
    for row in rows:
        # fusion never changes the surviving sample set
        assert row["same_output"]
        # fusion saves time at every dataset size (paper: up to ~25% of total time)
        assert row["fused_s"] < row["unfused_s"], row
    # the saving is substantial on the largest dataset
    assert rows[-1]["saving_%"] > 10.0
