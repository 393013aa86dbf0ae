"""Tests for the RedPajama-like and Dolma-like baseline pipelines."""

import pytest

from repro.baselines import DolmaLikePipeline, RedPajamaLikePipeline
from repro.baselines.dolma_like import _partition_rows
from repro.core.executor import Executor
from repro.synth import common_crawl_like

PROCESS = [
    {"whitespace_normalization_mapper": {}},
    {"clean_links_mapper": {}},
    {"text_length_filter": {"min_len": 50}},
    {"words_num_filter": {"min_num": 10}},
    {"document_deduplicator": {}},
]


@pytest.fixture(scope="module")
def corpus():
    return common_crawl_like(num_samples=60, seed=5, duplicate_ratio=0.15)


@pytest.fixture(scope="module")
def reference_output(corpus):
    return Executor({"process": PROCESS, "op_fusion": False}).run(corpus)


class TestPartitioning:
    def test_split_sizes_balanced(self):
        shards = _partition_rows([{"text": str(i)} for i in range(10)], 3)
        assert [len(shard) for shard in shards] == [4, 3, 3]

    def test_split_more_partitions_than_rows(self):
        assert len(_partition_rows([{"text": "a"}, {"text": "b"}], 8)) == 2

    def test_merge_restores_all_rows(self):
        rows = [{"text": str(i)} for i in range(7)]
        # contiguous shards: concatenated, they are the input in its order
        assert [row for shard in _partition_rows(rows, 3) for row in shard] == rows

    def test_empty_input_is_one_empty_shard(self):
        assert _partition_rows([], 4) == [[]]

    def test_partition_rows_invalid(self):
        with pytest.raises(ValueError):
            _partition_rows([{"text": "a"}], 0)

    def test_partition_rows_negative_count(self):
        with pytest.raises(ValueError):
            _partition_rows([{"text": "a"}], -2)


class TestBaselines:
    def test_redpajama_like_same_semantics(self, corpus, reference_output):
        result = RedPajamaLikePipeline(PROCESS).run(corpus)
        assert sorted(row["text"] for row in result.rows) == sorted(
            row["text"] for row in reference_output
        )

    def test_redpajama_like_reports_stage_times(self, corpus):
        result = RedPajamaLikePipeline(PROCESS).run(corpus)
        assert set(result.stage_times) == {
            "whitespace_normalization_mapper",
            "clean_links_mapper",
            "text_length_filter",
            "words_num_filter",
            "document_deduplicator",
        }
        assert result.wall_time_s > 0

    def test_dolma_like_same_semantics(self, corpus, reference_output):
        result = DolmaLikePipeline(PROCESS, num_shards=3).run(corpus)
        assert sorted(row["text"] for row in result.rows) == sorted(
            row["text"] for row in reference_output
        )

    def test_dolma_like_output_does_not_depend_on_shard_count(self, corpus):
        one = DolmaLikePipeline(PROCESS, num_shards=1).run(corpus)
        many = DolmaLikePipeline(PROCESS, num_shards=7).run(corpus)
        assert many.rows == one.rows

    def test_dolma_like_stage_breakdown(self, corpus):
        result = DolmaLikePipeline(PROCESS).run(corpus)
        assert set(result.stage_times) == {"shard", "tag", "filter", "dedup"}

    def test_fused_executor_faster_than_redpajama_baseline(self, corpus):
        import time

        # a tokenization-heavy recipe, where context sharing / OP fusion pays off
        process = PROCESS[:-1] + [
            {"word_repetition_filter": {"rep_len": 5, "max_ratio": 0.9}},
            {"stopwords_filter": {"min_ratio": 0.0}},
            {"flagged_words_filter": {"max_ratio": 1.0}},
            PROCESS[-1],
        ]
        executor = Executor({"process": process, "op_fusion": True})
        start = time.perf_counter()
        executor.run(corpus)
        juicer_time = time.perf_counter() - start
        baseline = RedPajamaLikePipeline(process).run(corpus)
        # the optimized executor should not be slower than the copy-heavy
        # baseline (the Figure 8 benchmarks quantify the gap on larger data)
        assert juicer_time <= baseline.wall_time_s * 1.2
