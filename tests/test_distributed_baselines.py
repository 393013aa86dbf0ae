"""Tests for the distributed runners, the scalability sweep and the baseline pipelines."""

import os

import pytest

from repro.baselines import DolmaLikePipeline, RedPajamaLikePipeline
from repro.core.dataset import NestedDataset
from repro.core.executor import Executor
from repro.distributed.cluster import ClusterSpec, ScalabilitySweep
from repro.distributed.partition import merge_partitions, partition_rows, split_dataset
from repro.distributed.runners import BeamLikeRunner, RayLikeRunner
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
        dataset = NestedDataset.from_list([{"text": str(i)} for i in range(10)])
        parts = split_dataset(dataset, 3)
        assert [len(part) for part in parts] == [4, 3, 3]

    def test_split_more_partitions_than_rows(self):
        dataset = NestedDataset.from_list([{"text": "a"}, {"text": "b"}])
        assert len(split_dataset(dataset, 8)) == 2

    def test_merge_restores_all_rows(self):
        dataset = NestedDataset.from_list([{"text": str(i)} for i in range(7)])
        assert len(merge_partitions(split_dataset(dataset, 3))) == 7

    def test_partition_rows_invalid(self):
        with pytest.raises(ValueError):
            partition_rows([{"text": "a"}], 0)


class TestRunners:
    def test_ray_like_matches_single_machine_result(self, corpus, reference_output):
        result = RayLikeRunner(num_nodes=3).run(corpus, PROCESS)
        assert sorted(r["text"] for r in result.dataset) == sorted(
            r["text"] for r in reference_output
        )

    def test_single_node_runs_in_process(self, corpus, reference_output):
        result = RayLikeRunner(num_nodes=1).run(corpus, PROCESS)
        assert len(result.dataset) == len(reference_output)

    def test_beam_like_matches_results_but_adds_load_time(self, corpus, reference_output):
        result = BeamLikeRunner(num_nodes=2).run(corpus, PROCESS)
        assert len(result.dataset) == len(reference_output)
        assert result.load_time_s > 0.0

    def test_invalid_node_count(self):
        with pytest.raises(ValueError):
            RayLikeRunner(num_nodes=0)

    def test_split_process_list_does_not_instantiate_ops(self):
        """Classification goes through the registry classes, never ``load_ops``."""
        from repro.core.base_op import Selector
        from repro.core.registry import OPERATORS

        class ExplodingSelector(Selector):
            def __init__(self, **kwargs):
                raise AssertionError("classification must not instantiate operators")

        OPERATORS.modules["exploding_selector_for_test"] = ExplodingSelector
        try:
            sample_level, dataset_level = RayLikeRunner()._split_process_list(
                PROCESS + [{"exploding_selector_for_test": {}}]
            )
        finally:
            del OPERATORS.modules["exploding_selector_for_test"]
        assert dataset_level == [{"document_deduplicator": {}}, {"exploding_selector_for_test": {}}]
        assert len(sample_level) == len(PROCESS) - 1

    def test_run_result_reports_measured_and_simulated_time(self, corpus):
        result = RayLikeRunner(num_nodes=2).run(corpus, PROCESS)
        assert result.wall_time_s > 0.0
        assert result.simulated_time_s > 0.0
        # and the run reports the pool workers that actually served it —
        # out-of-process pids, never the coordinator, bounded by the pool size
        assert result.worker_pids
        assert os.getpid() not in result.worker_pids
        assert len(set(result.worker_pids)) <= 2

    def test_inline_run_reports_no_worker_pids(self, corpus):
        result = RayLikeRunner(num_nodes=1).run(corpus, PROCESS)
        assert result.worker_pids == []
        assert result.simulated_time_s > 0.0


class TestScalabilitySweep:
    def test_sweep_produces_point_per_backend_and_node_count(self, corpus):
        sweep = ScalabilitySweep(process_list=PROCESS, node_counts=[1, 2])
        points = sweep.run(corpus, backends=("ray", "beam"))
        assert len(points) == 4
        assert {point.backend for point in points} == {"ray", "beam"}

    def test_unknown_backend_rejected(self, corpus):
        with pytest.raises(ValueError):
            ScalabilitySweep(process_list=PROCESS, node_counts=[1]).run(corpus, backends=("spark",))

    def test_cluster_spec_total_workers(self):
        assert ClusterSpec(num_nodes=4, cores_per_node=2).total_workers == 8


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
