"""Tests for context management, operator fusion and reordering."""

from repro.core.context import ContextKeys, context_size, enable_context, get_or_compute
from repro.core.dataset import NestedDataset
from repro.core.fusion import FusedFilter, describe_plan, fuse_operators
from repro.core.registry import OPERATORS
from repro.ops import load_ops


def build(name, **params):
    return OPERATORS.get(name)(**params)


def noisy_dataset():
    return NestedDataset.from_list(
        [
            {"text": "The data processing system improves the training corpus quality greatly."},
            {"text": "word word word word word word word word word word word word"},
            {"text": "ok"},
        ]
    )


class TestContext:
    def test_get_or_compute_without_context_always_computes(self):
        calls = []
        sample = {"text": "x"}
        get_or_compute(sample, "words", lambda: calls.append(1) or ["x"])
        get_or_compute(sample, "words", lambda: calls.append(1) or ["x"])
        assert len(calls) == 2

    def test_get_or_compute_with_context_caches(self):
        calls = []
        sample = enable_context({"text": "x"})
        get_or_compute(sample, "words", lambda: calls.append(1) or ["x"])
        get_or_compute(sample, "words", lambda: calls.append(1) or ["never"])
        assert len(calls) == 1
        assert context_size(sample) == 1

    def test_context_size_zero_without_context(self):
        assert context_size({"text": "x"}) == 0


class TestFuseOperators:
    def fusible_filters(self):
        return [
            build("words_num_filter", min_num=1),
            build("word_repetition_filter", rep_len=3, max_ratio=0.6),
            build("stopwords_filter", min_ratio=0.0),
        ]

    def test_fuses_context_sharing_filters(self):
        fused = fuse_operators(self.fusible_filters())
        assert len(fused) == 1
        assert isinstance(fused[0], FusedFilter)
        assert len(fused[0].fused_filters) == 3

    def test_non_fusible_filters_kept_separate(self):
        ops = [build("text_length_filter", min_len=1), build("special_characters_filter")]
        fused = fuse_operators(ops)
        assert len(fused) == 2
        assert not any(isinstance(op, FusedFilter) for op in fused)

    def test_mapper_breaks_filter_groups(self):
        ops = [
            build("words_num_filter", min_num=1),
            build("lowercase_mapper"),
            build("word_repetition_filter"),
        ]
        fused = fuse_operators(ops)
        # the two fusible filters are separated by a mapper, so no fusion happens
        assert not any(isinstance(op, FusedFilter) for op in fused)

    def test_fused_group_reordered_after_plain_filters(self):
        ops = [
            build("words_num_filter", min_num=1),
            build("text_length_filter", min_len=1),
            build("word_repetition_filter"),
        ]
        fused = fuse_operators(ops)
        assert fused[0].name == "text_length_filter"
        assert isinstance(fused[1], FusedFilter)

    def test_filters_on_different_fields_fuse_per_field(self):
        ops = [
            build("words_num_filter", min_num=1),
            build("stopwords_filter", min_ratio=0.0, text_key="title"),
        ]
        assert [op.name for op in fuse_operators(ops)] == [op.name for op in ops]
        ops += [
            build("word_repetition_filter"),
            build("words_num_filter", min_num=1, text_key="title"),
        ]
        fused = fuse_operators(ops)
        assert [type(op) for op in fused] == [FusedFilter, FusedFilter]
        assert [op.text_key for op in fused] == ["text", "title"]
        assert [[member.text_key for member in op.fused_filters] for op in fused] == [
            ["text", "text"],
            ["title", "title"],
        ]

    def test_describe_plan_reports_members(self):
        plan = describe_plan(fuse_operators(self.fusible_filters()))
        assert plan[0]["category"] == "fused_filter"
        assert "words_num_filter" in plan[0]["members"]


class TestFusedExecution:
    def test_fused_filter_equivalent_to_sequential(self):
        filters = [
            build("words_num_filter", min_num=3),
            build("word_repetition_filter", rep_len=3, max_ratio=0.5),
            build("stopwords_filter", min_ratio=0.05),
        ]
        data = noisy_dataset()
        sequential = data
        for op in filters:
            sequential = op.run(sequential)
        fused = data
        for op in fuse_operators(filters):
            fused = op.run(fused)
        assert sorted(row["text"] for row in sequential) == sorted(row["text"] for row in fused)

    def test_fusion_keeps_rows_and_stats_of_filters_on_two_fields(self):
        from repro.core.executor import Executor

        rows = [
            {"text": "the cat and the dog are here now", "title": "zebra quokka"},
            {"text": "zebra quokka walrus", "title": "the cat and the dog"},
            {"text": "a", "title": "the end of it"},
        ]
        process = [
            {"words_num_filter": {"min_num": 2}},
            {"stopwords_filter": {"min_ratio": 0.3, "text_key": "title"}},
        ]

        def run(op_fusion):
            recipe = {"process": process, "op_fusion": op_fusion}
            return Executor(recipe).run(NestedDataset.from_list(rows)).to_list()

        assert run(True) == run(False)
        assert [row["title"] for row in run(True)] == ["the cat and the dog"]

    def test_fused_filter_cleans_context_from_output(self):
        from repro.core.sample import Fields

        fused = fuse_operators(
            [build("words_num_filter", min_num=1), build("word_repetition_filter")]
        )
        (op,) = fused
        out = op.run(noisy_dataset())
        assert all(Fields.context not in row or not row[Fields.context] for row in out)

    def test_fused_filter_single_pass_writes_all_stats(self):
        from repro.core.sample import Fields, StatsKeys

        fused_filter = FusedFilter(
            [build("words_num_filter", min_num=0), build("word_repetition_filter", max_ratio=1.0)]
        )
        sample = fused_filter.compute_stats({"text": "a few simple words here"})
        assert StatsKeys.num_words in sample[Fields.stats]
        assert StatsKeys.word_rep_ratio in sample[Fields.stats]

    def test_empty_fused_filter_rejected(self):
        import pytest

        with pytest.raises(ValueError):
            FusedFilter([])

    def test_load_ops_then_fuse_from_recipe(self):
        process = [
            {"whitespace_normalization_mapper": {}},
            {"words_num_filter": {"min_num": 1}},
            {"word_repetition_filter": {}},
            {"flagged_words_filter": {}},
            {"document_deduplicator": {}},
        ]
        fused = fuse_operators(load_ops(process))
        names = [op.name for op in fused]
        assert names[0] == "whitespace_normalization_mapper"
        assert any(name.startswith("fused_filter(") for name in names)
        assert names[-1] == "document_deduplicator"
