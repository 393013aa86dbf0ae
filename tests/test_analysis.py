"""Tests for the analyzer: overall stats, histograms, box plots and diversity analysis."""

import copy
import json
import tracemalloc
from pathlib import Path

import pytest

from repro.analysis.analyzer import Analyzer
from repro.analysis.diversity_analysis import DiversityAnalysis, extract_verb_noun
from repro.analysis.histogram import build_box_plot, build_histogram
from repro.analysis.overall_analysis import OverallAnalysis, collect_stats_values
from repro.core.base_op import Filter
from repro.core.dataset import NestedDataset
from repro.core.executor import Executor
from repro.core.sample import Fields
from repro.formats.sharded import open_shard
from repro.ops.filters.text_length_filter import TextLengthFilter
from repro.synth import instruction_dataset, wikipedia_like


def stats_dataset():
    return NestedDataset.from_list(
        [
            {"text": "a", Fields.stats: {"text_len": 10, "lang": "en"}},
            {"text": "b", Fields.stats: {"text_len": 30, "lang": "en"}},
            {"text": "c", Fields.stats: {"text_len": 50, "lang": "zh"}},
        ]
    )


class TestOverallAnalysis:
    def test_numeric_summary(self):
        summaries = OverallAnalysis().analyze(stats_dataset())
        summary = summaries["text_len"]
        assert summary.kind == "numeric"
        assert summary.count == 3
        assert summary.mean == 30
        assert summary.minimum == 10 and summary.maximum == 50
        assert "p50" in summary.quantiles

    def test_categorical_summary(self):
        summary = OverallAnalysis().analyze(stats_dataset())["lang"]
        assert summary.kind == "categorical"
        assert summary.value_counts == {"en": 2, "zh": 1}
        assert summary.entropy > 0

    def test_collect_stats_values(self):
        values = collect_stats_values(stats_dataset())
        assert values["text_len"] == [10, 30, 50]

    def test_as_dict_round(self):
        summaries = OverallAnalysis().analyze(stats_dataset())
        payload = summaries["text_len"].as_dict()
        assert payload["name"] == "text_len" and payload["kind"] == "numeric"


class TestHistogramAndBoxPlot:
    def test_histogram_counts_sum_to_total(self):
        histogram = build_histogram("x", [1, 2, 2, 3, 10], num_bins=5)
        assert histogram.total == 5
        assert "Histogram of x" in histogram.render()

    def test_empty_histogram(self):
        histogram = build_histogram("x", [])
        assert histogram.total == 0

    def test_box_plot_five_numbers(self):
        box = build_box_plot("x", [1, 2, 3, 4, 5])
        assert box.minimum == 1 and box.maximum == 5 and box.median == 3
        assert "median" in box.render()


class TestDiversityAnalysis:
    def test_extract_verb_noun(self):
        verb, noun = extract_verb_noun("Summarize the research paper about data systems")
        assert verb == "summarize"
        assert noun is not None

    def test_extract_handles_no_verb(self):
        assert extract_verb_noun("apple banana cherry") == (None, None)

    def test_report_counts(self):
        dataset = instruction_dataset(num_samples=50, seed=1)
        report = DiversityAnalysis().analyze(dataset)
        assert report.num_samples == 50
        assert report.distinct_verbs > 1
        assert 0.0 <= report.diversity_score() <= 1.0

    def test_top_structure(self):
        dataset = instruction_dataset(num_samples=50, seed=2)
        top = DiversityAnalysis().analyze(dataset).top(num_verbs=5, nouns_per_verb=2)
        assert len(top) <= 5
        assert all(len(nouns) <= 2 for nouns in top.values())


class TestAnalyzer:
    def test_probe_covers_default_dimensions(self):
        probe = Analyzer(with_diversity=False).analyze(wikipedia_like(num_samples=10, seed=3))
        # the default probe covers the 13 statistics dimensions of the paper
        numeric = [s for s in probe.summaries.values() if s.kind == "numeric"]
        assert len(numeric) >= 12
        assert probe.num_samples == 10

    def test_probe_does_not_drop_samples(self):
        dataset = wikipedia_like(num_samples=8, seed=4)
        with_stats = Analyzer(with_diversity=False).compute_stats(dataset)
        assert len(with_stats) == len(dataset)

    def test_custom_analysis_process(self):
        probe = Analyzer(
            analysis_process=[{"text_length_filter": {}}], with_diversity=False
        ).analyze(wikipedia_like(num_samples=5, seed=5))
        assert set(probe.summaries) == {"text_len"}

    def test_render_contains_diversity_line(self):
        probe = Analyzer().analyze(instruction_dataset(num_samples=10, seed=6))
        assert "diversity:" in probe.render()

    def test_histograms_present_for_numeric_stats(self):
        probe = Analyzer(with_diversity=False).analyze(wikipedia_like(num_samples=6, seed=7))
        assert "text_len" in probe.histograms
        assert "text_len" in probe.box_plots


#: rows with different key sets: empty, non-string and missing text, stats a
#: row carries (one of them a key a filter computes), extra top-level fields
EDGE_ROWS = [
    {"text": ""},
    {"text": None},
    {"meta": {"source": "nowhere"}},
    {"text": "already counted", Fields.stats: {"text_len": 999}},
    {"text": "Write a short poem about the sea.", "id": 7, Fields.stats: {"custom": 3, "lang": "en"}},
    {"text": "a stats cell that is no dict", Fields.stats: None},
    {"text": "Explain the theory of data systems to a child.", "meta": {"n": 1}},
]

#: a probe cut into many small chunks, so the fold runs across chunk edges
SMALL_BATCH_PROCESS = [
    {"text_length_filter": {"batch_size": 3}},
    {"words_num_filter": {}},
    {"language_id_score_filter": {}},
]


def parity_rows() -> list[dict]:
    wiki = wikipedia_like(num_samples=12, seed=8).to_list()
    return wiki[:9] + EDGE_ROWS + wiki[9:] + instruction_dataset(num_samples=12, seed=9).to_list()


def per_row_probe(analyzer: Analyzer, rows: list[dict]) -> tuple:
    """The probe of ``rows`` built from the per-row op API: every filter's
    ``compute_stats`` on a copy of each row, one row at a time."""
    values: dict[str, list] = {}
    for row in rows:
        sample = copy.deepcopy(row)
        for op in analyzer.filters:
            sample = op.compute_stats(sample)
        for key, value in (sample.get(Fields.stats) or {}).items():
            values.setdefault(key, []).append(value)
    numeric = {
        key: [float(v) for v in raw if isinstance(v, (int, float)) and not isinstance(v, bool)]
        for key, raw in values.items()
    }
    report = DiversityAnalysis().analyze_records(copy.deepcopy(rows))
    return (
        len(rows),
        {key: summary.as_dict() for key, summary in OverallAnalysis().analyze_values(values).items()},
        {key: build_histogram(key, nums) for key, nums in numeric.items() if nums},
        {key: build_box_plot(key, nums) for key, nums in numeric.items() if nums},
        (report.verb_counts, report.verb_noun_counts, report.num_samples, report.num_with_verb),
    )


def probe_parts(probe) -> tuple:
    report = probe.diversity
    return (
        probe.num_samples,
        {key: summary.as_dict() for key, summary in probe.summaries.items()},
        probe.histograms,
        probe.box_plots,
        (report.verb_counts, report.verb_noun_counts, report.num_samples, report.num_with_verb),
    )


class TestBatchedProbe:
    @pytest.mark.parametrize("process", [None, SMALL_BATCH_PROCESS], ids=["default", "small-batches"])
    def test_analyze_and_stream_equal_the_per_row_probe(self, process):
        analyzer = Analyzer(analysis_process=process)
        rows = parity_rows()
        expected = per_row_probe(analyzer, rows)
        assert expected[1]["custom"]["count"] == 1 and expected[1]["text_len"]["count"] == len(rows)
        assert probe_parts(analyzer.analyze(NestedDataset.from_list(copy.deepcopy(rows)))) == expected
        assert probe_parts(analyzer.analyze_stream(iter(copy.deepcopy(rows)))) == expected

    def test_analyze_run_of_a_sharded_export_with_stats_equals_the_per_row_probe(self, tmp_path):
        input_path = tmp_path / "in.jsonl"
        input_path.write_text("".join(json.dumps(row) + "\n" for row in parity_rows()), encoding="utf-8")
        report = Executor({
            "dataset_path": str(input_path),
            "export_path": str(tmp_path / "export" / "out.jsonl.gz"),
            "work_dir": str(tmp_path / "work"),
            "process": [{"words_num_filter": {"min_num": 0}}],
            "keep_stats_in_export": True,
            "max_shard_rows": 8,
        }).run_streaming(shard_output=True)
        assert len(report["export_paths"]) > 1
        exported = []
        for path in report["export_paths"]:
            with open_shard(Path(path)) as handle:
                exported += [json.loads(line) for line in handle]
        assert all("num_words" in row[Fields.stats] for row in exported)
        for process in (None, SMALL_BATCH_PROCESS):
            analyzer = Analyzer(analysis_process=process)
            assert probe_parts(analyzer.analyze_run(report)) == per_row_probe(analyzer, exported)

    def test_a_filter_with_a_batched_kernel_is_never_called_per_row(self, monkeypatch):
        def per_row(self, sample, context=False):
            raise AssertionError("per-row compute_stats called")

        monkeypatch.setattr(TextLengthFilter, "compute_stats", per_row)
        analyzer = Analyzer(analysis_process=[{"text_length_filter": {}}])
        rows = wikipedia_like(num_samples=6, seed=10).to_list()
        dataset = NestedDataset.from_list(rows)
        for probe in (analyzer.analyze(dataset), analyzer.analyze_stream(iter(rows))):
            assert probe.num_samples == 6
            assert probe.summaries["text_len"].count == 6
            assert probe.summaries["text_len"].maximum == max(len(row["text"]) for row in rows)

    def test_filters_on_different_fields_do_not_share_tokens(self):
        """Word-based filters reading different fields each tokenise their own
        field: the fused batch context is per field."""
        rows = parity_rows()
        titled = [{**row, "title": other.get("text")} for row, other in zip(rows, reversed(rows))]
        analyzer = Analyzer(analysis_process=[
            {"words_num_filter": {}},
            {"stopwords_filter": {"text_key": "title"}},
            {"word_repetition_filter": {"text_key": "title"}},
            {"flagged_words_filter": {}},
        ])
        expected = per_row_probe(analyzer, titled)
        assert probe_parts(analyzer.analyze(NestedDataset.from_list(copy.deepcopy(titled)))) == expected
        assert probe_parts(analyzer.analyze_stream(iter(copy.deepcopy(titled)))) == expected

    def test_analyze_stream_memory_is_bounded_by_the_chunk_budget(self):
        """A lazy corpus of ~16k-character rows at N and 4N rows: the traced
        peak holds a few chunks of ``TARGET_BATCH_CHARS`` characters, not a
        read-ahead of the stream, and does not grow with the corpus."""

        def long_rows(count):
            for index in range(count):
                yield {"text": f"{index} " + "abcdefgh " * 1820}

        def peak_bytes(count):
            analyzer = Analyzer(analysis_process=[{"text_length_filter": {}}], with_diversity=False)
            analyzer.analyze_stream(long_rows(1))  # one-time imports are not the stream's memory
            tracemalloc.start()
            try:
                assert analyzer.analyze_stream(long_rows(count)).num_samples == count
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        rows = 64
        small, large = peak_bytes(rows), peak_bytes(4 * rows)
        budget = 4 * Filter.TARGET_BATCH_CHARS  # two chunks alive at once, with slack
        assert small < budget and large < budget, (small, large, budget)
        assert large < 1.5 * small, (small, large)
