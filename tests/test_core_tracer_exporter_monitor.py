"""Tests for the tracer, exporter and resource monitor."""

import json

from repro.core.dataset import NestedDataset
from repro.core.exporter import Exporter
from repro.core.monitor import ResourceMonitor, time_call
from repro.core.sample import Fields
from repro.core.tracer import Tracer


def before_after():
    before = NestedDataset.from_list([{"text": "a b c"}, {"text": "keep me"}, {"text": "drop"}])
    after = NestedDataset.from_list([{"text": "A B C"}, {"text": "keep me"}, {"text": "drop"}])
    return before, after


class TestTracer:
    def test_trace_mapper_records_changed_samples_only(self):
        tracer = Tracer()
        before, after = before_after()
        record = tracer.trace_mapper("upper", before, after)
        assert record.op_type == "mapper"
        assert len(record.examples) == 1
        assert record.examples[0]["before"] == "a b c"

    def test_trace_filter_records_discarded(self):
        tracer = Tracer()
        before, _ = before_after()
        kept = before.select([0, 1])
        record = tracer.trace_filter("len", before, kept)
        assert record.removed == 1
        assert record.examples[0]["discarded"] == "drop"

    def test_trace_deduplicator_records_pairs(self):
        tracer = Tracer()
        record = tracer.trace_deduplicator("dedup", 10, 8, [({"text": "a"}, {"text": "a"})])
        assert record.removed == 2
        assert record.examples[0]["original"] == "a"

    def test_show_num_bounds_examples(self):
        tracer = Tracer(show_num=1)
        before = NestedDataset.from_list([{"text": str(i)} for i in range(5)])
        after = NestedDataset.from_list([{"text": str(i) + "!"} for i in range(5)])
        record = tracer.trace_mapper("op", before, after)
        assert len(record.examples) == 1

    def test_trace_files_written(self, tmp_path):
        tracer = Tracer(trace_dir=tmp_path)
        before, after = before_after()
        tracer.trace_mapper("upper", before, after)
        files = list(tmp_path.glob("trace-*.jsonl"))
        assert len(files) == 1
        header = json.loads(files[0].read_text().splitlines()[0])
        assert header["op_name"] == "upper"

    def test_filter_on_a_meta_field_shows_a_dropped_row_sharing_its_text(self):
        """Regression: "discarded" was decided by text value, so a dropped row
        whose text a kept row shares was never shown."""
        from repro.ops import load_ops

        (op,) = load_ops(
            [{"specified_numeric_field_filter": {"field_key": "meta.score", "min_value": 5}}]
        )
        rows = [("same words here", 1), ("same words here", 9), ("other", 9)]
        dataset = NestedDataset.from_list(
            [{"text": text, "meta": {"score": score}} for text, score in rows]
        )
        tracer = Tracer()
        kept = op.run(dataset, tracer=tracer)
        (record,) = tracer.records
        assert (record.input_size, record.output_size, len(kept)) == (3, 2, 2)
        assert [(example["index"], example["discarded"]) for example in record.examples] == [
            (0, "same words here")
        ]

    def test_selector_over_duplicate_texts_shows_the_dropped_rows(self):
        from repro.ops import load_ops

        (op,) = load_ops(
            [{"topk_specified_field_selector": {"field_key": "meta.score", "topk": 2}}]
        )
        dataset = NestedDataset.from_list(
            [
                {"text": "dup", "meta": {"score": score}, Fields.stats: {"seen": score}}
                for score in (3, 9, 1, 7)
            ]
        )
        tracer = Tracer()
        kept = op.run(dataset, tracer=tracer)
        assert [row["meta"]["score"] for row in kept] == [9, 7]
        (record,) = tracer.records
        # a Selector computes no stats: the rows show the ones they came with
        assert [(example["index"], example["stats"]) for example in record.examples] == [
            (0, {"seen": 3}),
            (2, {"seen": 1}),
        ]

    def test_summary_in_execution_order(self):
        tracer = Tracer()
        before, after = before_after()
        tracer.trace_mapper("first", before, after)
        tracer.trace_filter("second", before, before.select([0]))
        assert [entry["op_name"] for entry in tracer.summary()] == ["first", "second"]


class TestExporter:
    def dataset(self):
        return NestedDataset.from_list(
            [{"text": "hello", Fields.stats: {"len": 5}, "meta": {"s": "x"}}]
        )

    def test_export_jsonl_strips_stats(self, tmp_path):
        path = Exporter(tmp_path / "out.jsonl").export(self.dataset())
        row = json.loads(path.read_text().splitlines()[0])
        assert row["text"] == "hello"
        assert Fields.stats not in row

    def test_export_jsonl_keep_stats(self, tmp_path):
        path = Exporter(tmp_path / "out.jsonl", keep_stats=True).export(self.dataset())
        row = json.loads(path.read_text().splitlines()[0])
        assert row[Fields.stats] == {"len": 5}

    def test_export_json(self, tmp_path):
        path = Exporter(tmp_path / "out.json").export(self.dataset())
        assert json.loads(path.read_text())[0]["text"] == "hello"

    def test_export_txt(self, tmp_path):
        path = Exporter(tmp_path / "out.txt").export(self.dataset())
        assert path.read_text().strip() == "hello"

    def test_unknown_format_raises(self, tmp_path):
        import pytest

        from repro.core.errors import ReproError

        with pytest.raises(ReproError):
            Exporter(tmp_path / "out.parquet", export_format="parquet")

    def test_format_inferred_from_suffix(self, tmp_path):
        exporter = Exporter(tmp_path / "data.json")
        assert exporter.export_format == "json"


class TestResourceMonitor:
    def test_reports_time_and_memory(self):
        with ResourceMonitor(trace_memory=True) as monitor:
            _ = [list(range(1000)) for _ in range(100)]
        report = monitor.report
        assert report.wall_time_s > 0
        assert report.peak_python_mb > 0
        assert report.max_rss_mb > 0

    def test_memory_tracing_off_by_default(self):
        with ResourceMonitor() as monitor:
            _ = [list(range(1000)) for _ in range(50)]
        assert monitor.report.peak_python_mb == 0.0

    def test_as_dict_keys(self):
        with ResourceMonitor() as monitor:
            pass
        assert set(monitor.report.as_dict()) == {
            "wall_time_s",
            "peak_python_mb",
            "current_python_mb",
            "max_rss_mb",
        }

    def test_time_call_returns_result(self):
        elapsed, result = time_call(sum, [1, 2, 3])
        assert result == 6
        assert elapsed >= 0
