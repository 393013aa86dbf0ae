"""Tests for the tracer, exporter and resource monitor."""

import itertools
import json

from repro.core.dataset import NestedDataset
from repro.core.exporter import Exporter
from repro.core.monitor import ResourceMonitor, time_call
from repro.core.sample import Fields
from repro.core.tracer import Tracer


def before_after():
    before = NestedDataset.from_list([{"text": "A B C"}, {"text": "keep me"}, {"text": "drop"}])
    after = NestedDataset.from_list([{"text": "a b c"}, {"text": "keep me"}, {"text": "drop"}])
    return before, after


def lowercase_and_min_len():
    from repro.ops import load_ops

    return load_ops([{"lowercase_mapper": {}}, {"text_length_filter": {"min_len": 5}}])


class TestTracer:
    def test_trace_mapper_records_changed_samples_only(self):
        tracer = Tracer()
        mapper, _filter = lowercase_and_min_len()
        before, after = before_after()
        assert mapper.run(before, tracer=tracer).to_list() == after.to_list()
        (record,) = tracer.records
        assert record.op_type == "mapper"
        assert record.examples == [{"index": 0, "before": "A B C", "after": "a b c"}]

    def test_trace_filter_records_discarded(self):
        tracer = Tracer()
        _mapper, length_filter = lowercase_and_min_len()
        before, _ = before_after()
        kept = length_filter.run(before, tracer=tracer)
        (record,) = tracer.records
        assert record.removed == 1 and len(kept) == 2
        assert record.examples[0]["discarded"] == "drop"
        # the stats the filter decided on, completed for the shown row
        assert record.examples[0]["stats"] == {"text_len": 4}

    def test_trace_deduplicator_records_pairs(self):
        from repro.core.tracer import pair_examples

        tracer = Tracer()
        pairs = pair_examples([({"text": "a"}, {"text": "a"})])
        record = tracer.add("dedup", 10, 8, pairs)
        assert record.removed == 2
        assert record.examples[0]["original"] == "a"

    def test_show_num_bounds_examples(self):
        tracer = Tracer(show_num=1)
        mapper, _filter = lowercase_and_min_len()
        mapper.run(NestedDataset.from_list([{"text": f"ROW {i}"} for i in range(5)]), tracer=tracer)
        assert len(tracer.records[0].examples) == 1

    def test_trace_files_written(self, tmp_path):
        tracer = Tracer(trace_dir=tmp_path)
        mapper, _filter = lowercase_and_min_len()
        mapper.run(before_after()[0], tracer=tracer)
        files = list(tmp_path.glob("trace-*.jsonl"))
        assert len(files) == 1
        header = json.loads(files[0].read_text().splitlines()[0])
        assert header["op_name"] == "lowercase_mapper"

    @staticmethod
    def traced_everywhere(tmp_path, process, dataset):
        """The first op's trace examples for every way an executor runs
        ``process`` over ``dataset``: np 1/2 x memory/streaming (two-row shards)."""
        from repro.core.executor import Executor

        found = {}
        for np, mode in itertools.product((1, 2), ("memory", "streaming")):
            config = {
                "process": process,
                "np": np,
                "open_tracer": True,
                "max_shard_rows": 2,
                "work_dir": str(tmp_path / f"work-{np}-{mode}"),
            }
            with Executor(config) as executor:
                if mode == "memory":
                    executor.run(dataset)
                else:
                    executor.run_streaming(dataset)
            found[np, mode] = executor.tracer.records[0].examples
        return found

    def test_filter_on_a_meta_field_shows_a_dropped_row_sharing_its_text(self, tmp_path):
        """Regression: "discarded" was decided by text value, so a dropped row
        whose text a kept row shares was never shown.  The segment reads the
        dropped rows off the filter's keep flags, wherever it runs."""
        from repro.ops import load_ops

        process = [{"specified_numeric_field_filter": {"field_key": "meta.score", "min_value": 5}}]
        (op,) = load_ops(process)
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
        found = self.traced_everywhere(tmp_path, process, dataset)
        assert {run: examples == record.examples for run, examples in found.items()} == {
            run: True for run in found
        }

    def test_selector_over_duplicate_texts_shows_the_dropped_rows(self, tmp_path):
        """A Selector's dropped rows come from its keep mask, in memory mode
        as in streaming's mask pass."""
        from repro.ops import load_ops

        process = [{"topk_specified_field_selector": {"field_key": "meta.score", "topk": 2}}]
        (op,) = load_ops(process)
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
        found = self.traced_everywhere(tmp_path, process, dataset)
        assert {run: examples == record.examples for run, examples in found.items()} == {
            run: True for run in found
        }

    def test_summary_in_execution_order(self):
        tracer = Tracer()
        mapper, length_filter = lowercase_and_min_len()
        length_filter.run(mapper.run(before_after()[0], tracer=tracer), tracer=tracer)
        assert [entry["op_name"] for entry in tracer.summary()] == [
            "lowercase_mapper",
            "text_length_filter",
        ]


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
