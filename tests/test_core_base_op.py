"""Tests for the OP base classes and their run() contracts."""

from repro.core.base_op import Filter, Formatter, Mapper
from repro.core.dataset import NestedDataset
from repro.core.sample import Fields
from repro.core.tracer import Tracer


class UppercaseMapper(Mapper):
    _name = "uppercase_test_mapper"

    def process(self, sample):
        return self.set_text(sample, self.get_text(sample).upper())


class MinLenFilter(Filter):
    _name = "min_len_test_filter"

    def __init__(self, min_len=3, **kwargs):
        super().__init__(**kwargs)
        self.min_len = min_len

    def compute_stats(self, sample, context=False):
        sample.setdefault(Fields.stats, {})["len"] = len(self.get_text(sample))
        return sample

    def process(self, sample):
        return sample[Fields.stats]["len"] >= self.min_len


def dataset():
    return NestedDataset.from_list([{"text": "abcdef"}, {"text": "xy"}, {"text": "hello"}])


class TestMapper:
    def test_run_transforms_all(self):
        out = UppercaseMapper().run(dataset())
        assert [row["text"] for row in out] == ["ABCDEF", "XY", "HELLO"]

    def test_custom_text_key(self):
        data = NestedDataset.from_list([{"text": "keep", "summary": "abc"}])
        out = UppercaseMapper(text_key="summary").run(data)
        assert out[0]["summary"] == "ABC"
        assert out[0]["text"] == "keep"

    def test_tracer_records_changes(self):
        tracer = Tracer()
        UppercaseMapper().run(dataset(), tracer=tracer)
        assert tracer.records[0].op_type == "mapper"
        assert len(tracer.records[0].examples) == 3


class TestFilter:
    def test_run_drops_failing_samples(self):
        out = MinLenFilter(min_len=3).run(dataset())
        assert len(out) == 2

    def test_stats_written_to_kept_samples(self):
        out = MinLenFilter(min_len=3).run(dataset())
        assert all(Fields.stats in row and "len" in row[Fields.stats] for row in out)

    def test_config_exposes_parameters(self):
        config = MinLenFilter(min_len=7).config()
        assert config["min_len"] == 7
        assert config["text_key"] == "text"

    def test_get_text_missing_returns_empty(self):
        assert MinLenFilter().get_text({"other": 3}) == ""

    def test_get_text_non_string_returns_empty(self):
        assert MinLenFilter().get_text({"text": 42}) == ""


class TestFormatterUnify:
    def test_promotes_configured_text_key(self):
        unified = Formatter.unify_samples([{"content": "hello"}], text_keys=["content"])
        assert unified[0][Fields.text] == "hello"

    def test_promotes_any_string_field_as_fallback(self):
        unified = Formatter.unify_samples([{"num": 3, "body": "x"}], text_keys=["content"])
        assert unified[0][Fields.text] == "x"

    def test_no_text_yields_empty_string(self):
        unified = Formatter.unify_samples([{"num": 3}], text_keys=["content"])
        assert unified[0][Fields.text] == ""

    def test_stats_are_left_to_the_filters(self):
        # a Filter writes its stats as columns; the input keeps only its own
        unified = Formatter.unify_samples(
            [{"text": "x"}, {"text": "y", Fields.stats: {"k": 1}}], text_keys=["text"]
        )
        assert Fields.stats not in unified[0] and unified[1][Fields.stats] == {"k": 1}
