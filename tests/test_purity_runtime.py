"""No op edits a cell it received — checked at run time, for every built-in op.

The store compares an op's output against the parent dataset in memory
(:func:`repro.core.cache.encode`), which is exact only while no op edits a
cell of its input in place; ``repro lint``'s ``purity-inplace`` rule checks
the same contract statically.  Here every registered Mapper and Filter, and
every Deduplicator's hashing stage, runs through its batched and its per-row
entry point over a salted corpus — nested ``meta``, rows carrying a partial
``__stats__`` dict, a stat column an earlier filter wrote — and afterwards
every input cell must pickle to the bytes it had before.  A run rejects an
op from outside the built-in pool that breaks the rule.
"""

import pickle

import pytest

from repro.core.base_op import Deduplicator, Filter, Mapper
from repro.core.batch import batch_to_rows, stat_rows
from repro.core.dataset import NestedDataset
from repro.core.errors import ConfigError
from repro.core.executor import Executor
from repro.core.registry import OPERATORS
from repro.core.sample import stat_column
from repro.ops import load_ops
from repro.synth import common_crawl_like


#: ops that need a parameter to be built at all
PARAMS = {"truncate_text_mapper": {"max_chars": 120}}


def sample_level_op_names() -> list[str]:
    return [
        name for name in OPERATORS.list()
        if issubclass(OPERATORS.get(name), (Mapper, Filter, Deduplicator))
    ]


@pytest.fixture(scope="module")
def corpus() -> NestedDataset:
    rows = common_crawl_like(num_samples=24, seed=5, duplicate_ratio=0.2).to_list()
    for index, row in enumerate(rows):
        row["meta"] = {"source": "web", "tags": ["a", str(index)],
                       "nested": {"depth": [index, {"deep": index % 3}]}}
        if index % 3 == 0:  # an export made with keep_stats, read again
            row["__stats__"] = {"text_len": index, "extra": [index]}
        elif index % 3 == 1:
            row["__stats__"] = {"num_words": 2}
    rows += [{"text": "", "meta": {}}, {"text": None, "meta": {"k": [1]}, "__stats__": {}}]
    dataset = NestedDataset.from_list(rows)
    # a stat column an earlier filter wrote
    return dataset.add_column(stat_column("lang_score"), [0.5] * len(dataset))


def cell_bytes(dataset: NestedDataset) -> dict[str, list[bytes]]:
    return {name: [pickle.dumps(cell) for cell in cells] for name, cells in dataset._columns.items()}


def entry_points(op) -> list:
    """``(name, call)`` of every entry point of ``op`` over one column batch."""
    if isinstance(op, Mapper):
        return [("process_batched", op.process_batched),
                ("process", lambda batch: [op.process(row) for row in batch_to_rows(batch)])]
    if isinstance(op, Filter):
        def per_row(batch):  # as the per-row shim hands rows over
            for row in stat_rows(batch):
                op.process(op.compute_stats(row))

        return [("compute_stats_batched", op.compute_stats_batched),
                ("process_batched", op.process_batched),
                ("filter_batched", op.filter_batched),
                ("compute_stats", per_row)]
    return [("compute_hash_batched", op.compute_hash_batched),
            ("compute_hash", lambda batch: [op.compute_hash(row) for row in batch_to_rows(batch)])]


@pytest.mark.parametrize("op_name", sample_level_op_names())
def test_no_op_edits_a_cell_it_received(op_name, corpus):
    (op,) = load_ops([{op_name: PARAMS.get(op_name, {})}])
    before = cell_bytes(corpus)
    for name, call in entry_points(op):
        for batch in corpus.iter_batches(7):
            call(batch)
        assert cell_bytes(corpus) == before, f"{op_name}.{name} edited an input cell"


def test_the_corpus_carries_what_the_ops_must_leave_alone(corpus):
    """Guard against vacuity: nested meta, partial stats dicts and a stat column."""
    rows = corpus.to_list()
    assert all(isinstance(row["meta"], dict) for row in rows)
    assert any("nested" in row["meta"] for row in rows)
    stats = [row["__stats__"] for row in rows]
    assert {"text_len", "extra", "lang_score"} <= set().union(*stats)
    assert any("text_len" not in cell for cell in stats)


class MetaCountMapper(Mapper):
    """Counts its visits inside the ``meta`` dict it received."""

    def process(self, sample):
        sample["meta"]["visits"] = sample["meta"].get("visits", 0) + 1
        return sample


class CountingMapper(MetaCountMapper):
    """Inherits the in-place edit."""


def test_a_run_rejects_an_op_that_edits_its_input_in_place(monkeypatch, tmp_path):
    for name, cls in (("meta_count_mapper", MetaCountMapper), ("counting_mapper", CountingMapper)):
        monkeypatch.setitem(OPERATORS.modules, name, cls)
        with pytest.raises(ConfigError, match=r"test_purity_runtime\.py:\d+: \[purity-inplace\]"):
            Executor({"process": [{"whitespace_normalization_mapper": {}}, name],
                      "work_dir": str(tmp_path)})
