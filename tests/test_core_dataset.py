"""Tests for the NestedDataset columnar substrate (including property-based tests)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.dataset import NestedDataset, concatenate_datasets, dataset_token_count
from repro.core.errors import DatasetError


def make_dataset(num_rows: int = 5) -> NestedDataset:
    return NestedDataset.from_list(
        [{"text": f"doc {index}", "meta": {"index": index}} for index in range(num_rows)]
    )


class TestConstruction:
    def test_from_list_and_len(self):
        dataset = make_dataset(4)
        assert len(dataset) == 4
        assert dataset.column_names == ["text", "meta"]

    def test_from_list_fills_missing_keys(self):
        dataset = NestedDataset.from_list([{"a": 1}, {"b": 2}])
        assert dataset[0] == {"a": 1, "b": None}
        assert dataset[1] == {"a": None, "b": 2}

    def test_from_dict(self):
        dataset = NestedDataset.from_dict({"text": ["a", "b"]})
        assert len(dataset) == 2

    def test_column_length_mismatch_raises(self):
        with pytest.raises(DatasetError):
            NestedDataset.from_dict({"a": [1, 2], "b": [1]})

    def test_empty(self):
        dataset = NestedDataset.empty()
        assert len(dataset) == 0
        assert dataset.to_list() == []


class TestAccess:
    def test_getitem_row(self):
        dataset = make_dataset()
        assert dataset[2]["text"] == "doc 2"

    def test_getitem_negative_index(self):
        dataset = make_dataset(3)
        assert dataset[-1]["text"] == "doc 2"

    def test_getitem_out_of_range(self):
        with pytest.raises(DatasetError):
            make_dataset(2)[5]

    def test_getitem_slice(self):
        rows = make_dataset(5)[1:3]
        assert [row["text"] for row in rows] == ["doc 1", "doc 2"]

    def test_getitem_column_name(self):
        dataset = make_dataset(3)
        assert dataset["text"] == ["doc 0", "doc 1", "doc 2"]

    def test_column_nested_path(self):
        dataset = make_dataset(3)
        assert dataset.column("meta.index") == [0, 1, 2]

    def test_unknown_column_raises(self):
        with pytest.raises(DatasetError):
            make_dataset().column("nope")

    def test_iteration(self):
        assert [row["text"] for row in make_dataset(2)] == ["doc 0", "doc 1"]

    def test_equality(self):
        assert make_dataset(3) == make_dataset(3)
        assert make_dataset(3) != make_dataset(4)


class TestTransforms:
    def test_map_returns_new_dataset(self):
        dataset = make_dataset(3)
        mapped = dataset.map(lambda row: {**row, "text": row["text"].upper()})
        assert mapped[0]["text"] == "DOC 0"
        assert dataset[0]["text"] == "doc 0"  # original untouched

    def test_map_non_dict_result_raises(self):
        with pytest.raises(DatasetError):
            make_dataset(1).map(lambda row: "oops")

    def test_filter(self):
        dataset = make_dataset(6)
        kept = dataset.filter(lambda row: row["meta"]["index"] % 2 == 0)
        assert len(kept) == 3

    def test_select_preserves_order(self):
        dataset = make_dataset(5)
        subset = dataset.select([3, 1])
        assert [row["text"] for row in subset] == ["doc 3", "doc 1"]

    def test_select_out_of_range_raises(self):
        with pytest.raises(DatasetError):
            make_dataset(2).select([5])

    def test_add_column(self):
        dataset = make_dataset(2).add_column("score", [0.1, 0.2])
        assert dataset["score"] == [0.1, 0.2]

    def test_add_column_length_mismatch(self):
        with pytest.raises(DatasetError):
            make_dataset(3).add_column("score", [1])

    def test_remove_columns(self):
        dataset = make_dataset(2).remove_columns("meta")
        assert dataset.column_names == ["text"]

    def test_remove_missing_column_is_noop(self):
        dataset = make_dataset(2).remove_columns(["not_there"])
        assert dataset.column_names == ["text", "meta"]

    def test_rename_column(self):
        dataset = make_dataset(2).rename_column("text", "content")
        assert "content" in dataset.column_names
        assert "text" not in dataset.column_names

    def test_rename_unknown_raises(self):
        with pytest.raises(DatasetError):
            make_dataset(2).rename_column("nope", "x")

    def test_shuffle_is_deterministic_permutation(self):
        dataset = make_dataset(10)
        first = dataset.shuffle(seed=3)
        second = dataset.shuffle(seed=3)
        assert first.to_list() == second.to_list()
        assert sorted(row["text"] for row in first) == sorted(row["text"] for row in dataset)

    def test_train_test_split(self):
        splits = make_dataset(10).train_test_split(test_size=0.3, seed=1)
        assert len(splits["train"]) == 7
        assert len(splits["test"]) == 3

    def test_train_test_split_invalid_size(self):
        with pytest.raises(DatasetError):
            make_dataset(4).train_test_split(test_size=1.5)

    def test_take(self):
        assert len(make_dataset(5).take(2)) == 2
        assert len(make_dataset(2).take(10)) == 2

    def test_concatenate(self):
        merged = concatenate_datasets([make_dataset(2), make_dataset(3)])
        assert len(merged) == 5


class TestFingerprint:
    def test_fingerprint_changes_after_map(self):
        dataset = make_dataset(3)
        mapped = dataset.map(lambda row: row)
        assert dataset.fingerprint != mapped.fingerprint

    def test_identical_content_same_fingerprint(self):
        assert make_dataset(3).fingerprint == make_dataset(3).fingerprint

    def test_token_count(self):
        dataset = NestedDataset.from_list([{"text": "one two three"}, {"text": "four"}])
        assert dataset_token_count(dataset) == 4

    def test_num_bytes_positive(self):
        assert make_dataset(3).num_bytes() > 0


class TestColumnBatches:
    def test_iter_batches_slices_in_order(self):
        dataset = make_dataset(7)
        batches = list(dataset.iter_batches(3))
        assert [len(next(iter(batch.values()))) for batch in batches] == [3, 3, 1]
        from repro.core.batch import batch_concat

        assert batch_concat(batches) == dataset.to_dict()

    def test_iter_batches_rejects_bad_size(self):
        with pytest.raises(DatasetError):
            list(make_dataset(3).iter_batches(0))

    def test_from_batches_unions_columns_with_none_fill(self):
        merged = NestedDataset.from_batches(
            [{"text": ["a", "b"]}, {"text": ["c"], "extra": [1]}]
        )
        assert merged.to_list() == [
            {"text": "a", "extra": None},
            {"text": "b", "extra": None},
            {"text": "c", "extra": 1},
        ]

    def test_from_batches_zero_rows_matches_from_list_empty(self):
        assert NestedDataset.from_batches([{"text": []}]).to_dict() == {}
        assert NestedDataset.from_batches([]).to_dict() == {}

    def test_map_batches_matches_map(self):
        dataset = make_dataset(10)
        def upper_batch(batch):
            batch["text"] = [text.upper() for text in batch["text"]]
            return batch

        fingerprint = "shared-fp"
        batched = dataset.map_batches(upper_batch, batch_size=4, new_fingerprint=fingerprint)
        per_row = dataset.map(
            lambda row: dict(row, text=row["text"].upper()), new_fingerprint=fingerprint
        )
        assert batched.to_list() == per_row.to_list()
        assert batched.fingerprint == per_row.fingerprint

    def test_map_batches_can_change_row_count(self):
        dataset = make_dataset(4)
        halved = dataset.map_batches(
            lambda batch: {key: values[:1] for key, values in batch.items()}, batch_size=2
        )
        assert len(halved) == 2

    def test_map_batches_rejects_non_dict_result(self):
        with pytest.raises(DatasetError):
            make_dataset(3).map_batches(lambda batch: [batch])

    def test_batches_share_cells_but_not_columns(self):
        dataset = make_dataset(4)
        batch = next(dataset.iter_batches(4))
        batch["text"] = ["changed"] * 4
        assert dataset[0]["text"] != "changed"

    def test_derive_fingerprint_is_incremental_and_stable(self):
        dataset = make_dataset(5)
        first = dataset.derive_fingerprint("some_op", {"a": 1})
        assert first == dataset.derive_fingerprint("some_op", {"a": 1})
        assert first != dataset.derive_fingerprint("some_op", {"a": 2})
        assert first != dataset.derive_fingerprint("other_op", {"a": 1})
        other = NestedDataset.from_list([{"text": "entirely different"}])
        assert first != other.derive_fingerprint("some_op", {"a": 1})


# ----------------------------------------------------------------------
# Property-based tests
# ----------------------------------------------------------------------
texts = st.lists(st.text(max_size=30), min_size=0, max_size=25)


class TestProperties:
    @given(texts)
    @settings(max_examples=30, deadline=None)
    def test_roundtrip_from_list_to_list(self, values):
        rows = [{"text": value} for value in values]
        assert NestedDataset.from_list(rows).to_list() == rows

    @given(texts)
    @settings(max_examples=30, deadline=None)
    def test_filter_never_grows(self, values):
        dataset = NestedDataset.from_list([{"text": value} for value in values])
        kept = dataset.filter(lambda row: len(row["text"]) > 5)
        assert len(kept) <= len(dataset)

    @given(texts, st.integers(min_value=1, max_value=10))
    @settings(max_examples=30, deadline=None)
    def test_select_prefix_matches_take(self, values, count):
        dataset = NestedDataset.from_list([{"text": value} for value in values])
        count = min(count, len(dataset))
        assert dataset.select(range(count)).to_list() == dataset.take(count).to_list()

    @given(texts)
    @settings(max_examples=30, deadline=None)
    def test_map_identity_preserves_rows(self, values):
        dataset = NestedDataset.from_list([{"text": value} for value in values])
        assert dataset.map(lambda row: dict(row)).to_list() == dataset.to_list()
