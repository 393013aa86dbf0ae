"""A column-oriented in-memory dataset with map/filter/select semantics.

This is the substrate that stands in for the HuggingFace-datasets library used
by the original Data-Juicer system (Sec. 3.1 of the paper).  It provides:

* column-oriented storage (``dict[str, list]``) with nested field access,
* functional ``map`` / ``filter`` / ``select`` transforms that return new
  datasets (never mutating the input in place),
* deterministic fingerprints so transformed datasets can be cached on disk and
  reused between runs (see :mod:`repro.core.cache`),
* utility transforms (shuffle, split, concatenate, column add/remove) that the
  operator pool and tools rely on.

Only the behaviours needed by the operator pool are implemented, but those are
implemented faithfully: Filters write stats columns, Mappers rewrite the text
column, Deduplicators add hash columns and select the surviving rows.
"""

from __future__ import annotations

import hashlib
import json
import random
from typing import Any, Callable, Iterable, Iterator, Sequence

from repro.core.errors import DatasetError
from repro.core.sample import Fields, fold_stats, get_field, stats_folder


def _stable_hash(payload: Any) -> str:
    """Return a stable hex digest for any JSON-serialisable payload."""
    encoded = json.dumps(payload, sort_keys=True, default=repr).encode("utf-8")
    return hashlib.sha1(encoded).hexdigest()


def chain_fingerprint(parent: str, op_name: str, op_config: Any = None) -> str:
    """One link of the fingerprint chain: ``hash(parent, op_name, op_config)``.

    :meth:`NestedDataset.derive_fingerprint` over a bare parent digest, for
    callers that stamp the output of several ops at once (a pool segment)
    without materialising the datasets in between.
    """
    return _stable_hash({"parent": parent, "op": op_name, "params": op_config})


class NestedDataset:
    """Column-oriented dataset with functional transforms.

    Rows are dictionaries; columns are stored as parallel lists keyed by the
    top-level field name.  Nested values (e.g. ``meta.language``) live inside
    ``dict`` cells of the corresponding top-level column.  A Filter's stats
    are columns of their own, ``__stats__.<key>``; a row — what iteration,
    indexing and :meth:`to_list` give — shows them folded into one
    ``__stats__`` dict (:func:`repro.core.sample.stats_folder`).
    """

    def __init__(self, columns: dict[str, list] | None = None, fingerprint: str | None = None):
        self._columns: dict[str, list] = {}
        if columns:
            lengths = {len(values) for values in columns.values()}
            if len(lengths) > 1:
                raise DatasetError(
                    f"column length mismatch: {sorted(lengths)} for keys {sorted(columns)}"
                )
            self._columns = {key: list(values) for key, values in columns.items()}
        self._fingerprint = fingerprint or self._compute_fingerprint()

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def from_list(cls, samples: Sequence[dict], fingerprint: str | None = None) -> "NestedDataset":
        """Build a dataset from a list of sample dicts.

        Missing keys in individual samples are filled with ``None`` so every
        column has the same length.  Passing ``fingerprint`` skips the
        content-probe fingerprint computation — transforms that already know
        their derived fingerprint use this to avoid re-serialising rows.
        """
        keys: list[str] = []
        seen: set[str] = set()
        for sample in samples:
            for key in sample:
                if key not in seen:
                    seen.add(key)
                    keys.append(key)
        columns = {key: [sample.get(key) for sample in samples] for key in keys}
        return cls(columns, fingerprint=fingerprint)

    @classmethod
    def from_batches(
        cls, batches: Sequence[dict], fingerprint: str | None = None
    ) -> "NestedDataset":
        """Build a dataset by concatenating column batches (``dict[str, list]``).

        The union of columns is used with ``None`` fill, mirroring
        :meth:`from_list`; zero total rows yield a column-less dataset, again
        matching ``from_list([])``.
        """
        from repro.core.batch import batch_concat

        columns = batch_concat([batch for batch in batches if batch])
        if columns and not any(len(values) for values in columns.values()):
            columns = {}
        return cls(columns, fingerprint=fingerprint)

    @classmethod
    def from_dict(cls, columns: dict[str, list]) -> "NestedDataset":
        """Build a dataset directly from columnar data."""
        return cls(columns)

    @classmethod
    def empty(cls) -> "NestedDataset":
        """Return an empty dataset with no columns and no rows."""
        return cls({})

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        if not self._columns:
            return 0
        return len(next(iter(self._columns.values())))

    def __iter__(self) -> Iterator[dict]:
        keys = list(self._columns)
        rows = (dict(zip(keys, values)) for values in zip(*self._columns.values()))
        fold = stats_folder(keys)
        return rows if fold is None else map(fold, rows)

    def __getitem__(self, item: int | slice | str) -> Any:
        if isinstance(item, str):
            return self.column(item)
        if isinstance(item, slice):
            indices = range(*item.indices(len(self)))
            return [self[index] for index in indices]
        if item < 0:
            item += len(self)
        if item < 0 or item >= len(self):
            raise DatasetError(f"row index {item} out of range for {len(self)} rows")
        return fold_stats({key: values[item] for key, values in self._columns.items()})

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, NestedDataset):
            return NotImplemented
        return self._columns == other._columns

    def __repr__(self) -> str:
        return (
            f"NestedDataset(num_rows={len(self)}, "
            f"columns={self.column_names}, fingerprint={self._fingerprint[:8]})"
        )

    @property
    def column_names(self) -> list[str]:
        """Names of the top-level columns."""
        return list(self._columns)

    @property
    def fingerprint(self) -> str:
        """Deterministic digest of the dataset content and transform history."""
        return self._fingerprint

    def column(self, name: str) -> list:
        """Return the values of a (possibly dotted) column as a list; the
        ``__stats__`` of a row is its folded stats dict."""
        if name in self._columns and name != Fields.stats:
            return list(self._columns[name])
        top = name.split(".", 1)[0]
        if top in self._columns or top == Fields.stats and stats_folder(self._columns):
            return [get_field(row, name) for row in self]
        raise DatasetError(f"unknown column {name!r}; have {self.column_names}")

    def to_list(self) -> list[dict]:
        """Materialise the dataset as a list of row dicts."""
        return [self[index] for index in range(len(self))]

    def to_dict(self) -> dict[str, list]:
        """Return a copy of the underlying columnar storage."""
        return {key: list(values) for key, values in self._columns.items()}

    def num_bytes(self) -> int:
        """Approximate in-memory size of the textual content (bytes of UTF-8)."""
        total = 0
        for values in self._columns.values():
            for value in values:
                if isinstance(value, str):
                    total += len(value.encode("utf-8", errors="ignore"))
                elif value is not None:
                    total += len(repr(value))
        return total

    # ------------------------------------------------------------------
    # Fingerprinting
    # ------------------------------------------------------------------
    def _compute_fingerprint(self) -> str:
        sample_rows: list[dict] = []
        length = len(self)
        if length:
            probe = {0, length - 1, length // 2}
            sample_rows = [self[index] for index in sorted(probe)]
        return _stable_hash(
            {
                "columns": self.column_names,
                "num_rows": length,
                "probe": sample_rows,
            }
        )

    def _derive_fingerprint(self, transform: str, params: Any = None) -> str:
        return _stable_hash({"parent": self._fingerprint, "transform": transform, "params": params})

    def derive_fingerprint(self, op_name: str, op_config: Any = None) -> str:
        """Incremental fingerprint of applying an operator to this dataset.

        ``hash(parent_fingerprint, op_name, op_config)`` — the operator runs
        (serial, batched or pooled) all stamp their output with this value, so
        cache/checkpoint keys agree across execution strategies without ever
        re-serialising the payload.
        """
        return chain_fingerprint(self._fingerprint, op_name, op_config)

    # ------------------------------------------------------------------
    # Transforms
    # ------------------------------------------------------------------
    def map(
        self,
        function: Callable[[dict], dict],
        new_fingerprint: str | None = None,
    ) -> "NestedDataset":
        """Apply ``function`` to every sample and return a new dataset.

        This is the row-dict API for arbitrary callables (tools, user code);
        operators run through ``op.run``, whose ``process_batched`` methods
        use the *columnar* contract (``dict[str, list]``) of
        :meth:`map_batches`.
        """
        new_rows: list[dict] = []
        for row in self.to_list():
            result = function(row)
            if not isinstance(result, dict):
                raise DatasetError("map function must return a sample dict")
            new_rows.append(result)
        fingerprint = new_fingerprint or self._derive_fingerprint(
            "map", getattr(function, "__qualname__", repr(function))
        )
        return NestedDataset.from_list(new_rows, fingerprint=fingerprint)

    def iter_batches(self, batch_size: int = 1000) -> Iterator[dict]:
        """Yield consecutive column batches (``dict[str, list]``) of the dataset.

        Each batch is a fresh dict of fresh column slices; cell objects are
        shared with this dataset, exactly like the rows of :meth:`to_list`.
        """
        if batch_size < 1:
            raise DatasetError("batch_size must be >= 1")
        length = len(self)
        for start in range(0, length, batch_size):
            stop = start + batch_size
            yield {key: values[start:stop] for key, values in self._columns.items()}

    def map_batches(
        self,
        function: Callable[[dict], dict],
        batch_size: int = 1000,
        new_fingerprint: str | None = None,
    ) -> "NestedDataset":
        """Apply a columnar function to every batch and return a new dataset.

        ``function`` receives a column batch (``dict[str, list]``) and returns
        one (of any length, so multi-sample ops compose).  This is the hot
        path of the op engine: no per-row dict is ever constructed by the
        dataset itself.
        """
        out_batches = [function(batch) for batch in self.iter_batches(batch_size)]
        for batch in out_batches:
            if not isinstance(batch, dict):
                raise DatasetError("batched map function must return a column batch dict")
        fingerprint = new_fingerprint or self._derive_fingerprint(
            "map_batches", getattr(function, "__qualname__", repr(function))
        )
        return NestedDataset.from_batches(out_batches, fingerprint=fingerprint)

    def filter(
        self,
        function: Callable[[dict], bool],
        new_fingerprint: str | None = None,
    ) -> "NestedDataset":
        """Keep only the samples for which ``function`` returns True."""
        dataset = self.select([index for index, row in enumerate(self) if function(row)])
        dataset._fingerprint = new_fingerprint or self._derive_fingerprint(
            "filter", getattr(function, "__qualname__", repr(function))
        )
        return dataset

    def select(self, indices: Iterable[int]) -> "NestedDataset":
        """Return a new dataset containing only the rows at ``indices`` (in order)."""
        index_list = list(indices)
        length = len(self)
        for index in index_list:
            if index < 0 or index >= length:
                raise DatasetError(f"select index {index} out of range for {length} rows")
        columns = {
            key: [values[index] for index in index_list]
            for key, values in self._columns.items()
        }
        return NestedDataset(columns, fingerprint=self._derive_fingerprint("select", index_list[:64]))

    def add_column(self, name: str, values: Sequence[Any]) -> "NestedDataset":
        """Return a new dataset with an extra column."""
        if len(values) != len(self) and len(self) > 0:
            raise DatasetError(
                f"new column {name!r} has {len(values)} values, dataset has {len(self)} rows"
            )
        columns = self.to_dict()
        columns[name] = list(values)
        return NestedDataset(columns, fingerprint=self._derive_fingerprint("add_column", name))

    def remove_columns(self, names: str | Sequence[str]) -> "NestedDataset":
        """Return a new dataset without the given column(s); missing names are ignored."""
        if isinstance(names, str):
            names = [names]
        drop = set(names)
        columns = {key: values for key, values in self._columns.items() if key not in drop}
        return NestedDataset(
            columns, fingerprint=self._derive_fingerprint("remove_columns", sorted(drop))
        )

    def rename_column(self, old: str, new: str) -> "NestedDataset":
        """Return a new dataset with column ``old`` renamed to ``new``."""
        if old not in self._columns:
            raise DatasetError(f"cannot rename unknown column {old!r}")
        columns = {}
        for key, values in self.to_dict().items():
            columns[new if key == old else key] = values
        return NestedDataset(
            columns, fingerprint=self._derive_fingerprint("rename_column", [old, new])
        )

    def shuffle(self, seed: int = 0) -> "NestedDataset":
        """Return a deterministically shuffled copy of the dataset."""
        indices = list(range(len(self)))
        random.Random(seed).shuffle(indices)
        dataset = self.select(indices)
        dataset._fingerprint = self._derive_fingerprint("shuffle", seed)
        return dataset

    def train_test_split(self, test_size: float = 0.2, seed: int = 0) -> dict[str, "NestedDataset"]:
        """Split into train/test partitions, returning ``{"train": ..., "test": ...}``."""
        if not 0.0 < test_size < 1.0:
            raise DatasetError("test_size must be in (0, 1)")
        shuffled = list(range(len(self)))
        random.Random(seed).shuffle(shuffled)
        cut = int(round(len(shuffled) * test_size))
        test_indices = sorted(shuffled[:cut])
        train_indices = sorted(shuffled[cut:])
        return {"train": self.select(train_indices), "test": self.select(test_indices)}

    def take(self, count: int) -> "NestedDataset":
        """Return the first ``count`` rows (fewer when the dataset is smaller)."""
        return self.select(range(min(count, len(self))))

    @staticmethod
    def concatenate(datasets: Sequence["NestedDataset"]) -> "NestedDataset":
        """Concatenate datasets row-wise; the union of columns is used."""
        rows: list[dict] = []
        for dataset in datasets:
            rows.extend(dataset.to_list())
        return NestedDataset.from_list(rows)


def concatenate_datasets(datasets: Sequence[NestedDataset]) -> NestedDataset:
    """Module-level alias matching the HuggingFace-datasets API name."""
    return NestedDataset.concatenate(datasets)


def dataset_token_count(dataset: NestedDataset, text_key: str = Fields.text) -> int:
    """Count whitespace tokens of the text column; used by recipes and HPO targets."""
    total = 0
    for row in dataset:
        value = get_field(row, text_key)
        if isinstance(value, str):
            total += len(value.split())
    return total
