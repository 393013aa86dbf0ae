"""Columnar batch representation shared by the batched execution engine.

A *column batch* is a plain ``dict[str, list]`` mapping top-level field names
to equal-length value lists — a horizontal slice of a
:class:`~repro.core.dataset.NestedDataset`.  The batched operator paths
(:meth:`Mapper.process_batched`, :meth:`Filter.compute_stats_batched`, …) hand
these slices around instead of materialising one dict per row, which removes
the dominant per-row overhead of the original hot path (dict construction,
``dict(row)`` copies and per-op ``to_list``/``from_list`` round trips).

Cell objects are shared between a batch and the dataset it was sliced from —
exactly like the row dicts produced by ``to_list()`` share their cell objects.
Helpers that modify a batch therefore always replace whole column lists and
never mutate the sliced lists in place, and no op edits a cell it received: a
Filter writes each stat as a new column of scalars, ``__stats__.<key>``
(:func:`write_stat`), and a row's stats are folded into one ``__stats__``
dict only where a reader sees the row (:func:`stat_rows`).
"""

from __future__ import annotations

from typing import Any, Callable, Iterable, Sequence

from repro.core.sample import Fields, stat_column, stats_folder

#: default number of rows per batch of the batched op path; per-op overrides
#: come from the ``batch_size`` op parameter / recipe knob
DEFAULT_BATCH_SIZE = 1000


def batch_length(samples: dict[str, list]) -> int:
    """Number of rows in a column batch (0 for an empty/column-less batch)."""
    for values in samples.values():
        return len(values)
    return 0


def batch_to_rows(samples: dict[str, list]) -> list[dict]:
    """Materialise a column batch as a list of fresh row dicts.

    The row dicts are new objects (safe to mutate key-wise) but share their
    cell objects with the batch, mirroring ``NestedDataset.to_list``.
    """
    keys = list(samples)
    return [
        {key: samples[key][index] for key in keys}
        for index in range(batch_length(samples))
    ]


def rows_to_batch(rows: Sequence[dict], column_order: Iterable[str] | None = None) -> dict[str, list]:
    """Collect row dicts into a column batch.

    Missing keys are filled with ``None``, matching
    ``NestedDataset.from_list`` semantics; ``column_order`` seeds the key
    order (extra keys append in first-seen order).
    """
    keys: list[str] = list(column_order or ())
    seen = set(keys)
    for row in rows:
        for key in row:
            if key not in seen:
                seen.add(key)
                keys.append(key)
    return {key: [row.get(key) for row in rows] for key in keys}


def batch_select(samples: dict[str, list], indices: Sequence[int]) -> dict[str, list]:
    """Return a new batch containing only the rows at ``indices`` (in order)."""
    index_list = list(indices)
    return {key: [values[index] for index in index_list] for key, values in samples.items()}


def batch_concat(batches: Sequence[dict[str, list]]) -> dict[str, list]:
    """Concatenate batches row-wise; the union of columns is used (None-filled)."""
    keys: list[str] = []
    seen: set[str] = set()
    for batch in batches:
        for key in batch:
            if key not in seen:
                seen.add(key)
                keys.append(key)
    columns: dict[str, list] = {key: [] for key in keys}
    for batch in batches:
        length = batch_length(batch)
        for key in keys:
            values = batch.get(key)
            columns[key].extend(values if values is not None else [None] * length)
    return columns


def get_text_column(samples: dict[str, list], text_key: str) -> list[str] | None:
    """Return the text column of a batch as a list of strings, or ``None``.

    ``None`` signals that the fast path does not apply (nested/dotted text
    key) and the caller should fall back to the generic per-row path.
    Missing columns and non-string cells become ``""``, matching
    :meth:`repro.core.base_op.OP.get_text`.
    """
    if "." in text_key:
        return None
    values = samples.get(text_key)
    if values is None:
        return [""] * batch_length(samples)
    return [value if isinstance(value, str) else "" for value in values]


def set_text_column(samples: dict[str, list], text_key: str, texts: list[str]) -> dict[str, list]:
    """Replace the text column of a batch, returning the same batch dict.

    Only valid for top-level text keys (callers use :func:`get_text_column`
    first, which rejects dotted keys).
    """
    samples[text_key] = list(texts)
    return samples


def write_stat(samples: dict[str, list], key: str, compute: Callable[[], list]) -> dict[str, list]:
    """Write stat ``key`` as the batch's column ``__stats__.<key>`` and return the batch.

    A row keeps a value it already carries — the column an earlier op wrote,
    else the key of the ``__stats__`` dict its input held — and every other
    row gets its cell of ``compute()`` (one per row).  No cell is edited: the
    column is a new key of the batch dict.
    """
    name = stat_column(key)
    if name not in samples:
        values = compute()
        carried = samples.get(Fields.stats)
        if carried is not None:
            values = [
                stats[key] if isinstance(stats, dict) and key in stats else value
                for stats, value in zip(carried, values)
            ]
        samples[name] = values
    return samples


def read_stat(samples: dict[str, list], key: str, default: Any = None) -> list:
    """Stat ``key`` of every row of a batch, ``default`` where a row has none —
    the batched ``sample.get("__stats__", {}).get(key, default)``."""
    name = stat_column(key)
    if name in samples:
        return samples[name]
    carried = samples.get(Fields.stats) or [None] * batch_length(samples)
    return [stats.get(key, default) if isinstance(stats, dict) else default for stats in carried]


def stat_rows(samples: dict[str, list]) -> list[dict]:
    """The rows of a batch as a per-row Filter reads them: fresh dicts whose
    stats are folded into a new ``__stats__`` dict each
    (:func:`repro.core.sample.stats_folder`), so writing to it edits no cell."""
    keys = list(samples)
    fold = stats_folder(keys if Fields.stats in keys else [*keys, Fields.stats])
    return [fold(dict(zip(keys, values))) for values in zip(*samples.values())]


def unfold_rows(samples: dict[str, list], rows: list[dict]) -> dict[str, list]:
    """``samples`` plus what a per-row Filter wrote on its ``rows``
    (:func:`stat_rows` after ``compute_stats``), each written key as a column:
    a stat that is new to a row or was replaced, as a stat column (in the
    order rows gained them, as an in-place ``__stats__`` dict ordered them),
    then a top-level key that was added or replaced.  A row that did not
    write a key gives its own value, or None."""
    carried = samples.get(Fields.stats) or [None] * len(rows)
    new: dict[str, None] = {}
    replaced: dict[str, None] = {}
    fields: dict[str, None] = {}
    for index, (row, old) in enumerate(zip(rows, carried)):
        for key, value in row.items():
            column = samples.get(key)
            if key != Fields.stats and (column is None or column[index] is not value):
                fields.setdefault(key)
        old = old if isinstance(old, dict) else {}
        for key, value in row[Fields.stats].items():
            column = samples.get(stat_column(key))
            if column is not None or key in old:
                if (old[key] if column is None else column[index]) is not value:
                    replaced.setdefault(key)
            else:
                new.setdefault(key)
    for key in {**new, **replaced}:
        samples[stat_column(key)] = [row[Fields.stats].get(key) for row in rows]
    for key in fields:
        samples[key] = [row.get(key) for row in rows]
    return samples


def resolve_batch_size(batch_size: int | None) -> int:
    """Normalise an op/recipe batch-size setting to a positive int."""
    if batch_size is None:
        return DEFAULT_BATCH_SIZE
    return max(1, int(batch_size))


__all__ = [
    "DEFAULT_BATCH_SIZE",
    "batch_concat",
    "batch_length",
    "batch_select",
    "batch_to_rows",
    "get_text_column",
    "read_stat",
    "resolve_batch_size",
    "rows_to_batch",
    "set_text_column",
    "stat_rows",
    "unfold_rows",
    "write_stat",
]
