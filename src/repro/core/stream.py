"""Shard chunking, segmentation, and the global step of dataset-level ops.

The streaming run mode (``Executor.run_streaming`` / CLI ``--stream``) never
holds the whole corpus in memory.  Records are drawn lazily from a formatter,
chunked into bounded *shards* (:func:`iter_record_shards`), each decoded once
into the :class:`NestedDataset` it stays until the exporter (:func:`decode_shard`),
and driven through the op engine one at a time — by the same op-run driver
(``Executor._drive``) that memory mode hands the whole dataset.  This module
holds the pure pieces around that driver: chunking, segmentation, the global
resolve, the signature and mask passes and the keys of the stored shards.

Sample-level operators (Mappers, Filters) are embarrassingly shard-parallel.
Dataset-level operators (Deduplicators, Selectors) use a **two-pass**
strategy, in the spirit of O(1)-round massively-parallel processing: no pass
ever holds more than one shard of payload.

1. *Signature pass* — every shard is transformed by the pending sample ops,
   the global op's per-sample stage (hashing) runs shard-wise, and the shard
   is written to the store (:class:`repro.core.cache.CacheManager`).  Only the
   op's small *signature columns* (hashes, the selection field, stats — never
   the text payload) are accumulated in memory, each row tagged with a global
   row id (:func:`signature_columns`).
2. *Global resolve* — the op's unmodified ``process`` runs once over the
   skinny signature dataset (:func:`resolve_global_keep`), yielding a keep
   mask over global row ids.  Because every built-in Deduplicator/Selector
   preserves input order, the mask reproduces the dataset-level result exactly.
3. *Mask pass* — each stored shard is read back as one select of its kept
   rows minus the op's hash columns (:func:`mask_shards`), feeding the next
   pipeline segment.

Memory mode is the one-shard case (:func:`resolve_in_memory`): the same two
passes, the signature columns the dataset's own.  No run calls a
Deduplicator's or Selector's ``process`` outside :func:`resolve_global_keep`.

The spill *is* the cache *is* the shard-granular checkpoint: with ``use_cache``
or ``use_checkpoint`` the entries are content-keyed and survive the run, so a
re-run or a resume after a crash skips every shard already processed.
"""

from __future__ import annotations

import hashlib
import itertools
import json
from dataclasses import dataclass, field
from typing import Any, Iterable, Iterator

from repro.core.base_op import OP, Deduplicator, Filter, Mapper, Selector
from repro.core.batch import batch_select
from repro.core.dataset import NestedDataset, _stable_hash, chain_fingerprint
from repro.core.errors import DatasetError
from repro.core.sample import Fields, HashKeys
from repro.core.tracer import dropped_examples, pair_examples
from repro.formats.source import LineShard, source_rows

#: default shard budget when neither ``max_shard_rows`` nor
#: ``max_shard_chars`` is configured
DEFAULT_SHARD_ROWS = 4096

#: transient column tagging every signature row with its global position
ROW_ID_COLUMN = "__row_id__"


def op_config_hash(op: OP) -> str:
    """Digest of an operator's identity *and* parameters.

    Recorded in the checkpoint state of both modes to detect that a recipe
    edit changed what an operator would produce — a resume is only valid
    while every already-applied op hashes the same.
    """
    return _stable_hash({"name": op.name, "config": op.config()})


# ----------------------------------------------------------------------
# Shard chunking
# ----------------------------------------------------------------------
def iter_record_shards(
    records: Iterable[Any],
    max_rows: int | None = None,
    max_chars: int | None = None,
) -> Iterator[Any]:
    """Cut a lazy source (:mod:`repro.formats.source`: :class:`LineShard`
    blocks or rows) into shards of its shape: a :class:`LineShard` or a list.

    A shard closes when it holds ``max_rows`` rows or at least ``max_chars``
    characters of text, whichever comes first; with neither budget set,
    :data:`DEFAULT_SHARD_ROWS` applies.  A row budget decodes nothing; a
    character budget decodes each block to count its text (the shard keeps
    its rows), so the boundaries are those of the decoded rows.  The rows
    kept do not depend on them, but the keys of an exported row can: a shard
    None-fills only the key union of its own rows (ROADMAP item 4).
    """
    if max_rows is None and max_chars is None:
        max_rows = DEFAULT_SHARD_ROWS
    if (max_rows is not None and max_rows < 1) or (max_chars is not None and max_chars < 1):
        raise DatasetError("shard budgets must be >= 1")
    records = iter(records)
    first = next(records, None)
    records = itertools.chain([first] if first is not None else [], records)
    lines = isinstance(first, LineShard)
    blocks = records if lines else iter(lambda: list(itertools.islice(records, 1024)), [])
    join = LineShard.join if lines else (lambda parts: [*itertools.chain(*parts)])
    parts: list = []
    count = chars = 0
    for block in blocks:
        if max_chars is not None:
            texts = (row.get(Fields.text) for row in source_rows(block))
            lengths = [len(text) if isinstance(text, str) else 0 for text in texts]
        start = 0
        while start < len(block):
            stop = len(block) if max_rows is None else min(len(block), start + max_rows - count)
            if max_chars is not None:
                for index in range(start, stop):
                    chars += lengths[index]
                    if chars >= max_chars:
                        stop = index + 1
                        break
            parts.append(block[start:stop])
            count, start = count + stop - start, stop
            if count == max_rows or (max_chars is not None and chars >= max_chars):
                shard, parts, count, chars = join(parts), [], 0, 0
                yield shard
    if parts:
        yield join(parts)


# ----------------------------------------------------------------------
# Pipeline segmentation
# ----------------------------------------------------------------------
@dataclass
class StreamSegment:
    """A run of shard-local ops, optionally closed by one dataset-level op."""

    sample_ops: list = field(default_factory=list)
    global_op: Any = None

    @property
    def local_ops(self) -> list:
        """What runs before the global step: the sample ops and a closing Deduplicator's hashing."""
        if isinstance(self.global_op, Deduplicator):
            return [*self.sample_ops, self.global_op]
        return self.sample_ops


def plan_segments(ops: Iterable[OP]) -> list[StreamSegment]:
    """Split an op list into segments, the unit of both run loops.

    Mappers and Filters are local; Deduplicators and Selectors close their
    segment and are resolved by the global step.  Any other dataset-level
    operator fails fast — the global resolve only sees the skinny signature
    columns (never the text payload), so an op category it does not
    understand could silently produce wrong rows.  The returned list always
    contains at least one segment, and only its last segment may lack a
    global op.
    """
    segments: list[StreamSegment] = []
    current = StreamSegment()
    for op in ops:
        if isinstance(op, (Mapper, Filter)):
            current.sample_ops.append(op)
        elif isinstance(op, (Deduplicator, Selector)):
            current.global_op = op
            segments.append(current)
            current = StreamSegment()
        else:
            raise DatasetError(
                f"cannot execute dataset-level op {op.name!r}: only Mappers, "
                "Filters, Deduplicators and Selectors are supported"
            )
    if current.sample_ops or not segments:
        segments.append(current)
    return segments


# ----------------------------------------------------------------------
# Global (two-pass) resolution of dataset-level ops
# ----------------------------------------------------------------------
#: the columns a built-in Deduplicator's hashing stage writes
HASH_COLUMNS = (HashKeys.hash, HashKeys.minhash, HashKeys.simhash)


def signature_column_names(op: Any, column_names: list[str], text_key: str) -> list[str]:
    """Columns the global resolve needs — a Deduplicator's hash columns, a
    Selector's ``field_key`` column.

    A Selector ranking on a stat reads that stat's column alone (a stat column
    wins over the ``__stats__`` dict the input carried, so it is read only
    when no op wrote the stat); a dotted field of another column reads that
    column; a Selector without a field reads none.
    """
    if isinstance(op, Deduplicator):
        columns = [name for name in column_names if name in HASH_COLUMNS]
        if not columns:
            # fail fast: resolving with no hash column would read None for
            # every row and silently collapse the corpus to one "duplicate"
            raise DatasetError(
                f"deduplicator {op.name!r} stores its signature outside the "
                f"standard hash columns {HASH_COLUMNS}; the global step cannot "
                "resolve it"
            )
        return columns
    field_key = getattr(op, "field_key", None)
    if not isinstance(field_key, str) or not field_key:
        return []
    if field_key in column_names:
        return [field_key]
    top = field_key.split(".", 1)[0]
    return [top] if top in column_names else []


def resolve_global_keep(
    op: Any, signature: NestedDataset, show_num: int = 0
) -> tuple[list[bool], set[str], list[tuple[int, int]]]:
    """Run a dataset-level op over the skinny signature dataset.

    ``signature`` must carry a :data:`ROW_ID_COLUMN`.  Returns the keep mask
    over global row ids, the columns the op removed (a deduplicator drops
    its own hash column), which the mask pass then strips from the stored
    rows, and a Deduplicator's first ``show_num`` duplicate pairs as
    ``(original, duplicate)`` row ids, whose text the mask pass reads back.
    Exact because every built-in Deduplicator/Selector keeps surviving rows
    in input order.
    """
    if len(signature) == 0:
        return [], set(), []
    pairs: list = []
    if isinstance(op, Deduplicator):
        result, pairs = op.process(signature, show_num=show_num)
    else:
        result = op.process(signature)
    surviving = set(result.column(ROW_ID_COLUMN))
    mask = [row_id in surviving for row_id in signature.column(ROW_ID_COLUMN)]
    dropped = set(signature.column_names) - set(result.column_names)
    dropped.discard(ROW_ID_COLUMN)
    row_ids = [(first[ROW_ID_COLUMN], second[ROW_ID_COLUMN]) for first, second in pairs]
    return mask, dropped, row_ids


def signature_columns(op: Any, shard: NestedDataset, offset: int = 0) -> dict[str, list]:
    """The signature of one shard whose first row is global row ``offset``:
    references to its own signature columns (none when empty), no copy, plus
    the :data:`ROW_ID_COLUMN`."""
    names = signature_column_names(op, shard.column_names, op.text_key) if len(shard) else []
    columns = {name: shard._columns[name] for name in names}
    columns[ROW_ID_COLUMN] = list(range(offset, offset + len(shard)))
    return columns


def mask_shards(
    op: Any,
    shards: Iterable[NestedDataset],
    mask: list[bool],
    drop_columns: set[str],
    pairs: list[tuple[int, int]],
    tracer: Any = None,
) -> Iterator[NestedDataset]:
    """The mask pass: each shard, in corpus order, as one select of the rows
    ``mask`` keeps minus ``drop_columns``, stamped ``chain_fingerprint(shard,
    op.name, op.config())``.  A ``tracer`` is shown, per shard, a Selector's
    dropped rows, and a Deduplicator's ``pairs`` (global row ids) once the
    shard holding the last paired row has passed."""
    offset = 0
    # the rows of the resolve's duplicate pairs (none for a Selector), filled in as they pass
    paired: dict[int, Any] = dict.fromkeys(row_id for pair in pairs for row_id in pair)
    last = max(paired, default=-1)
    for shard in shards:
        count = len(shard)
        flags = mask[offset:offset + count]
        kept = [index for index, keep in enumerate(flags) if keep]
        columns = {name: cells for name, cells in shard._columns.items()
                   if name not in drop_columns}
        fingerprint = chain_fingerprint(shard.fingerprint, op.name, op.config())
        masked = NestedDataset(batch_select(columns, kept), fingerprint=fingerprint)
        if tracer is not None and isinstance(op, Deduplicator):
            paired.update({row: shard[row - offset] for row in paired if 0 <= row - offset < count})
            done = 0 <= last - offset < count  # this shard completes the pairs
            examples: Any = pair_examples((paired[a], paired[b]) for a, b in pairs) if done else []
            tracer.add(op, count, len(masked), examples)
        elif tracer is not None:
            dropped = (index for index, keep in enumerate(flags) if not keep)
            tracer.add(op, count, len(masked), dropped_examples((i, shard[i]) for i in dropped))
        offset += count
        yield masked


def resolve_in_memory(
    op: Any, dataset: NestedDataset, tracer: Any = None, step: Any = resolve_global_keep
) -> tuple[NestedDataset, list[int]]:
    """The global step over an in-memory (for a Deduplicator: hashed) dataset:
    the one-shard case of :func:`signature_columns`, ``step`` (this module's
    :func:`resolve_global_keep` or the executor's policy-wrapped one) and
    :func:`mask_shards`, and the positions in ``dataset`` of the rows kept."""
    signature = NestedDataset(fingerprint="signature")
    signature._columns = signature_columns(op, dataset)
    mask, drop_columns, pairs = step(op, signature, getattr(tracer, "show_num", 0))
    output = next(mask_shards(op, [dataset], mask, drop_columns, pairs, tracer))
    return output, list(itertools.compress(range(len(dataset)), mask))


def decode_shard(shard: LineShard | list, fingerprint: str | None = None) -> NestedDataset:
    """The dataset of a shard of source records (:mod:`repro.formats.source`),
    which it empties: a line is freed once its row exists, a row once the
    columns hold its cells."""
    rows = shard
    if isinstance(shard, LineShard):
        rows = shard.rows if shard.rows is not None else list(shard.iter_rows(release=True))
        shard.lines, shard.numbers, shard.runs, shard.rows = [], [], [], None
    dataset = NestedDataset.from_list(rows, fingerprint=fingerprint)
    rows.clear()
    return dataset


def columns_signature(shard: NestedDataset) -> str:
    """Digest of a dataset: column names in order and row count, then each
    column 4 096 cells at a time, strings as lengths and text, others as JSON.
    Unlike ``_stable_hash`` nothing is sorted: column and dict key order are
    part of the exported bytes."""
    digest = hashlib.sha1(json.dumps([shard.column_names, len(shard)]).encode("utf-8"))
    for column in shard._columns.values():
        for start in range(0, len(column), 4096):
            cells = column[start:start + 4096]
            if all(type(cell) is str for cell in cells):
                digest.update(b"s" + json.dumps(list(map(len, cells))).encode("utf-8"))
                for cell in cells:
                    digest.update(cell.encode("utf-8", "surrogatepass"))
            else:
                digest.update(b"j" + json.dumps(cells, default=repr).encode("utf-8"))
    return digest.hexdigest()


def stage_chain_hash(segment: StreamSegment) -> str:
    """Fingerprint of the shard-local work of one streaming segment.

    Digests the ordered config hashes of every shard-local op, plus the
    hashing stage of a closing Deduplicator (whose hash columns are part of
    the stored shard output) and, once it is past 0, the version of that
    op's hash cells — store keys carry no payload version of their own.
    Together with a shard's input signature this keys the shard's store
    entry: equal keys guarantee a replayed shard is byte-equal to
    recomputation.
    """
    parts = [op_config_hash(op) for op in segment.sample_ops]
    global_op = segment.global_op
    if isinstance(global_op, Deduplicator):
        version = f"v{global_op.HASH_FORMAT}:" if global_op.HASH_FORMAT else ""
        parts.append("hash:" + version + op_config_hash(global_op))
    return _stable_hash(parts)


__all__ = [
    "DEFAULT_SHARD_ROWS",
    "HASH_COLUMNS",
    "ROW_ID_COLUMN",
    "StreamSegment",
    "columns_signature",
    "decode_shard",
    "iter_record_shards",
    "mask_shards",
    "op_config_hash",
    "plan_segments",
    "resolve_global_keep",
    "resolve_in_memory",
    "signature_column_names",
    "signature_columns",
    "stage_chain_hash",
]
