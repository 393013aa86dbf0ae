"""Tracer: record per-operator sample lineage for interactive inspection.

The paper's ``tracer`` tool (Sec. 4.2) records, for every operator, how
individual samples changed: edited text for Mappers, discarded samples for
Filters/Selectors, and (near-)duplicate pairs for Deduplicators.  The records
back the interactive visualization of the original system; here they are
available programmatically and can be dumped to JSONL files.

There is one :class:`Tracer` for every execution mode: it accumulates, so an
operator that runs once per shard (streaming) and one that runs once over the
whole dataset (memory mode) produce the same record.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Sequence

from repro.core.base_op import op_category
from repro.core.dataset import NestedDataset
from repro.core.sample import Fields, get_field


@dataclass
class TraceRecord:
    """One operator's trace: what changed, and a bounded set of examples."""

    op_name: str
    op_type: str
    input_size: int
    output_size: int
    examples: list = field(default_factory=list)
    #: 1-based pipeline position of the operator (names its trace file)
    position: int = 0

    @property
    def removed(self) -> int:
        """Number of samples removed by this operator."""
        return max(0, self.input_size - self.output_size)


def _discarded_examples(
    op: Any, before: NestedDataset, after: NestedDataset, budget: int, offset: int = 0
) -> list[dict]:
    """Up to ``budget`` rows of ``before`` that did not survive into ``after``.

    Filters, Selectors and the built-in Deduplicators keep survivors in input
    order, so ``after`` is aligned as an ordered subsequence of ``before``
    over every column ``before`` has except the stats (which the op itself
    rewrites): a dropped row is shown even when a kept row shares its text.
    The stats shown are the ones ``op`` gives the row — computed here, on a
    copy, with the per-sample ``compute_stats`` of a Filter (a fused filter
    fills every member's), since the engine drops rejected rows before their
    stats are complete; an op without one (a Selector, a bare name) shows
    the stats the row came with.  ``offset`` shifts the reported indexes, so
    streaming shards report corpus-global positions.
    """
    if budget <= 0:
        return []
    names = [name for name in before.column_names if name != Fields.stats]
    columns = [before._columns[name] for name in names]
    kept = [after._columns.get(name) for name in names]
    compute_stats = getattr(op, "compute_stats", None)
    examples: list[dict] = []
    cursor, survivors = 0, len(after)
    for index in range(len(before)):
        if cursor < survivors and all(
            values is not None and values[cursor] == column[index]
            for values, column in zip(kept, columns)
        ):
            cursor += 1
            continue
        row = before[index]
        if compute_stats is not None:
            stats = row.get(Fields.stats)
            row[Fields.stats] = dict(stats) if isinstance(stats, dict) else {}
            row = compute_stats(row)
        text = row.get(Fields.text)
        examples.append(
            {
                "index": offset + index,
                "discarded": text if text is not None else "",
                "stats": row.get(Fields.stats, {}),
            }
        )
        if len(examples) >= budget:
            break
    return examples


class Tracer:
    """Accumulate one :class:`TraceRecord` per operator of one run.

    Records are keyed by operator *identity* (a bare name also works as a
    key, for callers without an op instance) and kept in first-touch — that
    is, pipeline — order, like :class:`repro.core.monitor.RunProfiler`: a
    recipe that lists the same op name twice gets one record per pipeline
    position.  Every ``trace_*`` call adds its sizes to the op's record and
    fills a bounded first-``show_num`` example reservoir, so memory never
    grows with the corpus: streaming mode calls once per shard (example
    indexes are corpus-global), memory mode is the one-call case.

    Operators resolved globally from a keep mask (streaming Deduplicators /
    Selectors) report through :meth:`observe_global`, and the mask pass
    contributes dropped-row examples via :meth:`add_dropped_example` — the
    signature rows driving the resolve carry no text payload, so examples are
    harvested while the stored shards stream back out.

    With a ``trace_dir`` every update rewrites the op's
    ``trace-NNN-<op>.jsonl`` (``NNN`` = pipeline position), so the files of
    every op that ran exist whether or not the run completed.  A tracer
    lives for one run; the executor creates a fresh one per run.
    """

    def __init__(self, show_num: int = 10, trace_dir: str | Path | None = None):
        self.show_num = show_num
        self.trace_dir = Path(trace_dir) if trace_dir else None
        self._records: dict[Any, TraceRecord] = {}

    @property
    def records(self) -> list[TraceRecord]:
        """The accumulated records, in pipeline order."""
        return list(self._records.values())

    def _record(self, op: Any, op_type: str) -> TraceRecord:
        """The record of ``op`` (an operator or a bare name), created on first touch."""
        record = self._records.get(op)
        if record is None:
            record = self._records[op] = TraceRecord(
                getattr(op, "name", op), op_type, 0, 0, position=len(self._records) + 1
            )
        return record

    def _budget(self, record: TraceRecord) -> int:
        return max(0, self.show_num - len(record.examples))

    def _grow(self, record: TraceRecord, input_size: int, output_size: int) -> TraceRecord:
        record.input_size += input_size
        record.output_size += output_size
        self._write(record)
        return record

    # ------------------------------------------------------------------
    def observe(
        self, op: Any, before: NestedDataset, after: NestedDataset, duplicate_pairs: Sequence = ()
    ) -> TraceRecord:
        """Record what ``op`` did between the datasets on either side of it.

        This is all a tracer needs of a run: the engine executes a traced op
        exactly like an untraced one (a segment of one) and hands over its
        boundary.  A Deduplicator's ``before`` is its hashed input and its
        ``duplicate_pairs`` come from the clustering.
        """
        category = op_category(op)
        if category == "mapper":
            return self.trace_mapper(op, before, after, op.text_key)
        if category == "deduplicator":
            return self.trace_deduplicator(op, len(before), len(after), duplicate_pairs)
        return self.trace_filter(op, before, after)

    def trace_mapper(
        self,
        op: Any,
        before: NestedDataset,
        after: NestedDataset,
        text_key: str = Fields.text,
    ) -> TraceRecord:
        """Record pre/post-edit text pairs for samples changed by a Mapper."""
        record = self._record(op, "mapper")
        if self._budget(record) > 0:
            for index in range(min(len(before), len(after))):
                original = get_field(before[index], text_key, "")
                edited = get_field(after[index], text_key, "")
                if original != edited:
                    record.examples.append(
                        {"index": record.input_size + index, "before": original, "after": edited}
                    )
                    if len(record.examples) >= self.show_num:
                        break
        return self._grow(record, len(before), len(after))

    def trace_filter(self, op: Any, before: NestedDataset, after: NestedDataset) -> TraceRecord:
        """Record the samples discarded by a Filter or Selector."""
        record = self._record(op, "filter")
        record.examples.extend(
            _discarded_examples(op, before, after, self._budget(record), offset=record.input_size)
        )
        return self._grow(record, len(before), len(after))

    def trace_deduplicator(
        self, op: Any, input_size: int, output_size: int, duplicate_pairs: list
    ) -> TraceRecord:
        """Record (near-)duplicate pairs found by a Deduplicator."""
        record = self._record(op, "deduplicator")
        for original, duplicate in duplicate_pairs[: self._budget(record)]:
            record.examples.append(
                {
                    "original": original.get(Fields.text, ""),
                    "duplicate": duplicate.get(Fields.text, ""),
                }
            )
        return self._grow(record, input_size, output_size)

    # ------------------------------------------------------------------
    def observe_global(
        self, op: Any, op_type: str, input_size: int, output_size: int
    ) -> TraceRecord:
        """Record the sizes of a globally-resolved op (mask already applied)."""
        return self._grow(self._record(op, op_type), input_size, output_size)

    def wants_examples(self, op: Any) -> bool:
        """True while the observed op's example reservoir still has room."""
        return self._budget(self._records[op]) > 0

    def add_dropped_example(self, op: Any, example: dict) -> bool:
        """Attach one dropped-row example to an observed op; False once full."""
        record = self._records[op]
        if self._budget(record) <= 0:
            return False
        record.examples.append(example)
        self._write(record)
        return True

    # ------------------------------------------------------------------
    def _write(self, record: TraceRecord) -> None:
        if self.trace_dir is None:
            return
        self.trace_dir.mkdir(parents=True, exist_ok=True)
        path = self.trace_dir / f"trace-{record.position:03d}-{record.op_name}.jsonl"
        with path.open("w", encoding="utf-8") as handle:
            header = {
                "op_name": record.op_name,
                "op_type": record.op_type,
                "input_size": record.input_size,
                "output_size": record.output_size,
            }
            handle.write(json.dumps(header, ensure_ascii=False) + "\n")
            for example in record.examples:
                handle.write(json.dumps(example, ensure_ascii=False, default=repr) + "\n")

    def summary(self) -> list[dict]:
        """Per-operator size changes, in pipeline order (drives Figure 4.(b))."""
        return [
            {
                "op_name": record.op_name,
                "op_type": record.op_type,
                "input_size": record.input_size,
                "output_size": record.output_size,
                "removed": record.removed,
            }
            for record in self._records.values()
        ]
