"""Tracer: record per-operator sample lineage for interactive inspection.

The paper's ``tracer`` tool (Sec. 4.2) records, for every operator, how
individual samples changed: edited text for Mappers, discarded samples for
Filters/Selectors, and (near-)duplicate pairs for Deduplicators.  The records
back the interactive visualization of the original system; here they are
available programmatically and can be dumped to JSONL files.

The tracer diffs nothing.  Each example is built where the op's boundary is
live: a segment (:func:`repro.core.segment.run_segment`) hands back a
Mapper's edited texts and a Filter's dropped rows per chunk, read off the
keep flags the op returned; a Selector's dropped rows come from its keep
mask, a Deduplicator's pairs from its clustering.  There is one
:class:`Tracer` for every execution mode: it accumulates, so an operator that
runs once per shard (streaming) and one that runs once over the whole dataset
(memory mode) produce the same record.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from itertools import islice
from pathlib import Path
from typing import Any, Iterable, Iterator, Sequence

from repro.core.base_op import Filter, op_category
from repro.core.sample import Fields, fold_stats


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


def dropped_examples(
    dropped: Iterable[tuple[int, dict]], compute_stats: Any = None
) -> Iterator[dict]:
    """Lazily, the example of each dropped ``(index, row)``: index, text, stats.

    The one shape of a Filter's and a Selector's examples in every mode.  A
    Filter's per-sample ``compute_stats`` (a fused filter's fills every
    member's) completes, on a copy, the stats its short-circuit may have left
    partial — only for the examples a reservoir takes; without it a row shows
    the stats it came with.
    """
    for index, row in dropped:
        row = fold_stats({Fields.stats: None, **row})  # a fresh stats dict of its own
        if compute_stats is not None:
            row = compute_stats(row)
        text = row.get(Fields.text)
        yield {
            "index": index,
            "discarded": text if text is not None else "",
            "stats": row.get(Fields.stats, {}),
        }


def pair_examples(pairs: Iterable[tuple[dict, dict]]) -> list[dict]:
    """A Deduplicator's examples: the text of each ``(original, duplicate)`` row pair."""
    return [
        {"original": original.get(Fields.text, ""), "duplicate": duplicate.get(Fields.text, "")}
        for original, duplicate in pairs
    ]


def edit_examples(edits: Iterable[tuple[int, Any, Any]]) -> Iterator[dict]:
    """A Mapper's examples: each ``(index, before, after)`` text edit."""
    return ({"index": index, "before": before, "after": after} for index, before, after in edits)


def segment_examples(op: Any, records: Sequence[tuple]) -> Iterator[dict]:
    """Lazily, one op's examples from its per-chunk segment records
    (:func:`repro.core.segment.run_segment`), in chunk order, with the
    chunk-local indexes counted from the op's first input row."""
    offset = 0
    for rows_in, _rows_out, _seconds, found, _flags in records:
        if isinstance(op, Filter):
            yield from dropped_examples(
                ((offset + index, row) for index, row in found), op.compute_stats
            )
        else:
            yield from edit_examples((offset + index, old, new) for index, old, new in found)
        offset += rows_in


class Tracer:
    """Accumulate one :class:`TraceRecord` per operator of one run.

    Records are keyed by operator *identity* (a bare name also works as a
    key, for callers without an op instance) and kept in first-touch — that
    is, pipeline — order, like :class:`repro.core.monitor.RunProfiler`: a
    recipe that lists the same op name twice gets one record per pipeline
    position.  :meth:`add` is the one entry: every call grows the op's sizes
    and fills a bounded first-``show_num`` example reservoir, so memory never
    grows with the corpus — streaming calls once per shard, memory mode once.

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

    def add(
        self, op: Any, input_size: int, output_size: int, examples: Iterable[dict] = ()
    ) -> TraceRecord:
        """Grow ``op``'s record by one call: its sizes, and examples while there is room.

        ``examples`` is consumed lazily, only up to the free room of the
        reservoir; an example's ``index`` counts from this call's first input
        row and is shifted past every row the op saw before, so shards report
        corpus-global positions.  A Selector (or a bare name) traces as a filter.
        """
        record = self._records.get(op)
        if record is None:
            category = op_category(op)
            category = category if category in ("mapper", "deduplicator") else "filter"
            record = self._records[op] = TraceRecord(
                getattr(op, "name", op), category, 0, 0, position=len(self._records) + 1
            )
        for example in islice(examples, max(0, self.show_num - len(record.examples))):
            if "index" in example:
                example["index"] += record.input_size
            record.examples.append(example)
        record.input_size += input_size
        record.output_size += output_size
        self._write(record)
        return record

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
