"""The segment: the one way sample-level ops are applied to a column batch.

A *segment* is a run of Mappers/Filters, optionally closed by the hashing
stage of a Deduplicator, driven over one column-batch chunk
(``dict[str, list]``) op after op.  It is the engine's local unit of work:
:func:`run_segment` is the same function whether the chunk was handed over in
the calling process (``np = 1``, a degraded pool, the fault layer's retries —
all through :func:`run_chunks`) or arrived as a pool task in a worker (:func:`repro.parallel.worker.run_task`).
:func:`apply_op` is the only engine code that calls an op's
``process_batched`` / ``filter_batched`` / ``compute_hash_batched``;
``tests/test_segment_engine.py`` holds the rest of ``src/repro`` to that.

:func:`run_dataset_segment` is the dataset-level view both ``op.run`` (a
segment of one) and the fault layer's
:func:`repro.core.faults.run_segment_with_policy` use: cut the dataset into
chunks by position and run every one of them, here or in the pool, handing
back each chunk's outcome — a failed chunk stops nothing but itself.
:func:`segment_output` reassembles the clean outcomes with the chained
fingerprint and the input position of each row, from a Filter's keep flags.

Each op's boundary is live only in here, so this is also where a tracer's
examples are read, off the data and the keep flags the op returns.
"""

from __future__ import annotations

import pickle
import time
from itertools import compress, islice
from typing import Any, Iterable, Sequence

from repro.core.base_op import Deduplicator, Filter, Mapper
from repro.core.batch import batch_concat, batch_length, batch_to_rows
from repro.core.dataset import NestedDataset, _stable_hash, chain_fingerprint
from repro.core.sample import get_field

#: what a failed chunk reports: ``(index of the op that raised, exception)``
Failure = tuple[int, BaseException]


def apply_op(op: Any, batch: dict) -> tuple[dict, list[bool] | None]:
    """One op's sample-level stage over a chunk, sliced to the op's batch size.

    Mappers transform, Filters compute stats and drop rejected rows at once
    (the short-circuiting ``filter_batched``), a Deduplicator runs its
    hashing stage only — its clustering is global and stays with the caller.
    Returns the output batch and, for a Filter, its keep flags (else None).
    """
    if not isinstance(op, (Mapper, Filter, Deduplicator)):
        raise TypeError(f"a segment only holds Mappers/Filters/Deduplicators, got {op!r}")
    rows = batch_length(batch)
    if rows == 0:
        return batch, None
    size = op.adaptive_batch_size(batch, rows)
    # a chunk no larger than the op's batch goes through as it is
    parts = [batch] if rows <= size else NestedDataset(batch, "segment").iter_batches(size)
    flags = None
    if isinstance(op, Mapper):
        outputs = [op.process_batched(part) for part in parts]
    elif isinstance(op, Filter):
        results = [op.filter_batched(part) for part in parts]
        outputs = [kept for kept, _flags in results]
        flags = [keep for _kept, part_flags in results for keep in part_flags]
    else:
        outputs = [op.compute_hash_batched(part) for part in parts]
    return (outputs[0] if len(outputs) == 1 else batch_concat(outputs)), flags


def _texts(batch: dict, key: str) -> list:
    """The (possibly dotted) ``key`` of every row, ``""`` where a row lacks it."""
    if key in batch:
        return list(batch[key])
    return [get_field(row, key, "") for row in batch_to_rows(batch)]


def _portable(error: BaseException) -> BaseException:
    """``error`` if it survives a pickle round trip, else a stand-in that does."""
    try:
        pickle.loads(pickle.dumps(error))
    except Exception:
        return RuntimeError(f"{type(error).__name__}: {error}")
    return error


def run_segment(
    ops: Sequence, batch: dict, trace_num: int = 0
) -> tuple[dict, list[tuple], Failure | None]:
    """Drive one column batch through ``ops`` in order.

    Returns ``(batch, records, failure)``: the surviving batch, one
    ``(rows_in, rows_out, seconds, found, flags)`` record per completed op,
    and ``None`` — or, when op *k* raised, ``(the batch op k was handed,
    records of ops < k, (k, exception))``, so the caller knows which op
    failed and on what.  The output does not depend on how the dataset was
    cut into chunks: per-sample ops' results are batch-boundary independent.
    ``flags`` are a Filter's keep flags (else None).

    ``found`` is what a tracer is shown of the op: up to ``trace_num``
    chunk-local ``(index, before, after)`` text edits of a Mapper, or
    ``(index, row)`` input rows a Filter's keep flags drop — nothing, at no
    cost, without a budget (no tracer).
    """
    records: list[tuple] = []
    for index, op in enumerate(ops):
        rows_in = batch_length(batch)
        # what goes in, as a tracer sees it (texts now: a mapper may edit shared cells)
        texts = _texts(batch, op.text_key) if trace_num and isinstance(op, Mapper) else None
        start = time.perf_counter()
        try:
            # a dict of its own: ops may rebind the columns of the dict they are handed
            output, flags = apply_op(op, dict(batch))
        except Exception as error:
            return batch, records, (index, _portable(error))
        seconds = time.perf_counter() - start
        found: list = []
        if texts is not None:
            after = _texts(output, op.text_key)
            changed = (row for row, (old, new) in enumerate(zip(texts, after)) if old != new)
            found = [(row, texts[row], after[row]) for row in islice(changed, trace_num)]
        elif flags is not None and trace_num:
            dropped = islice((row for row, keep in enumerate(flags) if not keep), trace_num)
            found = [(row, {key: cells[row] for key, cells in batch.items()}) for row in dropped]
        records.append((rows_in, batch_length(output), seconds, found, flags))
        batch = output
    return batch, records, None


def run_chunks(ops: Sequence, chunks: Iterable[dict], trace_num: int = 0) -> list[tuple]:
    """:func:`run_segment` over every chunk, in the calling process.

    ``chunks`` is consumed lazily, one chunk alive at a time.  Returns what
    :meth:`repro.parallel.WorkerPool.run_segment` returns for the same
    chunks: one :func:`run_segment` outcome per chunk, in order, a failed
    chunk's included.  The fault layer retries a failed chunk, and runs the
    halves it searches the chunk by, through here.
    """
    return [run_segment(ops, chunk, trace_num) for chunk in chunks]


def run_dataset_segment(
    ops: Sequence, dataset: NestedDataset, pool: Any = None, trace_num: int = 0
) -> tuple[int, list[tuple]]:
    """Run a segment over every chunk of a dataset: ``(chunk size, outcomes)``.

    With a :class:`repro.parallel.WorkerPool` (which must hold every op) the
    chunks are the pool's and travel as one task each, ``trace_num`` with
    them; without one they are sized by the first op's char-adaptive batch
    rule (:meth:`OP.effective_batch_size`) and run here, lazily.  Chunk *i*
    is the dataset's rows ``[i * size, (i + 1) * size)``, so a caller can
    re-slice any chunk by position; its outcome is the ``(batch, records,
    failure)`` of :func:`run_segment`, and every chunk runs whether or not
    another one failed.
    """
    if pool is None:
        size = ops[0].effective_batch_size(dataset)
        return size, run_chunks(ops, dataset.iter_batches(size), trace_num)
    size = pool.chunk_size_for(len(dataset))
    return size, pool.run_segment(ops, list(dataset.iter_batches(size)), trace_num)


def entered(outcome: tuple, index: int) -> int:
    """How many rows of a chunk's outcome entered op ``index`` of the segment."""
    batch, records, failure = outcome
    if index < len(records):
        return records[index][0]
    return batch_length(batch) if failure is not None and failure[0] == index else 0


def compose_positions(
    outer: Sequence[int] | None, inner: Sequence[int] | None
) -> Sequence[int] | None:
    """``outer[i]`` for each ``i`` in ``inner``: None when either is unknown,
    ``inner`` itself when ``outer`` is the identity ``range(n)``."""
    if outer is None or inner is None:
        return None
    return inner if isinstance(outer, range) else list(map(outer.__getitem__, inner))


def segment_output(
    ops: Sequence, dataset: NestedDataset, outcomes: Sequence[tuple]
) -> tuple[NestedDataset, list[int] | None]:
    """The dataset the clean outcomes of a segment over ``dataset`` make, in
    order, and the position in ``dataset`` of each of its rows: one walk over
    the outcomes — clean chunks and the fault layer's pieces — places a kept
    row by the Filters' keep flags (None once a Mapper changed a chunk's row
    count) and a failed one-row piece's row as dropped by a fault.

    It carries the chained fingerprint of the ops, equal to what running them
    one by one stamps; a closing Deduplicator's hashing stamps no link of its
    own (the global step stamps the op's, over the rows that entered it).
    The dropped positions salt it, so an output missing rows never passes
    for the clean one.
    """
    positions: list[int] | None = []
    dropped: list[int] = []
    start = 0
    for outcome in outcomes:
        rows = entered(outcome, 0)  # every row enters the first op
        if outcome[2] is not None:
            dropped.extend(range(start, start + rows))
        elif positions is not None:
            kept: Iterable[int] = range(start, start + rows)
            for rows_in, rows_out, _seconds, _found, flags in outcome[1]:
                if flags is not None:
                    kept = compress(kept, flags)
                elif rows_out != rows_in:
                    positions = None
                    break
            else:
                positions.extend(kept)
        start += rows
    fingerprint = dataset.fingerprint
    for op in ops:
        if not isinstance(op, Deduplicator):
            fingerprint = chain_fingerprint(fingerprint, op.name, op.config())
    if dropped:
        fingerprint = _stable_hash({"parent": fingerprint, "fault_dropped": dropped})
    batches = [batch for batch, _records, failure in outcomes if failure is None]
    return NestedDataset.from_batches(batches, fingerprint=fingerprint), positions
