"""The segment: the one way sample-level ops are applied to a column batch.

A *segment* is a run of Mappers/Filters, optionally closed by the hashing
stage of a Deduplicator, driven over one column-batch chunk
(``dict[str, list]``) op after op.  It is the engine's local unit of work:
:func:`run_segment` is the same function whether the chunk was handed over in
the calling process (``np = 1``, a degraded pool, the distributed runners'
inline fallback — all through :func:`run_chunks`) or arrived as a pool task
in a worker (:func:`repro.parallel.worker.run_task`).  :func:`apply_op` is the
only engine code that calls an op's ``process_batched`` / ``filter_batched``
/ ``compute_hash_batched``; ``tests/test_segment_guard.py`` holds the rest of
``src/repro`` to that.

:func:`run_dataset_segment` is the dataset-level view both ``op.run`` (a
segment of one) and the fault layer's
:func:`repro.core.faults.run_segment_with_policy` use: cut the dataset into
chunks, run them here or in the pool, reassemble with the chained fingerprint.
"""

from __future__ import annotations

import pickle
import time
from typing import Any, Iterable, Sequence

from repro.core.base_op import Deduplicator, Filter, Mapper
from repro.core.batch import batch_concat, batch_length
from repro.core.dataset import NestedDataset, chain_fingerprint

#: what a failed chunk reports: ``(index of the op that raised, exception)``
Failure = tuple[int, BaseException]


def apply_op(op: Any, batch: dict) -> dict:
    """One op's sample-level stage over a chunk, sliced to the op's batch size.

    Mappers transform, Filters compute stats and drop rejected rows at once
    (the short-circuiting ``filter_batched``), a Deduplicator runs its
    hashing stage only — its clustering is global and stays with the caller.
    """
    if not isinstance(op, (Mapper, Filter, Deduplicator)):
        raise TypeError(f"a segment only holds Mappers/Filters/Deduplicators, got {op!r}")
    rows = batch_length(batch)
    if rows == 0:
        return batch
    size = op.adaptive_batch_size(batch, rows)
    # a chunk no larger than the op's batch goes through as it is
    parts = [batch] if rows <= size else NestedDataset(batch, "segment").iter_batches(size)
    if isinstance(op, Mapper):
        outputs = [op.process_batched(part) for part in parts]
    elif isinstance(op, Filter):
        outputs = [op.filter_batched(part)[0] for part in parts]
    else:
        outputs = [op.compute_hash_batched(part) for part in parts]
    return outputs[0] if len(outputs) == 1 else batch_concat(outputs)


def _portable(error: BaseException) -> BaseException:
    """``error`` if it survives a pickle round trip, else a stand-in that does."""
    try:
        pickle.loads(pickle.dumps(error))
    except Exception:
        return RuntimeError(f"{type(error).__name__}: {error}")
    return error


def run_segment(
    ops: Sequence, batch: dict
) -> tuple[dict | None, list[tuple[int, int, float]], Failure | None]:
    """Drive one column batch through ``ops`` in order.

    Returns ``(batch, stats, failure)``: the surviving batch, one
    ``(rows_in, rows_out, seconds)`` triple per completed op, and ``None`` —
    or, when op *k* raised, ``(None, stats of ops < k, (k, exception))`` so
    the caller can hand exactly that op to the error policy.  The output does
    not depend on how the dataset was cut into chunks: per-sample ops'
    results are batch-boundary independent.
    """
    stats: list[tuple[int, int, float]] = []
    batch = dict(batch)  # ops may rebind columns of the dict they are handed
    for index, op in enumerate(ops):
        rows_in = batch_length(batch)
        start = time.perf_counter()
        try:
            batch = apply_op(op, batch)
        except Exception as error:
            return None, stats, (index, _portable(error))
        stats.append((rows_in, batch_length(batch), time.perf_counter() - start))
    return batch, stats, None


def run_chunks(ops: Sequence, chunks: Iterable[dict]) -> list[tuple]:
    """:func:`run_segment` over every chunk, in the calling process.

    ``chunks`` is consumed lazily, one chunk alive at a time.  Returns what
    :meth:`repro.parallel.WorkerPool.run_segment` returns for the same
    chunks: one ``(batch, stats, failure, cpu_seconds)`` per chunk, in order.
    """
    results = []
    for chunk in chunks:
        start_cpu = time.process_time()
        results.append((*run_segment(ops, chunk), time.process_time() - start_cpu))
    return results


def run_dataset_segment(
    ops: Sequence, dataset: NestedDataset, pool: Any = None
) -> tuple[NestedDataset | None, list[list[tuple[int, int, float]]], Failure | None]:
    """Run a segment over a whole dataset: ``(result, per-chunk stats, failure)``.

    With a :class:`repro.parallel.WorkerPool` (which must hold every op) the
    chunks are the pool's and travel as one task each; without one they are
    sized by the first op's char-adaptive batch rule
    (:meth:`OP.effective_batch_size`) and run here, lazily.  ``failure`` is
    the earliest failing op over all chunks — what a serial run would have
    hit first — and then there is no result.  Otherwise the result carries
    the chained fingerprint of the ops (a closing Deduplicator stamps its
    ``<name>:hash`` stage), equal to what running them one by one stamps.
    """
    if pool is None:
        results = run_chunks(ops, dataset.iter_batches(ops[0].effective_batch_size(dataset)))
    else:
        chunks = list(dataset.iter_batches(pool.chunk_size_for(len(dataset))))
        results = pool.run_segment(ops, chunks)
    failures = [failure for _batch, _stats, failure, _cpu in results if failure is not None]
    if failures:
        return None, [], min(failures, key=lambda failure: failure[0])
    fingerprint = dataset.fingerprint
    for op in ops:
        stage = f"{op.name}:hash" if isinstance(op, Deduplicator) else op.name
        fingerprint = chain_fingerprint(fingerprint, stage, op.config())
    result = NestedDataset.from_batches(
        [batch for batch, _stats, _failure, _cpu in results], fingerprint=fingerprint
    )
    return result, [stats for _batch, stats, _failure, _cpu in results], None
