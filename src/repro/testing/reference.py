"""The per-row reference the op engine is tested against.

``op.run`` executes column batches.  :func:`run_per_row` is the oracle for
it: a serial loop over the per-sample methods (``process`` / ``compute_stats``
/ ``compute_hash``) that must yield the same rows, the same stats and the
same fingerprint for every registered sample-level operator
(``tests/test_batch_equivalence.py``, ``benchmarks/test_batch_throughput.py``).
"""

from __future__ import annotations

from typing import Any

from repro.core.base_op import Deduplicator, Filter, Mapper
from repro.core.dataset import NestedDataset


def run_per_row(op: Any, dataset: NestedDataset, tracer: Any = None) -> NestedDataset:
    """Apply a Mapper, Filter or Deduplicator to ``dataset`` one row at a time."""
    fingerprint = dataset.derive_fingerprint(op.name, op.config())
    if isinstance(op, Mapper):
        result = dataset.map(op.process, new_fingerprint=fingerprint)
        if tracer is not None:
            tracer.trace_mapper(op, dataset, result, op.text_key)
    elif isinstance(op, Filter):
        with_stats = dataset.map(op.compute_stats)
        result = with_stats.filter(op.process, new_fingerprint=fingerprint)
        if tracer is not None:
            tracer.trace_filter(op, with_stats, result)
    elif isinstance(op, Deduplicator):
        hashed = dataset.map(
            op.compute_hash,
            new_fingerprint=dataset.derive_fingerprint(f"{op.name}:hash", op.config()),
        )
        result, pairs = op.process(hashed, show_num=10 if tracer is not None else 0)
        if tracer is not None:
            tracer.trace_deduplicator(op, len(hashed), len(result), pairs)
    else:
        raise TypeError(f"{type(op).__name__} has no per-row execution path")
    return result
