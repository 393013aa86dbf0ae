"""The per-row references the op engine is tested against.

``op.run`` executes column batches.  :func:`run_per_row` is the oracle for
it: a serial loop over the per-sample methods (``process`` / ``compute_stats``
/ ``compute_hash``) that must yield the same rows, the same stats and the
same fingerprint for every registered sample-level operator
(``tests/test_batch_equivalence.py``, ``benchmarks/test_batch_throughput.py``).

The MinHash deduplicator computes on packed arrays end to end, so it has two
plain-Python oracles of its own here: :func:`minhash_signature` (exact
integer arithmetic, no numpy) for the signature kernels and
:func:`minhash_clusters` (the row-by-row bucket / union-find loop) for the
array-level LSH clustering of its ``process``.
"""

from __future__ import annotations

import struct
from itertools import count
from typing import Any, Sequence

from repro.core.base_op import Deduplicator, Filter, Mapper
from repro.core.dataset import NestedDataset
from repro.core.sample import get_field
from repro.core.tracer import dropped_examples, edit_examples, pair_examples


def run_per_row(op: Any, dataset: NestedDataset, tracer: Any = None) -> NestedDataset:
    """Apply a Mapper, Filter or Deduplicator (whose ``process`` clusters) to
    ``dataset`` one row at a time; a ``tracer`` is handed the examples each
    row's own verdict gives."""
    fingerprint = dataset.derive_fingerprint(op.name, op.config())
    if isinstance(op, Mapper):
        texts = [get_field(row, op.text_key, "") for row in dataset] if tracer is not None else []
        result = dataset.map(op.process, new_fingerprint=fingerprint)
        edits = zip(count(), texts, (get_field(row, op.text_key, "") for row in result))
        examples: Any = edit_examples(edit for edit in edits if edit[1] != edit[2])
    elif isinstance(op, Filter):
        with_stats = dataset.map(op.compute_stats)
        result = with_stats.filter(op.process, new_fingerprint=fingerprint)
        examples = dropped_examples(
            (index, row) for index, row in enumerate(with_stats) if not op.process(row)
        )
    elif isinstance(op, Deduplicator):
        hashed = dataset.map(op.compute_hash)
        result, pairs = op.process(hashed, show_num=getattr(tracer, "show_num", 0))
        result = NestedDataset(result.to_dict(), fingerprint=fingerprint)
        examples = pair_examples(pairs)
    else:
        raise TypeError(f"{type(op).__name__} has no per-row execution path")
    if tracer is not None:
        tracer.add(op, len(dataset), len(result), examples)
    return result


def minhash_signature(op: Any, text: str) -> bytes:
    """The packed MinHash signature of ``text``, in Python integers only.

    One ``_shingle_hash`` per shingle occurrence, ``(a·h + b) mod p`` for
    every permutation without a fixed-width integer in sight, the minimum,
    its low 32 bits.  Slow by design (shingles x permutations big-int
    operations): it is what :meth:`DocumentMinhashDeduplicator._signature`
    and ``_signatures_batched`` are held to, not what any run calls.
    """
    from repro.ops.common.helper_funcs import get_ngrams, get_words_from_text, words_refinement
    from repro.ops.deduplicators.document_minhash_deduplicator import (
        _MAX_HASH,
        _MERSENNE_PRIME,
        _shingle_hash,
    )

    words = words_refinement(
        get_words_from_text(text, lowercase=op.lowercase), lower_case=op.lowercase
    )
    shingles = (get_ngrams(words, op.ngram_size) or [tuple(words)]) if words else []
    hashes = [_shingle_hash(shingle) for shingle in shingles]
    return struct.pack(
        f"<{op.num_permutations}I",
        *(
            min((a * value + b) % _MERSENNE_PRIME for value in hashes) & _MAX_HASH
            if hashes
            else _MAX_HASH
            for a, b in op._permutations
        ),
    )


def minhash_clusters(
    op: Any, signatures: Sequence[Sequence[int] | None], show_num: int = 0
) -> tuple[list[int], list[tuple[int, int]]]:
    """Kept row indices and the first ``show_num`` united pairs, row by row.

    The loop ``DocumentMinhashDeduplicator.process`` ran before it clustered
    on arrays: every signed row enters one bucket per LSH band, buckets are
    visited in creation order, each member is compared with its bucket's
    first row (estimated Jaccard = share of equal positions) and united with
    it when the threshold is met.  ``signatures`` holds one sequence of
    ``num_permutations`` ints per row; a row with ``None`` or an empty one is
    never clustered.
    """
    from repro.ops.deduplicators.document_minhash_deduplicator import _UnionFind

    band_width = op.num_permutations // op.num_bands
    union_find = _UnionFind(len(signatures))
    buckets: dict[tuple[int, tuple[int, ...]], list[int]] = {}
    for index, signature in enumerate(signatures):
        if not signature:
            continue
        for band in range(op.num_bands):
            key = (band, tuple(signature[band * band_width:(band + 1) * band_width]))
            buckets.setdefault(key, []).append(index)
    united: list[tuple[int, int]] = []
    for indices in buckets.values():
        anchor = indices[0]
        for other in indices[1:]:
            if union_find.find(anchor) == union_find.find(other):
                continue
            matches = sum(
                1 for left, right in zip(signatures[anchor], signatures[other]) if left == right
            )
            if matches / len(signatures[anchor]) >= op.jaccard_threshold:
                union_find.union(anchor, other)
                if len(united) < show_num:
                    united.append((anchor, other))
    kept = [index for index in range(len(signatures)) if union_find.find(index) == index]
    return kept, united
