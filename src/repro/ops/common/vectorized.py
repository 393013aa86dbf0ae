"""Vectorised text kernels backing the batched op implementations.

Every function here is a drop-in, *bit-identical* replacement for the pure
Python helper it accelerates — the batched/per-row equivalence suite asserts
exactly that.  The kernels operate on whole batches (lists of texts / token
lists) so the numpy import and any table setup are amortised across rows.

Repetition ratios are counted by one scheme — dense ids, ``n`` of them
bit-packed into one uint64 key per window, sort, compare neighbours — and a
document's length decides how it gets there:

* characters, ``len <= _GROUPED_MAX_DOC_CHARS`` and ``n <= 8``: the grouped
  kernel, hundreds of documents per sort, ids from the shared 7-bit table;
* characters otherwise (long documents, ``n > 8``, alphabet overflows): one
  sort per document, ids from the shared table when the document fits it
  and ``7 * n <= 64``, else from a presence table of the document's own
  alphabet; the substring ``Counter`` only when an n-gram of that alphabet
  does not fit one key;
* tokens: the tuple ``Counter`` below ``_TOKEN_IDS_MIN_TOKENS`` tokens, per
  document interned ids above it (when the vocabulary fits one key).

All kernels degrade gracefully to the pure Python helpers when numpy is
unavailable, so the batched path never *requires* the accelerator.
"""

from __future__ import annotations

from itertools import count
from typing import Sequence

from repro.ops.common.helper_funcs import (
    char_ngram_repetition_ratio,
    ngram_repetition_ratio,
)
from repro.ops.common.special_characters import is_special_character, special_character_count

try:  # numpy is an optional accelerator, not a hard dependency
    import numpy as _np
except ImportError:  # pragma: no cover - the image bakes numpy in
    _np = None


def _codepoints(text: str):
    """The text as a uint32 codepoint array (one cell per character).

    Raises :class:`UnicodeEncodeError` for strings containing unpaired
    surrogates (legal in Python strings, e.g. from JSON ``\\ud800`` escapes);
    callers catch it and fall back to the pure-Python helpers.
    """
    return _np.frombuffer(text.encode("utf-32-le"), dtype=_np.uint32)


def _repeated_in_sorted_keys(key) -> int:
    """Occurrences belonging to duplicated values of a sorted key array.

    An occurrence is *not* repeated exactly when it differs from both of its
    neighbours, so three passes over a bool array replace the run-length
    bookkeeping (``flatnonzero`` / ``diff`` / masked sum).
    """
    total = int(key.size)
    if total < 2:
        return 0
    differs = key[1:] != key[:-1]
    singles = int(_np.count_nonzero(differs[1:] & differs[:-1]))
    return total - singles - int(differs[0]) - int(differs[-1])


def _pack_window_keys(ids, width: int, bits: int):
    """uint64 keys of all ``width``-windows of a dense-id array, by doubling.

    ``key[i] = ids[i] << bits*(width-1) | … | ids[i+width-1]`` for every
    position, computed with ~2·log2(width) whole-array shift/or passes
    instead of ``width`` per-column passes.  Requires ``width*bits <= 64``.
    """
    powers = {1: ids}
    span = 1
    key = ids
    while span * 2 <= width:
        shift = _np.uint64(bits * span)
        key = (key[:-span] << shift) | key[span:]
        span *= 2
        powers[span] = key
    # greedy binary composition of the remaining width
    acc = None
    acc_span = 0
    for span in sorted(powers, reverse=True):
        if acc_span + span > width:
            continue
        piece = powers[span]
        if acc is None:
            acc = piece
        else:
            length = min(acc.size, piece.size - acc_span)
            acc = (acc[:length] << _np.uint64(bits * span)) | piece[acc_span:acc_span + length]
        acc_span += span
        if acc_span == width:
            break
    return acc[: ids.size - width + 1]


def _id_bits(num_ids: int) -> int:
    """Bits one id of a ``num_ids``-letter alphabet takes in a sort key."""
    return max(1, (num_ids - 1).bit_length())


def _repetition_ratio_from_ids(ids, num_ids: int, n: int) -> float:
    """Fraction of duplicated n-gram occurrences over a dense-id sequence.

    Consecutive ids are bit-packed into one uint64 sort key per window —
    callers guarantee ``bits_per_id * n <= 64`` — sorted, and duplicate
    windows counted via run lengths.  Packing is bijective, so the ratio is
    identical to the tuple-Counter helper.
    """
    total = int(ids.size) - n + 1
    if total <= 0:
        return 0.0
    bits = _id_bits(num_ids)
    if bits * n > 64:
        raise ValueError(f"{n}-grams of a {num_ids}-id alphabet do not fit one sort key")
    key = _pack_window_keys(ids, n, bits)
    return _repeated_in_sorted_keys(_np.sort(key)) / total


# ----------------------------------------------------------------------
# Grouped char-repetition kernel
# ----------------------------------------------------------------------
#: global codepoint -> dense id table for the grouped kernel; id 0 means
#: "unassigned", real ids are 1..GROUP_ALPHABET_MAX (7 bits)
_DENSE_ID_BITS = 7
_DENSE_ID_MAX = (1 << _DENSE_ID_BITS) - 1
_DENSE_IDS = None
_DENSE_NEXT = 1


def _dense_ids(codepoints):
    """Shared-table ids (uint8) of a codepoint array; 0 marks "no id".

    Codepoints seen for the first time are assigned the next free id while
    the 7-bit budget lasts — ``"\x00"`` never gets one (it is the batch
    separator of the grouped kernel) — so id 0 is left on separators and on
    characters that overflowed the budget; documents holding the latter are
    remapped per document by :func:`_char_repetition_fallback`.
    """
    global _DENSE_IDS, _DENSE_NEXT
    if _DENSE_IDS is None:
        _DENSE_IDS = _np.zeros(0x110000, dtype=_np.uint8)
    ids = _DENSE_IDS.take(codepoints)
    if _DENSE_NEXT > _DENSE_ID_MAX:
        return ids
    unassigned = codepoints[ids == 0]
    unassigned = unassigned[unassigned != 0]
    if not unassigned.size:
        return ids
    for codepoint in _np.unique(unassigned).tolist():
        if _DENSE_NEXT > _DENSE_ID_MAX:
            break
        _DENSE_IDS[codepoint] = _DENSE_NEXT
        _DENSE_NEXT += 1
    return _DENSE_IDS.take(codepoints)


def _segment_sums(values, starts, lengths):
    """Per-segment True counts of a bool array (vectorised).

    Binary-searches the match positions instead of materialising a full
    cumulative sum — the match sets of the ratio filters are sparse, so this
    touches far less memory.
    """
    positions = _np.flatnonzero(values)
    return _np.searchsorted(positions, starts + lengths) - _np.searchsorted(positions, starts)


def _grouped_char_repetition(ids, starts, lengths, n: int):
    """One-sort-per-group repetition ratios over a concatenated id array.

    Each group's windows are packed into uint64 keys carrying the document
    index in the high bits, sorted together, and per-document duplicate
    counts recovered with a single ``bincount`` over the run lengths — the
    per-document numpy call overhead collapses into ~a dozen calls per group
    of up to 256 documents.  ``ids`` stays uint8; every wide transient (the
    uint64 casts, keys, sort buffer) is allocated per group, so peak memory
    is bounded by the group span, not the batch.
    """
    runs = _np.maximum(lengths - n + 1, 0)
    doc_shift = _np.uint64(_DENSE_ID_BITS * n)
    group = 1 << (64 - _DENSE_ID_BITS * n)
    num_docs = starts.size
    ratios = _np.zeros(num_docs, dtype=_np.float64)
    for first_doc in range(0, num_docs, group):
        last_doc = min(first_doc + group, num_docs)
        doc_slice = slice(first_doc, last_doc)
        chunk_runs = runs[doc_slice]
        total_valid = int(chunk_runs.sum())
        if total_valid == 0:
            continue
        char_start = int(starts[first_doc])
        char_end = int(starts[last_doc - 1] + lengths[last_doc - 1])
        keys = _pack_window_keys(
            ids[char_start:char_end].astype(_np.uint64), n, _DENSE_ID_BITS
        )
        doc_index = _np.repeat(
            _np.arange(chunk_runs.size, dtype=_np.uint64), chunk_runs
        )
        window_start = _np.repeat(starts[doc_slice] - char_start, chunk_runs) + (
            _np.arange(total_valid, dtype=_np.int64)
            - _np.repeat(_np.cumsum(chunk_runs) - chunk_runs, chunk_runs)
        )
        combined = (doc_index << doc_shift) | keys[window_start]
        combined.sort()
        distinct = _np.empty(total_valid, dtype=bool)
        distinct[0] = True
        _np.not_equal(combined[1:], combined[:-1], out=distinct[1:])
        run_starts = _np.flatnonzero(distinct)
        run_lengths = _np.diff(_np.append(run_starts, total_valid))
        dup = run_lengths > 1
        repeated = _np.bincount(
            (combined[run_starts[dup]] >> doc_shift).astype(_np.int64),
            weights=run_lengths[dup],
            minlength=chunk_runs.size,
        )
        ratios[doc_slice] = repeated / _np.maximum(chunk_runs, 1)
    return ratios


#: documents longer than this skip the grouped kernel for one sort each:
#: per-document numpy call overhead is negligible at this size, and keeping
#: them out bounds the grouped kernel's transient allocations
#: (long-document workloads stay lean)
_GROUPED_MAX_DOC_CHARS = 2048


def char_repetition_ratios(texts: Sequence[str], n: int) -> list[float]:
    """Char n-gram repetition ratio per text (vectorised Counter replacement).

    Texts of at most :data:`_GROUPED_MAX_DOC_CHARS` characters are encoded
    once and processed by the grouped kernel (hundreds of documents per
    sort) — when ``n <= 8``: the kernel keeps 8 of a key's 64 bits for the
    document index, so ``rep_len > 8`` (the default is 10) never uses it.
    Every other text — longer, ``n > 8``, or holding a character the shared
    7-bit alphabet had no id left for — takes the per-document kernel
    :func:`_char_repetition_fallback`.
    """
    if n <= 0:
        raise ValueError("n must be positive")
    if _np is None or not texts:
        return [char_ngram_repetition_ratio(text, n) for text in texts]
    grouped_ok = _DENSE_ID_BITS * n <= 56  # >= 8 doc bits for the group kernel
    results: list = [None] * len(texts)
    grouped_at: list[int] = []
    grouped_texts: list[str] = []
    for index, text in enumerate(texts):
        if len(text) < n:
            results[index] = 0.0
        elif not grouped_ok or len(text) > _GROUPED_MAX_DOC_CHARS:
            results[index] = _char_repetition_fallback(text, n)
        else:
            grouped_at.append(index)
            grouped_texts.append(text)
    if not grouped_texts:
        return results
    try:
        codepoints = _codepoints("\x00".join(grouped_texts))
    except UnicodeEncodeError:
        # unpaired surrogates somewhere in the batch: count in pure Python
        for index, text in zip(grouped_at, grouped_texts):
            results[index] = char_ngram_repetition_ratio(text, n)
        return results
    ids = _dense_ids(codepoints)
    lengths = _np.fromiter(
        (len(text) for text in grouped_texts), dtype=_np.int64, count=len(grouped_texts)
    )
    starts = _np.empty(len(grouped_texts), dtype=_np.int64)
    starts[0] = 0
    _np.cumsum(lengths[:-1] + 1, out=starts[1:])
    # documents still holding id-0 characters overflowed the alphabet budget
    zero_per_doc = _segment_sums(ids == 0, starts, lengths)
    ratios = _grouped_char_repetition(ids, starts, lengths, n)
    for position, index in enumerate(grouped_at):
        if zero_per_doc[position] > 0:
            results[index] = _char_repetition_fallback(grouped_texts[position], n)
        else:
            results[index] = float(ratios[position])
    return results


def _char_repetition_fallback(text: str, n: int) -> float:
    """Per-document kernel for texts the grouped kernel does not take.

    Ids come from the shared dense table when every character has one and a
    7-bit n-gram fits a sort key; otherwise from a presence-table remap of
    the document's own alphabet, O(len + max codepoint) with no sort.  Only
    an alphabet whose n-grams overflow one uint64 key reaches the substring
    Counter.
    """
    if len(text) < n:
        return 0.0
    try:
        codepoints = _codepoints(text)
    except UnicodeEncodeError:
        return char_ngram_repetition_ratio(text, n)
    if _DENSE_ID_BITS * n <= 64:
        ids = _dense_ids(codepoints)
        if ids.all():
            return _repetition_ratio_from_ids(ids.astype(_np.uint64), _DENSE_ID_MAX + 1, n)
    positions = codepoints.astype(_np.intp)
    table = _np.zeros(int(codepoints.max()) + 1, dtype=_np.uint64)
    table[positions] = 1
    alphabet = _np.flatnonzero(table)
    if _id_bits(int(alphabet.size)) * n > 64:
        return char_ngram_repetition_ratio(text, n)
    table[alphabet] = _np.arange(alphabet.size, dtype=_np.uint64)
    return _repetition_ratio_from_ids(table.take(positions), int(alphabet.size), n)


#: token lists shorter than this keep the tuple Counter: interning to ids
#: costs one set + one dict + one ``fromiter`` per document before numpy sees
#: anything.  Measured on refined long-web word lists cut to length
#: (us per list, Counter | ids; 2 vCPUs, numpy 2.4):
#:   n=3:  128: 20 | 30   256: 37 | 40   384: 55 | 48   512: 72 | 57   1024: 134 | 87
#:   n=5:  128: 22 | 32   256: 42 | 42   384: 62 | 50   512: 79 | 59   1024: 151 | 90
#:   n=8:  128: 26 | 31   256: 50 | 42   384: 74 | 50   512: 94 | 59   1024: 180 | 89
_TOKEN_IDS_MIN_TOKENS = 256


def token_repetition_ratios(token_lists: Sequence[Sequence[str]], n: int) -> list[float]:
    """Token n-gram repetition ratio per token list.

    A list of at least :data:`_TOKEN_IDS_MIN_TOKENS` tokens whose vocabulary
    fits (``bits_per_id * n <= 64``) is interned to per-document dense ids —
    one ``dict(zip(set(tokens), count()))`` and a C-level ``map`` — and
    counted by the same pack-and-sort kernel as characters.  Shorter lists,
    and vocabularies too large for one sort key (with the default
    ``rep_len=10``: more than 64 distinct tokens), keep the tuple Counter of
    :func:`ngram_repetition_ratio`; for them the batched win of the
    word-level filters is tokenising each batch once.
    """
    if n <= 0:
        raise ValueError("n must be positive")
    if _np is None:
        return [ngram_repetition_ratio(tokens, n) for tokens in token_lists]
    ratios = []
    for tokens in token_lists:
        vocabulary = set(tokens) if len(tokens) >= _TOKEN_IDS_MIN_TOKENS else ()
        if vocabulary and _id_bits(len(vocabulary)) * n <= 64:
            ids_of = dict(zip(vocabulary, count()))
            ids = _np.fromiter(
                map(ids_of.__getitem__, tokens), dtype=_np.uint64, count=len(tokens)
            )
            ratios.append(_repetition_ratio_from_ids(ids, len(ids_of), n))
        else:
            ratios.append(ngram_repetition_ratio(tokens, n))
    return ratios


# ----------------------------------------------------------------------
# Per-character predicate counting via lazily-filled codepoint class tables
# ----------------------------------------------------------------------
#: predicate name -> class table (0 = unclassified, 1 = match, 2 = no match;
#: one byte per codepoint, filled lazily from the Python predicate)
_CLASS_TABLES: dict[str, object] = {}


def char_predicate_counts(texts: Sequence[str], name: str, predicate) -> list[int]:
    """Count characters matching ``predicate`` per text, via a codepoint table.

    The whole batch is encoded once (``\\x00``-joined), classified with one
    table load, and per-text counts recovered with a single ``reduceat`` —
    the Python predicate runs exactly once per distinct codepoint per
    process.  Bit-identical to ``sum(1 for c in text if predicate(c))``.
    """
    if _np is None:
        return [sum(1 for char in text if predicate(char)) for text in texts]
    if not texts:
        return []
    table = _CLASS_TABLES.get(name)
    if table is None:
        table = _CLASS_TABLES[name] = _np.zeros(0x110000, dtype=_np.uint8)
    try:
        codepoints = _codepoints("\x00".join(texts))
    except UnicodeEncodeError:
        # unpaired surrogates somewhere in the batch: count in pure Python
        return [sum(1 for char in text if predicate(char)) for text in texts]
    classes = table[codepoints] if codepoints.size else _np.empty(0, _np.uint8)
    if not classes.all():
        for codepoint in _np.unique(codepoints[classes == 0]).tolist():
            table[codepoint] = 1 if predicate(chr(codepoint)) else 2
        classes = table[codepoints]
    lengths = _np.fromiter((len(text) for text in texts), dtype=_np.int64, count=len(texts))
    starts = _np.empty(len(texts), dtype=_np.int64)
    starts[0] = 0
    _np.cumsum(lengths[:-1] + 1, out=starts[1:])
    return _segment_sums(classes == 1, starts, lengths).tolist()


def special_character_counts(texts: Sequence[str]) -> list[int]:
    """Special-character count per text (see :func:`char_predicate_counts`)."""
    if _np is None:
        return [special_character_count(text) for text in texts]
    return char_predicate_counts(texts, "special", is_special_character)


def digit_counts(texts: Sequence[str]) -> list[int]:
    """Digit-character count per text (``str.isdigit`` semantics)."""
    return char_predicate_counts(texts, "digit", str.isdigit)


def whitespace_counts(texts: Sequence[str]) -> list[int]:
    """Whitespace-character count per text (``str.isspace`` semantics)."""
    return char_predicate_counts(texts, "whitespace", str.isspace)


__all__ = [
    "char_predicate_counts",
    "char_repetition_ratios",
    "digit_counts",
    "special_character_counts",
    "token_repetition_ratios",
    "whitespace_counts",
]
