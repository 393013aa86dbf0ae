"""Shared text-processing helpers used across Mapper and Filter operators.

These functions centralise tokenisation, sentence splitting, n-gram
construction and word refinement so that fused operators can share their
results via the per-sample context (:mod:`repro.core.context`).
"""

from __future__ import annotations

import re
import string
from collections import Counter
from typing import Iterable, Sequence

from repro.core.context import ContextKeys, get_or_compute_column

_WORD_PATTERN = re.compile(r"[\w']+|[^\w\s]", re.UNICODE)
_SENTENCE_PATTERN = re.compile(r"(?<=[.!?。！？])\s+")
_PARAGRAPH_PATTERN = re.compile(r"\n\s*\n")
_CJK_PATTERN = re.compile(r"[一-鿿]")


def get_words_from_text(text: str, lowercase: bool = False) -> list[str]:
    """Tokenise text into words and punctuation tokens.

    CJK characters are emitted as single-character tokens (approximating a
    character-level tokenizer for Chinese-like text); other scripts are split
    on word boundaries.  Texts without any CJK characters — the overwhelmingly
    common case — take a single-pass ``findall`` fast path instead of probing
    every token.
    """
    if lowercase:
        text = text.lower()
    if not _CJK_PATTERN.search(text):
        return _WORD_PATTERN.findall(text)
    tokens: list[str] = []
    for token in _WORD_PATTERN.findall(text):
        if _CJK_PATTERN.search(token):
            tokens.extend(token)
        else:
            tokens.append(token)
    return tokens


_DEFAULT_STRIP_CHARS = string.punctuation + string.whitespace

#: memoised default refinement (lowercase + strip) per distinct token; text
#: vocabularies are zipfian, so most tokens hit the cache.  ``None`` marks
#: tokens that refine to nothing.  Bounded against adversarial vocabularies.
_REFINE_CACHE: dict[str, str | None] = {}
_REFINE_CACHE_MAX = 1 << 17
_MISSING = object()


def words_refinement(
    words: Sequence[str],
    lower_case: bool = True,
    strip_chars: str | None = None,
    use_words_aug: bool = False,
) -> list[str]:
    """Refine tokens: lowercase, strip punctuation-like edges and drop empties.

    ``use_words_aug`` additionally merges very short tokens with neighbours to
    approximate the word-augmentation used for languages without spaces.
    """
    if strip_chars is None and lower_case:
        # memoised fast path for the default refinement settings: classify
        # unseen tokens once, then map + filter run entirely at C level
        cache = _REFINE_CACHE
        unknown = set(words).difference(cache)
        if unknown and len(cache) + len(unknown) <= _REFINE_CACHE_MAX:
            for word in unknown:
                cache[word] = word.lower().strip(_DEFAULT_STRIP_CHARS) or None
            unknown = ()
        if not unknown:
            refined = list(filter(None, map(cache.__getitem__, words)))
            return _merge_short_tokens(refined) if use_words_aug else refined
        # cache is full: refine uncached tokens inline, reuse cached ones
        refined = []
        for word in words:
            cached = cache.get(word, _MISSING)
            if cached is _MISSING:
                cached = word.lower().strip(_DEFAULT_STRIP_CHARS) or None
            if cached is not None:
                refined.append(cached)
        return _merge_short_tokens(refined) if use_words_aug else refined
    strip_chars = strip_chars if strip_chars is not None else _DEFAULT_STRIP_CHARS
    refined = []
    for word in words:
        if lower_case:
            word = word.lower()
        word = word.strip(strip_chars)
        if word:
            refined.append(word)
    if use_words_aug:
        refined = _merge_short_tokens(refined)
    return refined


def refined_words_column(context: dict | None, texts: list[str]) -> list[list[str]]:
    """The refined word list of every text of a batch, tokenised once per fused
    batch: the ``words`` / ``refined_words`` columns of the shared ``context``."""
    words = get_or_compute_column(
        context, ContextKeys.words, lambda: [get_words_from_text(t) for t in texts]
    )
    return get_or_compute_column(
        context, ContextKeys.refined_words, lambda: [words_refinement(w) for w in words]
    )


def _merge_short_tokens(refined: Sequence[str]) -> list[str]:
    """Merge single-character tokens with neighbours (words-aug approximation)."""
    merged: list[str] = []
    buffer = ""
    for word in refined:
        if len(word) == 1:
            buffer += word
        else:
            if buffer:
                merged.append(buffer)
                buffer = ""
            merged.append(word)
    if buffer:
        merged.append(buffer)
    return merged


def split_sentences(text: str) -> list[str]:
    """Split text into sentences on ., !, ? and their CJK equivalents."""
    parts = _SENTENCE_PATTERN.split(text.strip())
    return [part.strip() for part in parts if part.strip()]


def split_paragraphs(text: str) -> list[str]:
    """Split text into paragraphs on blank lines."""
    parts = _PARAGRAPH_PATTERN.split(text)
    return [part.strip() for part in parts if part.strip()]


def split_lines(text: str) -> list[str]:
    """Split text into lines (newline separated, empty lines preserved)."""
    return text.split("\n")


def get_ngrams(tokens: Sequence, n: int) -> list[tuple]:
    """Return the list of n-grams (as tuples) of a token sequence.

    Built with ``zip`` over shifted slices, so the tuples materialise at C
    speed instead of one Python-level slice+tuple per position.
    """
    if n <= 0:
        raise ValueError("n must be positive")
    if len(tokens) < n:
        return []
    return list(zip(*(tokens[index:] for index in range(n))))


def get_char_ngrams(text: str, n: int) -> list[str]:
    """Return the list of character n-grams of a string."""
    if n <= 0:
        raise ValueError("n must be positive")
    if len(text) < n:
        return []
    return [text[index:index + n] for index in range(len(text) - n + 1)]


def ngram_repetition_ratio(items: Sequence, n: int) -> float:
    """Fraction of n-gram occurrences that belong to duplicated n-grams.

    This is the character/word repetition metric used by the corresponding
    filters: 0.0 means every n-gram is unique, values close to 1.0 indicate a
    highly repetitive text.
    """
    grams = get_ngrams(list(items), n)
    if not grams:
        return 0.0
    counts = Counter(grams)
    repeated = sum(count for count in counts.values() if count > 1)
    return repeated / len(grams)


def char_ngram_repetition_ratio(text: str, n: int) -> float:
    """Fast variant of :func:`ngram_repetition_ratio` for character n-grams.

    Counts substrings instead of character tuples; substrings of fixed length
    are in bijection with the corresponding tuples, so the resulting ratio is
    identical while skipping the ``list(text)`` + tuple materialisation.
    """
    if n <= 0:
        raise ValueError("n must be positive")
    total = len(text) - n + 1
    if total <= 0:
        return 0.0
    counts = Counter(text[index:index + n] for index in range(total))
    repeated = sum(count for count in counts.values() if count > 1)
    return repeated / total


def ratio_of(predicate_count: int, total: int) -> float:
    """Safe ratio helper: returns 0.0 when the denominator is zero."""
    return predicate_count / total if total else 0.0


def is_cjk_char(char: str) -> bool:
    """Return True when the character falls in the main CJK unified block."""
    return bool(_CJK_PATTERN.match(char))


def cjk_ratio(text: str) -> float:
    """Fraction of characters that are CJK; used for language heuristics."""
    if not text:
        return 0.0
    return sum(1 for char in text if is_cjk_char(char)) / len(text)


def count_matches(pattern: re.Pattern, text: str) -> int:
    """Number of non-overlapping matches of a compiled pattern in the text."""
    return sum(1 for _ in pattern.finditer(text))


def unique_ratio(items: Iterable) -> float:
    """Fraction of distinct items; 1.0 means all items are unique."""
    items = list(items)
    if not items:
        return 0.0
    return len(set(items)) / len(items)
