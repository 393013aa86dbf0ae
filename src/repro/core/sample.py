"""Sample conventions: well-known field names, stats keys and nested access.

A *sample* is a plain ``dict`` with (at least) a text field, and optionally a
``meta`` dict, the stats Filter OPs produce — one column per stat,
``__stats__.<key>``, shown folded into one ``__stats__`` dict wherever a row
is read (:func:`stats_folder`) — and a transient context dict shared between
fused operators.  This module centralizes the names of
those fields so that every operator and tool agrees on them, mirroring the
"text" / "meta" / "stats" unified representation described in the paper
(Sec. 3.1).
"""

from __future__ import annotations

from typing import Any, Callable, Iterable


class Fields:
    """Well-known top-level field names of a unified sample."""

    text = "text"
    meta = "meta"
    stats = "__stats__"
    context = "__context__"
    suffix = "__suffix__"
    source = "__source__"


class StatsKeys:
    """Names of per-sample statistics produced by Filter operators."""

    alnum_ratio = "alnum_ratio"
    alpha_token_ratio = "alpha_token_ratio"
    avg_line_length = "avg_line_length"
    char_rep_ratio = "char_rep_ratio"
    digit_ratio = "digit_ratio"
    email_count = "email_count"
    flagged_words_ratio = "flagged_words_ratio"
    lang = "lang"
    lang_score = "lang_score"
    max_line_length = "max_line_length"
    num_paragraphs = "num_paragraphs"
    num_sentences = "num_sentences"
    num_token = "num_token"
    num_words = "num_words"
    perplexity = "perplexity"
    quality_score = "quality_score"
    special_char_ratio = "special_char_ratio"
    stopwords_ratio = "stopwords_ratio"
    text_len = "text_len"
    url_ratio = "url_ratio"
    whitespace_ratio = "whitespace_ratio"
    word_rep_ratio = "word_rep_ratio"


class HashKeys:
    """Names of per-sample hash fields produced by Deduplicator operators."""

    hash = "__hash__"
    minhash = "__minhash__"
    simhash = "__simhash__"


#: sentinel default for :func:`get_field` that distinguishes "field absent"
#: from "field present with value None" — dotted paths whose leaf (or any
#: intermediate) is missing resolve to MISSING instead of a real value
MISSING = object()


def get_field(sample: dict, field_path: str, default: Any = None) -> Any:
    """Return the value at a (possibly dotted) field path of a sample.

    ``get_field(sample, "meta.language")`` resolves nested dictionaries.
    Missing intermediate keys yield ``default``.
    """
    current: Any = sample
    for part in field_path.split("."):
        if isinstance(current, dict) and part in current:
            current = current[part]
        else:
            return default
    return current


def set_field(sample: dict, field_path: str, value: Any) -> dict:
    """Set the value at a (possibly dotted) field path, creating dicts as needed.

    Returns the same sample for chaining.
    """
    parts = field_path.split(".")
    current = sample
    for part in parts[:-1]:
        nxt = current.get(part)
        if not isinstance(nxt, dict):
            nxt = {}
            current[part] = nxt
        current = nxt
    current[parts[-1]] = value
    return sample


def has_field(sample: dict, field_path: str) -> bool:
    """Return True when the dotted field path exists in the sample."""
    sentinel = object()
    return get_field(sample, field_path, sentinel) is not sentinel


def ensure_stats(sample: dict) -> dict:
    """Ensure the sample has a stats dict and return that dict."""
    stats = sample.get(Fields.stats)
    if not isinstance(stats, dict):
        stats = {}
        sample[Fields.stats] = stats
    return stats


def ensure_context(sample: dict) -> dict:
    """Ensure the sample has a context dict and return that dict."""
    context = sample.get(Fields.context)
    if not isinstance(context, dict):
        context = {}
        sample[Fields.context] = context
    return context


def clear_context(sample: dict) -> dict:
    """Drop the transient context dict from a sample, if present."""
    sample.pop(Fields.context, None)
    return sample


#: name prefix of a stat column: a Filter writes stat ``k`` as the column ``__stats__.k``
STATS_PREFIX = Fields.stats + "."


def stat_column(key: str) -> str:
    """The column a Filter writes its stat ``key`` to."""
    return STATS_PREFIX + key


def stats_folder(keys: Iterable[str]) -> Callable[[dict], dict] | None:
    """A function giving a row with ``keys`` as a reader sees it, or None when no
    key holds stats.

    A row's stats are its own ``__stats__`` dict (one the input carried), then
    its stat columns in column order — the order the ops wrote them.  The
    function folds them into one new ``__stats__`` dict, at the place of the
    row's ``__stats__`` key, else of its first stat column; a ``__stats__``
    cell that is no dict reads as ``{}``.
    """
    keys = list(keys)
    names = [key for key in keys if key.startswith(STATS_PREFIX)]
    if not names and Fields.stats not in keys:
        return None
    anchor = Fields.stats if Fields.stats in keys else names[0]
    order = [key for key in keys if key == anchor or key not in names]
    cut = len(STATS_PREFIX)

    def fold(row: dict) -> dict:
        carried = row.get(Fields.stats)
        stats = dict(carried) if isinstance(carried, dict) else {}
        for name in names:
            stats[name[cut:]] = row[name]
        return {
            Fields.stats if key == anchor else key: stats if key == anchor else row[key]
            for key in order
        }

    return fold


def fold_stats(row: dict) -> dict:
    """``row`` with its stats folded into one new ``__stats__`` dict
    (:func:`stats_folder`); a row without stats is returned as it is."""
    fold = stats_folder(row)
    return row if fold is None else fold(row)


def internal_fields(keep_stats: bool = False) -> set[str]:
    """The bookkeeping keys an export drops: hashes, context and (unless kept)
    the ``__stats__`` dict; a row never holds a stat column (:func:`is_internal`)."""
    stats = () if keep_stats else (Fields.stats,)
    return {Fields.context, HashKeys.hash, HashKeys.minhash, HashKeys.simhash, *stats}


def is_internal(name: str, keep_stats: bool = False) -> bool:
    """True for a bookkeeping column an export drops: :func:`internal_fields`,
    and every stat column unless the stats are kept."""
    return name in internal_fields(keep_stats) or (not keep_stats and name.startswith(STATS_PREFIX))


def strip_internal_fields(sample: dict, keep_stats: bool = False) -> dict:
    """Return a copy of the sample without internal bookkeeping fields.

    Hash columns, context and (optionally) stats are removed so that exported
    data only contains user-facing content.
    """
    return {key: value for key, value in sample.items() if not is_internal(key, keep_stats)}


def merge_samples(samples: Iterable[dict]) -> dict:
    """Merge a list of single-sample dicts into one batched (columnar) dict."""
    batched: dict[str, list] = {}
    for sample in samples:
        for key, value in sample.items():
            batched.setdefault(key, []).append(value)
    return batched


def split_batched(batched: dict) -> list[dict]:
    """Split a batched (columnar) dict back into a list of sample dicts."""
    if not batched:
        return []
    keys = list(batched.keys())
    length = len(batched[keys[0]])
    return [{key: batched[key][index] for key in keys} for index in range(length)]
