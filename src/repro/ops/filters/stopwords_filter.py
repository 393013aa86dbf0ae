"""Filter on the ratio of stop-words (a proxy for natural prose)."""

from __future__ import annotations

from repro.core.base_op import Filter
from repro.core.batch import get_text_column, read_stat, write_stat
from repro.core.context import ContextKeys, get_or_compute
from repro.core.registry import OPERATORS
from repro.core.sample import StatsKeys, ensure_stats
from repro.ops.common.helper_funcs import get_words_from_text, refined_words_column, words_refinement
from repro.ops.common.stopwords import get_stopwords


@OPERATORS.register_module("stopwords_filter")
class StopwordsFilter(Filter):
    """Keep samples whose stop-word ratio is at least ``min_ratio``.

    Natural prose contains a substantial fraction of function words; keyword
    lists, tables and code contain almost none.
    """

    context_keys = (ContextKeys.words, ContextKeys.refined_words)

    PARAM_SPECS = {
        "lang": {"choices": ("en", "zh", "all"), "doc": "stop-word list to use"},
        "min_ratio": {"min_value": 0.0, "max_value": 1.0, "doc": "minimum stop-word ratio"},
        "stopwords": {"doc": "custom stop-word list overriding the built-in one"},
    }

    def __init__(
        self,
        lang: str = "en",
        min_ratio: float = 0.3,
        stopwords: list[str] | None = None,
        text_key: str = "text",
        **kwargs,
    ):
        super().__init__(text_key=text_key, **kwargs)
        self.lang = lang
        self.min_ratio = min_ratio
        self.stopwords = set(stopwords) if stopwords else get_stopwords(lang)

    def compute_stats(self, sample: dict, context: bool = False) -> dict:
        stats = ensure_stats(sample)
        if StatsKeys.stopwords_ratio in stats:
            return sample
        text = self.get_text(sample)
        words = get_or_compute(sample, ContextKeys.words, lambda: get_words_from_text(text))
        refined = get_or_compute(
            sample, ContextKeys.refined_words, lambda: words_refinement(words)
        )
        hits = sum(1 for word in refined if word in self.stopwords)
        stats[StatsKeys.stopwords_ratio] = hits / len(refined) if refined else 0.0
        return sample

    def compute_stats_batched(self, samples: dict, context: dict | None = None) -> dict:
        texts = get_text_column(samples, self.text_key)
        if texts is None:
            return super().compute_stats_batched(samples, context=context)
        refined_column = refined_words_column(context, texts)  # shared when fused
        contains = self.stopwords.__contains__
        return write_stat(samples, StatsKeys.stopwords_ratio, lambda: [
            sum(map(contains, refined)) / len(refined) if refined else 0.0
            for refined in refined_column
        ])

    def process_batched(self, samples: dict) -> list[bool]:
        min_ratio = self.min_ratio
        return [
            value >= min_ratio for value in read_stat(samples, StatsKeys.stopwords_ratio, 0.0)
        ]

    def process(self, sample: dict) -> bool:
        value = sample.get("__stats__", {}).get(StatsKeys.stopwords_ratio, 0.0)
        return value >= self.min_ratio
