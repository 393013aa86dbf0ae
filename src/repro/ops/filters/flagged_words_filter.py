"""Filter on the ratio of flagged (unsafe / low-quality marker) words."""

from __future__ import annotations

from repro.core.base_op import Filter
from repro.core.batch import get_text_column, read_stat, write_stat
from repro.core.context import ContextKeys, get_or_compute
from repro.core.registry import OPERATORS
from repro.core.sample import StatsKeys, ensure_stats
from repro.ops.common.flagged_words import get_flagged_words
from repro.ops.common.helper_funcs import get_words_from_text, refined_words_column, words_refinement


@OPERATORS.register_module("flagged_words_filter")
class FlaggedWordsFilter(Filter):
    """Keep samples whose flagged-word ratio is at most ``max_ratio``."""

    context_keys = (ContextKeys.words, ContextKeys.refined_words)

    PARAM_SPECS = {
        "lang": {"choices": ("en", "zh", "all"), "doc": "flagged-word list to use"},
        "max_ratio": {"min_value": 0.0, "max_value": 1.0, "doc": "maximum flagged-word ratio"},
        "flagged_words": {"doc": "custom flagged-word list overriding the built-in one"},
    }

    def __init__(
        self,
        lang: str = "en",
        max_ratio: float = 0.045,
        flagged_words: list[str] | None = None,
        text_key: str = "text",
        **kwargs,
    ):
        super().__init__(text_key=text_key, **kwargs)
        self.lang = lang
        self.max_ratio = max_ratio
        self.flagged_words = set(flagged_words) if flagged_words else get_flagged_words(lang)

    def compute_stats(self, sample: dict, context: bool = False) -> dict:
        stats = ensure_stats(sample)
        if StatsKeys.flagged_words_ratio in stats:
            return sample
        text = self.get_text(sample)
        words = get_or_compute(sample, ContextKeys.words, lambda: get_words_from_text(text))
        refined = get_or_compute(
            sample, ContextKeys.refined_words, lambda: words_refinement(words)
        )
        flagged = sum(1 for word in refined if word in self.flagged_words)
        stats[StatsKeys.flagged_words_ratio] = flagged / len(refined) if refined else 0.0
        return sample

    def compute_stats_batched(self, samples: dict, context: dict | None = None) -> dict:
        texts = get_text_column(samples, self.text_key)
        if texts is None:
            return super().compute_stats_batched(samples, context=context)
        refined_column = refined_words_column(context, texts)  # shared when fused
        contains = self.flagged_words.__contains__
        return write_stat(samples, StatsKeys.flagged_words_ratio, lambda: [
            sum(map(contains, refined)) / len(refined) if refined else 0.0
            for refined in refined_column
        ])

    def process_batched(self, samples: dict) -> list[bool]:
        max_ratio = self.max_ratio
        return [
            value <= max_ratio
            for value in read_stat(samples, StatsKeys.flagged_words_ratio, 0.0)
        ]

    def process(self, sample: dict) -> bool:
        value = sample.get("__stats__", {}).get(StatsKeys.flagged_words_ratio, 0.0)
        return value <= self.max_ratio
