"""Filter on the number of words in the text."""

from __future__ import annotations

import sys

from repro.core.base_op import Filter
from repro.core.batch import get_text_column, read_stat, write_stat
from repro.core.context import ContextKeys, get_or_compute
from repro.core.registry import OPERATORS
from repro.core.sample import StatsKeys, ensure_stats
from repro.ops.common.helper_funcs import get_words_from_text, refined_words_column, words_refinement


@OPERATORS.register_module("words_num_filter")
class WordsNumFilter(Filter):
    """Keep samples whose word count is within ``[min_num, max_num]``."""

    context_keys = (ContextKeys.words, ContextKeys.refined_words)

    PARAM_SPECS = {
        "min_num": {"min_value": 0, "doc": "minimum number of words"},
        "max_num": {"min_value": 0, "doc": "maximum number of words"},
    }

    def __init__(
        self,
        min_num: int = 10,
        max_num: int = sys.maxsize,
        text_key: str = "text",
        **kwargs,
    ):
        super().__init__(text_key=text_key, **kwargs)
        self.min_num = min_num
        self.max_num = max_num

    def compute_stats(self, sample: dict, context: bool = False) -> dict:
        stats = ensure_stats(sample)
        if StatsKeys.num_words in stats:
            return sample
        text = self.get_text(sample)
        words = get_or_compute(sample, ContextKeys.words, lambda: get_words_from_text(text))
        refined = get_or_compute(
            sample, ContextKeys.refined_words, lambda: words_refinement(words)
        )
        stats[StatsKeys.num_words] = len(refined)
        return sample

    def compute_stats_batched(self, samples: dict, context: dict | None = None) -> dict:
        texts = get_text_column(samples, self.text_key)
        if texts is None:
            return super().compute_stats_batched(samples, context=context)
        refined_column = refined_words_column(context, texts)  # shared when fused
        return write_stat(samples, StatsKeys.num_words, lambda: list(map(len, refined_column)))

    def process_batched(self, samples: dict) -> list[bool]:
        min_num, max_num = self.min_num, self.max_num
        return [
            min_num <= value <= max_num for value in read_stat(samples, StatsKeys.num_words, 0)
        ]

    def process(self, sample: dict) -> bool:
        value = sample.get("__stats__", {}).get(StatsKeys.num_words, 0)
        return self.min_num <= value <= self.max_num
