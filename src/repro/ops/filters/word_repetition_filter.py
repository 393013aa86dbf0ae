"""Filter on the word n-gram repetition ratio."""

from __future__ import annotations

from repro.core.base_op import Filter
from repro.core.batch import get_text_column, read_stat, write_stat
from repro.core.context import ContextKeys, get_or_compute
from repro.core.registry import OPERATORS
from repro.core.sample import StatsKeys, ensure_stats
from repro.ops.common.helper_funcs import (
    get_words_from_text,
    ngram_repetition_ratio,
    refined_words_column,
    words_refinement,
)
from repro.ops.common.vectorized import token_repetition_ratios


@OPERATORS.register_module("word_repetition_filter")
class WordRepetitionFilter(Filter):
    """Keep samples whose word ``rep_len``-gram repetition ratio is within range."""

    context_keys = (ContextKeys.words, ContextKeys.refined_words)

    PARAM_SPECS = {
        "rep_len": {"min_value": 1, "doc": "word n-gram length"},
        "min_ratio": {"min_value": 0.0, "max_value": 1.0, "doc": "minimum repetition ratio"},
        "max_ratio": {"min_value": 0.0, "max_value": 1.0, "doc": "maximum repetition ratio"},
    }

    def __init__(
        self,
        rep_len: int = 10,
        min_ratio: float = 0.0,
        max_ratio: float = 0.5,
        text_key: str = "text",
        **kwargs,
    ):
        super().__init__(text_key=text_key, **kwargs)
        if rep_len <= 0:
            raise ValueError("rep_len must be positive")
        self.rep_len = rep_len
        self.min_ratio = min_ratio
        self.max_ratio = max_ratio

    def compute_stats(self, sample: dict, context: bool = False) -> dict:
        stats = ensure_stats(sample)
        if StatsKeys.word_rep_ratio in stats:
            return sample
        text = self.get_text(sample)
        words = get_or_compute(sample, ContextKeys.words, lambda: get_words_from_text(text))
        refined = get_or_compute(
            sample, ContextKeys.refined_words, lambda: words_refinement(words)
        )
        stats[StatsKeys.word_rep_ratio] = ngram_repetition_ratio(refined, self.rep_len)
        return sample

    def compute_stats_batched(self, samples: dict, context: dict | None = None) -> dict:
        texts = get_text_column(samples, self.text_key)
        if texts is None:
            return super().compute_stats_batched(samples, context=context)
        refined_column = refined_words_column(context, texts)  # shared when fused
        return write_stat(
            samples,
            StatsKeys.word_rep_ratio,
            lambda: token_repetition_ratios(refined_column, self.rep_len),
        )

    def process_batched(self, samples: dict) -> list[bool]:
        min_ratio, max_ratio = self.min_ratio, self.max_ratio
        return [
            min_ratio <= value <= max_ratio
            for value in read_stat(samples, StatsKeys.word_rep_ratio, 0.0)
        ]

    def process(self, sample: dict) -> bool:
        value = sample.get("__stats__", {}).get(StatsKeys.word_rep_ratio, 0.0)
        return self.min_ratio <= value <= self.max_ratio
