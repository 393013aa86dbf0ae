"""Filter on the character n-gram repetition ratio."""

from __future__ import annotations

from repro.core.base_op import Filter
from repro.core.batch import get_text_column, read_stat, write_stat
from repro.core.registry import OPERATORS
from repro.core.sample import StatsKeys, ensure_stats
from repro.ops.common.helper_funcs import ngram_repetition_ratio
from repro.ops.common.vectorized import char_repetition_ratios


@OPERATORS.register_module("character_repetition_filter")
class CharacterRepetitionFilter(Filter):
    """Keep samples whose char ``rep_len``-gram repetition ratio is within range.

    A high repetition ratio indicates boilerplate, keyword stuffing or
    generation loops, all of which harm pre-training stability.
    """

    PARAM_SPECS = {
        "rep_len": {"min_value": 1, "doc": "character n-gram length"},
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
        if StatsKeys.char_rep_ratio in stats:
            return sample
        text = self.get_text(sample)
        stats[StatsKeys.char_rep_ratio] = ngram_repetition_ratio(text, self.rep_len)
        return sample

    def compute_stats_batched(self, samples: dict, context: dict | None = None) -> dict:
        texts = get_text_column(samples, self.text_key)
        if texts is None:
            return super().compute_stats_batched(samples, context=context)
        return write_stat(
            samples, StatsKeys.char_rep_ratio, lambda: char_repetition_ratios(texts, self.rep_len)
        )

    def process_batched(self, samples: dict) -> list[bool]:
        min_ratio, max_ratio = self.min_ratio, self.max_ratio
        return [
            min_ratio <= value <= max_ratio
            for value in read_stat(samples, StatsKeys.char_rep_ratio, 0.0)
        ]

    def process(self, sample: dict) -> bool:
        value = sample.get("__stats__", {}).get(StatsKeys.char_rep_ratio, 0.0)
        return self.min_ratio <= value <= self.max_ratio
