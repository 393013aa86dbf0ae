"""Filter on the ratio of whitespace characters."""

from __future__ import annotations

from repro.core.base_op import Filter
from repro.core.batch import get_text_column, read_stat, write_stat
from repro.core.registry import OPERATORS
from repro.core.sample import StatsKeys, ensure_stats
from repro.ops.common.vectorized import whitespace_counts


@OPERATORS.register_module("whitespace_ratio_filter")
class WhitespaceRatioFilter(Filter):
    """Keep samples whose whitespace ratio is within ``[min_ratio, max_ratio]``.

    Extremely low ratios indicate missing word boundaries (broken extraction);
    extremely high ratios indicate ASCII art, tables or formatting debris.
    """

    PARAM_SPECS = {
        "min_ratio": {"min_value": 0.0, "max_value": 1.0, "doc": "minimum whitespace ratio"},
        "max_ratio": {"min_value": 0.0, "max_value": 1.0, "doc": "maximum whitespace ratio"},
    }

    def __init__(
        self,
        min_ratio: float = 0.05,
        max_ratio: float = 0.5,
        text_key: str = "text",
        **kwargs,
    ):
        super().__init__(text_key=text_key, **kwargs)
        self.min_ratio = min_ratio
        self.max_ratio = max_ratio

    def compute_stats(self, sample: dict, context: bool = False) -> dict:
        stats = ensure_stats(sample)
        if StatsKeys.whitespace_ratio in stats:
            return sample
        text = self.get_text(sample)
        spaces = sum(1 for char in text if char.isspace())
        stats[StatsKeys.whitespace_ratio] = spaces / len(text) if text else 0.0
        return sample

    def compute_stats_batched(self, samples: dict, context: dict | None = None) -> dict:
        texts = get_text_column(samples, self.text_key)
        if texts is None:
            return super().compute_stats_batched(samples, context=context)
        return write_stat(samples, StatsKeys.whitespace_ratio, lambda: [
            count / len(text) if text else 0.0 for text, count in zip(texts, whitespace_counts(texts))
        ])

    def process_batched(self, samples: dict) -> list[bool]:
        min_ratio, max_ratio = self.min_ratio, self.max_ratio
        return [
            min_ratio <= value <= max_ratio
            for value in read_stat(samples, StatsKeys.whitespace_ratio, 0.0)
        ]

    def process(self, sample: dict) -> bool:
        value = sample.get("__stats__", {}).get(StatsKeys.whitespace_ratio, 0.0)
        return self.min_ratio <= value <= self.max_ratio
