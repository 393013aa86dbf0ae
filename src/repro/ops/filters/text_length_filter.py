"""Filter on the character length of the text."""

from __future__ import annotations

import sys

from repro.core.base_op import Filter
from repro.core.batch import get_text_column, read_stat, write_stat
from repro.core.registry import OPERATORS
from repro.core.sample import StatsKeys, ensure_stats


@OPERATORS.register_module("text_length_filter")
class TextLengthFilter(Filter):
    """Keep samples whose text length (characters) is within ``[min_len, max_len]``."""

    PARAM_SPECS = {
        "min_len": {"min_value": 0, "doc": "minimum text length in characters"},
        "max_len": {"min_value": 0, "doc": "maximum text length in characters"},
    }

    def __init__(
        self,
        min_len: int = 10,
        max_len: int = sys.maxsize,
        text_key: str = "text",
        **kwargs,
    ):
        super().__init__(text_key=text_key, **kwargs)
        self.min_len = min_len
        self.max_len = max_len

    def compute_stats(self, sample: dict, context: bool = False) -> dict:
        stats = ensure_stats(sample)
        if StatsKeys.text_len in stats:
            return sample
        stats[StatsKeys.text_len] = len(self.get_text(sample))
        return sample

    def compute_stats_batched(self, samples: dict, context: dict | None = None) -> dict:
        texts = get_text_column(samples, self.text_key)
        if texts is None:
            return super().compute_stats_batched(samples, context=context)
        return write_stat(samples, StatsKeys.text_len, lambda: list(map(len, texts)))

    def process_batched(self, samples: dict) -> list[bool]:
        min_len, max_len = self.min_len, self.max_len
        return [
            min_len <= value <= max_len for value in read_stat(samples, StatsKeys.text_len, 0)
        ]

    def process(self, sample: dict) -> bool:
        value = sample.get("__stats__", {}).get(StatsKeys.text_len, 0)
        return self.min_len <= value <= self.max_len
