"""Filter on the ratio of alphanumeric characters (or alphabetic tokens)."""

from __future__ import annotations

import sys

from repro.core.base_op import Filter
from repro.core.batch import get_text_column, read_stat, write_stat
from repro.core.context import ContextKeys, get_or_compute, get_or_compute_column
from repro.core.registry import OPERATORS
from repro.core.sample import StatsKeys, ensure_stats
from repro.ops.common.helper_funcs import get_words_from_text


@OPERATORS.register_module("alphanumeric_filter")
class AlphanumericFilter(Filter):
    """Keep samples whose alphanumeric ratio lies within ``[min_ratio, max_ratio]``.

    With ``tokenization=True`` the ratio of alphabetic *tokens* over all tokens
    is used instead of the character-level ratio.
    """

    context_keys = (ContextKeys.words,)

    PARAM_SPECS = {
        "tokenization": {"doc": "use token-level instead of character-level ratio"},
        "min_ratio": {"min_value": 0.0, "doc": "minimum alphanumeric ratio"},
        "max_ratio": {"min_value": 0.0, "doc": "maximum alphanumeric ratio"},
    }

    def __init__(
        self,
        tokenization: bool = False,
        min_ratio: float = 0.25,
        max_ratio: float = sys.float_info.max,
        text_key: str = "text",
        **kwargs,
    ):
        super().__init__(text_key=text_key, **kwargs)
        self.tokenization = tokenization
        self.min_ratio = min_ratio
        self.max_ratio = max_ratio

    def compute_stats(self, sample: dict, context: bool = False) -> dict:
        stats = ensure_stats(sample)
        key = StatsKeys.alpha_token_ratio if self.tokenization else StatsKeys.alnum_ratio
        if key in stats:
            return sample
        text = self.get_text(sample)
        if self.tokenization:
            words = get_or_compute(sample, ContextKeys.words, lambda: get_words_from_text(text))
            alpha = sum(1 for word in words if any(char.isalpha() for char in word))
            stats[key] = alpha / len(words) if words else 0.0
        else:
            alnum = sum(1 for char in text if char.isalnum())
            stats[key] = alnum / len(text) if text else 0.0
        return sample

    def compute_stats_batched(self, samples: dict, context: dict | None = None) -> dict:
        texts = get_text_column(samples, self.text_key)
        if texts is None:
            return super().compute_stats_batched(samples, context=context)
        key = StatsKeys.alpha_token_ratio if self.tokenization else StatsKeys.alnum_ratio
        if self.tokenization:
            words_column = get_or_compute_column(
                context, ContextKeys.words, lambda: [get_words_from_text(t) for t in texts]
            )
            return write_stat(samples, key, lambda: [
                sum(1 for word in words if any(char.isalpha() for char in word)) / len(words)
                if words else 0.0
                for words in words_column
            ])
        isalnum = str.isalnum
        return write_stat(samples, key, lambda: [
            sum(map(isalnum, text)) / len(text) if text else 0.0 for text in texts
        ])

    def process_batched(self, samples: dict) -> list[bool]:
        key = StatsKeys.alpha_token_ratio if self.tokenization else StatsKeys.alnum_ratio
        min_ratio, max_ratio = self.min_ratio, self.max_ratio
        return [
            min_ratio <= value <= max_ratio for value in read_stat(samples, key, 0.0)
        ]

    def process(self, sample: dict) -> bool:
        key = StatsKeys.alpha_token_ratio if self.tokenization else StatsKeys.alnum_ratio
        ratio = sample.get("__stats__", {}).get(key, 0.0)
        return self.min_ratio <= ratio <= self.max_ratio
