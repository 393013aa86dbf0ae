"""Mapper that normalizes unicode punctuation to ASCII equivalents."""

from __future__ import annotations

from repro.core.base_op import Mapper
from repro.core.registry import OPERATORS

PUNCTUATION_MAP = {
    "，": ",", "。": ".", "、": ",", "„": '"', "”": '"', "“": '"', "«": '"',
    "»": '"', "１": '"', "」": '"', "「": '"', "《": '"', "》": '"', "´": "'",
    "∶": ":", "：": ":", "？": "?", "！": "!", "（": "(", "）": ")", "；": ";",
    "–": "-", "—": "-", "．": ". ", "～": "~", "’": "'", "‘": "'", "′": "'",
    "…": "...", "━": "-", "〈": "<", "〉": ">", "【": "[", "】": "]", "％": "%",
    "►": "-",
}
_PUNCTUATION_TABLE = str.maketrans(PUNCTUATION_MAP)


@OPERATORS.register_module("punctuation_normalization_mapper")
class PunctuationNormalizationMapper(Mapper):
    """Map full-width / typographic punctuation marks to plain ASCII forms."""

    def __init__(self, text_key: str = "text", **kwargs):
        super().__init__(text_key=text_key, **kwargs)

    def process(self, sample: dict) -> dict:
        text = self.get_text(sample)
        normalized = text.translate(_PUNCTUATION_TABLE)
        return self.set_text(sample, normalized)
