"""Mapper that removes non-printable control characters."""

from __future__ import annotations

import unicodedata

from repro.core.base_op import Mapper
from repro.core.registry import OPERATORS


@OPERATORS.register_module("remove_non_printable_mapper")
class RemoveNonPrintableMapper(Mapper):
    """Delete control and format characters (category C*) except newlines/tabs."""

    KEEP = {"\n", "\t", "\r"}
    #: ``str.translate`` table that deletes the kept control characters
    _DROP_KEPT = dict.fromkeys(map(ord, KEEP))

    def __init__(self, text_key: str = "text", **kwargs):
        super().__init__(text_key=text_key, **kwargs)

    def process(self, sample: dict) -> dict:
        text = self.get_text(sample)
        # ``isprintable`` is False for any C* (and non-ASCII-space Z*) character:
        # a text it passes once the kept controls are out has nothing to delete
        if text.translate(self._DROP_KEPT).isprintable():
            return self.set_text(sample, text)
        cleaned = "".join(
            char
            for char in text
            if char in self.KEEP or not unicodedata.category(char).startswith("C")
        )
        return self.set_text(sample, cleaned)
