"""Exact-hash document deduplicator (MD5/SHA over normalized text)."""

from __future__ import annotations

import hashlib
import re
import string

from repro.core.base_op import Deduplicator
from repro.core.batch import get_text_column
from repro.core.dataset import NestedDataset
from repro.core.registry import OPERATORS
from repro.core.sample import HashKeys


@OPERATORS.register_module("document_deduplicator")
class DocumentDeduplicator(Deduplicator):
    """Remove exact duplicate documents using a cryptographic hash of the text.

    ``lowercase`` and ``ignore_non_character`` normalize the text before
    hashing so trivially-different copies (case changes, punctuation noise)
    are also detected, matching the original OP's options.
    """

    PARAM_SPECS = {
        "lowercase": {"doc": "lowercase the text before hashing"},
        "ignore_non_character": {"doc": "strip punctuation/whitespace before hashing"},
        "hash_func": {"choices": ["md5", "sha256"], "doc": "cryptographic hash function"},
    }

    def __init__(
        self,
        lowercase: bool = False,
        ignore_non_character: bool = False,
        hash_func: str = "md5",
        text_key: str = "text",
        **kwargs,
    ):
        super().__init__(text_key=text_key, **kwargs)
        if hash_func not in ("md5", "sha256"):
            raise ValueError(f"unsupported hash_func {hash_func!r}")
        self.lowercase = lowercase
        self.ignore_non_character = ignore_non_character
        self.hash_func = hash_func
        self._non_char_pattern = re.compile(
            "[" + re.escape(string.punctuation + string.whitespace) + "]"
        )

    def compute_hash(self, sample: dict) -> dict:
        text = self.get_text(sample)
        if self.lowercase:
            text = text.lower()
        if self.ignore_non_character:
            text = self._non_char_pattern.sub("", text)
        digest = getattr(hashlib, self.hash_func)(text.encode("utf-8")).hexdigest()
        sample[HashKeys.hash] = digest
        return sample

    def compute_hash_batched(self, samples: dict) -> dict:
        texts = get_text_column(samples, self.text_key)
        if texts is None:
            return super().compute_hash_batched(samples)
        if self.lowercase:
            texts = [text.lower() for text in texts]
        if self.ignore_non_character:
            strip = self._non_char_pattern.sub
            texts = [strip("", text) for text in texts]
        hasher = getattr(hashlib, self.hash_func)
        samples[HashKeys.hash] = [hasher(text.encode("utf-8")).hexdigest() for text in texts]
        return samples

    def process(self, dataset: NestedDataset, show_num: int = 0) -> tuple[NestedDataset, list]:
        seen: dict[str, int] = {}
        keep_indices: list[int] = []
        duplicate_pairs: list[tuple[dict, dict]] = []
        for index, digest in enumerate(self.hash_column(dataset, HashKeys.hash)):
            if digest in seen:
                if len(duplicate_pairs) < show_num:
                    duplicate_pairs.append((dataset[seen[digest]], dataset[index]))
            else:
                seen[digest] = index
                keep_indices.append(index)
        deduped = dataset.select(keep_indices).remove_columns(HashKeys.hash)
        return deduped, duplicate_pairs
