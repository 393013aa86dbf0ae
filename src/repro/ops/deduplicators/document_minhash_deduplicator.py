"""Near-duplicate detection with MinHash signatures and LSH banding."""

from __future__ import annotations

import hashlib
import struct

from repro.core.base_op import Deduplicator
from repro.core.batch import get_text_column
from repro.core.dataset import NestedDataset
from repro.core.registry import OPERATORS
from repro.core.sample import HashKeys
from repro.ops.common.helper_funcs import get_words_from_text, words_refinement

_MERSENNE_PRIME = (1 << 61) - 1
_MAX_HASH = (1 << 32) - 1


def _shingle_hash(shingle: tuple[str, ...]) -> int:
    digest = hashlib.md5(" ".join(shingle).encode("utf-8")).digest()
    return struct.unpack("<I", digest[:4])[0]


def _bulk_shingle_hashes(keys: list[str]):
    """Hash many joined shingles in one pass, returning a uint64 numpy array.

    Equivalent to ``[_shingle_hash(...)]`` per shingle (same md5, same 4
    little-endian lead bytes) but the digests are concatenated and decoded
    with a single ``np.frombuffer`` instead of one ``struct.unpack`` each.
    """
    import numpy as np

    md5 = hashlib.md5
    blob = b"".join(md5(key.encode("utf-8")).digest()[:4] for key in keys)
    return np.frombuffer(blob, dtype="<u4").astype(np.uint64)


class _UnionFind:
    """Union-find over sample indices for clustering near-duplicates."""

    def __init__(self, size: int):
        self.parent = list(range(size))

    def find(self, item: int) -> int:
        while self.parent[item] != item:
            self.parent[item] = self.parent[self.parent[item]]
            item = self.parent[item]
        return item

    def union(self, left: int, right: int) -> None:
        root_left, root_right = self.find(left), self.find(right)
        if root_left != root_right:
            self.parent[max(root_left, root_right)] = min(root_left, root_right)


@OPERATORS.register_module("document_minhash_deduplicator")
class DocumentMinhashDeduplicator(Deduplicator):
    """Remove near-duplicate documents using MinHash + locality-sensitive hashing.

    Documents are shingled into word ``ngram_size``-grams, hashed into a
    ``num_permutations``-wide MinHash signature, and bucketed by LSH bands;
    candidate pairs whose estimated Jaccard similarity exceeds
    ``jaccard_threshold`` are clustered and only the first document of each
    cluster is kept.
    """

    PARAM_SPECS = {
        "ngram_size": {"min_value": 1, "doc": "word-shingle size"},
        "num_permutations": {"min_value": 1, "doc": "MinHash signature width"},
        "jaccard_threshold": {
            "min_value": 0.0,
            "max_value": 1.0,
            "doc": "estimated-similarity threshold for clustering",
        },
        "num_bands": {"min_value": 1, "doc": "LSH bands (must divide num_permutations)"},
        "lowercase": {"doc": "lowercase text before shingling"},
        "seed": {"doc": "permutation RNG seed"},
    }

    def __init__(
        self,
        ngram_size: int = 5,
        num_permutations: int = 64,
        jaccard_threshold: float = 0.7,
        num_bands: int = 16,
        lowercase: bool = True,
        seed: int = 1,
        text_key: str = "text",
        **kwargs,
    ):
        super().__init__(text_key=text_key, **kwargs)
        if num_permutations % num_bands != 0:
            raise ValueError("num_permutations must be divisible by num_bands")
        self.ngram_size = ngram_size
        self.num_permutations = num_permutations
        self.jaccard_threshold = jaccard_threshold
        self.num_bands = num_bands
        self._rows_per_band = num_permutations // num_bands
        self.lowercase = lowercase
        self.seed = seed
        self._permutations = self._generate_permutations()

    def _generate_permutations(self) -> list[tuple[int, int]]:
        import random

        rng = random.Random(self.seed)
        # coefficients are bounded by 2^32 so a*h + b never overflows uint64
        # when the signatures are computed with vectorised numpy arithmetic
        return [
            (rng.randint(1, _MAX_HASH), rng.randint(0, _MAX_HASH))
            for _ in range(self.num_permutations)
        ]

    def _shingle_keys(self, text: str) -> list[str]:
        """Joined word shingles of a text (empty when the text has no words).

        Builds the space-joined keys directly from word slices — identical to
        ``" ".join`` over :func:`get_ngrams` tuples, without materialising the
        tuples.
        """
        words = words_refinement(
            get_words_from_text(text, lowercase=self.lowercase), lower_case=self.lowercase
        )
        if not words:
            return []
        total = len(words) - self.ngram_size + 1
        if total <= 0:
            return [" ".join(words)]
        join = " ".join
        size = self.ngram_size
        return [join(words[index:index + size]) for index in range(total)]

    #: unique-shingle cap per signature group; bounds the (U, P) permuted
    #: matrix to a few MB regardless of the caller's batch size
    _MAX_GROUP_SHINGLES = 1 << 11

    def _signatures_batched(self, texts: list[str]) -> list[list[int]]:
        """MinHash signatures for many texts with a bulk-hash pass per group.

        All distinct shingles of a group of documents are md5-hashed once
        (duplicate shingles — common in repetitive web text — are hashed a
        single time), then each document's signature reduces its shingle-hash
        vector under the shared permutations.  Signatures are bit-identical
        to the per-shingle ``_shingle_hash`` loop this replaces.
        """
        signatures: list[list[int]] = []
        group: list[list[str]] = []
        unique: dict[str, int] = {}
        for text in texts:
            keys = self._shingle_keys(text)
            group.append(keys)
            for key in keys:
                if key not in unique:
                    unique[key] = len(unique)
            if len(unique) >= self._MAX_GROUP_SHINGLES:
                signatures.extend(self._signatures_group(group, unique))
                group, unique = [], {}
        if group:
            signatures.extend(self._signatures_group(group, unique))
        return signatures

    def _signatures_group(self, doc_keys: list[list[str]], unique: dict[str, int]) -> list[list[int]]:
        import numpy as np

        hashes = _bulk_shingle_hashes(list(unique))
        coeff_a = np.array([a for a, _ in self._permutations], dtype=np.uint64)[None, :]
        coeff_b = np.array([b for _, b in self._permutations], dtype=np.uint64)[None, :]
        # permute every *unique* shingle hash once for the whole group (row
        # chunks bound the multiply temporaries); layout is (U, P) so a
        # document's gather reads contiguous rows
        permuted = np.empty((hashes.size, self.num_permutations), dtype=np.uint64)
        chunk = 1 << 9
        with np.errstate(over="ignore"):
            for start in range(0, hashes.size, chunk):
                stop = start + chunk
                permuted[start:stop] = (
                    hashes[start:stop, None] * coeff_a + coeff_b
                ) % _MERSENNE_PRIME
        mask = np.uint64(_MAX_HASH)
        empty = [_MAX_HASH] * self.num_permutations
        signatures: list[list[int]] = []
        for keys in doc_keys:
            if not keys:
                signatures.append(list(empty))
                continue
            indices = np.fromiter((unique[key] for key in keys), dtype=np.intp, count=len(keys))
            signature = (permuted[indices].min(axis=0) & mask).astype(np.uint64)
            signatures.append([int(value) for value in signature])
        return signatures

    def _signature(self, text: str) -> list[int]:
        return self._signatures_batched([text])[0]

    def compute_hash(self, sample: dict) -> dict:
        sample[HashKeys.minhash] = self._signature(self.get_text(sample))
        return sample

    def compute_hash_batched(self, samples: dict) -> dict:
        texts = get_text_column(samples, self.text_key)
        if texts is None:
            return super().compute_hash_batched(samples)
        samples[HashKeys.minhash] = self._signatures_batched(texts)
        return samples

    @staticmethod
    def _estimated_jaccard(sig_a: list[int], sig_b: list[int]) -> float:
        matches = sum(1 for a, b in zip(sig_a, sig_b) if a == b)
        return matches / len(sig_a) if sig_a else 0.0

    def process(self, dataset: NestedDataset, show_num: int = 0) -> tuple[NestedDataset, list]:
        signatures = [
            signature or [] for signature in self.hash_column(dataset, HashKeys.minhash)
        ]
        union_find = _UnionFind(len(signatures))
        buckets: dict[tuple[int, tuple[int, ...]], list[int]] = {}
        for index, signature in enumerate(signatures):
            if not signature:
                continue
            for band in range(self.num_bands):
                start = band * self._rows_per_band
                key = (band, tuple(signature[start:start + self._rows_per_band]))
                buckets.setdefault(key, []).append(index)
        duplicate_pairs: list[tuple[dict, dict]] = []
        for indices in buckets.values():
            if len(indices) < 2:
                continue
            anchor = indices[0]
            for other in indices[1:]:
                if union_find.find(anchor) == union_find.find(other):
                    continue
                similarity = self._estimated_jaccard(signatures[anchor], signatures[other])
                if similarity >= self.jaccard_threshold:
                    union_find.union(anchor, other)
                    if len(duplicate_pairs) < show_num:
                        duplicate_pairs.append((dataset[anchor], dataset[other]))
        keep_indices = [
            index for index in range(len(signatures)) if union_find.find(index) == index
        ]
        deduped = dataset.select(keep_indices).remove_columns(HashKeys.minhash)
        return deduped, duplicate_pairs
