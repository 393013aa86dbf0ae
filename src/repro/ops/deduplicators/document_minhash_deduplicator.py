"""Near-duplicate detection with MinHash signatures and LSH banding."""

from __future__ import annotations

import hashlib
import struct
from itertools import chain
from typing import Iterable

from repro.core.base_op import Deduplicator
from repro.core.batch import get_text_column
from repro.core.dataset import NestedDataset
from repro.core.registry import OPERATORS
from repro.core.sample import HashKeys
from repro.ops.common.helper_funcs import get_ngrams, get_words_from_text, words_refinement

_MERSENNE_PRIME = (1 << 61) - 1
_MAX_HASH = (1 << 32) - 1


def _shingle_hash(shingle: tuple[str, ...]) -> int:
    digest = hashlib.md5(" ".join(shingle).encode("utf-8")).digest()
    return struct.unpack("<I", digest[:4])[0]


def _bulk_shingle_hashes(keys: Iterable[str]):
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

    The signature travels as one packed ``__minhash__`` cell per row:
    ``num_permutations`` little-endian uint32 values in a ``bytes`` object
    (``4 * num_permutations`` bytes of payload), so the global clustering
    reads the whole column as one ``(rows, num_permutations)`` array.
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

    #: 1 = packed bytes; a store holding format-0 cells (a list of ints each)
    #: must read as a miss, :meth:`process` cannot cluster them
    HASH_FORMAT = 1

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

    def _words(self, text: str) -> list[str]:
        return words_refinement(
            get_words_from_text(text, lowercase=self.lowercase), lower_case=self.lowercase
        )

    def _coefficients(self):
        """The permutations as two (P,) uint64 arrays ``a``, ``b`` of ``a·h + b``."""
        import numpy as np

        coeff_a, coeff_b = zip(*self._permutations)
        return np.array(coeff_a, dtype=np.uint64), np.array(coeff_b, dtype=np.uint64)

    def _signature(self, text: str) -> bytes:
        """The per-sample reference: one md5 per shingle occurrence, one (P, S) matrix.

        :meth:`_signatures_batched` must return exactly these bytes; a text
        without words signs as all ``0xFFFFFFFF``, one with fewer words than
        ``ngram_size`` as its single short shingle.
        """
        import numpy as np

        words = self._words(text)
        shingles = (get_ngrams(words, self.ngram_size) or [tuple(words)]) if words else []
        if not shingles:
            return b"\xff" * (4 * self.num_permutations)
        hashes = np.array([_shingle_hash(shingle) for shingle in shingles], dtype=np.uint64)
        coeff_a, coeff_b = self._coefficients()
        permuted = (coeff_a[:, None] * hashes[None, :] + coeff_b[:, None]) % _MERSENNE_PRIME
        return self._pack(permuted.min(axis=1))

    #: Shingle occurrences (counted once per document) of one signature
    #: group, which closes between documents once it holds this many.  A
    #: longer document is folded on its own in runs of this many
    #: (:meth:`_signature_folded`), so no group exceeds twice the cap and its
    #: two uint64 matrices — (distinct, P) permuted and the (occurrences, P)
    #: one gathered from it, distinct <= occurrences — stay under 1 MB each
    #: at the default 64 permutations, whatever the caller's batch size or
    #: the document length.  Measured: the C4 recipe of fig8 peaks at 2.1 MB
    #: of Python heap with 1024, at 3.3 MB with 2048; hashing is no slower.
    _MAX_GROUP_SHINGLES = 1 << 10

    def _signatures_batched(self, texts: list[str]) -> list[bytes]:
        """MinHash signatures for many texts with a bulk-hash pass per group.

        All distinct shingles of a group of documents are md5-hashed once
        (duplicate shingles — common in repetitive web text — are hashed a
        single time) and interned as row numbers of the group's permuted
        matrix while they are cut; a document is the *set* of its rows, since
        a minimum does not care about repeats.  Signatures are bit-identical
        to the per-sample :meth:`_signature`.
        """
        size, join, cap = self.ngram_size, " ".join, self._MAX_GROUP_SHINGLES
        signatures: list[bytes] = []
        group: list[set[int]] = []
        unique: dict[str, int] = {}
        occurrences = 0
        for text in texts:
            words = self._words(text)
            # fewer words than ``ngram_size`` make one short shingle
            total = max(len(words) - size + 1, 1) if words else 0
            if total <= cap:
                intern = unique.setdefault
                rows = {
                    intern(join(words[index:index + size]), len(unique)) for index in range(total)
                }
                group.append(rows)
                occurrences += len(rows)
            if total > cap or occurrences >= cap:
                signatures.extend(self._signatures_group(group, unique))
                group, unique, occurrences = [], {}, 0
            if total > cap:
                signatures.append(self._signature_folded(words))
        signatures.extend(self._signatures_group(group, unique))
        return signatures

    def _permuted(self, keys: Iterable[str]):
        """``(a·h + b) mod p`` of every shingle under every permutation: (keys, P) uint64."""
        import numpy as np

        hashes = _bulk_shingle_hashes(keys)
        coeff_a, coeff_b = self._coefficients()
        # in place: the matrix is the only allocation of its size
        permuted = np.multiply(hashes[:, None], coeff_a)
        permuted += coeff_b
        permuted %= _MERSENNE_PRIME
        return permuted

    @staticmethod
    def _pack(minima) -> bytes:
        """Per-permutation minima (trailing axis P, uint64) as packed signature bytes."""
        import numpy as np

        return (minima & np.uint64(_MAX_HASH)).astype("<u4").tobytes()

    def _signatures_group(self, group: list[set[int]], unique: dict[str, int]) -> list[bytes]:
        """Signatures of one group: one gather and one segmented minimum."""
        import numpy as np

        width = 4 * self.num_permutations
        signatures = [b"\xff" * width] * len(group)  # what a text without words signs as
        # an empty set gets no segment: reduceat would read the next row
        shingled = [index for index, rows in enumerate(group) if rows]
        if not shingled:
            return signatures
        lengths = np.array([len(group[index]) for index in shingled])
        rows = np.fromiter(chain.from_iterable(group), dtype=np.intp, count=int(lengths.sum()))
        packed = self._pack(
            np.minimum.reduceat(
                self._permuted(unique).take(rows, axis=0), np.cumsum(lengths) - lengths, axis=0
            )
        )
        for slot, index in enumerate(shingled):
            signatures[index] = packed[slot * width:(slot + 1) * width]
        return signatures

    def _signature_folded(self, words: list[str]) -> bytes:
        """Signature of one document with more shingles than a group holds.

        A running minimum over runs of ``_MAX_GROUP_SHINGLES`` consecutive
        shingles, so neither the shingle strings nor the permuted matrix of
        the whole document ever exist at once.
        """
        import numpy as np

        size, join, run = self.ngram_size, " ".join, self._MAX_GROUP_SHINGLES
        total = len(words) - size + 1
        minima = None
        for start in range(0, total, run):
            keys = {
                join(words[index:index + size]) for index in range(start, min(start + run, total))
            }
            lowest = self._permuted(keys).min(axis=0)
            minima = lowest if minima is None else np.minimum(minima, lowest)
        return self._pack(minima)

    def compute_hash(self, sample: dict) -> dict:
        sample[HashKeys.minhash] = self._signature(self.get_text(sample))
        return sample

    def compute_hash_batched(self, samples: dict) -> dict:
        texts = get_text_column(samples, self.text_key)
        if texts is None:
            return super().compute_hash_batched(samples)
        samples[HashKeys.minhash] = self._signatures_batched(texts)
        return samples

    #: candidate pairs compared at once: two gathered (pairs, P) uint32
    #: blocks and their comparison, ~1.2 MB at 64 permutations
    _COMPARE_CHUNK = 1 << 11

    def _similar_pairs(self, table):
        """Row pairs of the signature ``table`` that share a band and pass the threshold.

        Per band, rows are grouped on the band's columns and every other
        member of a bucket is paired with the bucket's first row.  The
        passing pairs come back as two index arrays ``(first, other)``
        ordered by (first, band, other) — bucket by bucket in the order a
        row-by-row insertion would have created the buckets — each pair once,
        under the first band it shares.
        """
        import numpy as np

        rows = len(table)
        found: list[tuple] = []
        for band in range(self.num_bands):
            keys = table[:, band * self._rows_per_band:(band + 1) * self._rows_per_band]
            order = np.lexsort(keys.T[::-1])  # stable: a bucket's rows stay in row order
            ordered = keys[order]
            first = np.ones(rows, dtype=bool)
            first[1:] = (ordered[1:] != ordered[:-1]).any(axis=1)
            others = np.flatnonzero(~first)
            anchors = order[np.flatnonzero(first)[np.cumsum(first)[others] - 1]]
            others = order[others]
            for start in range(0, others.size, self._COMPARE_CHUNK):
                anchor = anchors[start:start + self._COMPARE_CHUNK]
                other = others[start:start + self._COMPARE_CHUNK]
                similar = (table[anchor] == table[other]).sum(axis=1) / self.num_permutations
                passing = similar >= self.jaccard_threshold
                if passing.any():
                    anchor = anchor[passing]
                    found.append((anchor, np.full(anchor.size, band), other[passing]))
        if not found:
            return np.empty(0, dtype=np.intp), np.empty(0, dtype=np.intp)
        anchor, band, other = (np.concatenate(column) for column in zip(*found))
        # near-duplicates meet again in most further bands, where uniting
        # them a second time changes nothing: keep each pair's first band
        _, kept = np.unique(anchor * rows + other, return_index=True)
        anchor, band, other = anchor[kept], band[kept], other[kept]
        order = np.lexsort((other, band, anchor))
        return anchor[order], other[order]

    def process(self, dataset: NestedDataset, show_num: int = 0) -> tuple[NestedDataset, list]:
        import numpy as np

        cells = self.hash_column(dataset, HashKeys.minhash)
        # rows without a signature (never hashed, None-filled) stay unclustered
        signed = np.flatnonzero(np.fromiter(map(bool, cells), dtype=bool, count=len(cells)))
        table = np.frombuffer(b"".join(filter(None, cells)), dtype="<u4").reshape(
            signed.size, self.num_permutations
        )
        del cells
        anchors, others = self._similar_pairs(table)
        union_find = _UnionFind(len(dataset))
        duplicate_pairs: list[tuple[dict, dict]] = []
        for anchor, other in zip(signed[anchors].tolist(), signed[others].tolist()):
            if union_find.find(anchor) == union_find.find(other):
                continue
            union_find.union(anchor, other)
            if len(duplicate_pairs) < show_num:
                duplicate_pairs.append((dataset[anchor], dataset[other]))
        keep_indices = [
            index for index in range(len(dataset)) if union_find.find(index) == index
        ]
        deduped = dataset.select(keep_indices).remove_columns(HashKeys.minhash)
        return deduped, duplicate_pairs
