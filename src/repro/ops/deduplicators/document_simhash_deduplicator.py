"""Near-duplicate detection with SimHash fingerprints and Hamming distance."""

from __future__ import annotations

import hashlib
from itertools import chain, count

from repro.core.base_op import Deduplicator
from repro.core.batch import get_text_column
from repro.core.dataset import NestedDataset
from repro.core.registry import OPERATORS
from repro.core.sample import HashKeys
from repro.ops.common.helper_funcs import get_ngrams, get_words_from_text, words_refinement

_FINGERPRINT_BITS = 64


def _token_hash(token: str) -> int:
    digest = hashlib.md5(token.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "little")


def hamming_distance(left: int, right: int) -> int:
    """Number of differing bits between two fingerprints."""
    return bin(left ^ right).count("1")


@OPERATORS.register_module("document_simhash_deduplicator")
class DocumentSimhashDeduplicator(Deduplicator):
    """Remove near-duplicates whose SimHash fingerprints are within ``hamming_threshold`` bits.

    SimHash is a vector-based similarity sketch: each word n-gram votes on the
    64 fingerprint bits; similar documents produce fingerprints with a small
    Hamming distance.  Candidate pairs are found by bucketing on fingerprint
    blocks (the standard block-permutation trick).
    """

    PARAM_SPECS = {
        "ngram_size": {"min_value": 1, "doc": "word-shingle size"},
        "hamming_threshold": {
            "min_value": 0,
            "max_value": 64,
            "doc": "maximum Hamming distance (bits) to call two documents duplicates",
        },
        "num_blocks": {"min_value": 1, "max_value": 64, "doc": "fingerprint blocks for bucketing"},
        "lowercase": {"doc": "lowercase text before shingling"},
    }

    def __init__(
        self,
        ngram_size: int = 3,
        hamming_threshold: int = 3,
        num_blocks: int = 4,
        lowercase: bool = True,
        text_key: str = "text",
        **kwargs,
    ):
        super().__init__(text_key=text_key, **kwargs)
        if num_blocks <= hamming_threshold:
            # with <= threshold blocks, two near-duplicates may share no block
            num_blocks = hamming_threshold + 1
        self.ngram_size = ngram_size
        self.hamming_threshold = hamming_threshold
        self.num_blocks = num_blocks
        self.lowercase = lowercase

    def _fingerprint(self, text: str) -> int:
        import numpy as np

        words = words_refinement(
            get_words_from_text(text, lowercase=self.lowercase), lower_case=self.lowercase
        )
        features = get_ngrams(words, self.ngram_size) or [(word,) for word in words]
        if not features:
            return 0
        hashes = np.array(
            [_token_hash(" ".join(feature)) for feature in features], dtype=np.uint64
        )
        # (F, 64) bit matrix; each feature votes +1/-1 on every fingerprint bit
        bit_positions = np.arange(_FINGERPRINT_BITS, dtype=np.uint64)
        bits = (hashes[:, None] >> bit_positions[None, :]) & np.uint64(1)
        votes = 2 * bits.sum(axis=0).astype(np.int64) - len(features)
        fingerprint = 0
        for bit in range(_FINGERPRINT_BITS):
            if votes[bit] > 0:
                fingerprint |= 1 << bit
        return fingerprint

    #: feature occurrences per group.  A group costs ~250 B per occurrence
    #: (feature strings, the distinct-feature dict, one 64-byte gathered row),
    #: so 2048 keeps it near 0.5 MB — what :meth:`_fingerprint`'s (F, 64)
    #: uint64 matrix takes for one 1000-word document — whatever the batch
    #: size.  Measured: the Books recipe's Python heap peaks at 1.08 MB with
    #: this cap as without the batched path, at 3.4 MB with one group per
    #: batch; hashing the near-dup bench corpus takes 0.71 s vs 0.67 s.
    _MAX_GROUP_FEATURES = 1 << 11

    def _fingerprints_batched(self, texts: list[str]) -> list[int]:
        """SimHash fingerprints for many texts, bit-identical to :meth:`_fingerprint`."""
        size = self.ngram_size
        join = " ".join
        fingerprints: list[int] = []
        group: list[list[str]] = []
        pending = 0
        for text in texts:
            words = words_refinement(
                get_words_from_text(text, lowercase=self.lowercase), lower_case=self.lowercase
            )
            features = list(map(join, get_ngrams(words, size))) or words
            group.append(features)
            pending += len(features)
            if pending >= self._MAX_GROUP_FEATURES:
                fingerprints.extend(self._fingerprints_group(group))
                group, pending = [], 0
        if group:
            fingerprints.extend(self._fingerprints_group(group))
        return fingerprints

    @staticmethod
    def _fingerprints_group(features: list[list[str]]) -> list[int]:
        """Fingerprints of a group of feature lists, one md5 per distinct feature.

        Every distinct feature is hashed once and unpacked into a row of a
        (U, 64) bit table; one gather of that table over all feature
        occurrences and one segmented sum give every text's 64 vote counts,
        and bit ``b`` is set when more than half of the text's features have
        it set (``2 * count - F > 0``).
        """
        import numpy as np

        lengths = np.fromiter(map(len, features), dtype=np.intp, count=len(features))
        fingerprints = np.zeros(len(features), dtype="<u8")
        voting = np.flatnonzero(lengths)  # texts without features keep fingerprint 0
        if not voting.size:
            return fingerprints.tolist()
        row_of = dict(zip(dict.fromkeys(chain.from_iterable(features)), count()))
        md5 = hashlib.md5
        digests = b"".join([md5(feature.encode("utf-8")).digest()[:8] for feature in row_of])
        # column b of the table is bit b of the little-endian 64-bit token hash
        bit_table = np.unpackbits(
            np.frombuffer(digests, dtype=np.uint8).reshape(-1, 8), axis=1, bitorder="little"
        )
        occurrences = np.fromiter(
            map(row_of.__getitem__, chain.from_iterable(features)),
            dtype=np.intp,
            count=int(lengths.sum()),
        )
        # Votes are summed in byte lanes: a row of the table read as 8 uint64
        # words adds 8 one-bit counters per word, with no cast copy of the
        # gathered (T, 64) matrix.  A lane holds 255 votes, so longer texts are
        # cut into pieces whose partial counts are then summed wide; texts
        # without features get no segment (reduceat would read the next row).
        lengths = lengths[voting]
        pieces = -(-lengths // 255)
        first_piece = np.cumsum(pieces) - pieces
        owner = np.repeat(np.arange(lengths.size), pieces)
        piece_starts = (np.cumsum(lengths) - lengths)[owner] + 255 * (
            np.arange(owner.size) - first_piece[owner]
        )
        partial = np.add.reduceat(
            bit_table.view(np.uint64).take(occurrences, axis=0), piece_starts, axis=0
        )
        set_counts = np.add.reduceat(partial.view(np.uint8), first_piece, axis=0, dtype=np.int64)
        majority = 2 * set_counts > lengths[:, None]
        fingerprints[voting] = np.packbits(majority, axis=1, bitorder="little").view("<u8").ravel()
        return fingerprints.tolist()

    def compute_hash(self, sample: dict) -> dict:
        sample[HashKeys.simhash] = self._fingerprint(self.get_text(sample))
        return sample

    def compute_hash_batched(self, samples: dict) -> dict:
        texts = get_text_column(samples, self.text_key)
        if texts is None:
            return super().compute_hash_batched(samples)
        samples[HashKeys.simhash] = self._fingerprints_batched(texts)
        return samples

    def _blocks(self, fingerprint: int) -> list[tuple[int, int]]:
        bits_per_block = _FINGERPRINT_BITS // self.num_blocks
        mask = (1 << bits_per_block) - 1
        return [
            (block, (fingerprint >> (block * bits_per_block)) & mask)
            for block in range(self.num_blocks)
        ]

    def process(self, dataset: NestedDataset, show_num: int = 0) -> tuple[NestedDataset, list]:
        fingerprints = self.hash_column(dataset, HashKeys.simhash, 0)
        keep_mask = [True] * len(fingerprints)
        buckets: dict[tuple[int, int], list[int]] = {}
        for index, fingerprint in enumerate(fingerprints):
            for key in self._blocks(fingerprint):
                buckets.setdefault(key, []).append(index)
        duplicate_pairs: list[tuple[dict, dict]] = []
        for indices in buckets.values():
            if len(indices) < 2:
                continue
            for position, anchor in enumerate(indices):
                if not keep_mask[anchor]:
                    continue
                for other in indices[position + 1:]:
                    if not keep_mask[other]:
                        continue
                    distance = hamming_distance(fingerprints[anchor], fingerprints[other])
                    if distance <= self.hamming_threshold:
                        keep_mask[other] = False
                        if len(duplicate_pairs) < show_num:
                            duplicate_pairs.append((dataset[anchor], dataset[other]))
        keep_indices = [index for index, keep in enumerate(keep_mask) if keep]
        deduped = dataset.select(keep_indices).remove_columns(HashKeys.simhash)
        return deduped, duplicate_pairs
