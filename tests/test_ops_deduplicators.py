"""Tests for the exact-hash, MinHash-LSH and SimHash deduplicators."""

import pytest

from repro.core.dataset import NestedDataset
from repro.core.sample import HashKeys
from repro.core.tracer import Tracer
from repro.ops.common.helper_funcs import get_ngrams, get_words_from_text, words_refinement
from repro.ops.deduplicators.document_deduplicator import DocumentDeduplicator
from repro.ops.deduplicators.document_minhash_deduplicator import DocumentMinhashDeduplicator
from repro.ops.deduplicators.document_simhash_deduplicator import (
    DocumentSimhashDeduplicator,
    hamming_distance,
)

BASE = (
    "The data processing system cleans and filters the large training corpus "
    "before the language model learns from it every single day."
)
NEAR = BASE.replace("every single day", "every single week")
OTHER = (
    "Completely different content about music history and the cultural impact "
    "of classical composers across several centuries of European art."
)


def dataset(rows):
    return NestedDataset.from_list([{"text": text} for text in rows])


class TestExactDeduplicator:
    def test_removes_exact_duplicates(self):
        out = DocumentDeduplicator().run(dataset([BASE, OTHER, BASE, BASE]))
        assert len(out) == 2

    def test_keeps_first_occurrence_order(self):
        out = DocumentDeduplicator().run(dataset([BASE, OTHER, BASE]))
        assert out[0]["text"] == BASE and out[1]["text"] == OTHER

    def test_case_sensitive_by_default(self):
        out = DocumentDeduplicator().run(dataset([BASE, BASE.upper()]))
        assert len(out) == 2

    def test_lowercase_option_merges_case_variants(self):
        out = DocumentDeduplicator(lowercase=True).run(dataset([BASE, BASE.upper()]))
        assert len(out) == 1

    def test_ignore_non_character_option(self):
        out = DocumentDeduplicator(ignore_non_character=True).run(
            dataset([BASE, BASE.replace(" ", "  ") + "!!!"])
        )
        assert len(out) == 1

    def test_hash_column_removed_from_output(self):
        out = DocumentDeduplicator().run(dataset([BASE, OTHER]))
        assert HashKeys.hash not in out.column_names

    def test_invalid_hash_func(self):
        with pytest.raises(ValueError):
            DocumentDeduplicator(hash_func="crc32")

    def test_tracer_receives_duplicate_pairs(self):
        tracer = Tracer()
        DocumentDeduplicator().run(dataset([BASE, BASE]), tracer=tracer)
        assert tracer.records[0].examples[0]["original"] == BASE


class TestMinhashDeduplicator:
    def test_near_duplicates_removed(self):
        out = DocumentMinhashDeduplicator(jaccard_threshold=0.6).run(dataset([BASE, NEAR, OTHER]))
        assert len(out) == 2
        texts = [row["text"] for row in out]
        assert OTHER in texts

    def test_distinct_documents_kept(self):
        out = DocumentMinhashDeduplicator().run(dataset([BASE, OTHER]))
        assert len(out) == 2

    def test_exact_duplicates_removed(self):
        out = DocumentMinhashDeduplicator().run(dataset([BASE, BASE, BASE]))
        assert len(out) == 1

    def test_signature_width_matches_permutations(self):
        dedup = DocumentMinhashDeduplicator(num_permutations=32, num_bands=8)
        hashed = dedup.compute_hash({"text": BASE})
        assert len(hashed[HashKeys.minhash]) == 32

    def test_bands_must_divide_permutations(self):
        with pytest.raises(ValueError):
            DocumentMinhashDeduplicator(num_permutations=64, num_bands=10)

    def test_empty_text_does_not_crash(self):
        out = DocumentMinhashDeduplicator().run(dataset(["", BASE]))
        assert len(out) >= 1


class TestSimhashDeduplicator:
    def test_hamming_distance(self):
        assert hamming_distance(0b1010, 0b0011) == 2

    def test_near_duplicates_removed(self):
        out = DocumentSimhashDeduplicator(hamming_threshold=8).run(dataset([BASE, NEAR, OTHER]))
        assert len(out) == 2

    def test_distinct_documents_kept(self):
        out = DocumentSimhashDeduplicator(hamming_threshold=3).run(dataset([BASE, OTHER]))
        assert len(out) == 2

    def test_fingerprints_of_identical_texts_match(self):
        dedup = DocumentSimhashDeduplicator()
        fp1 = dedup.compute_hash({"text": BASE})[HashKeys.simhash]
        fp2 = dedup.compute_hash({"text": BASE})[HashKeys.simhash]
        assert fp1 == fp2

    def test_similar_texts_have_close_fingerprints(self):
        dedup = DocumentSimhashDeduplicator()
        fp_base = dedup.compute_hash({"text": BASE})[HashKeys.simhash]
        fp_near = dedup.compute_hash({"text": NEAR})[HashKeys.simhash]
        fp_other = dedup.compute_hash({"text": OTHER})[HashKeys.simhash]
        assert hamming_distance(fp_base, fp_near) < hamming_distance(fp_base, fp_other)

    def test_num_blocks_adjusted_above_threshold(self):
        dedup = DocumentSimhashDeduplicator(hamming_threshold=5, num_blocks=4)
        assert dedup.num_blocks > 5

    def test_batch_hashes_each_distinct_feature_once(self, monkeypatch):
        """Counted, not timed: one md5 per distinct shingle of the batch (one
        group: it is far below ``_MAX_GROUP_FEATURES``), not one per occurrence
        (the per-sample oracle pays the latter)."""
        import hashlib

        hashed = []
        real_md5 = hashlib.md5

        def counting_md5(data=b"", **kwargs):
            hashed.append(data)
            return real_md5(data, **kwargs)

        monkeypatch.setattr(hashlib, "md5", counting_md5)
        dedup = DocumentSimhashDeduplicator(ngram_size=2)
        batch = {"text": [BASE, NEAR, BASE + " " + BASE, "", "lonely"]}
        texts = list(batch["text"])
        fingerprints = dedup.compute_hash_batched(batch)[HashKeys.simhash]
        words = [words_refinement(get_words_from_text(text, lowercase=True)) for text in texts]
        occurrences = [
            " ".join(feature).encode()
            for doc in words
            for feature in (get_ngrams(doc, 2) or [(word,) for word in doc])
        ]
        assert sorted(hashed) == sorted(set(occurrences))
        assert len(occurrences) > 2 * len(hashed)
        hashed.clear()
        assert fingerprints == [dedup._fingerprint(text) for text in texts]
        assert sorted(hashed) == sorted(occurrences)  # the oracle hashes every occurrence

    @pytest.mark.parametrize("features", [254, 255, 256, 257, 510, 511, 600])
    def test_byte_lane_vote_counters_at_their_limit(self, features):
        """Identical shingles put every vote of a text into the same lanes:
        255 fills a byte lane exactly, 256 would carry into its neighbour."""
        dedup = DocumentSimhashDeduplicator(ngram_size=1)
        texts = ["same " * features, "same " * features + "other", BASE]
        assert dedup._fingerprints_batched(texts) == [dedup._fingerprint(text) for text in texts]

    def test_group_cap_does_not_change_fingerprints(self, monkeypatch):
        """The cap only bounds the vote matrix; any grouping hashes the same."""
        dedup = DocumentSimhashDeduplicator()
        texts = [BASE, "", NEAR, OTHER, "lonely", BASE + " " + OTHER]
        expected = [dedup._fingerprint(text) for text in texts]
        for cap in (1, 25, 1 << 16):
            monkeypatch.setattr(DocumentSimhashDeduplicator, "_MAX_GROUP_FEATURES", cap)
            assert dedup._fingerprints_batched(texts) == expected


DEDUPLICATORS = [DocumentDeduplicator, DocumentMinhashDeduplicator, DocumentSimhashDeduplicator]


class TestClusteringReadsTheHashColumn:
    @pytest.mark.parametrize("dedup_cls", DEDUPLICATORS)
    def test_row_dicts_are_built_only_for_the_shown_pairs(self, dedup_cls, monkeypatch):
        dedup = dedup_cls()
        hashed = dedup.hash_stage(dataset([BASE, OTHER, BASE, BASE, OTHER]))
        row_reads = []
        real_getitem = NestedDataset.__getitem__

        def counting_getitem(self, item):
            if isinstance(item, int):
                row_reads.append(item)
            return real_getitem(self, item)

        monkeypatch.setattr(NestedDataset, "__getitem__", counting_getitem)
        deduped, pairs = dedup.process(hashed, show_num=0)
        assert (len(deduped), pairs, row_reads) == (2, [], [])
        deduped, pairs = dedup.process(hashed, show_num=2)
        assert len(deduped) == 2 and len(pairs) == 2
        assert row_reads == [0, 2, 0, 3]
        assert pairs[0] == (real_getitem(hashed, 0), real_getitem(hashed, 2))

    @pytest.mark.parametrize(
        "dedup_cls, kept", zip(DEDUPLICATORS, (1, 3, 1)), ids=lambda value: getattr(value, "_name", value)
    )
    def test_a_dataset_that_was_never_hashed_reads_as_the_default(self, dedup_cls, kept):
        """``sample.get(key, default)`` semantics: one shared missing hash is one
        duplicate cluster (exact, SimHash); an empty MinHash signature never clusters."""
        deduped, _pairs = dedup_cls().process(dataset([BASE, OTHER, NEAR]))
        assert len(deduped) == kept
