"""Tests for the exact-hash, MinHash-LSH and SimHash deduplicators."""

import struct
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
from repro.testing.reference import minhash_clusters, minhash_signature

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
        cell = dedup.compute_hash({"text": BASE})[HashKeys.minhash]
        # one packed cell: 32 little-endian uint32 values
        assert isinstance(cell, bytes) and len(cell) == 4 * 32
        assert dedup.compute_hash({"text": ""})[HashKeys.minhash] == b"\xff" * (4 * 32)

    def test_bands_must_divide_permutations(self):
        with pytest.raises(ValueError):
            DocumentMinhashDeduplicator(num_permutations=64, num_bands=10)

    def test_empty_text_does_not_crash(self):
        out = DocumentMinhashDeduplicator().run(dataset(["", BASE]))
        assert len(out) >= 1

    def test_a_document_longer_than_a_group_is_folded_in_bounded_memory(self):
        """A 100 000-distinct-word text (0.69 MB) once took 134 MB of traced
        heap: a group only closed *between* documents.  Folded in runs it stays
        far below its own (shingles, P) matrix (51 MB)."""
        dedup = DocumentMinhashDeduplicator()
        text = " ".join(f"w{index}" for index in range(100_000))
        tracemalloc.start()
        try:
            (cell,) = dedup._signatures_batched([text])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 45e6
        # the permutations are drawn in order, so a 4-wide op is the oracle
        # for the first 4 values at a sixteenth of the big-integer work
        prefix = DocumentMinhashDeduplicator(num_permutations=4, num_bands=1)
        assert cell[:16] == minhash_signature(prefix, text)
        assert len(cell) == 256 and cell != b"\xff" * 256

    def test_one_segmented_minimum_per_group_and_no_array_per_document(self, monkeypatch):
        """Counted, not timed: ``np.minimum.reduceat`` once per group (a
        folded document has none) and ``np.fromiter`` once per group, never
        once per document."""
        import numpy as np

        calls = {"reduceat": 0, "fromiter": 0}

        class CountingMinimum:
            def __call__(self, *args, **kwargs):
                return real_minimum(*args, **kwargs)

            def reduceat(self, *args, **kwargs):
                calls["reduceat"] += 1
                return real_minimum.reduceat(*args, **kwargs)

        def counting_fromiter(*args, **kwargs):
            calls["fromiter"] += 1
            return real_fromiter(*args, **kwargs)

        real_minimum, real_fromiter = np.minimum, np.fromiter
        dedup = DocumentMinhashDeduplicator(ngram_size=1)
        dedup._MAX_GROUP_SHINGLES = 40
        # 10 shingles a document, so a group closes with every fourth one:
        # 2 groups, then the 61-shingle document closes the open third and is
        # folded alone, then 20 documents make 5 more
        texts = [" ".join(f"d{index}w{word}" for word in range(10)) for index in range(30)]
        texts.insert(10, " ".join(f"w{index}" for index in range(61)))
        expected = [dedup._signature(text) for text in texts]
        monkeypatch.setattr(np, "minimum", CountingMinimum())
        monkeypatch.setattr(np, "fromiter", counting_fromiter)
        assert dedup._signatures_batched(texts) == expected
        assert calls == {"reduceat": 8, "fromiter": 8}


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


def _edited(base: int, column: int, value: int) -> list[int]:
    signature = [base] * 8
    signature[column] = value
    return signature


#: signature tables whose bands collide all the time: rows over a tiny
#: alphabet, and one-value edits of three base rows (near-duplicates that
#: meet in some bands and not in others, so the order buckets are visited in
#: decides which pairs are shown).  ``None`` is a row that was never hashed,
#: ``"empty"`` a text without words
_SIGNATURES = st.lists(
    st.one_of(
        st.none(),
        st.just("empty"),
        st.lists(st.integers(0, 2), min_size=8, max_size=8),
        st.lists(st.sampled_from([0, 1, (1 << 32) - 1]), min_size=8, max_size=8),
        st.builds(_edited, st.integers(0, 2), st.integers(0, 7), st.integers(0, 3)),
        st.builds(_edited, st.integers(0, 2), st.integers(0, 7), st.integers(0, 3)),
    ),
    max_size=40,
)


class TestMinhashClusteringMatchesTheRowByRowLoop:
    @given(
        _SIGNATURES,
        st.sampled_from([1, 2, 4, 8]),
        st.sampled_from([0.0, 0.25, 0.5, 0.7, 1.0]),
        st.sampled_from([1, 3, 1 << 11]),
    )
    @settings(max_examples=150, deadline=None, derandomize=True)
    def test_kept_rows_and_shown_pairs(self, signatures, num_bands, threshold, chunk):
        """Array-level LSH clustering == the bucket / union-find loop it
        replaced, on the kept rows *and* on the pairs a tracer is shown —
        also when candidate pairs are compared one or three at a time."""
        dedup = DocumentMinhashDeduplicator(
            num_permutations=8, num_bands=num_bands, jaccard_threshold=threshold
        )
        dedup._COMPARE_CHUNK = chunk
        signatures = [[(1 << 32) - 1] * 8 if row == "empty" else row for row in signatures]
        hashed = NestedDataset.from_list(
            [
                {"rid": rid, HashKeys.minhash: row and struct.pack("<8I", *row)}
                for rid, row in enumerate(signatures)
            ]
        )
        deduped, pairs = dedup.process(hashed, show_num=10)
        kept, united = minhash_clusters(dedup, signatures, show_num=10)
        assert deduped.column("rid") == kept if kept else len(deduped) == 0
        assert [(left["rid"], right["rid"]) for left, right in pairs] == united
        assert HashKeys.minhash not in deduped.column_names

    def test_real_signatures_cluster_like_the_loop(self):
        dedup = DocumentMinhashDeduplicator(jaccard_threshold=0.5)
        texts = [BASE, OTHER, NEAR, "", BASE, NEAR + " and more", "", OTHER + " indeed"]
        hashed = dedup.sample_stage(dataset(texts))
        signatures = [struct.unpack("<64I", cell) for cell in hashed.column(HashKeys.minhash)]
        deduped, pairs = dedup.process(hashed, show_num=10)
        kept, united = minhash_clusters(dedup, signatures, show_num=10)
        assert [row["text"] for row in deduped] == [texts[index] for index in kept]
        assert [(a["text"], b["text"]) for a, b in pairs] == [
            (texts[a], texts[b]) for a, b in united
        ]
        assert 1 < len(kept) < len(texts)


DEDUPLICATORS = [DocumentDeduplicator, DocumentMinhashDeduplicator, DocumentSimhashDeduplicator]


class TestClusteringReadsTheHashColumn:
    @pytest.mark.parametrize("dedup_cls", DEDUPLICATORS)
    def test_row_dicts_are_built_only_for_the_shown_pairs(self, dedup_cls, monkeypatch):
        dedup = dedup_cls()
        hashed = dedup.sample_stage(dataset([BASE, OTHER, BASE, BASE, OTHER]))
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
