"""Ablation — exact-hash vs MinHash-LSH vs SimHash deduplication.

The paper's Deduplicators offer hash-based and vector-based comparisons; this
ablation quantifies their trade-off on a corpus with injected exact and near
duplicates: exact hashing only removes identical copies, while the two
similarity sketches also remove near duplicates, at a higher cost.  The cost
is counted, not timed: md5 digests computed while hashing the corpus and the
payload bytes of the signature each row then carries (``time_s`` is printed
for orientation; speed claims belong to ``bench/``).
"""

import hashlib
from unittest import mock

from conftest import print_table, run_once

from repro.core.dataset import NestedDataset
from repro.core.monitor import time_call
from repro.core.sample import HashKeys
from repro.ops.deduplicators.document_deduplicator import DocumentDeduplicator
from repro.ops.deduplicators.document_minhash_deduplicator import DocumentMinhashDeduplicator
from repro.ops.deduplicators.document_simhash_deduplicator import DocumentSimhashDeduplicator
from repro.synth import DocumentGenerator


def build_duplicated_corpus(num_docs: int = 120, seed: int = 3) -> NestedDataset:
    generator = DocumentGenerator(seed)
    rows = []
    for index in range(num_docs):
        text = generator.document(num_paragraphs=2)
        rows.append({"text": text})
        if index % 4 == 0:  # exact duplicate
            rows.append({"text": text})
        if index % 5 == 0:  # near duplicate (light edit)
            rows.append({"text": text.replace("the", "a", 3) + " Extra closing sentence."})
    return NestedDataset.from_list(rows)


def _signature_bytes(cell) -> int:
    """Payload of one hash cell: its characters/bytes, or the 8 of a 64-bit int."""
    return 8 if isinstance(cell, int) else len(cell)


def reproduce_dedup_ablation() -> list[dict]:
    corpus = build_duplicated_corpus()
    methods = {
        "exact (MD5)": (DocumentDeduplicator(), HashKeys.hash),
        "MinHash-LSH": (DocumentMinhashDeduplicator(jaccard_threshold=0.7), HashKeys.minhash),
        "SimHash": (DocumentSimhashDeduplicator(hamming_threshold=8), HashKeys.simhash),
    }
    real_md5 = hashlib.md5
    digests = 0

    def counting_md5(*args, **kwargs):
        nonlocal digests
        digests += 1
        return real_md5(*args, **kwargs)

    rows = []
    for name, (dedup, hash_key) in methods.items():
        digests = 0
        with mock.patch.object(hashlib, "md5", counting_md5):
            cells = dedup.sample_stage(corpus).column(hash_key)
        elapsed, output = time_call(dedup.run, corpus)
        rows.append(
            {
                "method": name,
                "input_docs": len(corpus),
                "kept_docs": len(output),
                "removed": len(corpus) - len(output),
                "md5_digests": digests,
                "signature_bytes_per_row": sum(map(_signature_bytes, cells)) / len(cells),
                "time_s": elapsed,
            }
        )
    return rows


def test_ablation_dedup_methods(benchmark):
    rows = run_once(benchmark, reproduce_dedup_ablation)
    print_table("Ablation: deduplication methods", rows)
    by_name = {row["method"]: row for row in rows}
    exact, minhash, simhash = (by_name[name] for name in ("exact (MD5)", "MinHash-LSH", "SimHash"))

    # every method removes at least the exact duplicates
    assert all(row["removed"] > 0 for row in rows)
    # the similarity sketches remove near-duplicates that exact hashing keeps
    assert minhash["kept_docs"] < exact["kept_docs"]
    assert simhash["kept_docs"] < exact["kept_docs"]
    # exact hashing is the cheapest method to compute: one digest per
    # document, where the sketches pay one per distinct shingle of a group
    assert exact["md5_digests"] == exact["input_docs"]
    assert min(minhash["md5_digests"], simhash["md5_digests"]) > 10 * exact["md5_digests"]
    # and what each row then carries to the clustering: a 32-char hex digest,
    # 64 packed uint32 values, one 64-bit integer
    assert exact["signature_bytes_per_row"] == 32
    assert minhash["signature_bytes_per_row"] == 4 * 64
    assert simhash["signature_bytes_per_row"] == 8
