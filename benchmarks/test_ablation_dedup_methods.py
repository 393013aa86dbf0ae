"""Ablation — exact-hash vs MinHash-LSH vs SimHash deduplication.

The paper's Deduplicators offer hash-based and vector-based comparisons; this
ablation quantifies their trade-off on a corpus with injected exact and near
duplicates: exact hashing only removes identical copies, while the two
similarity sketches also remove near duplicates, at a higher cost.  The cost
is counted, not timed: md5 digests computed while hashing the corpus and the
payload bytes of the signature each row then carries (``time_s`` is printed
for orientation; speed claims belong to ``bench/``).  Each row of the corpus
records what it is (``meta.copy``: an original, an exact copy or a near copy),
so what each method removes is checked against that record: every original
is kept, and the number of copies removed is pinned per method.
"""

import hashlib
from unittest import mock

from conftest import print_table, run_once

from repro.core.dataset import NestedDataset
from repro.core.monitor import time_call
from repro.core.sample import Fields, HashKeys
from repro.ops.deduplicators.document_deduplicator import DocumentDeduplicator
from repro.ops.deduplicators.document_minhash_deduplicator import DocumentMinhashDeduplicator
from repro.ops.deduplicators.document_simhash_deduplicator import DocumentSimhashDeduplicator
from repro.synth import DocumentGenerator


ORIGINAL, EXACT_COPY, NEAR_COPY = "original", "exact", "near"


def build_duplicated_corpus(num_docs: int = 120, seed: int = 3) -> NestedDataset:
    """``num_docs`` originals plus exact and near copies, each row tagged in ``meta.copy``."""
    generator = DocumentGenerator(seed)
    rows = []
    for index in range(num_docs):
        text = generator.document(num_paragraphs=2)
        rows.append({"text": text, "meta": {"copy": ORIGINAL}})
        if index % 4 == 0:  # exact duplicate
            rows.append({"text": text, "meta": {"copy": EXACT_COPY}})
        if index % 5 == 0:  # near duplicate (light edit)
            near = text.replace("the", "a", 3) + " Extra closing sentence."
            rows.append({"text": near, "meta": {"copy": NEAR_COPY}})
    return NestedDataset.from_list(rows)


def _count_originals(dataset: NestedDataset) -> int:
    return sum(row[Fields.meta]["copy"] == ORIGINAL for row in dataset)


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
        originals_kept = _count_originals(output)
        rows.append(
            {
                "method": name,
                "input_docs": len(corpus),
                "kept_docs": len(output),
                "removed": len(corpus) - len(output),
                "originals_kept": originals_kept,
                "copies_removed": len(corpus) - _count_originals(corpus) - (len(output) - originals_kept),
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

    # the corpus: 120 originals, 30 exact and 24 near copies
    corpus = build_duplicated_corpus()
    assert _count_originals(corpus) == 120 and len(corpus) == 174
    # no method drops an original: what each removes is a copy
    assert all(row["originals_kept"] == 120 for row in rows)
    # exact hashing removes the 30 exact copies; the similarity sketches also
    # remove most near copies, which exact hashing keeps
    assert exact["copies_removed"] == 30
    assert minhash["copies_removed"] == 51
    assert simhash["copies_removed"] == 46
    # exact hashing is the cheapest method to compute: one digest per
    # document, where the sketches pay one per distinct shingle of a group
    assert exact["md5_digests"] == exact["input_docs"]
    assert min(minhash["md5_digests"], simhash["md5_digests"]) > 10 * exact["md5_digests"]
    # and what each row then carries to the clustering: a 32-char hex digest,
    # 64 packed uint32 values, one 64-bit integer
    assert exact["signature_bytes_per_row"] == 32
    assert minhash["signature_bytes_per_row"] == 4 * 64
    assert simhash["signature_bytes_per_row"] == 8
