"""Columnar op engine — rows/sec of ``op.run`` vs the per-row reference.

The engine hands operators column slices instead of per-row dicts, with
vectorised kernels behind the hottest ops (char-class counting, char n-gram
repetition, shared batch tokenisation, bulk MinHash).  This suite measures
end-to-end rows/sec of a mappers + fused-filters + dedup pipeline on a
>=20k-row synthetic web corpus through ``op.run`` and through the per-row
oracle (:func:`repro.testing.reference.run_per_row`), and asserts the outputs
are identical and the engine faster (``make bench-batch`` prints the table).
Each leg is the fastest of three interleaved rounds; it is still an
assertion, not a ruler: repeatable numbers come from ``bench/``
(``python bench/run.py``).
"""

import random
import time

from conftest import best_of_interleaved, print_table, run_once

from repro.core.dataset import NestedDataset
from repro.core.sample import Fields
from repro.ops import build_ops
from repro.synth.generators import DocumentGenerator, NoiseInjector
from repro.testing.reference import run_per_row

#: mappers + (fusible) filters + dedup — the hot ops of a web-cleaning recipe
PROCESS = [
    {"fix_unicode_mapper": {}},
    {"whitespace_normalization_mapper": {}},
    {"lowercase_mapper": {}},
    {"text_length_filter": {"min_len": 40}},
    {"whitespace_ratio_filter": {"min_ratio": 0.01, "max_ratio": 0.5}},
    {"digit_ratio_filter": {"max_ratio": 0.3}},
    {"special_characters_filter": {"max_ratio": 0.4}},
    {"character_repetition_filter": {"rep_len": 8, "max_ratio": 0.6}},
    {"words_num_filter": {"min_num": 10}},
    {"word_repetition_filter": {"rep_len": 5, "max_ratio": 0.6}},
    {"stopwords_filter": {"min_ratio": 0.0}},
    {"flagged_words_filter": {"max_ratio": 1.0}},
    {"document_deduplicator": {}},
]


def web_corpus(num_samples: int, seed: int, kind: str, duplicate_ratio: float = 0.1) -> NestedDataset:
    """Synthetic web text: clean prose, link/repetition noise, gibberish, dups.

    ``short`` documents (~450 chars) model comment/snippet-scale web text;
    ``medium`` (~750 chars) models article-scale pages.
    """
    generator = DocumentGenerator(seed)
    noise = NoiseInjector(seed + 1)
    rng = random.Random(seed + 2)
    samples = []
    for _ in range(num_samples):
        roll = rng.random()
        if kind == "short":
            if roll < 0.5:
                text = generator.paragraph(num_sentences=rng.randint(1, 3))
            elif roll < 0.8:
                text = noise.corrupt(
                    generator.paragraph(num_sentences=2), kinds=["links", "repetition"]
                )
            elif roll < 0.9:
                text = noise.gibberish(length=rng.randint(60, 200))
            else:
                text = generator.sentence()
        else:
            if roll < 0.45:
                text = generator.document(num_paragraphs=rng.randint(1, 3))
            elif roll < 0.75:
                text = noise.corrupt(
                    generator.document(num_paragraphs=rng.randint(1, 2)),
                    kinds=rng.sample(["html", "links", "repetition", "flagged"], k=rng.randint(1, 2)),
                )
            elif roll < 0.85:
                text = noise.gibberish(length=rng.randint(100, 400))
            else:
                text = generator.paragraph()
        samples.append({Fields.text: text, Fields.meta: {"source": f"{kind}_web"}})
    for _ in range(int(num_samples * duplicate_ratio)):
        samples.append(dict(samples[rng.randrange(len(samples))]))
    rng.shuffle(samples)
    return NestedDataset.from_list(samples)


def _run_pipeline(corpus: NestedDataset, run_op) -> tuple[NestedDataset, float, list]:
    """Run the pipeline one op at a time through ``run_op(op, dataset)``.

    Returns the output, the seconds and the per-op times."""
    import repro.ops.common.helper_funcs as helper_funcs

    helper_funcs._REFINE_CACHE.clear()  # neither strategy inherits warm caches
    ops = build_ops(PROCESS, op_fusion=True)
    dataset = corpus
    per_op = []
    start = time.perf_counter()
    for op in ops:
        op_start = time.perf_counter()
        dataset = run_op(op, dataset)
        per_op.append({"op": op.name, "seconds": round(time.perf_counter() - op_start, 4)})
    return dataset, time.perf_counter() - start, per_op


def _measure_scenario(kind: str, num_samples: int, seed: int) -> dict:
    corpus = web_corpus(num_samples, seed=seed, kind=kind)
    best = best_of_interleaved(
        {
            "batched": lambda: _run_pipeline(corpus, lambda op, dataset: op.run(dataset)),
            "per_row": lambda: _run_pipeline(corpus, run_per_row),
        },
        seconds=lambda result: result[1],
    )
    batched_out, batched_s, batched_ops = best["batched"]
    per_row_out, per_row_s, per_row_ops = best["per_row"]
    # the whole point: the engine is a pure execution strategy, identical outputs
    assert batched_out.to_list() == per_row_out.to_list()
    assert batched_out.fingerprint == per_row_out.fingerprint
    return {
        "scenario": kind,
        "rows": len(corpus),
        "avg_chars": round(corpus.num_bytes() / len(corpus), 1),
        "rows_kept": len(batched_out),
        "per_row_s": round(per_row_s, 3),
        "batched_s": round(batched_s, 3),
        "per_row_rows_per_sec": round(len(corpus) / per_row_s, 1),
        "batched_rows_per_sec": round(len(corpus) / batched_s, 1),
        "speedup": round(per_row_s / batched_s, 2),
        "per_op": {"batched": batched_ops, "per_row": per_row_ops},
    }


def reproduce_batch_throughput() -> list[dict]:
    scenarios = [
        # the gating scenario: >=20k rows through mappers + fused filters + dedup
        _measure_scenario("short", num_samples=20000, seed=7),
        # secondary: article-scale pages, dominated by per-text kernel time
        _measure_scenario("medium", num_samples=6000, seed=11),
    ]
    return [
        {key: value for key, value in scenario.items() if key != "per_op"}
        for scenario in scenarios
    ]


def test_batch_throughput(benchmark):
    rows = run_once(benchmark, reproduce_batch_throughput)
    print_table("Batched engine — rows/sec per-row vs batched", rows)
    gating = rows[0]
    assert gating["rows"] >= 20000
    # acceptance bar: >=3x rows/sec over the per-row path on the 20k pipeline
    assert gating["speedup"] >= 3.0, f"batched speedup {gating['speedup']} < 3x"
    # the secondary scenario must also win, if by a smaller margin
    assert rows[1]["speedup"] > 1.5
