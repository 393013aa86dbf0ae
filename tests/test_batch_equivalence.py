"""Engine/oracle equivalence: every op, identical rows, stats, fingerprints.

``op.run`` executes column batches; the per-sample methods are the
op-authoring API.  For every registered operator, ``op.run(dataset)`` must
yield the same surviving rows, the same stats values and the same dataset
fingerprint as the serial per-row reference
(:func:`repro.testing.reference.run_per_row`) — so a vectorised
``*_batched`` override can never drift from its per-sample method.
"""

import random

import pytest

from repro.core.base_op import Deduplicator, Filter, Mapper
from repro.core.dataset import NestedDataset
from repro.core.fusion import FusedFilter, fuse_operators
from repro.core.registry import OPERATORS
from repro.core.tracer import Tracer
from repro.ops import load_ops
from repro.ops.common import vectorized
from repro.ops.common.helper_funcs import get_words_from_text, words_refinement
from repro.synth import common_crawl_like
from repro.testing.reference import run_per_row

#: ops where the default parameters need a nudge so the test corpus actually
#: exercises both kept and dropped rows / non-trivial rewrites
PARAM_OVERRIDES = {
    "text_length_filter": {"min_len": 30, "max_len": 800},
    "words_num_filter": {"min_num": 5, "max_num": 200},
    "character_repetition_filter": {"rep_len": 5, "max_ratio": 0.4},
    "word_repetition_filter": {"rep_len": 3, "max_ratio": 0.6},
    "special_characters_filter": {"max_ratio": 0.3},
    "stopwords_filter": {"min_ratio": 0.05},
    "flagged_words_filter": {"max_ratio": 0.1},
    "alphanumeric_filter": {"min_ratio": 0.4},
    "truncate_text_mapper": {"max_chars": 120},
}


#: rows that reach the per-document kernels of ``repro.ops.common.vectorized``
#: and the edges of the batched SimHash (see the comments per row)
_CROSSOVER = vectorized._TOKEN_IDS_MIN_TOKENS
KERNEL_PATH_ROWS = [
    # > _GROUPED_MAX_DOC_CHARS, ASCII: the fallback's shared dense table;
    # >= _CROSSOVER words with a 98-word vocabulary: the token id kernel;
    # > 255 SimHash features
    {"text": " ".join(f"word{number} and" for number in random.Random(7).choices(range(97), k=400))},
    # > 127 distinct codepoints: dense-table overflow -> presence-table remap
    {"text": "".join(chr(0x400 + i) for i in range(200)) * 2},
    # > 4096 distinct codepoints: 5-grams of a 13-bit alphabet do not fit one
    # uint64 key -> substring Counter
    {"text": "".join(chr(0x4E00 + i) for i in range(4200)) + "".join(chr(0x4E00 + i) for i in range(60))},
    # one token short of the crossover (tuple Counter) and exactly on it (ids)
    {"text": " ".join(f"w{number}" for number in random.Random(8).choices(range(50), k=_CROSSOVER - 1))},
    {"text": " ".join(f"w{number}" for number in random.Random(9).choices(range(50), k=_CROSSOVER))},
    # SimHash: no feature at all, and fewer words than ngram_size
    {"text": "?! ... --- !?"},
    {"text": "two words"},
]


def sample_level_op_names():
    names = []
    for name in OPERATORS.list():
        cls = OPERATORS.get(name)
        if issubclass(cls, (Mapper, Filter, Deduplicator)):
            names.append(name)
    return names


@pytest.fixture(scope="module")
def corpus():
    base = common_crawl_like(num_samples=40, seed=11, duplicate_ratio=0.2).to_list()
    # edge rows: empty text, non-string text, missing text, pre-existing stats
    base += [
        {"text": ""},
        {"text": None},
        {"meta": {"source": "nowhere"}},
        {"text": "already counted", "__stats__": {"text_len": 999}},
        {"text": "repeat repeat repeat repeat repeat repeat repeat repeat"},
        {"text": "ÃƒÂ© mojibake â€™ text Â· with ugly bytes", "__stats__": {}},
        {"text": "short"},
    ]
    return NestedDataset.from_list(base + KERNEL_PATH_ROWS)


def test_kernel_path_rows_reach_the_paths_they_name():
    """Guard the corpus against vacuity if a threshold moves."""
    long_ascii, overflow, wide_alphabet, below, on, no_feature, two_words = (
        row["text"] for row in KERNEL_PATH_ROWS
    )
    rep_len = PARAM_OVERRIDES["character_repetition_filter"]["rep_len"]
    assert len(long_ascii) > vectorized._GROUPED_MAX_DOC_CHARS and long_ascii.isascii()
    assert len(set(overflow)) > vectorized._DENSE_ID_MAX
    assert vectorized._id_bits(len(set(wide_alphabet))) * rep_len > 64
    refined = [words_refinement(get_words_from_text(text)) for text in (long_ascii, below, on)]
    assert [len(words) >= _CROSSOVER for words in refined] == [True, False, True]
    simhash = load_ops([{"document_simhash_deduplicator": {}}])[0]
    assert len(refined[0]) - simhash.ngram_size + 1 > 255
    assert words_refinement(get_words_from_text(no_feature)) == []
    assert len(two_words.split()) < simhash.ngram_size


def run_both_ways(op, dataset):
    return op.run(dataset), run_per_row(op, dataset)


@pytest.mark.parametrize("op_name", sample_level_op_names())
def test_batched_path_matches_per_row(op_name, corpus):
    op = load_ops([{op_name: PARAM_OVERRIDES.get(op_name, {})}])[0]
    batched, per_row = run_both_ways(op, corpus)
    assert batched.to_list() == per_row.to_list()
    assert batched.fingerprint == per_row.fingerprint


@pytest.mark.parametrize(
    "op_name", ["text_length_filter", "words_num_filter", "special_characters_filter"]
)
def test_filters_drop_rows_on_this_corpus(op_name, corpus):
    """Guard the equivalence test against vacuity: the overridden params must
    actually reject some rows, otherwise the keep/drop paths aren't compared."""
    op = load_ops([{op_name: PARAM_OVERRIDES.get(op_name, {})}])[0]
    assert 0 < len(op.run(corpus)) < len(corpus)


def test_fused_filter_short_circuit_matches_per_row(corpus):
    ops = load_ops(
        [
            {"words_num_filter": {"min_num": 5}},
            {"word_repetition_filter": {"rep_len": 3, "max_ratio": 0.6}},
            {"stopwords_filter": {"min_ratio": 0.05}},
            {"flagged_words_filter": {"max_ratio": 0.5}},
        ]
    )
    fused = fuse_operators(ops)
    assert any(isinstance(op, FusedFilter) for op in fused)
    fused_op = next(op for op in fused if isinstance(op, FusedFilter))
    batched, per_row = run_both_ways(fused_op, corpus)
    assert batched.to_list() == per_row.to_list()
    assert batched.fingerprint == per_row.fingerprint


def test_fused_filter_with_tracer_records_all_rows(corpus):
    """With a tracer, the batched path must not short-circuit stats: the trace
    sees rejected rows with their full statistics, like the per-row path."""
    ops = load_ops(
        [
            {"words_num_filter": {"min_num": 5}},
            {"word_repetition_filter": {"rep_len": 3, "max_ratio": 0.6}},
        ]
    )
    fused_op = next(op for op in fuse_operators(ops) if isinstance(op, FusedFilter))
    tracer_batched, tracer_per_row = Tracer(), Tracer()
    batched = fused_op.run(corpus, tracer=tracer_batched)
    per_row = run_per_row(fused_op, corpus, tracer=tracer_per_row)
    assert batched.to_list() == per_row.to_list()
    assert tracer_batched.summary() == tracer_per_row.summary()
    assert tracer_batched.records[0].examples == tracer_per_row.records[0].examples


@pytest.mark.parametrize(
    "op_name",
    [
        "special_characters_filter",
        "digit_ratio_filter",
        "whitespace_ratio_filter",
        "character_repetition_filter",
    ],
)
def test_unpaired_surrogates_do_not_crash_batched_path(op_name):
    """JSON corpora can legally contain lone surrogates (e.g. ``\\ud800``);
    the vectorised kernels must fall back instead of crashing on the
    utf-32 encode."""
    import json

    bad = json.loads('"broken \\ud800 surrogate text here, long enough to count"')
    dataset = NestedDataset.from_list(
        [{"text": bad}, {"text": "a perfectly ordinary clean document right here"}]
    )
    op = load_ops([{op_name: {}}])[0]
    batched, per_row = run_both_ways(op, dataset)
    assert batched.to_list() == per_row.to_list()
    assert batched.fingerprint == per_row.fingerprint


@pytest.mark.parametrize(
    "op_name",
    ["document_deduplicator", "document_minhash_deduplicator", "document_simhash_deduplicator"],
)
def test_unpaired_surrogates_fail_the_batched_hash_like_the_per_row_hash(op_name):
    """A lone surrogate has no utf-8 form, so ``compute_hash`` raises on it;
    the batched hash stage must fail the same way, not hash something else."""
    import json

    bad = json.loads('"broken \\ud800 surrogate text here, long enough to count"')
    dataset = NestedDataset.from_list(
        [{"text": "a perfectly ordinary clean document right here"}, {"text": bad}]
    )
    op = load_ops([{op_name: {}}])[0]
    with pytest.raises(UnicodeEncodeError):
        run_per_row(op, dataset)
    with pytest.raises(UnicodeEncodeError):
        op.run(dataset)


@pytest.mark.parametrize(
    "op_name",
    ["document_deduplicator", "document_minhash_deduplicator", "document_simhash_deduplicator"],
)
def test_deduplicator_dotted_text_key_keeps_the_per_row_hash(op_name):
    nested = NestedDataset.from_list(
        [{"meta": {"body": text}} for text in ("same nested body text", "same nested body text", "x")]
    )
    op = load_ops([{op_name: {"text_key": "meta.body"}}])[0]
    batched, per_row = run_both_ways(op, nested)
    assert batched.to_list() == per_row.to_list()
    assert batched.fingerprint == per_row.fingerprint
    assert len(batched) == 2


def test_dotted_text_key_falls_back_to_per_row(corpus):
    nested = NestedDataset.from_list(
        [{"meta": {"body": "some reasonably long nested text body"}}, {"meta": {"body": "x"}}]
    )
    op = load_ops([{"text_length_filter": {"min_len": 10, "text_key": "meta.body"}}])[0]
    batched, per_row = run_both_ways(op, nested)
    assert batched.to_list() == per_row.to_list()
    assert batched.fingerprint == per_row.fingerprint
    assert len(batched) == 1


def test_pipeline_fingerprints_are_incremental_and_strategy_independent(corpus):
    process = [
        {"fix_unicode_mapper": {}},
        {"whitespace_normalization_mapper": {}},
        {"text_length_filter": {"min_len": 30}},
        {"words_num_filter": {"min_num": 5}},
        {"document_deduplicator": {}},
    ]
    batched_ds, per_row_ds = corpus, corpus
    for op_batched, op_per_row in zip(load_ops(process), load_ops(process)):
        expected = batched_ds.derive_fingerprint(op_batched.name, op_batched.config())
        batched_ds = op_batched.run(batched_ds)
        per_row_ds = run_per_row(op_per_row, per_row_ds)
        # every op's output carries the incremental fingerprint directly
        assert batched_ds.fingerprint == expected
        assert batched_ds.fingerprint == per_row_ds.fingerprint
        assert batched_ds.to_list() == per_row_ds.to_list()


def test_fused_filter_config_embeds_member_parameters(corpus):
    """Regression: the generic OP.config() serialised members via param-less
    reprs, so fused plans with different thresholds shared fingerprints and
    cache keys."""
    def fused_with(min_num):
        ops = load_ops(
            [{"words_num_filter": {"min_num": min_num}}, {"word_repetition_filter": {}}]
        )
        return next(op for op in fuse_operators(ops) if isinstance(op, FusedFilter))

    loose, strict = fused_with(2), fused_with(10**6)
    assert loose.config() != strict.config()
    assert corpus.derive_fingerprint(loose.name, loose.config()) != corpus.derive_fingerprint(
        strict.name, strict.config()
    )
    assert loose.run(corpus).fingerprint != strict.run(corpus).fingerprint


def test_checkpoint_resume_preserves_fingerprint(tmp_path, corpus):
    """Regression: checkpoint load rebuilt the dataset with a content-probe
    fingerprint, so every downstream cache key missed after a resume."""
    from repro.core.cache import CacheManager

    op = load_ops([{"text_length_filter": {"min_len": 30}}])[0]
    out = op.run(corpus)
    store = CacheManager(tmp_path)
    store.put("after-op-1", out)
    restored = store.get("after-op-1")
    assert restored == out
    assert restored.fingerprint == out.fingerprint


def test_batch_size_does_not_change_results_or_fingerprint(corpus):
    small = load_ops([{"words_num_filter": {"min_num": 5, "batch_size": 3}}])[0]
    large = load_ops([{"words_num_filter": {"min_num": 5, "batch_size": 4096}}])[0]
    assert small.batch_size == 3 and large.batch_size == 4096
    out_small, out_large = small.run(corpus), large.run(corpus)
    assert out_small.to_list() == out_large.to_list()
    assert out_small.fingerprint == out_large.fingerprint
    # batch_size is execution tuning, not op identity: cache keys must agree
    assert small.config() == large.config()
