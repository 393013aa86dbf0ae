"""Tests for the shared text helpers (tokenisation, n-grams, language detection, perplexity)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ops.common import vectorized
from repro.ops.common.helper_funcs import (
    char_ngram_repetition_ratio,
    cjk_ratio,
    get_char_ngrams,
    get_ngrams,
    get_words_from_text,
    ngram_repetition_ratio,
    split_lines,
    split_paragraphs,
    split_sentences,
    unique_ratio,
    words_refinement,
)
from repro.ops.common.lang_detect import detect_language
from repro.ops.common.special_characters import is_special_character, special_character_ratio
from repro.ops.common.unigram_lm import perplexity
from repro.ops.common.vectorized import char_repetition_ratios, token_repetition_ratios
from repro.ops.deduplicators.document_minhash_deduplicator import DocumentMinhashDeduplicator
from repro.ops.deduplicators.document_simhash_deduplicator import DocumentSimhashDeduplicator
from repro.testing.reference import minhash_signature


class TestTokenization:
    def test_basic_words(self):
        assert get_words_from_text("Hello, world!") == ["Hello", ",", "world", "!"]

    def test_lowercase_option(self):
        assert get_words_from_text("ABC", lowercase=True) == ["abc"]

    def test_cjk_split_to_characters(self):
        assert get_words_from_text("数据处理") == ["数", "据", "处", "理"]

    def test_refinement_strips_punct_and_empties(self):
        assert words_refinement(["Hello,", "!", " world "]) == ["hello", "world"]

    def test_refinement_keep_case(self):
        assert words_refinement(["Hello"], lower_case=False) == ["Hello"]

    def test_refinement_words_aug_merges_single_chars(self):
        assert words_refinement(["数", "据", "model"], use_words_aug=True) == ["数据", "model"]


class TestSplitting:
    def test_sentences(self):
        assert split_sentences("One. Two! Three?") == ["One.", "Two!", "Three?"]

    def test_sentences_cjk_punctuation(self):
        assert len(split_sentences("第一句。 第二句！")) == 2

    def test_paragraphs(self):
        assert split_paragraphs("a\n\nb\n\n\nc") == ["a", "b", "c"]

    def test_lines_preserved(self):
        assert split_lines("a\n\nb") == ["a", "", "b"]


class TestNgrams:
    def test_word_ngrams(self):
        assert get_ngrams(["a", "b", "c"], 2) == [("a", "b"), ("b", "c")]

    def test_ngrams_too_short(self):
        assert get_ngrams(["a"], 2) == []

    def test_ngrams_invalid_n(self):
        with pytest.raises(ValueError):
            get_ngrams(["a"], 0)

    def test_char_ngrams(self):
        assert get_char_ngrams("abcd", 2) == ["ab", "bc", "cd"]

    def test_repetition_ratio_unique(self):
        assert ngram_repetition_ratio(list("abcdefgh"), 2) == 0.0

    def test_repetition_ratio_repeated(self):
        assert ngram_repetition_ratio(list("ababab"), 2) > 0.5

    def test_unique_ratio(self):
        assert unique_ratio(["a", "a", "b", "c"]) == 0.75
        assert unique_ratio([]) == 0.0


class TestSpecialCharacters:
    def test_letters_are_not_special(self):
        assert not is_special_character("a")

    def test_symbols_are_special(self):
        assert is_special_character("#")
        assert is_special_character("🙂")

    def test_ratio(self):
        assert special_character_ratio("ab##") == 0.5
        assert special_character_ratio("") == 0.0


class TestLanguageDetection:
    def test_english(self):
        lang, score = detect_language("This is a simple sentence with the usual words in it.")
        assert lang == "en"
        assert score > 0.4

    def test_chinese(self):
        lang, score = detect_language("这是一个关于数据处理的中文句子，我们的系统可以处理它。")
        assert lang == "zh"
        assert score > 0.4

    def test_gibberish_is_other_or_low_score(self):
        lang, score = detect_language("@@@@ #### $$$$ %%%%")
        assert lang == "other" or score < 0.2

    def test_empty(self):
        assert detect_language("") == ("other", 0.0)

    def test_cjk_ratio(self):
        assert cjk_ratio("ab数据") == 0.5


class TestPerplexity:
    def test_natural_text_lower_than_gibberish(self):
        natural = "the people of the world know that time and work make a good life"
        gibberish = "qzx vbnm plk jhg wrt zzz qqq xxp mnb vvv"
        assert perplexity(natural) < perplexity(gibberish)

    def test_empty_text_zero(self):
        assert perplexity("") == 0.0

    def test_positive_for_any_text(self):
        assert perplexity("hello") > 0


class TestProperties:
    @given(st.text(max_size=200))
    @settings(max_examples=50, deadline=None)
    def test_refinement_output_is_lowercase_and_nonempty_tokens(self, text):
        refined = words_refinement(get_words_from_text(text))
        assert all(token == token.lower() and token for token in refined)

    @given(st.text(max_size=200))
    @settings(max_examples=50, deadline=None)
    def test_special_character_ratio_in_unit_interval(self, text):
        assert 0.0 <= special_character_ratio(text) <= 1.0

    @given(st.lists(st.sampled_from("abcd"), max_size=60), st.integers(1, 5))
    @settings(max_examples=50, deadline=None)
    def test_repetition_ratio_in_unit_interval(self, items, n):
        assert 0.0 <= ngram_repetition_ratio(items, n) <= 1.0


#: texts from a small alphabet (repeats are likely), from every codepoint
#: (lone surrogates included), and long enough to leave the grouped kernel
_CHUNKS = st.text(alphabet="abcdefgh \u0416\u4e2d", min_size=1, max_size=30)
_TEXTS = st.one_of(
    st.text(alphabet="ab c", max_size=80),
    st.text(alphabet=st.characters(), max_size=40),
    st.tuples(_CHUNKS, _CHUNKS).map(lambda pair: pair[0] * 50 + pair[1] * 50 + pair[0][::-1] * 20),
)
_TOKENS = st.sampled_from(["a", "b", "the", "of", "\u6570", "x1"])


class TestVectorizedKernelsMatchTheHelpers:
    """The batched kernels are bit-identical to the per-sample helpers on
    every path a document can take, with and without numpy."""

    @given(st.lists(_TEXTS, max_size=6), st.integers(1, 12))
    @settings(max_examples=60, deadline=None, derandomize=True)
    def test_char_repetition_ratios(self, texts, n):
        expected = [char_ngram_repetition_ratio(text, n) for text in texts]
        assert char_repetition_ratios(texts, n) == expected
        assert expected == [ngram_repetition_ratio(text, n) for text in texts]

    @given(
        st.lists(
            st.one_of(st.lists(_TOKENS, max_size=40), st.lists(_TOKENS, min_size=250, max_size=300)),
            max_size=4,
        ),
        st.integers(1, 70),
    )
    @settings(max_examples=60, deadline=None, derandomize=True)
    def test_token_repetition_ratios(self, token_lists, n):
        """Lists on both sides of the id-kernel crossover, n past one sort key."""
        expected = [ngram_repetition_ratio(tokens, n) for tokens in token_lists]
        assert token_repetition_ratios(token_lists, n) == expected

    def test_pure_python_fallbacks_return_the_same_values(self, monkeypatch):
        texts = ["abcabcabc " * 300, "\u0416" * 40, "", "ab"]
        token_lists = [text.split() * 40 for text in ("a b c a b d", "x")]
        with_numpy = char_repetition_ratios(texts, 4), token_repetition_ratios(token_lists, 2)
        monkeypatch.setattr(vectorized, "_np", None)
        assert (char_repetition_ratios(texts, 4), token_repetition_ratios(token_lists, 2)) == with_numpy

    @given(
        st.lists(
            st.one_of(
                st.text(alphabet="ab ,.", max_size=60),
                st.text(max_size=30),
                st.lists(st.sampled_from(["data", "juicer", "the", "of", "Model"]), max_size=8).map(
                    lambda words: " ".join(words * 45)
                ),
            ),
            max_size=5,
        ),
        st.integers(1, 4),
        st.booleans(),
    )
    @settings(max_examples=60, deadline=None, derandomize=True)
    def test_simhash_fingerprints_batched(self, texts, ngram_size, lowercase):
        """Rows with no feature, fewer words than a shingle, and > 255 features."""
        op = DocumentSimhashDeduplicator(ngram_size=ngram_size, lowercase=lowercase)
        assert op._fingerprints_batched(texts) == [op._fingerprint(text) for text in texts]

    @given(
        st.lists(
            st.one_of(
                st.just(""),
                st.text(alphabet="ab ,.", max_size=60),
                st.text(max_size=30),
                st.lists(st.sampled_from(["data", "juicer", "the", "of", "Model"]), max_size=8).map(
                    lambda words: " ".join(words * 5)
                ),
                st.lists(st.integers(0, 40), min_size=12, max_size=40).map(
                    lambda numbers: " ".join(f"w{number}" for number in numbers)
                ),
            ),
            max_size=6,
        ),
        st.integers(1, 4),
        st.booleans(),
        st.sampled_from([1, 7, 1 << 10, 1 << 20]),
    )
    @settings(max_examples=100, deadline=None, derandomize=True)
    def test_minhash_signatures_batched(self, texts, ngram_size, lowercase, cap):
        """Empty texts, fewer words than a shingle, repeated shingles, mostly
        distinct ones; a cap of 1 folds every document shingle by shingle, 7
        mixes grouped and folded documents (with a partial last run), the
        huge one puts the whole batch into one group.
        Both the batched kernel and the per-sample numpy reference equal the
        Python-integer oracle."""
        op = DocumentMinhashDeduplicator(
            ngram_size=ngram_size, lowercase=lowercase, num_permutations=8, num_bands=2
        )
        op._MAX_GROUP_SHINGLES = cap
        expected = [minhash_signature(op, text) for text in texts]
        assert [op._signature(text) for text in texts] == expected
        assert op._signatures_batched(texts) == expected
