"""Tests for text-statistics filters (length, words, lines, ratios, repetition...)."""

from repro.core.sample import Fields, StatsKeys
from repro.ops.filters.alphanumeric_filter import AlphanumericFilter
from repro.ops.filters.average_line_length_filter import AverageLineLengthFilter
from repro.ops.filters.average_word_length_filter import AverageWordLengthFilter
from repro.ops.filters.character_repetition_filter import CharacterRepetitionFilter
from repro.ops.filters.digit_ratio_filter import DigitRatioFilter
from repro.ops.filters.maximum_line_length_filter import MaximumLineLengthFilter
from repro.ops.filters.paragraph_num_filter import ParagraphNumFilter
from repro.ops.filters.sentence_num_filter import SentenceNumFilter
from repro.ops.filters.special_characters_filter import SpecialCharactersFilter
from repro.ops.filters.text_length_filter import TextLengthFilter
from repro.ops.filters.token_num_filter import TokenNumFilter
from repro.ops.filters.whitespace_ratio_filter import WhitespaceRatioFilter
from repro.ops.filters.word_repetition_filter import WordRepetitionFilter
from repro.ops.filters.words_num_filter import WordsNumFilter


def keep(filter_op, text):
    sample = filter_op.compute_stats({"text": text})
    return filter_op.process(sample)


def stat(filter_op, text, key):
    return filter_op.compute_stats({"text": text})[Fields.stats][key]


class TestLengthFilters:
    def test_text_length_bounds(self):
        assert keep(TextLengthFilter(min_len=5, max_len=10), "123456")
        assert not keep(TextLengthFilter(min_len=5), "abc")
        assert not keep(TextLengthFilter(min_len=0, max_len=3), "abcdef")

    def test_text_length_stat_value(self):
        assert stat(TextLengthFilter(), "hello", StatsKeys.text_len) == 5

    def test_words_num(self):
        assert keep(WordsNumFilter(min_num=3), "one two three four")
        assert not keep(WordsNumFilter(min_num=5), "just three words")

    def test_token_num_counts_subword_chunks(self):
        value = stat(TokenNumFilter(max_token_chars=4), "supercalifragilistic", StatsKeys.num_token)
        assert value == 5

    def test_token_num_bounds(self):
        assert not keep(TokenNumFilter(min_num=10), "short text")

    def test_sentence_num(self):
        assert keep(SentenceNumFilter(min_num=2), "One. Two.")
        assert not keep(SentenceNumFilter(min_num=3), "One. Two.")

    def test_paragraph_num(self):
        assert keep(ParagraphNumFilter(min_num=2), "para one\n\npara two")
        assert not keep(ParagraphNumFilter(min_num=2), "only one paragraph")

    def test_average_word_length(self):
        assert keep(AverageWordLengthFilter(min_len=3, max_len=8), "these words look normal")
        assert not keep(AverageWordLengthFilter(min_len=4), "a b c d")


class TestLineFilters:
    def test_average_line_length(self):
        text = "a" * 50 + "\n" + "b" * 50
        assert keep(AverageLineLengthFilter(min_len=10), text)
        assert not keep(AverageLineLengthFilter(min_len=100), text)

    def test_maximum_line_length(self):
        text = "short\n" + "x" * 300
        assert not keep(MaximumLineLengthFilter(max_len=200), text)
        assert keep(MaximumLineLengthFilter(min_len=1, max_len=400), text)

    def test_empty_text_line_stats(self):
        assert stat(AverageLineLengthFilter(), "", StatsKeys.avg_line_length) == 0.0


class TestRatioFilters:
    def test_alphanumeric_character_ratio(self):
        assert keep(AlphanumericFilter(min_ratio=0.5), "abcdef 123")
        assert not keep(AlphanumericFilter(min_ratio=0.9), "@@@@ ab @@@@")

    def test_alphanumeric_token_ratio(self):
        filter_op = AlphanumericFilter(tokenization=True, min_ratio=0.5)
        assert keep(filter_op, "real words mostly here 42")
        assert not keep(filter_op, "!! ?? .. ;; word")

    def test_special_characters(self):
        assert keep(SpecialCharactersFilter(max_ratio=0.3), "clean prose text here")
        assert not keep(SpecialCharactersFilter(max_ratio=0.1), "#$%^&*()!@ a")

    def test_digit_ratio(self):
        assert not keep(DigitRatioFilter(max_ratio=0.2), "1234567890 ab")
        assert keep(DigitRatioFilter(max_ratio=0.5), "value 42 is fine")

    def test_whitespace_ratio(self):
        assert keep(WhitespaceRatioFilter(min_ratio=0.05, max_ratio=0.4), "normal spacing here")
        assert not keep(WhitespaceRatioFilter(min_ratio=0.05), "nowhitespaceatallinthistext")

    def test_empty_text_ratios_are_zero(self):
        assert stat(SpecialCharactersFilter(), "", StatsKeys.special_char_ratio) == 0.0


class TestRepetitionFilters:
    def test_character_repetition_rejects_loops(self):
        looped = "abcabcabcabcabcabcabcabc"
        assert not keep(CharacterRepetitionFilter(rep_len=3, max_ratio=0.2), looped)

    def test_character_repetition_accepts_prose(self):
        prose = "The quick brown fox jumps over the lazy dog near the river bank today."
        assert keep(CharacterRepetitionFilter(rep_len=10, max_ratio=0.5), prose)

    def test_word_repetition_rejects_repeated_phrases(self):
        text = "buy now " * 30
        assert not keep(WordRepetitionFilter(rep_len=2, max_ratio=0.2), text)

    def test_word_repetition_accepts_varied_text(self):
        text = "every word in this particular sentence appears exactly once today friends"
        assert keep(WordRepetitionFilter(rep_len=2, max_ratio=0.2), text)

    def test_long_ascii_document_is_counted_without_a_per_document_argsort(self, monkeypatch):
        """Counted, not timed: past the grouped kernel's length cap the alphabet
        comes from a table lookup, never from ``np.unique(return_inverse=True)``."""
        import random

        import numpy

        from repro.core.dataset import NestedDataset
        from repro.ops.common.helper_funcs import char_ngram_repetition_ratio

        words = "the data juicer cleans a large corpus of web text, every day.".split()
        text = " ".join(random.Random(3).choices(words, k=2_000))
        assert len(text) > 10_000 and text.isascii()
        inverse_calls = []
        real_unique = numpy.unique

        def counting_unique(*args, **kwargs):
            if kwargs.get("return_inverse") or (len(args) > 2 and args[2]):
                inverse_calls.append(args)
            return real_unique(*args, **kwargs)

        monkeypatch.setattr(numpy, "unique", counting_unique)
        for rep_len in (8, 10):  # shared dense table / per-document presence table
            filter_op = CharacterRepetitionFilter(rep_len=rep_len, max_ratio=1.0)
            out = filter_op.run(NestedDataset.from_list([{"text": text}]))
            ratio = out[0][Fields.stats][StatsKeys.char_rep_ratio]
            assert ratio == char_ngram_repetition_ratio(text, rep_len) > 0.0
        assert inverse_calls == []

    def test_invalid_rep_len(self):
        import pytest

        with pytest.raises(ValueError):
            CharacterRepetitionFilter(rep_len=0)

    def test_stats_not_recomputed_when_present(self):
        filter_op = TextLengthFilter()
        sample = {"text": "abc", Fields.stats: {StatsKeys.text_len: 999}}
        assert filter_op.compute_stats(sample)[Fields.stats][StatsKeys.text_len] == 999
