"""Tests for the cleaning/anonymization mappers (HTML, links, e-mails, IPs, unicode...)."""

from repro.ops.mappers.clean_copyright_mapper import CleanCopyrightMapper
from repro.ops.mappers.clean_email_mapper import CleanEmailMapper
from repro.ops.mappers.clean_html_mapper import CleanHtmlMapper
from repro.ops.mappers.clean_ip_mapper import CleanIpMapper
from repro.ops.mappers.clean_links_mapper import CleanLinksMapper
from repro.ops.mappers.fix_unicode_mapper import FixUnicodeMapper
from repro.ops.mappers.punctuation_normalization_mapper import PunctuationNormalizationMapper
from repro.ops.mappers.remove_non_printable_mapper import RemoveNonPrintableMapper
from repro.ops.mappers.whitespace_normalization_mapper import WhitespaceNormalizationMapper


def text_of(mapper, text):
    return mapper.process({"text": text})["text"]


class TestCleanEmail:
    def test_removes_addresses(self):
        assert text_of(CleanEmailMapper(), "contact me at user.name+tag@example.co.uk today") == (
            "contact me at  today"
        )

    def test_replacement_token(self):
        assert "[EMAIL]" in text_of(CleanEmailMapper(repl="[EMAIL]"), "a@b.com wrote")

    def test_leaves_plain_text_alone(self):
        assert text_of(CleanEmailMapper(), "no addresses here") == "no addresses here"


class TestCleanLinks:
    def test_removes_http_and_www(self):
        cleaned = text_of(CleanLinksMapper(), "see https://a.example.com/x?y=1 and www.b.org/page")
        assert "example.com" not in cleaned and "b.org" not in cleaned

    def test_removes_ftp(self):
        assert "ftp" not in text_of(CleanLinksMapper(), "get it from ftp://files.example.com/a.zip")

    def test_keeps_surrounding_words(self):
        assert text_of(CleanLinksMapper(), "before http://x.com after").split() == ["before", "after"]


class TestCleanIp:
    def test_removes_ipv4(self):
        assert "192.168.0.1" not in text_of(CleanIpMapper(), "server at 192.168.0.1 responded")

    def test_removes_ipv6(self):
        assert "2001" not in text_of(CleanIpMapper(), "addr 2001:0db8:85a3:0000:0000:8a2e:0370:7334 ok")

    def test_does_not_touch_version_numbers(self):
        assert text_of(CleanIpMapper(), "version 1.2.3 released") == "version 1.2.3 released"


class TestCleanHtml:
    def test_strips_tags_and_entities(self):
        cleaned = text_of(CleanHtmlMapper(), "<p>Tom &amp; Jerry</p>")
        assert cleaned == "Tom & Jerry"

    def test_drops_script_blocks(self):
        cleaned = text_of(CleanHtmlMapper(), "<script>var x=1;</script><p>content</p>")
        assert "var x" not in cleaned and "content" in cleaned

    def test_block_tags_become_newlines(self):
        cleaned = text_of(CleanHtmlMapper(), "<p>one</p><p>two</p>")
        assert "one" in cleaned.splitlines()[0] and "two" in cleaned.splitlines()[-1]


class TestCleanCopyright:
    def test_removes_block_comment_with_copyright(self):
        code = "/* Copyright (c) 2020 Corp. All rights reserved. */\nint main() {}"
        assert "Copyright" not in text_of(CleanCopyrightMapper(), code)

    def test_removes_leading_hash_license_lines(self):
        code = "# Copyright 2021 Example\n# Licensed under Apache-2.0\nx = 1\n"
        assert text_of(CleanCopyrightMapper(), code).startswith("x = 1")

    def test_keeps_code_without_copyright(self):
        code = "def f():\n    return 1\n"
        assert text_of(CleanCopyrightMapper(), code) == code

    def test_keeps_non_leading_comments(self):
        code = "x = 1\n# regular comment\ny = 2\n"
        assert text_of(CleanCopyrightMapper(), code) == code


class TestUnicodeAndWhitespace:
    def test_fix_unicode_repairs_mojibake(self):
        assert text_of(FixUnicodeMapper(), "donâ€™t") == "don't"

    def test_fix_unicode_invalid_form_rejected(self):
        import pytest

        with pytest.raises(ValueError):
            FixUnicodeMapper(normalization="NFX")

    def test_whitespace_normalization_replaces_nbsp(self):
        assert text_of(WhitespaceNormalizationMapper(), "a b") == "a b"

    def test_whitespace_normalization_keeps_newlines(self):
        assert "\n" in text_of(WhitespaceNormalizationMapper(), "a\nb")

    def test_punctuation_normalization(self):
        assert text_of(PunctuationNormalizationMapper(), "你好，world！") == "你好,world!"

    def test_remove_non_printable(self):
        assert text_of(RemoveNonPrintableMapper(), "ab\x00c\x07d") == "abcd"

    def test_remove_non_printable_keeps_newline_tab(self):
        assert text_of(RemoveNonPrintableMapper(), "a\n\tb") == "a\n\tb"

    def test_punctuation_normalization_expands_to_several_chars(self):
        assert text_of(PunctuationNormalizationMapper(), "wait…１．") == 'wait...". '

    def test_remove_non_printable_keeps_separators(self):
        # a no-break space is a separator, not a control: it is not printable yet stays
        assert text_of(RemoveNonPrintableMapper(), "a\u00a0b\u2028c") == "a\u00a0b\u2028c"

    def test_remove_non_printable_drops_format_chars_beside_newlines(self):
        assert text_of(RemoveNonPrintableMapper(), "a\u200b\nb\u00adc\r\n") == "a\nbc\r\n"
