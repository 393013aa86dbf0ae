"""Tests for formatters: jsonl/json/csv/tsv/text/code loading, dispatch and mixing."""

import gzip
import hashlib
import json
import re
from pathlib import Path

import pytest

from repro.core.dataset import NestedDataset
from repro.core.errors import FormatError
from repro.core.sample import Fields
from repro.core.stream import decode_shard, iter_record_shards
from repro.formats.csv_formatter import CsvFormatter, TsvFormatter
from repro.formats.jsonl_formatter import JsonFormatter, JsonlFormatter
from repro.formats.load import load_dataset, load_formatter
from repro.formats.mixture_formatter import MixtureFormatter, largest_remainder_allocation, mix_datasets
from repro.formats.sharded import ShardedSource, effective_suffix, open_shard
from repro.formats.source import SOURCE_FORMAT, LineShard, shard_signature
from repro.formats.text_formatter import CodeFormatter, MarkdownFormatter, TextFormatter
from repro.synth import wikipedia_like


class TestJsonlFormatter:
    def test_loads_and_unifies(self, tmp_path):
        path = tmp_path / "data.jsonl"
        path.write_text('{"text": "hello"}\n\n{"content": "fallback"}\n')
        dataset = JsonlFormatter(dataset_path=str(path)).load_dataset()
        assert len(dataset) == 2
        assert dataset[1][Fields.text] == "fallback"

    def test_suffix_recorded(self, tmp_path):
        path = tmp_path / "data.jsonl"
        path.write_text('{"text": "x"}\n')
        dataset = JsonlFormatter(dataset_path=str(path)).load_dataset()
        assert dataset[0][Fields.suffix] == ".jsonl"

    def test_invalid_json_line_raises(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text("{not json}\n")
        with pytest.raises(FormatError, match="invalid JSON"):
            JsonlFormatter(dataset_path=str(path)).load_dataset()

    def test_missing_file_raises(self, tmp_path):
        with pytest.raises(FormatError):
            JsonlFormatter(dataset_path=str(tmp_path / "missing.jsonl")).load_dataset()


class TestJsonFormatter:
    def test_loads_list(self, tmp_path):
        path = tmp_path / "data.json"
        path.write_text(json.dumps([{"text": "a"}, {"text": "b"}]))
        assert len(JsonFormatter(dataset_path=str(path)).load_dataset()) == 2

    def test_loads_single_object(self, tmp_path):
        path = tmp_path / "one.json"
        path.write_text(json.dumps({"text": "only"}))
        assert len(JsonFormatter(dataset_path=str(path)).load_dataset()) == 1

    def test_scalar_top_level_raises(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('"just a string"')
        with pytest.raises(FormatError):
            JsonFormatter(dataset_path=str(path)).load_dataset()


class TestDelimitedFormatters:
    def test_csv(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("text,label\nhello,1\nworld,2\n")
        dataset = CsvFormatter(dataset_path=str(path)).load_dataset()
        assert dataset[0][Fields.text] == "hello"
        assert dataset[1]["label"] == "2"

    def test_tsv(self, tmp_path):
        path = tmp_path / "data.tsv"
        path.write_text("text\tlabel\nhello\t1\n")
        dataset = TsvFormatter(dataset_path=str(path)).load_dataset()
        assert dataset[0][Fields.text] == "hello"

    def test_empty_csv_raises(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(FormatError):
            CsvFormatter(dataset_path=str(path)).load_dataset()


class TestFileFormatters:
    def test_text_directory(self, tmp_path):
        (tmp_path / "a.txt").write_text("first file")
        (tmp_path / "b.txt").write_text("second file")
        dataset = TextFormatter(dataset_path=str(tmp_path)).load_dataset()
        assert len(dataset) == 2
        assert dataset[0]["meta"]["source_file"].endswith(".txt")

    def test_single_text_file(self, tmp_path):
        path = tmp_path / "only.txt"
        path.write_text("content")
        assert len(TextFormatter(dataset_path=str(path)).load_dataset()) == 1

    def test_code_directory(self, tmp_path):
        (tmp_path / "m.py").write_text("def f():\n    return 1\n")
        dataset = CodeFormatter(dataset_path=str(tmp_path)).load_dataset()
        assert dataset[0][Fields.suffix] == ".py"

    def test_no_matching_files_raises(self, tmp_path):
        (tmp_path / "a.bin").write_text("x")
        with pytest.raises(FormatError):
            TextFormatter(dataset_path=str(tmp_path)).load_dataset()


class TestDispatch:
    def test_load_formatter_by_suffix(self, tmp_path):
        path = tmp_path / "d.jsonl"
        path.write_text('{"text": "x"}\n')
        assert isinstance(load_formatter(str(path)), JsonlFormatter)

    def test_load_dataset_convenience(self, tmp_path):
        path = tmp_path / "d.jsonl"
        path.write_text('{"text": "x"}\n')
        assert len(load_dataset(str(path))) == 1

    def test_directory_dispatch_by_majority_suffix(self, tmp_path):
        (tmp_path / "a.txt").write_text("a")
        (tmp_path / "b.txt").write_text("b")
        assert isinstance(load_formatter(str(tmp_path)), TextFormatter)

    def test_unknown_suffix_raises(self, tmp_path):
        path = tmp_path / "x.parquet"
        path.write_text("binaryish")
        with pytest.raises(FormatError):
            load_formatter(str(path))


class TestShardedSource:
    def test_effective_suffix_strips_gz(self):
        assert effective_suffix("shard.jsonl.gz") == ".jsonl"
        assert effective_suffix("shard.jsonl") == ".jsonl"
        assert effective_suffix("bare.gz") == ".gz"

    def test_directory_resolution_is_sorted_and_filtered(self, tmp_path):
        (tmp_path / "b.jsonl").write_text('{"text": "b"}\n')
        (tmp_path / "a.jsonl").write_text('{"text": "a"}\n')
        (tmp_path / "skip.bin").write_text("x")
        files = ShardedSource(tmp_path, suffixes=(".jsonl",)).files()
        assert [path.name for path in files] == ["a.jsonl", "b.jsonl"]

    def test_glob_resolution(self, tmp_path):
        (tmp_path / "shard-1.jsonl").write_text('{"text": "1"}\n')
        (tmp_path / "shard-2.jsonl").write_text('{"text": "2"}\n')
        (tmp_path / "other.jsonl").write_text('{"text": "o"}\n')
        files = ShardedSource(str(tmp_path / "shard-*.jsonl")).files()
        assert [path.name for path in files] == ["shard-1.jsonl", "shard-2.jsonl"]

    def test_missing_path_raises(self, tmp_path):
        with pytest.raises(FormatError, match="not found"):
            ShardedSource(tmp_path / "missing").files()

    def test_no_matching_suffix_raises(self, tmp_path):
        (tmp_path / "a.bin").write_text("x")
        with pytest.raises(FormatError):
            ShardedSource(tmp_path, suffixes=(".jsonl",)).files()

    def test_open_shard_gzip_round_trip(self, tmp_path):
        path = tmp_path / "data.jsonl.gz"
        with open_shard(path, "w") as handle:
            handle.write("hello\n")
        with open_shard(path) as handle:
            assert handle.read() == "hello\n"

    def test_gzip_bytes_are_deterministic(self, tmp_path):
        first, second = tmp_path / "a.jsonl.gz", tmp_path / "b.jsonl.gz"
        for path in (first, second):
            with open_shard(path, "w") as handle:
                handle.write("same content\n")
        assert first.read_bytes() == second.read_bytes()


class TestShardedRoundTrips:
    """Every formatter loads directory, glob and gzip inputs (satellite task)."""

    def _expect_texts(self, dataset, texts):
        assert [row[Fields.text] for row in dataset] == texts

    def test_jsonl_directory_glob_and_gzip(self, tmp_path):
        (tmp_path / "a.jsonl").write_text('{"text": "alpha"}\n')
        with gzip.open(tmp_path / "b.jsonl.gz", "wt", encoding="utf-8") as handle:
            handle.write('{"text": "beta"}\n')
        directory = JsonlFormatter(dataset_path=str(tmp_path)).load_dataset()
        self._expect_texts(directory, ["alpha", "beta"])
        assert directory[1][Fields.suffix] == ".jsonl"  # .gz envelope is transparent
        glob_ds = JsonlFormatter(dataset_path=str(tmp_path / "*.jsonl*")).load_dataset()
        self._expect_texts(glob_ds, ["alpha", "beta"])
        gz_only = JsonlFormatter(dataset_path=str(tmp_path / "b.jsonl.gz")).load_dataset()
        self._expect_texts(gz_only, ["beta"])

    def test_json_directory_glob_and_gzip(self, tmp_path):
        (tmp_path / "a.json").write_text(json.dumps([{"text": "one"}, {"text": "two"}]))
        with gzip.open(tmp_path / "b.json.gz", "wt", encoding="utf-8") as handle:
            handle.write(json.dumps({"text": "three"}))
        directory = JsonFormatter(dataset_path=str(tmp_path)).load_dataset()
        self._expect_texts(directory, ["one", "two", "three"])
        glob_ds = JsonFormatter(dataset_path=str(tmp_path / "*.json*")).load_dataset()
        assert len(glob_ds) == 3

    def test_csv_and_tsv_directory_glob_and_gzip(self, tmp_path):
        (tmp_path / "a.csv").write_text("text,label\nfirst,1\n")
        with gzip.open(tmp_path / "b.csv.gz", "wt", encoding="utf-8") as handle:
            handle.write("text,label\nsecond,2\n")
        directory = CsvFormatter(dataset_path=str(tmp_path)).load_dataset()
        self._expect_texts(directory, ["first", "second"])
        glob_ds = CsvFormatter(dataset_path=str(tmp_path / "*.csv*")).load_dataset()
        assert len(glob_ds) == 2

        tsv_dir = tmp_path / "tsv"
        tsv_dir.mkdir()
        (tsv_dir / "a.tsv").write_text("text\tlabel\nalpha\t1\n")
        with gzip.open(tsv_dir / "b.tsv.gz", "wt", encoding="utf-8") as handle:
            handle.write("text\tlabel\nbeta\t2\n")
        self._expect_texts(TsvFormatter(dataset_path=str(tsv_dir)).load_dataset(), ["alpha", "beta"])

    def test_text_markdown_code_directory_glob_and_gzip(self, tmp_path):
        (tmp_path / "a.txt").write_text("plain one")
        with gzip.open(tmp_path / "b.txt.gz", "wt", encoding="utf-8") as handle:
            handle.write("plain two")
        directory = TextFormatter(dataset_path=str(tmp_path)).load_dataset()
        self._expect_texts(directory, ["plain one", "plain two"])
        glob_ds = TextFormatter(dataset_path=str(tmp_path / "*.txt*")).load_dataset()
        assert len(glob_ds) == 2

        (tmp_path / "doc.md").write_text("# heading")
        self._expect_texts(
            MarkdownFormatter(dataset_path=str(tmp_path)).load_dataset(), ["# heading"]
        )
        (tmp_path / "mod.py").write_text("x = 1\n")
        self._expect_texts(CodeFormatter(dataset_path=str(tmp_path)).load_dataset(), ["x = 1\n"])

    def test_iter_records_is_lazy(self, tmp_path):
        (tmp_path / "a.jsonl").write_text('{"text": "ok"}\n{not json}\n')
        iterator = JsonlFormatter(dataset_path=str(tmp_path / "a.jsonl")).iter_records()
        first = next(iterator)
        assert first[Fields.text] == "ok"
        with pytest.raises(FormatError, match="invalid JSON"):
            next(iterator)


class TestSourceRecords:
    """The ``.jsonl`` formatter reads lines first and decodes them on demand."""

    FIXTURE = Path(__file__).parent / "fixtures" / "source"

    def test_decoded_rows_are_pinned_to_the_source_format(self):
        # blank lines, non-dict lines, a .gz shard, and a missing text
        # promoted through text_keys: every rule the line decode applies
        formatter = load_formatter(str(self.FIXTURE), text_keys=("content",))
        rows = list(formatter.iter_records())
        digest = hashlib.sha256(json.dumps(rows, sort_keys=True).encode("utf-8")).hexdigest()
        assert (SOURCE_FORMAT, digest) == (
            4, "9e8fca1ae0490be22e880e320e4a822703bdc05c1dcfb0e918394ebf84384591"
        ), (
            "the rows a .jsonl line decodes to changed: shard entries signed by "
            "their source lines would replay stale rows. Bump SOURCE_FORMAT in "
            "repro/formats/source.py, then re-pin this digest."
        )

    def test_a_record_without_a_string_field_gets_empty_text(self, tmp_path):
        path = tmp_path / "a.jsonl"
        path.write_text('{"id": 7}\n{"id": 8, "tags": ["x"]}\n')
        rows = list(JsonlFormatter(dataset_path=str(path)).iter_records())
        # the formatter's own __suffix__ is no text of the record
        assert [(row[Fields.text], row[Fields.suffix]) for row in rows] == [
            ("", ".jsonl"), ("", ".jsonl")
        ]

    def test_lines_decode_only_on_demand(self, tmp_path):
        path = tmp_path / "a.jsonl"
        path.write_text('  {"text": "ok"}  \n\n{not json}\n')
        [block] = JsonlFormatter(dataset_path=str(path)).iter_sources()
        assert isinstance(block, LineShard) and block.rows is None
        assert (block.lines, block.numbers) == (['{"text": "ok"}', "{not json}"], [1, 3])
        rows = block.iter_rows()
        assert next(rows)[Fields.text] == "ok"
        with pytest.raises(FormatError, match=r"a\.jsonl:3: invalid JSON"):
            next(rows)
        assert block.rows is None

    # a UTF-8 BOM, CRLF and lone-CR line ends, blank and whitespace-only
    # lines, trailing and leading spaces, a non-dict line and a promoted key
    EDGE_LINES = (
        "\ufeff" '{"text": "BOM first row", "id": 0}\r\n'
        '{"text": "crlf row  ", "id": 1}  \r\n'
        "\r\n"
        "   \t  \n"
        '{"text": "lone cr", "id": 2}\r'
        '{"text": "trailing spaces", "id": 3}     \n'
        '{"content": "promoted", "id": 4}\n'
        "\n"
        '"a bare string"\r\n'
        '{"text": "\u00fcn\u00efc\u00f6d\u00e9 \u2713", "id": 6, "meta": {"k": [1, 2]}}\r'
        "  \r"
        '{"text": "x", "id": 7}\n'
        '{"text": "a somewhat longer row of text to cross a budget", "id": 8}\n'
        '   {"text": "leading spaces", "id": 9}\n'
        '{"id": 10}\n'
    )
    ONE_FILE_ROWS = [
        (7, "c323c9b9e66111dedb7623a1422ba2a4072a4059"),
        (4, "76f5b0666f2831cc3ccffa21510fb6830e51f339"),
    ]
    ONE_FILE_CHARS = [
        (4, "73cf47ef0f3e6b0b9df97d2265e08a64518162d3"),
        (5, "b7bbd1b9ee4b86f777e465a02a8b947c28552d89"),
        (2, "f919f0dc63a21b8ee454a591524e8a1d67f60c8e"),
    ]
    #: (shard rows, signature) per stage-0 shard, computed before
    #: ``LineShard`` replaced the per-line records (the signatures re-pinned,
    #: the cuts unchanged, when ``SOURCE_FORMAT`` went 3 -> 4): every store key holds
    PINNED_SIGNATURES = {
        ("edge.jsonl", "max_rows"): ONE_FILE_ROWS,
        ("edge.jsonl", "max_chars"): ONE_FILE_CHARS,
        ("edge.jsonl.gz", "max_rows"): ONE_FILE_ROWS,
        ("edge.jsonl.gz", "max_chars"): ONE_FILE_CHARS,
        ("same", "max_rows"): [
            (7, "c323c9b9e66111dedb7623a1422ba2a4072a4059"),
            (7, "f3ee3cb4768c6da9677054c2dbea99c8b48299f8"),
            (7, "ec7ffb030d36ec19f83a501f163ebaea1785839f"),
            (1, "adce675ee569955658311b17f6a5f1bba570db88"),
        ],
        ("same", "max_chars"): [
            (4, "73cf47ef0f3e6b0b9df97d2265e08a64518162d3"),
            (5, "b7bbd1b9ee4b86f777e465a02a8b947c28552d89"),
            (5, "82b72a5b94e4ef59fd5daba1ea6d2421fbddf0f9"),
            (4, "081ab4cdaadc335e42bd80fa90f8e5f2b75e3e84"),
            (2, "96c6fa33acbfad54a475eb183fd70302fe5bc93b"),
            (2, "f919f0dc63a21b8ee454a591524e8a1d67f60c8e"),
        ],
        ("mixed", "max_rows"): [
            (7, "c323c9b9e66111dedb7623a1422ba2a4072a4059"),
            (7, "668bfb57b867046725d6fe349364cda1a72167e4"),
            (7, "d12ebb9d4f775e565a65e611e6e80693b49e6af7"),
            (1, "1b9cac4eda10d51515631d2ee835f3804405ed44"),
        ],
        ("mixed", "max_chars"): [
            (4, "73cf47ef0f3e6b0b9df97d2265e08a64518162d3"),
            (5, "b7bbd1b9ee4b86f777e465a02a8b947c28552d89"),
            (5, "a4bf1b0e0c9e476a16b2ae349c192ce7c2ddc806"),
            (4, "05ca425545f2bf26681aa9187f8bb626487de407"),
            (2, "687e852013c61f959db101fb3d2689ca3ddad962"),
            (2, "9a531c9bba1aa9c68705591db79bff8675a740a0"),
        ],
    }

    @classmethod
    def write_edge_inputs(cls, root: Path) -> None:
        """``edge.jsonl`` and ``edge.jsonl.gz``, and two-file directories of
        the same lines: ``same`` (one suffix) and ``mixed`` (.jsonl + .ndjson.gz)."""
        data = cls.EDGE_LINES.encode("utf-8")

        def write(path: Path) -> None:
            path.write_bytes(gzip.compress(data, mtime=0) if path.suffix == ".gz" else data)

        write(root / "edge.jsonl")
        write(root / "edge.jsonl.gz")
        for directory, second in (("same", "b.jsonl"), ("mixed", "b.ndjson.gz")):
            (root / directory).mkdir()
            write(root / directory / "a.jsonl")
            write(root / directory / second)

    @pytest.mark.parametrize("spec, budget", sorted(PINNED_SIGNATURES))
    def test_stage0_shard_signatures_are_pinned(self, tmp_path, spec, budget):
        self.write_edge_inputs(tmp_path)
        formatter = JsonlFormatter(dataset_path=str(tmp_path / spec), text_keys=("content",))
        limit = {"max_rows": 7, "max_chars": 40}[budget]
        shards = list(iter_record_shards(formatter.iter_sources(), **{budget: limit}))
        signed = [(len(shard), shard_signature(formatter.name, ["content"], shard))
                  for shard in shards]
        assert signed == self.PINNED_SIGNATURES[spec, budget]
        # the shards cut and decode like the rows the formatter reads
        by_rows = list(iter_record_shards(formatter.iter_records(), **{budget: limit}))
        assert [decode_shard(shard).to_list() for shard in shards] == [
            NestedDataset.from_list(chunk).to_list() for chunk in by_rows
        ]

    @pytest.mark.parametrize("name", ["bad.jsonl", "bad.jsonl.gz"])
    def test_an_invalid_line_is_named_by_its_file_line(self, tmp_path, name):
        text = '{"text": "a"}\r\n\n   \n{"text": "b"}\r{not json}\n{"text": "c"}\n'
        with open_shard(tmp_path / name, "w") as handle:
            handle.write(text)
        formatter = JsonlFormatter(dataset_path=str(tmp_path / name))
        pattern = re.escape(f"{name}:5: invalid JSON")
        with pytest.raises(FormatError, match=pattern):
            list(formatter.iter_records())
        [shard] = iter_record_shards(formatter.iter_sources(), max_rows=7)
        assert shard.numbers == [1, 4, 5, 6]
        with pytest.raises(FormatError, match=pattern):
            decode_shard(shard)

    @pytest.mark.parametrize(
        "name, content",
        [
            ("data.jsonl", '{"text": "alpha"}\n{"text": "beta"}\n'),
            ("data.jsonl.gz", '{"text": "alpha"}\n{"text": "beta"}\n'),
            ("data.csv", "text,label\nalpha,1\nbeta,2\n"),
            ("data.txt", "alpha and beta"),
        ],
    )
    def test_a_utf8_bom_loads_like_no_bom(self, tmp_path, name, content):
        plain, marked = tmp_path / "plain", tmp_path / "bom"
        for directory, prefix in ((plain, ""), (marked, "\ufeff")):
            directory.mkdir()
            with open_shard(directory / name, "w") as handle:
                handle.write(prefix + content)
        def rows(directory):
            # a text file's meta names its path, the one thing that differs
            return [
                {key: value for key, value in row.items() if key != Fields.meta}
                for row in load_dataset(str(directory / name)).to_list()
            ]

        expected = rows(plain)
        assert rows(marked) == expected
        assert "\ufeff" not in json.dumps(expected, ensure_ascii=False)


class TestDirectoryDispatch:
    def test_directory_of_jsonl_loads_end_to_end(self, tmp_path):
        """Regression: directories used to crash with a raw IsADirectoryError."""
        (tmp_path / "a.jsonl").write_text('{"text": "alpha"}\n')
        (tmp_path / "b.jsonl").write_text('{"text": "beta"}\n')
        dataset = load_dataset(str(tmp_path))
        assert sorted(row[Fields.text] for row in dataset) == ["alpha", "beta"]

    def test_majority_unloadable_suffix_does_not_win(self, tmp_path):
        """Regression: the most common suffix used to win even when unloadable."""
        (tmp_path / "a.parquet").write_text("binary-ish")
        (tmp_path / "b.parquet").write_text("binary-ish")
        (tmp_path / "c.parquet").write_text("binary-ish")
        (tmp_path / "d.jsonl").write_text('{"text": "only loadable"}\n')
        dataset = load_dataset(str(tmp_path))
        assert len(dataset) == 1
        assert dataset[0][Fields.text] == "only loadable"

    def test_no_loadable_suffix_raises_format_error(self, tmp_path):
        (tmp_path / "a.parquet").write_text("x")
        with pytest.raises(FormatError, match="no loadable files"):
            load_formatter(str(tmp_path))

    def test_glob_dispatch(self, tmp_path):
        (tmp_path / "s1.jsonl").write_text('{"text": "a"}\n')
        (tmp_path / "s2.jsonl.gz").write_bytes(
            gzip.compress(b'{"text": "b"}\n')
        )
        dataset = load_dataset(str(tmp_path / "s*.jsonl*"))
        assert sorted(row[Fields.text] for row in dataset) == ["a", "b"]

    def test_gz_file_dispatches_on_inner_suffix(self, tmp_path):
        path = tmp_path / "data.jsonl.gz"
        path.write_bytes(gzip.compress(b'{"text": "zipped"}\n'))
        assert isinstance(load_formatter(str(path)), JsonlFormatter)


class TestMixtureFormatter:
    def test_weights_control_composition(self):
        heavy = wikipedia_like(num_samples=60, seed=1)
        light = wikipedia_like(num_samples=60, seed=2)
        mixed = mix_datasets({"heavy": heavy, "light": light}, {"heavy": 0.9, "light": 0.1},
                             max_samples=60, seed=0)
        sources = [row[Fields.source] for row in mixed]
        assert sources.count("heavy") > sources.count("light")

    def test_max_samples_respected(self):
        data = wikipedia_like(num_samples=50, seed=3)
        mixed = mix_datasets({"a": data}, {"a": 1.0}, max_samples=10)
        assert len(mixed) <= 11

    def test_weight_sequence_accepted(self):
        data = wikipedia_like(num_samples=10, seed=4)
        mixed = mix_datasets({"a": data, "b": data}, [1.0, 1.0])
        assert len(mixed) > 0

    def test_requires_datasets(self):
        with pytest.raises(FormatError):
            MixtureFormatter().load_dataset()

    def test_rejects_all_zero_weights(self):
        data = wikipedia_like(num_samples=5, seed=5)
        with pytest.raises(FormatError):
            MixtureFormatter(datasets={"a": data}, weights={"a": 0.0}).load_dataset()

    def test_deterministic_given_seed(self):
        data = wikipedia_like(num_samples=30, seed=6)
        first = mix_datasets({"a": data}, {"a": 1.0}, max_samples=10, seed=2)
        second = mix_datasets({"a": data}, {"a": 1.0}, max_samples=10, seed=2)
        assert first.to_list() == second.to_list()

    def test_max_samples_never_overshoots(self):
        """Regression: per-source rounding summed to more than max_samples."""
        heavy = wikipedia_like(num_samples=40, seed=7)
        light = wikipedia_like(num_samples=40, seed=8)
        mixed = mix_datasets(
            {"a": heavy, "b": light}, {"a": 0.5, "b": 0.5}, max_samples=7, seed=0
        )
        assert len(mixed) == 7  # int(round(3.5)) + int(round(3.5)) was 8

    @pytest.mark.parametrize("max_samples", [1, 3, 7, 10, 23])
    def test_takes_sum_exactly_to_target(self, max_samples):
        sources = {name: wikipedia_like(num_samples=30, seed=index) for index, name in enumerate("abc")}
        mixed = mix_datasets(sources, {"a": 0.33, "b": 0.33, "c": 0.34}, max_samples=max_samples)
        assert len(mixed) == max_samples

    def test_capacity_caps_without_respill(self):
        """Weights stay sampling proportions: an exhausted source under-fills
        its quota instead of inflating the other sources' shares."""
        small = wikipedia_like(num_samples=2, seed=9)
        big = wikipedia_like(num_samples=50, seed=10)
        mixed = mix_datasets({"small": small, "big": big}, {"small": 0.9, "big": 0.1},
                             max_samples=20, seed=0)
        sources = [row[Fields.source] for row in mixed]
        assert sources.count("small") == 2  # quota 18, capped by capacity
        assert sources.count("big") == 2  # quota 2, unaffected by the cap

    def test_lazy_iter_records_matches_load(self):
        data = wikipedia_like(num_samples=20, seed=11)
        formatter = MixtureFormatter(datasets={"a": data}, weights={"a": 1.0}, max_samples=10, seed=3)
        assert list(formatter.iter_records()) == formatter.load_dataset().to_list()


class TestLargestRemainderAllocation:
    def test_classic_overshoot_case(self):
        assert largest_remainder_allocation(7, [0.5, 0.5], [100, 100]) == [4, 3]

    def test_capacity_caps_each_quota(self):
        assert largest_remainder_allocation(100, [0.5, 0.5], [10, 20]) == [10, 20]

    def test_zero_total(self):
        assert largest_remainder_allocation(0, [1.0], [5]) == [0]

    def test_proportions_respected(self):
        assert largest_remainder_allocation(10, [0.9, 0.1], [100, 100]) == [9, 1]

    def test_exhausted_source_does_not_inflate_others(self):
        assert largest_remainder_allocation(20, [0.9, 0.1], [2, 100]) == [2, 2]
