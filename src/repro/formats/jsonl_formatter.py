"""Formatters for JSON-lines and JSON array files (plain or gzip-compressed)."""

from __future__ import annotations

import itertools
import json
from pathlib import Path
from typing import Iterator, Sequence

from repro.core.base_op import Formatter
from repro.core.errors import FormatError
from repro.core.registry import FORMATTERS
from repro.core.sample import Fields
from repro.formats.sharded import ShardedFileFormatter, effective_suffix, open_shard
from repro.formats.source import LineShard


class JsonlFile:
    """One ``.jsonl`` shard file, and the one decode its lines go through."""

    def __init__(self, path: Path, text_keys: Sequence[str]):
        self.path = path
        self.suffix = effective_suffix(path)
        self.text_keys = text_keys

    def decode(self, line: str, number: int) -> dict:
        """The unified row of the stripped ``line`` at 1-based line ``number``.

        A non-object JSON value becomes the row's text.  Any change to what
        this returns must bump :data:`repro.formats.source.SOURCE_FORMAT`.
        """
        try:
            record = json.loads(line)
        except json.JSONDecodeError as error:
            raise FormatError(f"{self.path}:{number}: invalid JSON: {error}") from error
        if not isinstance(record, dict):
            record = {Fields.text: str(record)}
        record[Fields.suffix] = self.suffix
        return Formatter.unify_sample(record, self.text_keys)


@FORMATTERS.register_module("jsonl_formatter")
class JsonlFormatter(ShardedFileFormatter):
    """Load ``.jsonl`` shards: one JSON object per line, unified to the text schema.

    The dataset path may be a single file, a directory or a glob; every
    matching shard (including ``.jsonl.gz``) is streamed a block of lines at
    a time in sorted path order.  Lines are read first and decoded on demand
    (:meth:`iter_sources`), so a streaming run can name a shard by its lines.
    """

    SUFFIXES = (".jsonl", ".ndjson")

    #: characters read per block (``readlines`` size hint)
    BLOCK_CHARS = 1 << 16

    def iter_sources(self) -> Iterator[LineShard]:
        """Every non-blank line of every shard file, stripped, not yet decoded:
        one :class:`LineShard` per block read, no object per line."""
        for path in self.resolve_paths():
            decoder = JsonlFile(path, self.text_keys)
            number = 1
            with open_shard(path) as handle:
                while block := handle.readlines(self.BLOCK_CHARS):
                    stripped = list(map(str.strip, block))
                    lines = list(itertools.compress(stripped, stripped))
                    if lines:
                        numbers = range(number, number + len(block))
                        yield LineShard(lines, list(itertools.compress(numbers, stripped)),
                                        [(decoder, len(lines))])
                    number += len(block)

    def iter_records(self) -> Iterator[dict]:
        """Lazily decode every line into a unified sample."""
        for block in self.iter_sources():
            yield from block.iter_rows()


@FORMATTERS.register_module("json_formatter")
class JsonFormatter(ShardedFileFormatter):
    """Load ``.json`` files containing a list of records (or a single record).

    Each file is parsed whole (a JSON array is one document), but multi-file
    inputs still stream file by file.
    """

    SUFFIXES = (".json",)

    def iter_file_records(self, path: Path) -> Iterator[dict]:
        """Lazily yield the records of one JSON-array (or object) file."""
        suffix = effective_suffix(path)
        try:
            with open_shard(path) as handle:
                payload = json.load(handle)
        except json.JSONDecodeError as error:
            raise FormatError(f"{path}: invalid JSON: {error}") from error
        if isinstance(payload, dict):
            payload = [payload]
        if not isinstance(payload, list):
            raise FormatError(f"{path}: expected a JSON list or object at top level")
        for record in payload:
            if not isinstance(record, dict):
                record = {Fields.text: str(record)}
            record[Fields.suffix] = suffix
            yield record
