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
from repro.formats.source import LineRecord


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
    matching shard (including ``.jsonl.gz``) is streamed line by line in
    sorted path order.  Lines are read first and decoded on demand
    (:meth:`iter_sources`), so a streaming run can name a shard by its lines.
    """

    SUFFIXES = (".jsonl", ".ndjson")

    def _lines(self) -> Iterator[tuple[str, int, JsonlFile]]:
        """``(stripped line, line number, file)`` of every non-blank line."""
        for path in self.resolve_paths():
            decoder = JsonlFile(path, self.text_keys)
            with open_shard(path) as handle:
                for number, line in enumerate(handle, start=1):
                    line = line.strip()
                    if line:
                        yield line, number, decoder

    def iter_sources(self) -> Iterator[LineRecord]:
        """Every non-blank line of every shard file, stripped, not yet decoded."""
        return itertools.starmap(LineRecord, self._lines())

    def iter_records(self) -> Iterator[dict]:
        """Lazily decode every line into a unified sample."""
        for line, number, decoder in self._lines():
            yield decoder.decode(line, number)


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
