"""Exporter: write processed datasets back to disk (jsonl / json / txt).

Writing is *streaming* throughout: rows are serialised one at a time, never
materialised as an intermediate list, and ``.gz`` targets are compressed on
the fly with deterministic gzip headers.  With a shard budget
(``shard_rows`` / ``shard_chars``) the exporter rolls size-capped output
shards — ``out.jsonl.gz`` becomes ``out-00001.jsonl.gz``, ``out-00002...`` —
which is how the streaming run mode keeps the output side of the pipeline
out-of-core as well.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import IO, Iterable, Iterator

from repro.core.dataset import NestedDataset
from repro.core.errors import ReproError
from repro.core.sample import (
    Fields,
    internal_fields,
    is_internal,
    stats_folder,
    strip_internal_fields,
)
from repro.core.serialization import JsonSanitizer


class Exporter:
    """Export a processed dataset (or row stream) to one or more target files.

    ``export_format`` is inferred from the target suffix when not given (a
    trailing ``.gz`` means gzip compression of the inner format);
    ``keep_stats`` controls whether the per-sample stats column survives in
    the exported records (with ``empty_stats`` — the rows were read from a
    file — a row with none exports ``__stats__: {}``).  ``shard_rows`` /
    ``shard_chars`` cap each output shard — when either is set, numbered
    shard files are written instead of one monolithic target (jsonl and txt
    formats only).
    """

    SUPPORTED = ("jsonl", "json", "txt")
    GZIP_SUFFIX = ".gz"

    def __init__(
        self,
        export_path: str | Path,
        export_format: str | None = None,
        keep_stats: bool = False,
        shard_rows: int | None = None,
        shard_chars: int | None = None,
        empty_stats: bool = False,
    ):
        self.export_path = Path(export_path)
        suffixes = self.export_path.suffixes
        self.compress = bool(suffixes) and suffixes[-1] == self.GZIP_SUFFIX
        if export_format is None:
            inner = suffixes[-2] if self.compress and len(suffixes) > 1 else self.export_path.suffix
            inner = inner.lstrip(".")
            export_format = inner if inner in self.SUPPORTED else "jsonl"
        if export_format not in self.SUPPORTED:
            raise ReproError(
                f"unsupported export format {export_format!r}; choose from {self.SUPPORTED}"
            )
        self.export_format = export_format
        self.keep_stats = keep_stats
        self.empty_stats = keep_stats and empty_stats
        self.shard_rows = shard_rows
        self.shard_chars = shard_chars
        if self.sharded and export_format == "json":
            raise ReproError(
                "sharded export requires a line-oriented format (jsonl/txt); "
                "a JSON array cannot be split across shards"
            )

    # ------------------------------------------------------------------
    @property
    def sharded(self) -> bool:
        """True when output is split into numbered size-capped shards."""
        return self.shard_rows is not None or self.shard_chars is not None

    def shard_path(self, shard_index: int) -> Path:
        """Path of the ``shard_index``-th output shard (1-based numbering)."""
        name = self.export_path.name
        suffix_chain = "".join(self.export_path.suffixes)
        stem = name[: len(name) - len(suffix_chain)] if suffix_chain else name
        return self.export_path.with_name(f"{stem}-{shard_index:05d}{suffix_chain}")

    def _open(self, path: Path) -> IO[str]:
        from repro.formats.sharded import open_shard

        return open_shard(path, "w")

    # ------------------------------------------------------------------
    def export(self, dataset: NestedDataset) -> Path:
        """Write the dataset and return the first path actually written.

        For a monolithic export that is ``export_path`` itself; for a sharded
        exporter it is the first numbered shard (``export_path`` is then a
        naming template, never a file on disk).
        """
        return self.export_stream(self.rows(dataset))[0]

    def rows(self, dataset: NestedDataset) -> Iterator[dict]:
        """The dataset's rows as exported: its internal columns dropped once, and
        kept stats folded into one ``__stats__`` dict per row (the row view's)."""
        drop = [name for name in dataset.column_names if is_internal(name, self.keep_stats)]
        rows = iter(dataset.remove_columns(drop) if drop else dataset)
        if self.empty_stats and stats_folder(dataset.column_names) is None:
            return ({**row, Fields.stats: {}} for row in rows)
        return rows

    def export_stream(self, rows: Iterable[dict]) -> list[Path]:
        """Stream rows to disk, returning every path written.

        Rows are stripped of internal bookkeeping fields (a row from :meth:`rows`
        has none and is not copied) and explicitly sanitised (one
        :class:`~repro.core.serialization.SerializationWarning` per export
        names any keys whose values were not JSON-safe).
        """
        self.export_path.parent.mkdir(parents=True, exist_ok=True)
        sanitizer = JsonSanitizer()
        internal = internal_fields(self.keep_stats)
        stripped = (
            row if internal.isdisjoint(row) else strip_internal_fields(row, self.keep_stats)
            for row in rows
        )
        if self.export_format == "json":
            paths = [self._write_json_array(stripped, sanitizer)]
        elif self.sharded:
            paths = self._write_shards(stripped, sanitizer)
        else:
            with self._open(self.export_path) as handle:
                for row in stripped:
                    handle.write(self._encode(row, sanitizer) + "\n")
            paths = [self.export_path]
        sanitizer.warn(f"export {self.export_path}")
        return paths

    def _encode(self, row: dict, sanitizer: JsonSanitizer) -> str:
        if self.export_format == "txt":
            return str(row.get(Fields.text, ""))
        return sanitizer.dumps(row, ensure_ascii=False)

    def _write_shards(self, rows: Iterator[dict], sanitizer: JsonSanitizer) -> list[Path]:
        paths: list[Path] = []
        handle: IO[str] | None = None
        rows_in_shard = 0
        chars_in_shard = 0
        try:
            for row in rows:
                if handle is None:
                    paths.append(self.shard_path(len(paths) + 1))
                    handle = self._open(paths[-1])
                    rows_in_shard = chars_in_shard = 0
                line = self._encode(row, sanitizer)
                handle.write(line + "\n")
                rows_in_shard += 1
                chars_in_shard += len(line) + 1
                if (self.shard_rows is not None and rows_in_shard >= self.shard_rows) or (
                    self.shard_chars is not None and chars_in_shard >= self.shard_chars
                ):
                    handle.close()
                    handle = None
            if handle is None and not paths:
                # an empty stream still produces one (empty) shard so the
                # export location is never silently missing
                paths.append(self.shard_path(1))
                handle = self._open(paths[-1])
        finally:
            if handle is not None:
                handle.close()
        # drop stale higher-numbered shards from a previous (larger) export:
        # consumers load the whole directory/glob, so leftovers would silently
        # concatenate old rows with the fresh output
        stale_index = len(paths) + 1
        while True:
            stale = self.shard_path(stale_index)
            if not stale.exists():
                break
            stale.unlink()
            stale_index += 1
        return paths

    def _write_json_array(self, rows: Iterator[dict], sanitizer: JsonSanitizer) -> Path:
        """Stream a pretty-printed JSON array without materialising the rows.

        Byte-identical to ``json.dumps(list(rows), ensure_ascii=False,
        indent=2)``: each element is encoded independently and re-indented
        under the array.
        """
        with self._open(self.export_path) as handle:
            first = True
            for row in rows:
                handle.write("[\n" if first else ",\n")
                first = False
                encoded = sanitizer.dumps(row, ensure_ascii=False, indent=2)
                handle.write("\n".join("  " + line for line in encoded.splitlines()))
            handle.write("[]" if first else "\n]")
        return self.export_path
