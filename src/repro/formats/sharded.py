"""Sharded input resolution: directories, globs and compressed shards.

Production corpora rarely arrive as one file — they come as directories of
``shard-00000.jsonl.gz``-style pieces.  :class:`ShardedSource` unifies the
three ways of naming such an input (a single file, a directory, a glob
pattern) into one ordered file list, understands ``.gz`` compression as a
transparent envelope (the *effective* suffix of ``docs.jsonl.gz`` is
``.jsonl``), and opens every shard through one gzip-aware code path.

:class:`ShardedFileFormatter` builds on it: concrete file formatters only
implement :meth:`~ShardedFileFormatter.iter_file_records` for a single shard
and inherit lazy multi-file iteration (``iter_records``) plus the materialised
``load_dataset`` view.
"""

from __future__ import annotations

import glob as _glob
import gzip
import io
from pathlib import Path
from typing import IO, Iterator, Sequence

from repro.core.base_op import Formatter
from repro.core.dataset import NestedDataset
from repro.core.errors import FormatError

#: compression envelope recognised on any shard file
GZIP_SUFFIX = ".gz"

_GLOB_CHARS = ("*", "?", "[")


def effective_suffix(path: str | Path) -> str:
    """File-type suffix with the ``.gz`` envelope stripped.

    ``docs.jsonl.gz`` → ``.jsonl``; ``docs.jsonl`` → ``.jsonl``; a bare
    ``docs.gz`` has no inner suffix and reports ``.gz`` itself.
    """
    path = Path(path)
    if path.suffix == GZIP_SUFFIX:
        inner = Path(path.stem).suffix
        return inner or GZIP_SUFFIX
    return path.suffix


class _GzipTextWriter(io.TextIOWrapper):
    """Text writer over a deterministic gzip stream.

    ``GzipFile`` is constructed with an empty embedded filename and a zeroed
    mtime so identical content produces identical bytes — exports and spill
    shards stay byte-reproducible across runs and paths.  Closing the wrapper
    also closes the raw file handle (``GzipFile`` never closes a borrowed
    ``fileobj`` itself).
    """

    def __init__(self, path: Path, newline: str | None = None):
        self._raw = open(path, "wb")
        try:
            compressed = gzip.GzipFile(filename="", mode="wb", fileobj=self._raw, mtime=0)
        except Exception:
            self._raw.close()
            raise
        super().__init__(compressed, encoding="utf-8", newline=newline)

    def close(self) -> None:
        """Flush and close the text wrapper, then the underlying gzip stream."""
        try:
            super().close()
        finally:
            if not self._raw.closed:
                self._raw.close()


def open_shard(
    path: str | Path,
    mode: str = "r",
    newline: str | None = None,
    errors: str | None = None,
) -> IO[str]:
    """Open a shard for text I/O, transparently (de)compressing ``.gz`` files.

    Reading skips a leading UTF-8 byte-order mark; writing never emits one.
    """
    path = Path(path)
    if path.suffix == GZIP_SUFFIX:
        if "w" in mode:
            return _GzipTextWriter(path, newline=newline)
        return gzip.open(path, "rt", encoding="utf-8-sig", newline=newline, errors=errors)
    encoding = "utf-8-sig" if "r" in mode else "utf-8"
    return open(path, mode, encoding=encoding, newline=newline, errors=errors)


def is_glob(spec: str) -> bool:
    """True when the path spec contains glob magic characters."""
    return any(char in spec for char in _GLOB_CHARS)


class ShardedSource:
    """An ordered list of shard files behind one path spec.

    The spec may be a single file, a directory (all files underneath,
    recursively) or a glob pattern (``data/shard-*.jsonl.gz``).  ``suffixes``
    restricts the match to the given *effective* suffixes, so ``.jsonl``
    accepts both ``a.jsonl`` and ``a.jsonl.gz``.  Files are returned sorted
    by path, making shard order — and therefore sample order — deterministic.
    """

    def __init__(self, spec: str | Path, suffixes: Sequence[str] | None = None):
        self.spec = str(spec)
        self.suffixes = tuple(suffixes) if suffixes else None

    def _matches(self, path: Path) -> bool:
        return self.suffixes is None or effective_suffix(path) in self.suffixes

    def files(self) -> list[Path]:
        """Resolve the spec to its sorted shard files.

        Raises :class:`FormatError` when the spec names nothing, or when it
        names files but none carry an accepted suffix.
        """
        path = Path(self.spec)
        if path.is_file():
            if not self._matches(path):
                raise FormatError(
                    f"{path}: suffix {effective_suffix(path)!r} not in {self.suffixes}"
                )
            return [path]
        if path.is_dir():
            candidates = sorted(child for child in path.rglob("*") if child.is_file())
            where: str | Path = path
        elif is_glob(self.spec):
            candidates = sorted(
                Path(match) for match in _glob.glob(self.spec, recursive=True)
                if Path(match).is_file()
            )
            where = self.spec
        else:
            raise FormatError(f"path not found: {path}")
        if not candidates:
            raise FormatError(f"no files found under {where}")
        matched = [candidate for candidate in candidates if self._matches(candidate)]
        if not matched:
            raise FormatError(
                f"no files with suffixes {self.suffixes} under {where}"
            )
        return matched

    def suffix_counts(self) -> dict[str, int]:
        """Histogram of effective suffixes over every file the spec names."""
        counts: dict[str, int] = {}
        unfiltered = ShardedSource(self.spec)
        for path in unfiltered.files():
            suffix = effective_suffix(path)
            counts[suffix] = counts.get(suffix, 0) + 1
        return counts


class ShardedFileFormatter(Formatter):
    """Base of every file-backed formatter: sharded inputs, lazy records.

    Subclasses implement :meth:`iter_file_records` (raw records of one shard
    file) and inherit:

    * :meth:`resolve_paths` — the spec resolved via :class:`ShardedSource`
      against the formatter's ``SUFFIXES``;
    * :meth:`iter_records` — unified samples streamed file by file, the
      bounded-memory path the streaming executor consumes;
    * :meth:`load_dataset` — the materialised in-memory view.
    """

    def resolve_paths(self) -> list[Path]:
        """Shard files of this formatter's path spec, in processing order."""
        if self.dataset_path is None:
            raise FormatError(f"{self.name} needs a dataset_path to load files")
        return ShardedSource(self.dataset_path, suffixes=self.SUFFIXES).files()

    def iter_file_records(self, path: Path) -> Iterator[dict]:
        """Yield the raw records of one shard file."""
        raise NotImplementedError

    def iter_records(self) -> Iterator[dict]:
        """Lazily yield unified samples across every resolved shard file."""
        for path in self.resolve_paths():
            for record in self.iter_file_records(path):
                yield self.unify_sample(record, self.text_keys)

    def load_dataset(self) -> NestedDataset:
        """Materialise :meth:`iter_records` as an in-memory dataset."""
        return NestedDataset.from_list(list(self.iter_records()))


__all__ = [
    "GZIP_SUFFIX",
    "ShardedFileFormatter",
    "ShardedSource",
    "effective_suffix",
    "is_glob",
    "open_shard",
]
