"""Input shards as the formatter read them, and the signature of one.

A streaming run names each stage-0 shard before anyone decodes it: the shard's
store key digests the *source text* its rows are read from, so a shard the
store already holds is replayed without parsing a single line.

A formatter's :meth:`~repro.core.base_op.Formatter.iter_sources` yields
either :class:`LineShard` blocks — the ``.jsonl`` formatter's stripped
non-blank lines, read a block at a time and decoded only when their rows are
needed; a shard of lines signs by those lines — or row dicts, for every input
that has no such lines (an in-memory dataset, JSON arrays, CSV, mixtures);
a shard of rows signs by their JSON encoding, keys in their order (the
export keeps it too).  :func:`repro.core.stream.iter_record_shards` cuts
either into shards of the same shape; :func:`shard_signature` signs one.
"""

from __future__ import annotations

import hashlib
import itertools
import json
from typing import Any, Iterator, Sequence

#: version of the decode a source signature stands for: bump it whenever the
#: rows a line decodes to change (the JSON decode, the non-dict rule, the
#: ``__suffix__`` column, ``unify_sample``), or stored shards would replay
#: rows the new decode no longer produces.  2: a record with no string field
#: of its own decodes to text ``""``; 3: rows sign with their keys unsorted;
#: 4: a row no longer gains an empty ``__stats__`` dict
SOURCE_FORMAT = 4


class LineShard:
    """Stripped non-blank input lines, with no object per line: ``lines`` and
    their 1-based file line ``numbers``, and one ``(decoder, count)`` pair per
    run of lines of one file.  A decoder stands for its file: its ``suffix``
    and ``decode(line, number)``, the one function that turns a line into a
    unified row.  No line holds a line break, so :func:`shard_signature` joins
    them unambiguously.  ``rows`` keeps the rows once decoded."""

    __slots__ = ("lines", "numbers", "runs", "rows")

    def __init__(self, lines: list[str], numbers: list[int], runs: list[tuple[Any, int]],
                 rows: list[dict] | None = None):
        self.lines, self.numbers, self.runs, self.rows = lines, numbers, runs, rows

    def __len__(self) -> int:
        return len(self.lines)

    def __getitem__(self, window: slice) -> "LineShard":
        """The lines of a step-1 ``window``, with their runs (and rows)."""
        start, stop, _ = window.indices(len(self.lines))
        runs, offset = [], 0
        for decoder, count in self.runs:
            if min(stop, offset + count) > max(start, offset):
                runs.append((decoder, min(stop, offset + count) - max(start, offset)))
            offset += count
        rows = None if self.rows is None else self.rows[window]
        return LineShard(self.lines[window], self.numbers[window], runs, rows)

    @staticmethod
    def join(parts: Sequence["LineShard"]) -> "LineShard":
        """``parts`` as one shard, in order."""
        chain = itertools.chain.from_iterable
        decoded = all(part.rows is not None for part in parts)
        return LineShard(list(chain(part.lines for part in parts)),
                         list(chain(part.numbers for part in parts)),
                         list(chain(part.runs for part in parts)),
                         list(chain(part.rows for part in parts)) if decoded else None)

    def iter_rows(self, release: bool = False) -> Iterator[dict]:
        """Each line's unified row, decoded as it is drawn; with ``release``
        each 512 lines are dropped once their rows are drawn (the shard is spent)."""
        start = 0
        for decoder, count in self.runs:
            for low in range(start, start + count, 512):
                high = min(low + 512, start + count)
                yield from map(decoder.decode, self.lines[low:high], self.numbers[low:high])
                if release:
                    self.lines[low:high] = [None] * (high - low)
            start += count

    def decode(self) -> list[dict]:
        """The unified rows of the lines (decoded once, then kept)."""
        if self.rows is None:
            self.rows = list(self.iter_rows())
        return self.rows


def source_rows(shard: LineShard | list[dict]) -> list[dict]:
    """The rows of a shard: a :class:`LineShard`'s decoded, a list of rows itself."""
    return shard.decode() if isinstance(shard, LineShard) else shard


def _runs(shard: LineShard | list[dict]) -> Iterator[tuple[str, list[str]]]:
    """``(suffix, texts)`` per run of lines sharing a suffix, across files.

    Rows carry their own suffix and sign as one text: their JSON array, keys
    unsorted, as key order is part of the exported bytes.
    """
    if isinstance(shard, LineShard):
        start = 0
        for suffix, runs in itertools.groupby(shard.runs, key=lambda run: run[0].suffix):
            stop = start + sum(count for _, count in runs)
            yield suffix, shard.lines[start:stop]
            start = stop
    elif shard:
        yield "", [json.dumps(list(shard), default=repr)]


def shard_signature(
    formatter: str | None, text_keys: Sequence[str], shard: LineShard | list[dict]
) -> str:
    """Digest of a shard's source: what its rows decode from, not the rows.

    sha1 over :data:`SOURCE_FORMAT`, the formatter name, ``text_keys`` and,
    per run of lines sharing a suffix (:func:`_runs`), a ``[suffix, count]``
    header line followed by that many texts, one per line — unambiguous
    because no text holds a line break.  Equal signatures decode to equal
    rows: the same lines under another path or compression sign the same,
    the same rows written as other lines (reformatted JSON) do not.
    """
    digest = hashlib.sha1(
        (json.dumps([SOURCE_FORMAT, formatter, list(text_keys)]) + "\n").encode("utf-8")
    )
    for suffix, texts in _runs(shard):
        digest.update((json.dumps([suffix, len(texts)]) + "\n").encode("utf-8"))
        for start in range(0, len(texts), 4096):  # never a second copy of a whole input
            digest.update(("\n".join(texts[start:start + 4096]) + "\n").encode("utf-8"))
    return digest.hexdigest()


__all__ = [
    "SOURCE_FORMAT",
    "LineShard",
    "shard_signature",
    "source_rows",
]
