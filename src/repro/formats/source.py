"""Input records as the formatter read them, and the signature of a shard of them.

A streaming run names each stage-0 shard before anyone decodes it: the shard's
store key digests the *source text* its records were read from, so a shard
the store already holds is replayed without parsing a single line.

A formatter's :meth:`~repro.core.base_op.Formatter.iter_sources` yields one
source record per input record, of one of two kinds:

* a :class:`LineRecord` — a JSON line as the ``.jsonl`` formatter read it
  (stripped, never blank), plus the one function that decodes it into a
  unified row; it signs by that line;
* a row dict — every input that has no such line (an in-memory dataset,
  JSON arrays, CSV, mixtures) is already decoded; a shard of rows signs by
  their JSON encoding, keys in their order (the export keeps it too).

:func:`shard_signature` is the one function that signs a shard.
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
#: of its own decodes to text ``""``; 3: rows sign with their keys unsorted
SOURCE_FORMAT = 3


class LineRecord:
    """One non-blank input line, stripped, decoded only when a row is needed.

    ``decoder`` stands for the line's file: its ``suffix`` (part of every row
    it decodes) and ``decode(line, number)``, the one function that turns a
    stripped line into a unified row.  The text never holds a line break
    (text-mode reading splits on every one), which is what lets
    :func:`shard_signature` join lines unambiguously.
    """

    __slots__ = ("text", "number", "decoder", "row")

    def __init__(self, text: str, number: int, decoder: Any):
        self.text = text
        self.number = number
        self.decoder = decoder
        self.row: dict | None = None

    def decode(self) -> dict:
        """The unified row of this line (decoded once, then kept)."""
        if self.row is None:
            self.row = self.decoder.decode(self.text, self.number)
        return self.row


def decode_record(record: Any) -> dict:
    """The row of a source record: a line decodes, a row is its own."""
    return record.decode() if isinstance(record, LineRecord) else record


def is_decoded(record: Any) -> bool:
    """True when the record's row exists already (a row, or a decoded line)."""
    return not isinstance(record, LineRecord) or record.row is not None


def _runs(records: Sequence[Any]) -> Iterator[tuple[str, list[str]]]:
    """``(suffix, texts)`` per run of records sharing a suffix.

    One formatter yields the records of a shard, so they are all lines or
    all rows.  Rows carry their own suffix and sign as one text: their JSON
    array, keys unsorted, as key order is part of the exported bytes.
    """
    if records and isinstance(records[0], LineRecord):
        for suffix, run in itertools.groupby(records, key=lambda record: record.decoder.suffix):
            yield suffix, [record.text for record in run]
    elif records:
        yield "", [json.dumps(list(records), default=repr)]


def shard_signature(
    formatter: str | None, text_keys: Sequence[str], records: Sequence[Any]
) -> str:
    """Digest of a shard's source: what its rows decode from, not the rows.

    sha1 over :data:`SOURCE_FORMAT`, the formatter name, ``text_keys`` and,
    per run of records sharing a suffix (:func:`_runs`), a ``[suffix,
    count]`` header line followed by that many texts, one per line —
    unambiguous because no text holds a line break.  Equal signatures
    decode to equal rows: the same lines under another path or compression
    sign the same, the same rows written as other lines (reformatted JSON)
    do not.
    """
    digest = hashlib.sha1(
        (json.dumps([SOURCE_FORMAT, formatter, list(text_keys)]) + "\n").encode("utf-8")
    )
    for suffix, texts in _runs(records):
        digest.update((json.dumps([suffix, len(texts)]) + "\n").encode("utf-8"))
        for start in range(0, len(texts), 4096):  # never a second copy of a whole input
            digest.update(("\n".join(texts[start:start + 4096]) + "\n").encode("utf-8"))
    return digest.hexdigest()


__all__ = [
    "SOURCE_FORMAT",
    "LineRecord",
    "decode_record",
    "is_decoded",
    "shard_signature",
]
