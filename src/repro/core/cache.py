"""One entry codec in two places, with one retention rule each.

Reproduces the cache/checkpoint layer of Sec. 4.1.1 / 6 of the paper (space
model in Appendix A.2).  Every intermediate result — an operator's output
dataset in memory mode, one shard's stage output in streaming mode — is
written **once**, as one entry of the :class:`CacheManager` directory a
:class:`RunStore` places it in:

* the **cache** (``use_cache``) holds clean entries under content keys —
  ``(input fingerprint, op name, op config)`` for a dataset
  (:meth:`CacheManager.make_key`), ``(stage chain hash, shard signature)``
  for a shard (:meth:`CacheManager.make_shard_key`) — so a re-run after a
  late recipe tweak replays the unchanged prefix.  No run deletes from it;
* the **run's own store** holds the rest — a checkpoint-only run's entries,
  ``#faulted`` ones, a stream's spill — and keeps what the run's root names;
* the **checkpoint** is a small state file *pointing at* entries
  (:class:`repro.core.checkpoint.CheckpointManager`), never a second copy.

Two kinds of key, one entry codec (:func:`encode` / :func:`decode`).  A
memory-mode cache entry stores what the op changed, not the whole dataset:
it is a delta over the op's parent dataset — one parent row position per
output row (none when the op kept the rows as they were) and, whole, only
the columns a replay cannot rebuild from the parent.  Whether a column is
unchanged is checked at write time against the data (:func:`cell_snapshot`),
never inferred from what the op declares, so the replay is exact for any op.
An entry with no parent is self-contained: the latest entry of a
checkpoint-only run, which keeps it alone, and every shard's stage output.

A column of flat dicts (``meta``, ``__stats__``) is stored as Arrow stores a
struct, one leaf per key (:func:`_snapshot`), so an entry holds only the leaves
its op changed; rows that shared one dict decode as dicts of their own.

Entries are pickled — lossless for every Python payload, so a replay can
never differ from recomputation — and optionally compressed; zlib / lzma /
gzip stand in for the zstd / LZ4 codecs of the original system.  Every write
is a uniquely named same-directory temp file + ``os.replace``, so runs sharing
a directory never observe a torn entry, and a missing, truncated or
undecodable entry reads as a miss.
"""

from __future__ import annotations

import bz2
import gzip
import hashlib
import json
import lzma
import operator
import os
import pickle
import shutil
import tempfile
import uuid
import zlib
from collections import deque
from contextlib import contextmanager
from itertools import chain, repeat
from pathlib import Path
from typing import Any, Callable, Iterable, Iterator

from repro.core.dataset import NestedDataset
from repro.core.errors import ReproError

#: shape version of a memory-mode entry (:func:`encode`); any other payload —
#: the whole pickled datasets older stores hold included — decodes as a miss.
#: 2: every Deduplicator's and Selector's output fingerprint chains its config;
#: 3: a column of flat dicts is stored as one leaf per key
ENTRY_FORMAT = 3

#: key suffix of output shaped by a fault: no clean run computes such a key
FAULTED = "#faulted"

#: cell types no op can edit in place: such a cell is unchanged when it has
#: the type and value of the parent cell it maps to
_IMMUTABLE = frozenset({str, bytes, int, float, bool, type(None)})

_ABSENT = object()  #: a key a dict lacks, as :func:`_snapshot` reads it

_CODECS: dict[str, tuple[Callable[[bytes], bytes], Callable[[bytes], bytes]]] = {
    "none": (lambda data: data, lambda data: data),
    "zlib": (zlib.compress, zlib.decompress),
    "gzip": (gzip.compress, gzip.decompress),
    "lzma": (lzma.compress, lzma.decompress),
    "bz2": (bz2.compress, bz2.decompress),
}


def available_codecs() -> list[str]:
    """Names of the supported cache compression codecs."""
    return sorted(_CODECS)


def atomic_write(path: Path, data: bytes) -> None:
    """Write ``data`` to ``path`` atomically (same-directory tmp + replace).

    A crash mid-write leaves either the previous file or a stray ``.tmp``
    behind — never a truncated target — which is the property every resume
    path relies on.  The temp name is unique per call, so two writers of the
    same target never truncate each other's temp file; the last complete
    write wins.
    """
    temp = path.with_name(f"{path.name}.{uuid.uuid4().hex}.tmp")
    try:
        temp.write_bytes(data)
        os.replace(temp, path)
    finally:
        temp.unlink(missing_ok=True)


class CacheManager:
    """``cache_dir`` (created on the first write): content-addressed, pickled
    entries, compressed with one of :func:`available_codecs` (or ``"none"``)."""

    def __init__(self, cache_dir: str | Path, compression: str = "none"):
        if compression not in _CODECS:
            raise ReproError(
                f"unknown compression codec {compression!r}; choose from {available_codecs()}"
            )
        self.cache_dir = Path(cache_dir)
        self.compression = compression

    def _path_for(self, key: str) -> Path:
        digest = hashlib.sha1(key.encode("utf-8")).hexdigest()
        return self.cache_dir / f"entry-{digest}.pkl"

    @staticmethod
    def make_key(dataset_fingerprint: str, op_name: str, op_params: dict) -> str:
        """Build the key of an operator's output over a dataset."""
        return json.dumps(
            {"fingerprint": dataset_fingerprint, "op": op_name, "params": op_params},
            sort_keys=True,
            default=repr,
        )

    @staticmethod
    def make_shard_key(op_chain: str, shard_signature: str) -> str:
        """Build the key of a streaming stage's output over one shard.

        ``op_chain`` digests the ordered operator configurations of the stage
        (every shard-local op, plus a Deduplicator's hashing stage when the
        segment closes with one); ``shard_signature`` digests what the shard
        was read from — for an input shard the source lines and the decode
        they go through (:func:`repro.formats.source.shard_signature`, so a
        hit needs no decode), for a later stage its ordered columns.  Together they
        guarantee a hit replays exactly what recomputation would produce.
        """
        return json.dumps(
            {"op_chain": op_chain, "shard": shard_signature}, sort_keys=True
        )

    # ------------------------------------------------------------------
    def put(self, key: str, payload: Any) -> Path:
        """Atomically write ``payload`` as the entry of ``key``; returns its path."""
        self.cache_dir.mkdir(parents=True, exist_ok=True)
        path = self._path_for(key)
        compress = _CODECS[self.compression][0]
        atomic_write(path, compress(pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)))
        return path

    def get(self, key: str) -> Any | None:
        """The payload stored under ``key``, or None on a miss.

        An entry that cannot be read back — truncated, written with another
        codec, not a pickle at all — is a miss too: the caller recomputes and
        overwrites it.
        """
        decompress = _CODECS[self.compression][1]
        try:
            return pickle.loads(decompress(self._path_for(key).read_bytes()))
        except Exception:  # noqa: BLE001 - unpickling garbage can raise anything
            return None

    def has(self, key: str) -> bool:
        """True when a completely written entry exists for ``key``."""
        return self._path_for(key).exists()

    def total_bytes(self) -> int:
        """Total on-disk size of all entries (bytes)."""
        return sum(path.stat().st_size for path in self.cache_dir.glob("entry-*"))


class RunStore:
    """The cache and the run's own store (``checkpoint_dir``, or a per-run
    spill directory): a clean key lives in the cache when there is one, any
    other key in ``own``, so no lookup searches.  :meth:`retain` is the only
    way an entry is ever deleted."""

    def __init__(self, cache: CacheManager | None, own: CacheManager | None):
        self.cache, self.own = cache, own

    def place(self, key: str) -> CacheManager | None:
        """The directory the entry of ``key`` lives in."""
        return self.cache if self.cache is not None and not key.endswith(FAULTED) else self.own

    def get(self, key: str) -> Any | None:
        """The payload stored under ``key``, or None on a miss."""
        return self.place(key).get(key)

    def retain(self, root: Iterable[str]) -> None:
        """Delete every entry (and stray temp file) of the run's own store
        that ``root`` does not name; the cache keeps everything."""
        if self.own is not None:
            named = {self.own._path_for(key).name for key in root}
            for path in self.own.cache_dir.glob("entry-*"):
                if path.name not in named:
                    path.unlink(missing_ok=True)

    @contextmanager
    def spilling(self, spill_root: Path) -> Iterator[None]:
        """An own store for a streaming run to spill to: without a checkpoint
        directory, a fresh one under ``spill_root`` (unique per run), removed
        when the run ends, failed or not, so no run leaks a copy of the corpus."""
        if self.own is not None:
            yield
            return
        spill_root.mkdir(parents=True, exist_ok=True)
        self.own = CacheManager(tempfile.mkdtemp(prefix="run-", dir=spill_root))
        try:
            yield
        finally:
            shutil.rmtree(self.own.cache_dir, ignore_errors=True)
            self.own = None


def _dumps(value: Any) -> bytes:
    return pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL)


def _snapshot(values: list) -> bytes | tuple | None:
    """A column as its entry holds it: None when every cell is immutable; ``(keys, leaves)``,
    a leaf (list of a key's cells) per key, when each cell is a plain ``dict`` with the same
    ``str`` keys in the same order holding immutable scalars (checked in C); else pickled."""
    kinds = set(map(type, values))
    if kinds <= _IMMUTABLE:
        return None
    if kinds == {dict}:
        keys, width = tuple(values[0]), len(values[0])
        if width > 1:  # no row holds a key twice, so every row's keys are ``keys``
            ordered = list(chain.from_iterable(values)) == list(keys) * len(values)
            flat = list(chain.from_iterable(map(dict.values, values)))
            leaves = [flat[index::width] for index in range(width)]
        else:  # one key or none has one order; a missing key reads as ``_ABSENT``
            ordered = set(map(len, values)) == {width}
            leaves = [list(map(dict.get, values, repeat(key), repeat(_ABSENT))) for key in keys]
        if ordered and set(map(type, keys)) <= {str} and all(
            set(map(type, leaf)) <= _IMMUTABLE for leaf in leaves
        ):
            return keys, leaves
    return _dumps(values)


def cell_snapshot(dataset: NestedDataset) -> dict[str, bytes | tuple]:
    """Every column of ``dataset`` holding a mutable cell, as its entry holds it.

    Ops edit ``meta`` / ``__stats__`` dicts in place, so once the next op has
    run, ``dataset`` in memory no longer shows what its entry decodes to.
    Taken before that op runs, this is what :func:`encode` compares the op's
    output against; a leaf only references scalars, so it pickles nothing.
    """
    held = {name: _snapshot(values) for name, values in dataset._columns.items()}
    return {name: value for name, value in held.items() if value is not None}


def detach(dataset: NestedDataset) -> NestedDataset:
    """``dataset`` as its self-contained entry replays it: the columns holding
    mutable cells — the ``meta`` / ``__stats__`` dicts ops edit in place — are
    new copies, so a run over a caller's dataset leaves its rows alone."""
    return decode(None, encode(None, dataset, None)[0])


def _changed(new: list, old: list | None, positions: list[int] | None) -> bool:
    """False when each cell of ``new`` is, or has the type and value of, the immutable ``old``
    cell its row maps to (``-0.0`` is not ``0.0``; a NaN only as itself); checked in C."""
    if old is None:
        return True
    if positions is not None:
        old = list(map(old.__getitem__, positions))
    if all(map(operator.is_, new, old)):
        return False
    if new != old:  # a NaN equals only itself
        return True
    # equal immutable cells differ only among numbers, in type (1, 1.0, True) or a
    # zero's sign, and a number pickles by its type and bits
    return not set(map(type, new)).isdisjoint((int, float, bool)) and _dumps(new) != _dumps(old)


def _row_positions(parent: NestedDataset, child: NestedDataset) -> list[int] | None:
    """The parent row of every ``child`` row, matched on the values of its immutable columns.

    A row's key is its cells in every column holding only immutable cells in
    both datasets, and a child row maps to the last parent row with its key
    — values survive a worker's pickling round trip, object identity does
    not.  None when no column qualifies or some child row has no match.
    """
    names = [
        name
        for name, values in child._columns.items()
        if name in parent._columns
        and set(map(type, values)) <= _IMMUTABLE
        and set(map(type, parent._columns[name])) <= _IMMUTABLE
    ]
    if not names:
        return None
    rows = dict(zip(zip(*(parent._columns[name] for name in names)), range(len(parent))))
    positions = list(map(rows.get, zip(*(child._columns[name] for name in names))))
    return None if None in positions else positions


def encode(
    parent: NestedDataset | None, child: NestedDataset, parent_snapshot: dict | None
) -> tuple[dict, dict[str, bytes | tuple]]:
    """The store entry of ``child``, an op's output over ``parent``, and ``child``'s snapshot.

    With a parent the entry is a delta :func:`decode` replays onto it.  A
    column is stored only where the replay could not rebuild it:

    * an immutable column, whole, unless each cell has the type and value of
      the parent cell its row maps to (:func:`_changed`); a struct column, leaf
      by leaf, the same against ``parent_snapshot`` (the parent's own entry);
    * any other column of mutable cells, whole, unless the op kept the rows
      as they were and the column pickles to ``parent_snapshot``'s bytes.

    The row mapping decides only how much is stored, never whether the replay
    is exact: positions ``0..n-1`` when the op kept the row count, else
    matched on the values of the immutable columns (:func:`_row_positions`).
    With no mapping, or no parent, every column is stored (a self-contained
    entry).  The returned snapshot is what the next op's entry is encoded
    against (:func:`cell_snapshot`, at no extra cost).
    """
    columns = child._columns
    payload: dict = {
        "format": ENTRY_FORMAT,
        "fingerprint": child.fingerprint,
        "rows": len(child),
        "columns": list(columns),
        "parent_rows": None,
        "positions": None,
        "dropped": [],
        # stored: struct columns as (keys, pickled {key: changed leaf}), other mutable ones pickled
        "struct": {},
        "pickled": {},
        "dense": {},
    }
    positions = None
    if parent is not None and len(child) != len(parent):
        positions = _row_positions(parent, child)
        if positions is None:
            parent = None
    snapshot: dict[str, bytes | tuple] = {}
    for name, values in columns.items():
        held = _snapshot(values)
        if held is None:  # compared only with a parent column of immutable cells
            base = None if parent is None or name in parent_snapshot else parent._columns.get(name)
            if _changed(values, base, positions):
                payload["dense"][name] = values
            continue
        snapshot[name] = held
        old = None if parent is None or name not in parent._columns else parent_snapshot.get(name)
        if isinstance(held, bytes):
            if old is None or positions is not None or old != held:
                payload["pickled"][name] = held
            continue
        old_leaves = dict(zip(*old)) if isinstance(old, tuple) else {}
        payload["struct"][name] = (held[0], _dumps({
            key: leaf for key, leaf in zip(*held) if _changed(leaf, old_leaves.get(key), positions)
        }))
    if parent is not None:
        payload.update(
            parent_rows=len(parent),
            positions=positions,
            dropped=[name for name in parent._columns if name not in columns],
        )
    return payload, snapshot


def decode(
    parent: NestedDataset | None,
    payload: Any,
    columns: Callable[[list[str]], Iterable[str]] | None = None,
) -> NestedDataset | None:
    """The dataset an :func:`encode` payload describes, replayed onto ``parent``,
    with the columns ``columns`` picks from the entry's names (all when None;
    one at least, to hold the entry's row count): a column left out is never
    unpickled or built.  A struct column's rows are new dicts, keys in their
    stored order, each value from its stored leaf or the parent's cell.

    None — a miss — when ``payload`` is no entry of this format (an older
    store's whole pickled dataset included) or does not fit ``parent``; a
    self-contained entry needs no parent.
    """
    if not isinstance(payload, dict) or payload.get("format") != ENTRY_FORMAT:
        return None
    try:
        base_columns: dict[str, list] = {}
        if payload["parent_rows"] is not None:
            if parent is None or len(parent) != payload["parent_rows"]:
                return None
            base_columns = parent._columns
            if not all(name in base_columns for name in payload["dropped"]):
                return None
        positions, pickled, dense = payload["positions"], payload["pickled"], payload["dense"]
        names = payload["columns"]

        def from_parent(name: str) -> list:  # the parent's cells at the row positions
            base = base_columns[name]
            return list(base) if positions is None else list(map(base.__getitem__, positions))

        if columns is not None and payload["rows"]:
            wanted = set(columns(names))
            names = [name for name in names if name in wanted] or names[:1]
        built: dict[str, list] = {}
        for name in names:
            if name in pickled:
                built[name] = pickle.loads(pickled[name])
                continue
            if name in dense:
                built[name] = dense[name]
                continue
            if name in payload["struct"]:
                keys, stored = payload["struct"][name]
                stored = pickle.loads(stored)
                rows = built[name] = [{} for _ in range(payload["rows"])]
                for key in keys:  # a leaf at a time, each cell set in C
                    leaf = stored.get(key) or list(map(operator.itemgetter(key), from_parent(name)))
                    deque(map(operator.setitem, rows, repeat(key), leaf), maxlen=0)
                continue
            built[name] = from_parent(name)
        dataset = NestedDataset(built, fingerprint=payload["fingerprint"])
    except Exception:  # noqa: BLE001 - a payload that does not fit is a miss
        return None
    return dataset if len(dataset) == payload["rows"] else None


def estimate_cache_space(
    dataset_size: int, num_mappers: int, num_filters: int, num_dedups: int
) -> int:
    """Peak cache space of *cache mode*, per the paper's Appendix A.2 analysis.

    ``Space = (1 + M + F + I(F > 0) + D) * S`` where S is the dataset size.
    Every entry there is a whole dataset; memory-mode entries here store only
    what each op changed (:func:`encode`), so this is a loose upper bound on
    the space a cache-mode run actually takes.
    """
    extra_stats_copy = 1 if num_filters > 0 else 0
    return (1 + num_mappers + num_filters + extra_stats_copy + num_dedups) * dataset_size


def estimate_checkpoint_space(dataset_size: int) -> int:
    """Peak cache space of *checkpoint mode*: at most 3 copies of the dataset."""
    return 3 * dataset_size
