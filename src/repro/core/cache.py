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
  in memory mode it holds, at every op boundary, no more bytes than the
  largest entry the run wrote there (the "one copy" of Appendix A.2): an
  entry that would break that is written self-contained, and the chain
  restarts at it (:meth:`CacheManager.written_size` sizes it before the write);
* the **checkpoint** is a small state file *pointing at* entries
  (:class:`repro.core.checkpoint.CheckpointManager`), never a second copy.

Two kinds of key, one entry codec (:func:`encode` / :func:`decode`).  A
memory-mode entry stores what the op changed, not the whole dataset:
it is a delta over the op's parent dataset — one parent row position per
output row, read off the op's keep flags or mask by the caller (none when the
op kept the rows as they were) — and only the columns a replay cannot
rebuild from the parent, each as a pickled blob of its own, so a reader
unpickles only the columns it uses.  One rule decides, for every column: it
is stored unless each cell has the type and value of the parent cell its row
maps to (:func:`_changed`), checked at write time against the data, never
inferred from what the op declares, so the replay is exact for any op.  The parent in memory is what its own entry decodes to because no op
edits a cell it received: a Filter writes each stat as a column of its own
(``__stats__.<key>``), so a filter's entry holds its stats and no entry
re-stores ``meta``.  An entry with no parent is self-contained: the one a
memory-mode chain restarts at in the run's own store, and every shard's stage
output.

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
from contextlib import contextmanager
from pathlib import Path
from types import SimpleNamespace
from typing import IO, Any, Callable, Iterable, Iterator, Sequence

from repro.core.dataset import NestedDataset
from repro.core.errors import ReproError

#: shape version of a memory-mode entry (:func:`encode`); any other payload —
#: the whole pickled datasets older stores hold included — decodes as a miss.
#: 2: every Deduplicator's and Selector's output fingerprint chains its config;
#: 3: a column of flat dicts is stored as one leaf per key;
#: 4: a Filter's stats are columns of their own, and every stored column is a blob
ENTRY_FORMAT = 4

#: key suffix of output shaped by a fault: no clean run computes such a key
FAULTED = "#faulted"

#: scalar cell types (:func:`is_scalar`)
_SCALARS = frozenset({str, bytes, int, float, bool, type(None)})
#: scalar cells equal only to cells of their own type and value
_TEXT = frozenset({str, bytes, type(None)})
#: cells pickle never memoizes: a column of them pickles to the same bytes however
#: its cells are shared
_NUMBERS = frozenset({int, float, bool, type(None)})

_PROTOCOL = pickle.HIGHEST_PROTOCOL

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


def atomic_write(path: Path, data: bytes | Callable[[IO[bytes]], Any]) -> None:
    """Write ``data`` — bytes, or a function writing them to the open file — to
    ``path`` atomically (same-directory tmp + replace).

    A crash mid-write leaves either the previous file or a stray ``.tmp``
    behind — never a truncated target — which is the property every resume
    path relies on.  The temp name is unique per call, so two writers of the
    same target never truncate each other's temp file; the last complete
    write wins.
    """
    temp = path.with_name(f"{path.name}.{uuid.uuid4().hex}.tmp")
    try:
        if callable(data):
            with temp.open("wb") as handle:
                data(handle)
        else:
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
        if self.compression == "none":  # streamed: a stored column's blob is written, not copied
            atomic_write(path, lambda handle: pickle.dump(payload, handle, _PROTOCOL))
        else:
            atomic_write(path, _CODECS[self.compression][0](_dumps(payload)))
        return path

    def written_size(self, payload: Any) -> int:
        """The bytes :meth:`put` writes for ``payload``, counted before it does:
        a plain pickle is counted as it is written nowhere; a compressing codec
        compresses it (once more than the write itself will)."""
        if self.compression != "none":
            return len(_CODECS[self.compression][0](_dumps(payload)))
        size = 0

        def count(data: Any) -> None:
            nonlocal size
            size += len(data)

        pickle.Pickler(SimpleNamespace(write=count), _PROTOCOL).dump(payload)
        return size

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
    return pickle.dumps(value, protocol=_PROTOCOL)


def is_scalar(values: list) -> bool:
    """True when every cell of a column is a ``str`` / ``bytes`` / ``int`` /
    ``float`` / ``bool`` / ``None`` (checked in C)."""
    return set(map(type, values)) <= _SCALARS


def _changed(new: list, old: list | None, positions: list[int] | None) -> bool:
    """False when each cell of ``new`` is, or has the type and value of, the ``old`` cell
    its row maps to: identity, then equality (a NaN equals only itself), then — where
    numbers or non-scalar cells are involved — pickled bytes, all checked in C."""
    if old is None:
        return True
    if positions is not None:
        old = list(map(old.__getitem__, positions))
    if all(map(operator.is_, new, old)):
        return False
    if new != old:
        return True
    kinds = set(map(type, new)) | set(map(type, old))
    if kinds <= _TEXT or _dumps(new) == _dumps(old):
        return False
    # equal numbers differ in type (1, 1.0, True) or a zero's sign, and a number
    # pickles by its type and bits; a column's bytes also depend on which objects
    # its cells share, a cell's alone do not
    return kinds <= _NUMBERS or list(map(_dumps, new)) != list(map(_dumps, old))


def _shared_keys(values: list) -> list:
    """``values`` to pickle: its ``dict`` cells copied to share their top-level
    key strings, so the pickle writes each key once (no code edits a cell)."""
    if dict not in set(map(type, values)):
        return values
    keys: dict[str, str] = {}
    return [
        {keys.setdefault(key, key): value for key, value in cell.items()}
        if type(cell) is dict else cell
        for cell in values
    ]


def encode(
    parent: NestedDataset | None, child: NestedDataset, positions: Sequence[int] | None = None
) -> dict:
    """The store entry of ``child``, an op's output over ``parent``.

    With a parent the entry is a delta :func:`decode` replays onto it, and a
    column is stored, as a pickled blob of its own, only where the replay
    could not rebuild it: unless each cell has the type and value of the
    parent cell its row maps to (:func:`_changed`).  No op edits a cell it
    received, so ``parent`` in memory is what its own entry decodes to.

    ``positions``, the parent row of every ``child`` row, decides only how
    much is stored, never whether the replay is exact: it is stored as None
    when the op kept the row count.  With no positions (a Mapper changed the
    row count), or no parent, every column is stored (a self-contained entry).
    """
    if parent is None or len(child) == len(parent):
        positions = None
    elif positions is None:
        parent = None
    else:
        positions = list(positions)
    base = {} if parent is None else parent._columns
    columns = child._columns
    return {
        "format": ENTRY_FORMAT,
        "fingerprint": child.fingerprint,
        "rows": len(child),
        "columns": list(columns),
        "parent_rows": None if parent is None else len(parent),
        "positions": positions,
        "dropped": [name for name in base if name not in columns],
        "stored": {
            name: _dumps(_shared_keys(values))
            for name, values in columns.items()
            if _changed(values, base.get(name), positions)
        },
    }


def decode(
    parent: NestedDataset | None,
    payload: Any,
    columns: Callable[[list[str]], Iterable[str]] | None = None,
) -> NestedDataset | None:
    """The dataset an :func:`encode` payload describes, replayed onto ``parent``,
    with the columns ``columns`` picks from the entry's names (all when None;
    one at least, to hold the entry's row count): a stored column left out is
    never unpickled.

    None — a miss — when ``payload`` is no entry of this format (an older
    store's whole pickled dataset included) or does not fit ``parent``; a
    self-contained entry needs no parent.
    """
    if not isinstance(payload, dict) or payload.get("format") != ENTRY_FORMAT:
        return None
    try:
        base: dict[str, list] = {}
        if payload["parent_rows"] is not None:
            if parent is None or len(parent) != payload["parent_rows"]:
                return None
            base = parent._columns
            if not all(name in base for name in payload["dropped"]):
                return None
        positions, stored, names = payload["positions"], payload["stored"], payload["columns"]
        if columns is not None and payload["rows"]:
            wanted = set(columns(names))
            names = [name for name in names if name in wanted] or names[:1]
        built: dict[str, list] = {}
        for name in names:
            if name in stored:
                built[name] = pickle.loads(stored[name])
            elif positions is None:
                built[name] = base[name]
            else:
                built[name] = list(map(base[name].__getitem__, positions))
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
