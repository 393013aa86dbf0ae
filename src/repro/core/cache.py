"""One content-addressed store: the cache is the checkpoint is the spill.

Reproduces the cache/checkpoint layer of Sec. 4.1.1 / 6 of the paper (space
model in Appendix A.2) with a single mechanism.  Every intermediate result —
an operator's output dataset in memory mode, one shard's stage output in
streaming mode — is written **once**, as one entry of a :class:`CacheManager`:

* the **cache** is the set of entries under content keys —
  ``(input fingerprint, op name, op config)`` for a dataset
  (:meth:`CacheManager.make_key`), ``(stage chain hash, shard signature)`` for
  a shard (:meth:`CacheManager.make_shard_key`) — so a re-run after a late
  recipe tweak replays the unchanged prefix;
* the **checkpoint** is a small state file *pointing at* an entry
  (:class:`repro.core.checkpoint.CheckpointManager`), never a second copy;
* the **spill** the streaming two-pass resolve reads back in its mask pass is
  the very entry the signature pass wrote (or found).

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
import os
import pickle
import uuid
import zlib
from pathlib import Path
from typing import Any, Callable

from repro.core.errors import ReproError

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
    """Directory of content-addressed, pickled entries with optional compression.

    Parameters
    ----------
    cache_dir:
        Directory the entries live in (created on the first write).
    compression:
        One of :func:`available_codecs`; ``"none"`` disables compression.
    """

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
        segment closes with one); ``shard_signature`` digests the shard's
        input rows.  Together they guarantee a hit replays exactly what
        recomputation would produce.
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

    def delete(self, key: str) -> None:
        """Remove the entry of ``key`` (a no-op when absent)."""
        self._path_for(key).unlink(missing_ok=True)

    def clear(self) -> int:
        """Delete every entry (and stray temp file); returns the count."""
        removed = 0
        for path in self.cache_dir.glob("entry-*"):
            path.unlink(missing_ok=True)
            removed += 1
        return removed

    def total_bytes(self) -> int:
        """Total on-disk size of all entries (bytes)."""
        return sum(path.stat().st_size for path in self.cache_dir.glob("entry-*"))


def estimate_cache_space(
    dataset_size: int, num_mappers: int, num_filters: int, num_dedups: int
) -> int:
    """Peak cache space of *cache mode*, per the paper's Appendix A.2 analysis.

    ``Space = (1 + M + F + I(F > 0) + D) * S`` where S is the dataset size.
    """
    extra_stats_copy = 1 if num_filters > 0 else 0
    return (1 + num_mappers + num_filters + extra_stats_copy + num_dedups) * dataset_size


def estimate_checkpoint_space(dataset_size: int) -> int:
    """Peak cache space of *checkpoint mode*: at most 3 copies of the dataset."""
    return 3 * dataset_size
