"""Checkpoint manager: the resume pointer of a run, not a copy of its data.

The paper's checkpoint mechanism (Sec. 4.1.1) lets a failed or interrupted run
resume from the most recent state instead of re-executing the whole recipe.
The data of that state already lives in the store — clean entries in the
cache with ``use_cache``, the rest in ``checkpoint_dir`` beside the state
file (:class:`repro.core.cache.RunStore`).  The state file records *which
run* it belongs to and *where* that run got to:

* ``op_names`` / ``op_hashes`` — the recipe chain; per-op digests of each
  operator's ``config()``, so an edited operator invalidates the resume;
* ``input`` — the input's identity (the dataset fingerprint in memory mode,
  the shard budget in streaming mode, whose shards key on their input);
* ``op_index`` / ``keys`` (memory mode) — one past the last completed
  operator, and the chain of store keys whose entries, replayed in order,
  rebuild its output: one delta entry per op, from the input or from the
  self-contained entry the run's own store last restarted the chain at to
  stay within one copy.  The chain is the root of the run's own store; a
  chain that stops reading back midway resumes after its last readable
  entry.

The state file is written atomically and only *after* the entry it points at,
so a crash at any point leaves either the previous checkpoint or a complete
new one.
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.core.cache import atomic_write


class CheckpointManager:
    """Read/write the checkpoint state file under a directory."""

    STATE_FILE = "checkpoint_state.json"

    def __init__(self, checkpoint_dir: str | Path):
        self.checkpoint_dir = Path(checkpoint_dir)

    def write_state(self, state: dict) -> None:
        """Atomically persist the state dict."""
        self.checkpoint_dir.mkdir(parents=True, exist_ok=True)
        atomic_write(
            self.checkpoint_dir / self.STATE_FILE, json.dumps(state, indent=2).encode("utf-8")
        )

    def read_state(self) -> dict | None:
        """Return the saved state dict, or ``None`` when absent.

        A corrupt state file (e.g. from a crash predating atomic writes)
        reads as ``None`` — the run re-executes from scratch instead of
        failing on resume.
        """
        try:
            state = json.loads((self.checkpoint_dir / self.STATE_FILE).read_text(encoding="utf-8"))
        except (OSError, ValueError):
            return None
        return state if isinstance(state, dict) else None
