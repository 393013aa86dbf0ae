"""Explicit JSON sanitization for rows written to disk.

Exports and quarantine files persist sample rows as JSON (intermediate
datasets and shards are pickled by the store and need no conversion).
Serialising unexpected payloads with ``json.dumps(..., default=repr)`` would
silently replace them with their ``repr`` string, so an export could corrupt
data without anyone noticing.  The
:class:`JsonSanitizer` here makes that conversion *explicit*: clean rows take
a zero-copy fast path, dirty rows are deep-sanitised, and every writer emits
exactly one warning naming the offending key paths.
"""

from __future__ import annotations

import json
import warnings
from typing import Any


class SerializationWarning(UserWarning):
    """Warns that non-JSON values were converted to strings on write."""


#: key paths reported per warning before truncating with an ellipsis
_MAX_REPORTED_KEYS = 8


class JsonSanitizer:
    """Serialise rows to JSON, tracking keys whose values are not JSON-safe.

    ``dumps`` is the hot path: a plain encode (no ``default`` hook) by one
    resident ``json.JSONEncoder`` per kwargs set succeeds for the
    overwhelming majority of rows.  Only rows that fail are walked and
    sanitised — non-JSON leaves become their ``repr`` string and the dotted
    key path is recorded in :attr:`offending`.  Call :meth:`warn` once per
    write operation to surface everything that was converted.
    """

    def __init__(self) -> None:
        #: dotted key path -> type name of the first offending value seen there
        self.offending: dict[str, str] = {}
        self._encoders: dict[frozenset, json.JSONEncoder] = {}

    # ------------------------------------------------------------------
    def dumps(self, row: dict, **kwargs: Any) -> str:
        """Return ``json.dumps(row, **kwargs)``, sanitising only when needed."""
        key = frozenset(kwargs.items())
        encoder = self._encoders.get(key)
        if encoder is None:
            encoder = self._encoders[key] = json.JSONEncoder(**kwargs)
        try:
            return encoder.encode(row)
        except (TypeError, ValueError):
            return encoder.encode(self._sanitize(row, ""))

    def _sanitize(self, value: Any, path: str) -> Any:
        if value is None or isinstance(value, (bool, int, float, str)):
            return value
        if isinstance(value, dict):
            sanitized = {}
            for key, item in value.items():
                if not isinstance(key, str):
                    self._record(f"{path}.{key!r}" if path else repr(key), type(key))
                    key = str(key)
                child = f"{path}.{key}" if path else key
                sanitized[key] = self._sanitize(item, child)
            return sanitized
        if isinstance(value, (list, tuple)):
            return [self._sanitize(item, f"{path}[]") for item in value]
        self._record(path or "<root>", type(value))
        return repr(value)

    def _record(self, path: str, value_type: type) -> None:
        self.offending.setdefault(path, value_type.__name__)

    # ------------------------------------------------------------------
    @property
    def dirty(self) -> bool:
        """True when at least one value had to be converted."""
        return bool(self.offending)

    def warn(self, where: str) -> None:
        """Emit one :class:`SerializationWarning` naming the offending keys."""
        if not self.offending:
            return
        keys = sorted(self.offending)
        shown = ", ".join(
            f"{key} ({self.offending[key]})" for key in keys[:_MAX_REPORTED_KEYS]
        )
        if len(keys) > _MAX_REPORTED_KEYS:
            shown += f", … ({len(keys) - _MAX_REPORTED_KEYS} more)"
        warnings.warn(
            f"{where}: non-JSON values at keys [{shown}] were written as their "
            "repr() string; reading the file back will not restore the original objects",
            SerializationWarning,
            stacklevel=3,
        )
        self.offending.clear()


__all__ = ["JsonSanitizer", "SerializationWarning"]
