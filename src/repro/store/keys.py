"""Canonical encoding and digesting of pipeline cache keys.

The in-memory :class:`~repro.core.cache.CompilationCache` keys every
stage by a tuple of plain values and frozen dataclasses —
``("tile", ("graph", fp), CrossbarSpec(...))`` and friends.  The disk
store addresses entries by the SHA-256 of a *canonical* JSON encoding
of that same tuple, so two processes that build identical keys always
agree on the entry path without ever exchanging state.

The encoding is deliberately closed-world: ``None``, ``bool``,
``int``, ``str``, ``float``, tuples/lists, dicts, numpy scalars, and
dataclass instances (encoded by qualified class name + field values).
Anything else — lambdas, arbitrary objects a third-party mapping rule
might key on — raises :class:`UnstableKeyError`, and
:func:`key_digest` returns ``None``: such entries simply stay
memory-only rather than risking a digest that silently changes between
runs.

Both :data:`STORE_SCHEMA_VERSION` and the per-stage codec version are
folded into the digest material, so a format bump makes every old
entry unreachable (clean invalidation) instead of deserializing
garbage.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from typing import Any, Hashable, Optional

import numpy as np

__all__ = ["STORE_SCHEMA_VERSION", "UnstableKeyError", "encode_key", "key_digest"]

#: Version of the store's key encoding and on-disk entry layout.
#: Folded into every digest: bumping it orphans (never corrupts) all
#: previously-published entries.
STORE_SCHEMA_VERSION = 2


class UnstableKeyError(TypeError):
    """A cache-key component has no canonical, stable encoding."""


def _encode(value: Any) -> Any:
    if value is None or isinstance(value, (bool, str)):
        return value
    if isinstance(value, int):
        return value
    if isinstance(value, float):
        # Tagged so 1.0 and 1 stay distinct keys; repr round-trips
        # floats exactly.  Coerced first: np.float64 subclasses float
        # but reprs as "np.float64(...)".
        return {"~f": repr(float(value))}
    if isinstance(value, np.integer):
        return int(value)
    if isinstance(value, np.floating):
        return {"~f": repr(float(value))}
    if isinstance(value, (tuple, list)):
        return [_encode(item) for item in value]
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        cls = type(value)
        return {
            "~dc": f"{cls.__module__}.{cls.__qualname__}",
            "f": {
                f.name: _encode(getattr(value, f.name))
                for f in dataclasses.fields(value)
            },
        }
    if isinstance(value, dict):
        pairs = [[_encode(k), _encode(v)] for k, v in value.items()]
        pairs.sort(key=lambda pair: json.dumps(pair[0], sort_keys=True))
        return {"~d": pairs}
    if isinstance(value, frozenset):
        items = [_encode(item) for item in value]
        items.sort(key=lambda item: json.dumps(item, sort_keys=True))
        return {"~s": items}
    raise UnstableKeyError(
        f"cache-key component of type {type(value).__qualname__} has no "
        "canonical encoding; the entry stays memory-only"
    )


def encode_key(key: tuple[Hashable, ...]) -> Any:
    """The canonical JSON-compatible encoding of one cache key.

    Raises :class:`UnstableKeyError` on components outside the
    closed-world vocabulary (see module docstring).
    """
    return _encode(tuple(key))


def key_digest(key: tuple[Hashable, ...], codec_version: int) -> Optional[str]:
    """SHA-256 content address of ``key``, or ``None`` if unencodable.

    The digest covers the store schema version and the stage codec
    version alongside the encoded key, so either bump cleanly orphans
    old entries.
    """
    try:
        encoded = encode_key(key)
    except UnstableKeyError:
        return None
    payload = json.dumps(
        {"schema": STORE_SCHEMA_VERSION, "codec": codec_version, "key": encoded},
        sort_keys=True,
        separators=(",", ":"),
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()
