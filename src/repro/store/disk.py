"""The disk-backed, content-addressed artifact store.

:class:`ArtifactStore` persists pipeline-stage results under a root
directory::

    <root>/
      meta.json            # store format marker + schema version
      store.lock           # advisory writer/GC lock (flock)
      manifest.jsonl       # append-only publish journal (header first)
      objects/<dd>/<digest>.json
      tmp/                 # in-flight writes (unique names, fsynced)
      quarantine/          # entries that failed integrity checks

Entries are addressed by the SHA-256 of the canonically-encoded cache
key (:func:`repro.store.keys.key_digest`) — the same
``(stage, graph fingerprint, arch, option prefix)`` tuples the
in-memory :class:`~repro.core.cache.CompilationCache` uses — so any
process that builds the same key reads the same file.

Entry format (schema 2).  An entry is one JSON header line, then a
binary body::

    {"format", "schema", "stage", "codec", "sha256", "meta_bytes",
     "blocks": [[name, dtype, shape, offset], ...]}   + padding + "\n"
    <meta JSON> <block> <block> ...

The body is the stage codec's JSON ``meta`` (``meta_bytes`` long),
then its array blocks as raw little-endian ``<i4``/``<i8`` bytes, each
at an offset (from the body's start) that is a multiple of 8; the
header line is padded so the body is 8-aligned in the file too.
``sha256`` covers the body exactly as written, so a read hashes the
bytes once, parses the small meta, and maps every block with
``np.frombuffer`` — nothing is re-encoded (see
:mod:`repro.store.codecs`).  A schema-1 entry (one JSON document) is
never read: the schema is folded into every digest.  Its header line
is the whole entry, so :meth:`ArtifactStore.stats` still names its
stage, and :meth:`ArtifactStore.gc` reclaims it.

Crash safety and concurrency:

* **Atomic publish**: entries are written to a unique file under
  ``tmp/``, fsynced, then ``os.replace``d into ``objects/``; readers
  can never observe a partial entry, and a writer killed mid-publish
  leaves only tmp litter (swept by :meth:`gc`).
* **Advisory locking**: an ``flock`` on ``store.lock`` serializes
  publishes, manifest appends, GC, and ``clear`` between concurrent
  writers; reads are lock-free.
* **Integrity on read**: the body's SHA-256 is verified before
  decoding, and the block table must lay the blocks out exactly as a
  writer does (known dtypes, in-bounds, no overlap, no trailing
  bytes) before any block is mapped; undecodable or mismatching
  entries are moved to ``quarantine/`` and treated as a miss — a
  corrupt store never crashes a compile, it recompiles.
* **LRU + size budget**: reads touch the entry mtime; :meth:`gc`
  evicts oldest-read entries until the store fits ``max_bytes``.
  A store constructed with ``max_bytes`` also self-collects when
  publishes push it past the budget.

Every failure mode on the read/write path degrades to a miss — the
store is an accelerator, never a correctness dependency.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
from dataclasses import dataclass, field
from typing import Any, Hashable, Optional

import numpy as np

from .codecs import StageCodec, codec_for
from .keys import STORE_SCHEMA_VERSION, key_digest
from .locks import FileLock

__all__ = ["ArtifactStore", "GCResult", "StoreStats"]

#: Document marker of store metadata and entry files.
STORE_FORMAT = "clsa-cim-store"
ENTRY_FORMAT = "clsa-cim-store-entry"

#: tmp files older than this (seconds) are crash litter and GC-swept.
_TMP_MAX_AGE_S = 3600.0

#: Block dtypes an entry may hold, with their item sizes.
_BLOCK_DTYPES = {"<i4": 4, "<i8": 8}

#: Blocks start at multiples of this many bytes from the body's start.
_ALIGN = 8


def _pack_entry(stage: str, codec: StageCodec, value: Any) -> bytes:
    """The bytes of one entry: the header line, then meta and blocks."""
    meta, arrays = codec.encode(value)
    if tuple(arrays) != codec.blocks:
        raise ValueError(f"{stage} codec returned blocks {tuple(arrays)}")
    # No sort_keys: meta dicts keyed by layer name carry topological
    # order that decoding must see again.
    parts = [json.dumps(meta, separators=(",", ":")).encode("utf-8")]
    size = len(parts[0])
    table: list[list[Any]] = []
    for name, array in arrays.items():
        block = np.ascontiguousarray(array, dtype=array.dtype.newbyteorder("<"))
        if block.dtype.str not in _BLOCK_DTYPES:
            raise ValueError(f"block {name!r} has unsupported dtype {block.dtype}")
        pad = -size % _ALIGN
        parts.append(bytes(pad))
        size += pad
        table.append([name, block.dtype.str, list(block.shape), size])
        parts.append(block.tobytes())
        size += block.nbytes
    body = b"".join(parts)
    header = json.dumps(
        {
            "format": ENTRY_FORMAT,
            "schema": STORE_SCHEMA_VERSION,
            "stage": stage,
            "codec": codec.version,
            "sha256": hashlib.sha256(body).hexdigest(),
            "meta_bytes": len(parts[0]),
            "blocks": table,
        },
        separators=(",", ":"),
    ).encode("utf-8")
    # Pad the header line so the body starts 8-aligned in the file.
    return header + b" " * (-(len(header) + 1) % _ALIGN) + b"\n" + body


def _unpack_entry(raw: bytes, stage: str, codec: StageCodec) -> Any:
    """Decode the bytes of one entry; raises on any mismatch or damage.

    The block table is checked against the layout :func:`_pack_entry`
    writes before any block is mapped, with sizes in Python ints, so a
    damaged or forged table can never map past the file.
    """
    split = raw.index(b"\n")
    header = json.loads(raw[:split])
    if (
        not isinstance(header, dict)
        or header.get("format") != ENTRY_FORMAT
        or header.get("schema") != STORE_SCHEMA_VERSION
        or header.get("stage") != stage
        or header.get("codec") != codec.version
    ):
        raise ValueError("entry header mismatch")
    body = memoryview(raw)[split + 1 :]
    if header.get("sha256") != hashlib.sha256(body).hexdigest():
        raise ValueError("entry body digest mismatch")
    end, table = header["meta_bytes"], header["blocks"]
    if (
        type(end) is not int
        or not 0 <= end <= len(body)
        or not isinstance(table, list)
        or [entry[0] for entry in table] != list(codec.blocks)
    ):
        raise ValueError("entry layout mismatch")
    meta = json.loads(raw[split + 1 : split + 1 + end])
    if not isinstance(meta, dict):
        raise ValueError("entry meta is not a record")
    blocks: dict[str, np.ndarray] = {}
    for name, dtype, shape, offset in table:
        itemsize = _BLOCK_DTYPES.get(dtype) if isinstance(dtype, str) else None
        if (
            itemsize is None
            or not isinstance(shape, list)
            or not all(type(dim) is int and dim >= 0 for dim in shape)
            or type(offset) is not int
            or offset != end + (-end % _ALIGN)
        ):
            raise ValueError(f"entry block {name!r} is malformed")
        count = math.prod(shape)
        end = offset + count * itemsize
        if end > len(body):
            raise ValueError(f"entry block {name!r} runs past the entry")
        blocks[name] = np.frombuffer(body, dtype=dtype, count=count, offset=offset).reshape(
            shape
        )
    if end != len(body):
        raise ValueError("entry has trailing bytes")
    return codec.decode(meta, blocks)


@dataclass(frozen=True)
class GCResult:
    """Outcome of one :meth:`ArtifactStore.gc` run."""

    evicted_entries: int
    evicted_bytes: int
    remaining_entries: int
    remaining_bytes: int
    swept_tmp: int = 0


@dataclass(frozen=True)
class StoreStats:
    """A point-in-time summary of one store (disk state + session counters)."""

    root: str
    schema: int
    entries: int
    total_bytes: int
    per_stage: dict[str, tuple[int, int]] = field(default_factory=dict)
    quarantined: int = 0
    #: This process's read/write outcomes since the store was opened.
    session_hits: int = 0
    session_misses: int = 0
    session_corrupt: int = 0
    session_writes: int = 0

    def to_dict(self) -> dict[str, Any]:
        """JSON-compatible form (CLI ``--format json``)."""
        return {
            "root": self.root,
            "schema": self.schema,
            "entries": self.entries,
            "total_bytes": self.total_bytes,
            "per_stage": {
                stage: {"entries": count, "bytes": size}
                for stage, (count, size) in sorted(self.per_stage.items())
            },
            "quarantined": self.quarantined,
            "session": {
                "hits": self.session_hits,
                "misses": self.session_misses,
                "corrupt": self.session_corrupt,
                "writes": self.session_writes,
            },
        }


class ArtifactStore:
    """Disk-backed second cache tier (see module docstring).

    Parameters
    ----------
    root:
        Store directory; created (with parents) when missing.
    max_bytes:
        Optional standing size budget: publishes that push the store
        past it trigger an automatic :meth:`gc` back under budget.
        ``None`` (default) never self-collects — run ``repro cache gc``
        or :meth:`gc` explicitly.
    """

    def __init__(self, root: str, *, max_bytes: Optional[int] = None) -> None:
        if max_bytes is not None and max_bytes < 0:
            raise ValueError(f"max_bytes must be >= 0, got {max_bytes}")
        self.root = os.path.abspath(os.fspath(root))
        self.max_bytes = max_bytes
        self._objects = os.path.join(self.root, "objects")
        self._tmp = os.path.join(self.root, "tmp")
        self._quarantine = os.path.join(self.root, "quarantine")
        self._manifest = os.path.join(self.root, "manifest.jsonl")
        self._lock_path = os.path.join(self.root, "store.lock")
        for path in (self.root, self._objects, self._tmp, self._quarantine):
            os.makedirs(path, exist_ok=True)
        self._write_meta()
        #: Read/write outcomes of this process (mirrors StageStats
        #: granularity).
        self.hits = 0
        self.misses = 0
        self.corrupt = 0
        self.writes = 0
        self._approx_bytes: Optional[int] = None
        self._publish_seq = 0

    def __repr__(self) -> str:
        return f"ArtifactStore({self.root!r})"

    @property
    def path(self) -> str:
        """The store root (alias of :attr:`root`)."""
        return self.root

    # -- layout --------------------------------------------------------

    def _entry_path(self, digest: str) -> str:
        return os.path.join(self._objects, digest[:2], f"{digest}.json")

    def _lock(self) -> FileLock:
        return FileLock(self._lock_path)

    def _write_meta(self) -> None:
        meta_path = os.path.join(self.root, "meta.json")
        record = {"format": STORE_FORMAT, "schema": STORE_SCHEMA_VERSION}
        try:
            with open(meta_path, "r", encoding="utf-8") as handle:
                if json.load(handle) == record:
                    return
        except (OSError, ValueError):
            pass
        # New store, older schema, or damaged meta: stamp the current
        # schema.  Old-schema entries are unreachable either way (the
        # schema is folded into every digest); GC reclaims them.
        try:
            with self._lock():
                with open(meta_path, "w", encoding="utf-8") as handle:
                    json.dump(record, handle)
        except OSError:
            pass

    # -- read path -----------------------------------------------------

    def get(self, stage: str, key: tuple[Hashable, ...]) -> tuple[bool, Any]:
        """Look up ``key`` → ``(hit, value)``.

        Never raises: unencodable keys, missing entries, I/O errors,
        and corrupt/undecodable entries all return ``(False, None)``
        (corrupt entries are additionally quarantined).
        """
        codec = codec_for(stage)
        if codec is None:
            return False, None
        digest = key_digest(key, codec.version)
        if digest is None:
            return False, None
        path = self._entry_path(digest)
        try:
            with open(path, "rb") as handle:
                raw = handle.read()
        except OSError:
            self.misses += 1
            return False, None
        try:
            value = _unpack_entry(raw, stage, codec)
        except Exception:
            self._quarantine_entry(path, digest)
            self.corrupt += 1
            self.misses += 1
            return False, None
        try:
            os.utime(path, None)  # LRU touch
        except OSError:
            pass
        self.hits += 1
        return True, value

    def _quarantine_entry(self, path: str, digest: str) -> None:
        """Move a bad entry aside so it is recompiled, not re-read."""
        target = os.path.join(self._quarantine, f"{digest}.json")
        try:
            os.replace(path, target)
        except OSError:
            try:
                os.remove(path)
            except OSError:
                pass

    # -- write path ----------------------------------------------------

    def put(self, stage: str, key: tuple[Hashable, ...], value: Any) -> bool:
        """Publish ``value`` under ``key``; returns whether it is stored.

        Best-effort and crash-safe: the entry is written to a unique
        tmp file, fsynced, and atomically renamed into place under the
        writer lock.  Unencodable keys/values and I/O failures return
        ``False`` without raising.
        """
        codec = codec_for(stage)
        if codec is None:
            return False
        digest = key_digest(key, codec.version)
        if digest is None:
            return False
        path = self._entry_path(digest)
        if os.path.exists(path):
            return True
        try:
            data = _pack_entry(stage, codec, value)
        except Exception:
            return False
        tmp_path = os.path.join(
            self._tmp, f"{digest}.{os.getpid()}.{os.urandom(4).hex()}"
        )
        try:
            with open(tmp_path, "wb") as handle:
                handle.write(data)
                handle.flush()
                os.fsync(handle.fileno())
            os.makedirs(os.path.dirname(path), exist_ok=True)
            with self._lock():
                os.replace(tmp_path, path)
                self._append_manifest(digest, stage, len(data))
        except OSError:
            try:
                os.remove(tmp_path)
            except OSError:
                pass
            return False
        self.writes += 1
        self._after_publish(len(data))
        return True

    def _append_manifest(self, digest: str, stage: str, size: int) -> None:
        """Journal one publish (caller holds the writer lock)."""
        line = json.dumps(
            {"digest": digest, "stage": stage, "bytes": size},
            sort_keys=True,
            separators=(",", ":"),
        )
        try:
            fresh = not os.path.exists(self._manifest)
            with open(self._manifest, "a", encoding="utf-8") as handle:
                if fresh:
                    header = json.dumps(
                        {"format": STORE_FORMAT, "schema": STORE_SCHEMA_VERSION},
                        sort_keys=True,
                        separators=(",", ":"),
                    )
                    handle.write(header + "\n")
                handle.write(line + "\n")
                handle.flush()
        except OSError:
            pass

    def _after_publish(self, size: int) -> None:
        """Keep the running size estimate; self-collect over budget."""
        if self.max_bytes is None:
            return
        if self._approx_bytes is None:
            self._approx_bytes = sum(s for _p, s, _m in self._scan_entries())
        else:
            self._approx_bytes += size
        if self._approx_bytes > self.max_bytes:
            self.gc(self.max_bytes)

    # -- index / maintenance -------------------------------------------

    def index(self) -> list[dict[str, Any]]:
        """The journalled publishes (manifest records, torn tail tolerated)."""
        records: list[dict[str, Any]] = []
        try:
            with open(self._manifest, "r", encoding="utf-8") as handle:
                lines = handle.read().splitlines()
        except OSError:
            return records
        for line in lines[1:]:  # skip header
            try:
                record = json.loads(line)
            except ValueError:
                continue  # torn final line from a killed writer
            if isinstance(record, dict) and "digest" in record:
                records.append(record)
        return records

    def _scan_entries(self) -> list[tuple[str, int, float]]:
        """Every published entry as ``(path, size, mtime)``."""
        entries: list[tuple[str, int, float]] = []
        try:
            shards = sorted(os.scandir(self._objects), key=lambda e: e.name)
        except OSError:
            return entries
        for shard in shards:
            if not shard.is_dir():
                continue
            try:
                children = sorted(os.scandir(shard.path), key=lambda e: e.name)
            except OSError:
                continue
            for child in children:
                if not child.name.endswith(".json"):
                    continue
                try:
                    info = child.stat()
                except OSError:
                    continue
                entries.append((child.path, info.st_size, info.st_mtime))
        return entries

    def _entry_stage(self, path: str) -> str:
        """The stage in one entry's header line (``"?"`` when unreadable).

        A schema-1 entry is one JSON line, so its stage reads the same way.
        """
        try:
            with open(path, "rb") as handle:
                record = json.loads(handle.readline())
        except (OSError, ValueError):
            return "?"
        return str(record.get("stage", "?")) if isinstance(record, dict) else "?"

    def stats(self) -> StoreStats:
        """Current disk state plus this process's read counters."""
        per_stage: dict[str, tuple[int, int]] = {}
        total = 0
        entries = self._scan_entries()
        for path, size, _mtime in entries:
            stage = self._entry_stage(path)
            count, stage_bytes = per_stage.get(stage, (0, 0))
            per_stage[stage] = (count + 1, stage_bytes + size)
            total += size
        try:
            quarantined = len(
                [e for e in os.scandir(self._quarantine) if e.is_file()]
            )
        except OSError:
            quarantined = 0
        return StoreStats(
            root=self.root,
            schema=STORE_SCHEMA_VERSION,
            entries=len(entries),
            total_bytes=total,
            per_stage=per_stage,
            quarantined=quarantined,
            session_hits=self.hits,
            session_misses=self.misses,
            session_corrupt=self.corrupt,
            session_writes=self.writes,
        )

    def gc(self, max_bytes: Optional[int] = None) -> GCResult:
        """Sweep crash litter and evict LRU entries down to ``max_bytes``.

        ``max_bytes`` defaults to the store's standing budget; with
        neither set only tmp litter is swept.  Quarantined entries
        count toward the budget and are evicted *first* (they are dead
        weight — never read again, kept only for post-mortems); live
        entries then evict in mtime order — reads touch entries, so
        this is least-recently-*used*, not least-recently-written.
        """
        budget = max_bytes if max_bytes is not None else self.max_bytes
        import time as _time

        now = _time.time()
        with self._lock():
            swept = 0
            try:
                tmp_files = list(os.scandir(self._tmp))
            except OSError:
                tmp_files = []
            for entry in tmp_files:
                try:
                    if now - entry.stat().st_mtime >= _TMP_MAX_AGE_S:
                        os.remove(entry.path)
                        swept += 1
                except OSError:
                    pass
            entries = self._scan_entries()
            quarantined = self._scan_quarantine()
            total = sum(size for _p, size, _m in entries)
            total += sum(size for _p, size, _m in quarantined)
            evicted = 0
            evicted_bytes = 0
            if budget is not None and total > budget:
                entries.sort(key=lambda item: item[2])  # oldest mtime first
                quarantined.sort(key=lambda item: item[2])
                for path, size, _mtime in quarantined + entries:
                    if total <= budget:
                        break
                    try:
                        os.remove(path)
                    except OSError:
                        continue
                    total -= size
                    evicted += 1
                    evicted_bytes += size
            remaining = self._scan_entries()
            self._rewrite_manifest(remaining)
            self._approx_bytes = sum(size for _p, size, _m in remaining)
            return GCResult(
                evicted_entries=evicted,
                evicted_bytes=evicted_bytes,
                remaining_entries=len(remaining),
                remaining_bytes=self._approx_bytes,
                swept_tmp=swept,
            )

    def _scan_quarantine(self) -> list[tuple[str, int, float]]:
        """Every quarantined entry as ``(path, size, mtime)``."""
        entries: list[tuple[str, int, float]] = []
        try:
            files = sorted(os.scandir(self._quarantine), key=lambda e: e.name)
        except OSError:
            return entries
        for entry in files:
            try:
                if not entry.is_file():
                    continue
                stat = entry.stat()
            except OSError:
                continue
            entries.append((entry.path, stat.st_size, stat.st_mtime))
        return entries

    def _rewrite_manifest(self, entries: list[tuple[str, int, float]]) -> None:
        """Compact the manifest to the surviving entries (lock held)."""
        lines = [
            json.dumps(
                {"format": STORE_FORMAT, "schema": STORE_SCHEMA_VERSION},
                sort_keys=True,
                separators=(",", ":"),
            )
        ]
        for path, size, _mtime in entries:
            digest = os.path.splitext(os.path.basename(path))[0]
            lines.append(
                json.dumps(
                    {
                        "digest": digest,
                        "stage": self._entry_stage(path),
                        "bytes": size,
                    },
                    sort_keys=True,
                    separators=(",", ":"),
                )
            )
        tmp_path = os.path.join(self._tmp, f"manifest.{os.getpid()}")
        try:
            with open(tmp_path, "w", encoding="utf-8") as handle:
                handle.write("\n".join(lines) + "\n")
            os.replace(tmp_path, self._manifest)
        except OSError:
            pass

    def clear(self) -> int:
        """Remove every entry (and quarantine/tmp litter); returns count."""
        removed = 0
        with self._lock():
            for path, _size, _mtime in self._scan_entries():
                try:
                    os.remove(path)
                    removed += 1
                except OSError:
                    pass
            for directory in (self._quarantine, self._tmp):
                try:
                    children = list(os.scandir(directory))
                except OSError:
                    continue
                for entry in children:
                    try:
                        os.remove(entry.path)
                    except OSError:
                        pass
            self._rewrite_manifest([])
            self._approx_bytes = 0
        return removed
