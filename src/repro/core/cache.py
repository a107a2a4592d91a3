"""Stage-level compilation cache.

Sweeps (Sec. V) compile the *same* model ten-plus times with slightly
different options: the graph is preprocessed identically every time,
tiled identically for every PE budget, and the ``wdup``/``wdup+xinf``
pair at each ``x`` shares its duplication rewrite, placement, and
Stage I sets.  :class:`CompilationCache` memoizes each pipeline stage
under a key built from *prefixes* of ``(graph fingerprint, arch,
options)`` — a stage's key contains exactly the inputs that stage
depends on, so every reusable intermediate is computed once per sweep.

With a persistent :class:`~repro.store.disk.ArtifactStore` attached
(``CompilationCache(store=...)``, or ``Session(store_path=...)``) the
cache becomes two-tiered: memory misses fall through to a
read-through disk lookup under the *same* key, and computed values are
written through to disk — so stage reuse survives process boundaries,
sessions, and restarts, and changing one schedule knob still serves
the preprocess/tile/place/sets/deps artifacts from disk.

Cached values are shared between compilation results and must be
treated as immutable by callers.
"""

from __future__ import annotations

import hashlib
import json
import weakref
from collections import OrderedDict
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable, Hashable, Optional

import numpy as np

from ..ir.graph import Graph
from ..ir.serialize import _PARAM_FIELDS, graph_to_dict

if TYPE_CHECKING:
    from ..store.disk import ArtifactStore

#: A fully-resolved cache key: ``(stage name, *stage inputs)``.
CacheKey = tuple[Hashable, ...]


def _graph_fingerprint_uncached(graph: Graph) -> str:
    record = graph_to_dict(graph, include_params=False)
    payload = json.dumps(record, sort_keys=True, separators=(",", ":"))
    digest = hashlib.sha256(payload.encode("utf-8"))
    # Parameters in the record's topological order, which a graph
    # rebuilt from its serialized nodes keeps as its insertion order.
    for node in record["nodes"]:
        op = graph[node["name"]]
        for name in _PARAM_FIELDS:
            value = getattr(op, name, None)
            if value is None:
                continue
            array = np.asarray(value)
            digest.update(
                f"{op.name}.{name}:{array.dtype}:{array.shape}".encode("utf-8")
            )
            digest.update(array.tobytes())
    return digest.hexdigest()


#: id(graph) -> (weakref to graph, fingerprint).  The weakref guards
#: against id reuse after garbage collection; its callback drops the
#: slot when the graph dies (unless the id was already reused).
_FINGERPRINTS: dict[int, tuple["weakref.ref[Graph]", str]] = {}


def _evict_fingerprint(key: int, ref: "weakref.ref[Graph]") -> None:
    entry = _FINGERPRINTS.get(key)
    if entry is not None and entry[0] is ref:
        del _FINGERPRINTS[key]


def graph_fingerprint(graph: Graph) -> str:
    """Content hash of a graph: geometry plus numeric parameters.

    The geometry part hashes the serialized ops/attributes/wiring; any
    attached parameter arrays (weights, biases, BN statistics) are
    folded in as raw bytes.  Parameters must participate because the
    preprocess and rewrite stages cache *graphs*: two structurally
    identical models with different weights may not share a cache
    entry, or a lookup would return the wrong model's parameters.
    Zoo/schedule-only graphs carry no parameters, so this costs
    nothing on the paper's sweep path.

    The result is memoized per live graph object (weakref-keyed), so
    repeated Session/sweep calls over one graph hash it exactly once.
    The memo assumes graphs are not mutated after their first
    fingerprint — the same immutability contract cached stage values
    already rely on.  Code that *does* mutate a fingerprinted graph
    (adding ops, swapping parameter arrays) must call
    :func:`invalidate_fingerprint` on it first, or lookups will be
    served stale keys.
    """
    entry = _FINGERPRINTS.get(id(graph))
    if entry is not None and entry[0]() is graph:
        return entry[1]
    value = _graph_fingerprint_uncached(graph)
    remember_fingerprint(graph, value)
    return value


def remember_fingerprint(graph: Graph, fingerprint: str) -> None:
    """Memoize ``fingerprint`` as :func:`graph_fingerprint` of ``graph``.

    For decoders that rebuild a graph whose fingerprint they carry (the
    artifact store's ``preprocess`` entry), so the graph is not hashed
    again.
    """
    key = id(graph)
    try:
        ref = weakref.ref(graph, lambda r, key=key: _evict_fingerprint(key, r))
    except TypeError:  # pragma: no cover - Graph is weakref-able
        return
    _FINGERPRINTS[key] = (ref, fingerprint)


def invalidate_fingerprint(graph: Graph) -> None:
    """Drop the memoized fingerprint of ``graph`` (call before mutating)."""
    _FINGERPRINTS.pop(id(graph), None)


@dataclass
class StageStats:
    """Hit/miss counters of one pipeline stage.

    ``memory_hits`` were served from this process's memory tier,
    ``store_hits`` from the persistent artifact store (when one is
    attached); ``hits`` is their sum, preserving the historical
    two-counter view.
    """

    memory_hits: int = 0
    store_hits: int = 0
    misses: int = 0

    @property
    def hits(self) -> int:
        return self.memory_hits + self.store_hits

    @property
    def lookups(self) -> int:
        return self.hits + self.misses


class CompilationCache:
    """LRU cache over pipeline-stage results.

    Parameters
    ----------
    max_entries:
        Optional bound on stored values (least-recently-used eviction);
        ``None`` (default) means unbounded — a full paper sweep stores
        well under a hundred entries.
    store:
        Optional persistent :class:`~repro.store.disk.ArtifactStore`
        layered under the memory tier: memory misses read through to
        disk, and computed values write through — stage reuse then
        survives processes, sessions, and restarts.  ``None`` (default)
        keeps the historical memory-only behaviour.
    """

    def __init__(
        self,
        max_entries: Optional[int] = None,
        store: Optional["ArtifactStore"] = None,
    ) -> None:
        if max_entries is not None and max_entries < 1:
            raise ValueError(f"max_entries must be >= 1, got {max_entries}")
        self.max_entries = max_entries
        self.store = store
        self._store: "OrderedDict[CacheKey, Any]" = OrderedDict()
        self.stats: dict[str, StageStats] = {}

    def __len__(self) -> int:
        return len(self._store)

    def __contains__(self, key: CacheKey) -> bool:
        return key in self._store

    def attach_store(self, store: Optional["ArtifactStore"]) -> None:
        """Attach a persistent store to an existing cache.

        A no-op for ``None`` or the already-attached store; replacing
        one store with a different one is an error (two tiers with
        different histories would silently disagree).
        """
        if store is None or store is self.store:
            return
        if self.store is not None:
            raise ValueError("cache already has a different store attached")
        self.store = store

    def _insert(self, key: CacheKey, value: Any) -> None:
        self._store[key] = value
        if self.max_entries is not None and len(self._store) > self.max_entries:
            self._store.popitem(last=False)

    def get_or_compute(self, key: CacheKey, compute: Callable[[], Any]) -> Any:
        """The cached value under ``key``, computing and storing on miss.

        Lookup order: memory tier, then (when a store is attached) a
        read-through disk lookup; values computed on a full miss are
        written through to both tiers.  Store I/O is best-effort — any
        disk failure degrades to a plain compute.
        """
        stage = str(key[0])
        stats = self.stats.setdefault(stage, StageStats())
        if key in self._store:
            stats.memory_hits += 1
            self._store.move_to_end(key)
            return self._store[key]
        if self.store is not None:
            found, value = self.store.get(stage, key)
            if found:
                stats.store_hits += 1
                self._insert(key, value)
                return value
        stats.misses += 1
        value = compute()
        self._insert(key, value)
        if self.store is not None:
            self.store.put(stage, key, value)
        return value

    def fingerprint(self, graph: Graph) -> str:
        """The cache-key fingerprint of ``graph``: :func:`graph_fingerprint`.

        Its one per-graph memo is the module's, so
        :func:`invalidate_fingerprint` reaches every cache.
        """
        return graph_fingerprint(graph)

    def clear(self) -> None:
        """Drop all memory-tier values (stats and the store are kept)."""
        self._store.clear()

    @property
    def hits(self) -> int:
        """Total cache hits across all stages (memory + store tiers)."""
        return sum(s.hits for s in self.stats.values())

    @property
    def memory_hits(self) -> int:
        """Total memory-tier hits across all stages."""
        return sum(s.memory_hits for s in self.stats.values())

    @property
    def store_hits(self) -> int:
        """Total persistent-store hits across all stages."""
        return sum(s.store_hits for s in self.stats.values())

    @property
    def misses(self) -> int:
        """Total cache misses across all stages."""
        return sum(s.misses for s in self.stats.values())

    def stats_snapshot(self) -> dict[str, tuple[int, int, int]]:
        """Per-stage ``(memory_hits, store_hits, misses)`` counters.

        A cheap copy for delta bookkeeping (the job runtime snapshots
        around each compile to report per-job, per-stage deltas).
        """
        return {
            stage: (s.memory_hits, s.store_hits, s.misses)
            for stage, s in self.stats.items()
        }

    def summary(self) -> str:
        """One line per stage: ``stage: hits/lookups`` (+ disk share)."""
        lines = []
        for stage, stats in sorted(self.stats.items()):
            line = f"{stage}: {stats.hits}/{stats.lookups} hits"
            if self.store is not None:
                line += f" ({stats.store_hits} from store)"
            lines.append(line)
        return "\n".join(lines) if lines else "(no lookups)"
