"""Per-stage codecs of the artifact store's entries.

Every pipeline stage the store can persist gets one :class:`StageCodec`.
``encode(value)`` splits a stage value into ``(meta, blocks)``: a small
JSON-compatible ``meta`` record and named NumPy array ``blocks``, which
:class:`~repro.store.disk.ArtifactStore` writes as raw little-endian
bytes after the meta.  ``decode(meta, blocks)`` rebuilds the value from
the same pair; the blocks it is handed are read-only views of the
entry's bytes, which matches the cache's contract that cached values
are immutable.

* ``preprocess`` and ``wdup`` hold a JSON record and no blocks.  Their
  graphs are positional op rows (:func:`~repro.ir.serialize.graph_to_rows`:
  one table of op types and field names, then one row per op, in
  topological order); the rest rides the :mod:`repro.ir.serialize`
  vocabulary (duplication solutions, rewrites).  ``preprocess`` also
  carries the canonical graph's fingerprint, which decoding registers
  for the decoded graph, so a store-served graph is never hashed.
* ``tile`` holds the layer names and two int64 blocks, an ``(n, 6)``
  ``gemm`` geometry block and an ``(n, 2)`` ``pe_grid`` block;
  ``place`` holds the architecture record, the same two blocks for its
  own tilings and an ``(n, 2)`` ``pe_ranges`` block.  Placements store
  their tilings explicitly: unlike the compiled-artifact loader, a
  store decode has no mapped graph in hand to recompute them from.
* ``sets`` holds the layer names, a ``counts`` block and an ``(n, 4)``
  ``rects`` block; ``deps`` holds the layer names, the ``counts`` and
  the CSR ``indptr`` and ``indices``; ``schedule`` holds the policy and
  the layer names plus the nine
  :class:`~repro.core.schedule.ScheduleColumns` arrays.  Each
  block keeps the dtype its stage computed, so decoded dtypes equal
  computed ones, and each decoder checks that its blocks agree with
  each other before it builds anything.

Each codec carries a ``version`` that is folded into the entry's
content address (see :func:`repro.store.keys.key_digest`), so bumping
a codec orphans only that stage's entries.  It also names its blocks in
layout order; the store rejects an entry whose block table names
anything else.

Stages without a codec here (third-party mapping rules keyed through
``ctx.cached``) simply stay memory-only.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Optional

import numpy as np

from ..ir.serialize import (
    _SCHEDULE_COLUMNS,
    _duplication_from_dict,
    _duplication_to_dict,
    _rewrite_from_dict,
    _rewrite_to_dict,
    arch_from_dict,
    arch_to_dict,
    graph_from_rows,
    graph_to_rows,
)

__all__ = ["CODECS", "StageCodec", "codec_for"]

#: The JSON-compatible part of an entry.
Meta = dict[str, Any]
#: The array part of an entry, by block name.
Blocks = dict[str, np.ndarray]


@dataclass(frozen=True)
class StageCodec:
    """(encode, decode, version, block names) of one persistable stage."""

    stage: str
    version: int
    encode: Callable[[Any], tuple[Meta, Blocks]]
    decode: Callable[[Meta, Blocks], Any]
    #: Names of the blocks ``encode`` returns, in layout order.
    blocks: tuple[str, ...] = ()


def _meta_only(
    stage: str,
    version: int,
    encode: Callable[[Any], Meta],
    decode: Callable[[Meta], Any],
) -> StageCodec:
    """A codec whose entries hold a JSON record and no array blocks."""
    return StageCodec(
        stage, version, lambda value: (encode(value), {}), lambda meta, _blocks: decode(meta)
    )


def _layer_names(meta: Meta) -> list[str]:
    """The distinct layer names of ``meta`` (``ValueError`` otherwise)."""
    layers = meta["layers"]
    if (
        not isinstance(layers, list)
        or not all(isinstance(layer, str) for layer in layers)
        or len(set(layers)) != len(layers)
    ):
        raise ValueError("entry meta has no list of distinct layer names")
    return layers


# -- graphs (preprocess) ----------------------------------------------------
#
# The canonical graph as op rows, with its fingerprint: the decoded
# graph is registered under it, so the preprocess pass never hashes a
# graph the store served.  A cold compile still hashes its canonical
# graph once: the encoder memoizes the fingerprint that the preprocess
# pass then reads for its cache key.


def _encode_graph(value: Any) -> Meta:
    from ..core.cache import graph_fingerprint

    return {"fingerprint": graph_fingerprint(value), "graph": graph_to_rows(value)}


def _decode_graph(meta: Meta) -> Any:
    from ..core.cache import remember_fingerprint

    fingerprint = meta["fingerprint"]
    if not isinstance(fingerprint, str):
        raise ValueError("entry meta has no fingerprint")
    graph = graph_from_rows(meta["graph"])
    remember_fingerprint(graph, fingerprint)
    return graph


# -- tilings (tile, place) --------------------------------------------------
#
# The layer names as meta; per layer, one ``gemm`` row ``kernel_rows,
# kernel_cols, num_mvms, H, W, C`` and one ``pe_grid`` row ``P_V, P_H``.

_TILING_BLOCKS = ("gemm", "pe_grid")


def _encode_tilings(value: Any) -> tuple[Meta, Blocks]:
    if any(tiling.layer != layer for layer, tiling in value.items()):
        raise ValueError("a tiling is keyed by another layer's name")
    gemm = [
        (low.kernel_rows, low.kernel_cols, low.num_mvms, *low.ofm_shape.hwc)
        for low in (tiling.lowering for tiling in value.values())
    ]
    grid = [tiling.pe_grid for tiling in value.values()]
    return {"layers": list(value)}, {
        "gemm": np.array(gemm, dtype=np.int64).reshape(len(value), 6),
        "pe_grid": np.array(grid, dtype=np.int64).reshape(len(value), 2),
    }


def _decode_tilings(meta: Meta, blocks: Blocks) -> Any:
    from ..ir.tensor import Shape
    from ..mapping.im2col import GemmLowering
    from ..mapping.tiling import LayerTiling

    layers = _layer_names(meta)
    gemm, grid = blocks["gemm"], blocks["pe_grid"]
    if gemm.shape != (len(layers), 6) or grid.shape != (len(layers), 2):
        raise ValueError("inconsistent tilings payload")
    return {
        layer: LayerTiling(
            lowering=GemmLowering(layer, rows, cols, mvms, Shape(height, width, channels)),
            pe_grid=(pv, ph),
        )
        for layer, (rows, cols, mvms, height, width, channels), (pv, ph) in zip(
            layers, gemm.tolist(), grid.tolist()
        )
    }


# -- duplication solution + rewrite (wdup) ----------------------------------


def _encode_wdup(value: Any) -> Meta:
    duplication, rewrite = value
    return {
        "duplication": _duplication_to_dict(duplication),
        "graph": graph_to_rows(rewrite.graph),
        "rewrite": _rewrite_to_dict(rewrite),
    }


def _decode_wdup(meta: Meta) -> Any:
    mapped = graph_from_rows(meta["graph"])
    return (
        _duplication_from_dict(meta["duplication"]),
        _rewrite_from_dict(meta["rewrite"], mapped),
    )


# -- placement (place) ------------------------------------------------------
#
# The architecture and the tilings as the tile entry stores them, plus a
# ``pe_ranges`` row ``first, last + 1`` per layer.  The placement keeps
# its own tilings: under ``wdup`` they describe the mapped graph's
# duplicates, not the layers of the tile entry.


def _encode_placement(value: Any) -> tuple[Meta, Blocks]:
    if list(value.pe_ranges) != list(value.tilings):
        raise ValueError("placement ranges and tilings name different layers")
    meta, blocks = _encode_tilings(value.tilings)
    blocks["pe_ranges"] = np.array(
        list(value.pe_ranges.values()), dtype=np.int64
    ).reshape(len(meta["layers"]), 2)
    return {"arch": arch_to_dict(value.arch), **meta}, blocks


def _decode_placement(meta: Meta, blocks: Blocks) -> Any:
    from ..mapping.placement import Placement

    tilings = _decode_tilings(meta, blocks)
    ranges = blocks["pe_ranges"]
    if ranges.shape != (len(tilings), 2):
        raise ValueError("inconsistent placement payload")
    return Placement(
        arch=arch_from_dict(meta["arch"]),
        pe_ranges={
            layer: (start, end) for layer, (start, end) in zip(tilings, ranges.tolist())
        },
        tilings=tilings,
    )


# -- Stage I sets (sets) and Stage II dependencies (deps) -------------------
#
# ``sets`` stores the layer names as meta, the set count of every layer
# as ``counts`` and every set rectangle as one ``(n, 4)`` ``rects`` row
# ``r0, c0, r1, c1``, in set-id order, in the int32 of the set graph's
# rect columns.  ``deps`` stores the layer names, the ``counts`` and the
# CSR ``indptr`` and ``indices`` over the same set ids, but no
# rectangles: it decodes to a :class:`~repro.core.dependencies.DependencyCSR`,
# which the dependencies pass pairs with the sets it holds.  Neither
# side builds a ``Rect`` or the ``deps`` dict view.


def _encode_sets(value: Any) -> tuple[Meta, Blocks]:
    from ..core.sets import SetPartition

    sets = SetPartition.of(value)
    return {"layers": list(sets.layers)}, {
        "counts": np.diff(sets.offsets),
        "rects": sets.coords.T.astype(np.int32),
    }


def _decode_counts(meta: Meta, blocks: Blocks) -> tuple[list[str], np.ndarray]:
    """Layers and set-id offsets of a sets/deps entry."""
    from ..core.sets import set_offsets

    layers = _layer_names(meta)
    counts = blocks["counts"]
    if counts.shape != (len(layers),) or (counts < 0).any():
        raise ValueError("inconsistent set counts")
    return layers, set_offsets(counts)


def _decode_sets(meta: Meta, blocks: Blocks) -> Any:
    """The partition over one int64 copy of the entry's ``rects`` block;
    layers with equal blocks share one view of it."""
    from ..core.sets import SetPartition

    layers, offsets = _decode_counts(meta, blocks)
    rects = blocks["rects"]
    if rects.shape != (int(offsets[-1]), 4):
        raise ValueError("inconsistent sets payload")
    # int64 coordinates, as Stage I makes them: ``area`` derives from them.
    coords = np.ascontiguousarray(rects.T, dtype=np.int64)
    return SetPartition.from_columns(layers, offsets, coords)


def _encode_deps(value: Any) -> tuple[Meta, Blocks]:
    arrays = value.arrays
    return {"layers": list(arrays.layers)}, {
        "counts": np.diff(arrays.offsets),
        "indptr": arrays.indptr,
        "indices": arrays.indices,
    }


def _decode_deps(meta: Meta, blocks: Blocks) -> Any:
    from ..core.dependencies import DependencyCSR

    layers, offsets = _decode_counts(meta, blocks)
    n = int(offsets[-1])
    indptr, indices = blocks["indptr"], blocks["indices"]
    if (
        indptr.shape != (n + 1,)
        or indptr[0] != 0
        or (np.diff(indptr) < 0).any()
        or indices.shape != (int(indptr[-1]),)
        or (len(indices) and (indices.min() < 0 or indices.max() >= n))
    ):
        raise ValueError("inconsistent deps payload")
    return DependencyCSR(tuple(layers), offsets, indptr, indices)


# -- schedule ---------------------------------------------------------------
#
# The policy and the layer names as meta, one block per column of
# ``ScheduleColumns`` in its own dtype.


def _encode_schedule(value: Any) -> tuple[Meta, Blocks]:
    cols = value.columns()
    return (
        {"policy": value.policy, "layers": list(cols.layers)},
        {name: getattr(cols, name) for name in _SCHEDULE_COLUMNS},
    )


def _decode_schedule(meta: Meta, blocks: Blocks) -> Any:
    from ..core.schedule import Schedule, ScheduleColumns

    policy, layers = meta["policy"], _layer_names(meta)
    layer_id = blocks["layer_id"]
    n = layer_id.size
    if (
        not isinstance(policy, str)
        or any(blocks[name].shape != (n,) for name in _SCHEDULE_COLUMNS)
        or (n and (layer_id.min() < 0 or layer_id.max() >= len(layers)))
    ):
        raise ValueError("inconsistent schedule payload")
    return Schedule(
        policy=policy,
        columns=ScheduleColumns(
            layers=tuple(layers), **{name: blocks[name] for name in _SCHEDULE_COLUMNS}
        ),
    )


#: Stage name → codec, for every stage the pipeline caches.
CODECS: dict[str, StageCodec] = {
    codec.stage: codec
    for codec in (
        _meta_only("preprocess", 2, _encode_graph, _decode_graph),
        StageCodec("tile", 2, _encode_tilings, _decode_tilings, _TILING_BLOCKS),
        _meta_only("wdup", 2, _encode_wdup, _decode_wdup),
        StageCodec(
            "place", 2, _encode_placement, _decode_placement, (*_TILING_BLOCKS, "pe_ranges")
        ),
        StageCodec("sets", 2, _encode_sets, _decode_sets, ("counts", "rects")),
        StageCodec("deps", 4, _encode_deps, _decode_deps, ("counts", "indptr", "indices")),
        StageCodec("schedule", 2, _encode_schedule, _decode_schedule, _SCHEDULE_COLUMNS),
    )
}


def codec_for(stage: str) -> Optional[StageCodec]:
    """The codec of ``stage``, or ``None`` (entry stays memory-only)."""
    return CODECS.get(stage)
