"""Stage II of CLSA-CIM: determine dependencies (Sec. IV-2).

For every OFM set of every base layer, compute which OFM sets of
predecessor base layers must be finished before the set can start.
The set's required IFM region is obtained from the layer's backward
region rule, then propagated further backwards along the non-base
layer path (pooling, padding, activation, concat, ...) until base
layers (or graph inputs) are reached; any predecessor set intersecting
the propagated region becomes a data dependency.

This realizes the paper's P/Q relations (each OFM set can influence
multiple IFM sets and vice versa) without a separate forward pass.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..ir.graph import Graph
from ..ir.ops import Input, empty_columns
from ..ir.tensor import Rect
from .kernels import (
    SetGraphArrays, gid_columns, layer_rect_columns, lower_dependencies, set_offsets,
)

#: A (layer name, set index) pair identifying one scheduling set.
SetRef = tuple[str, int]


class DependencyGraph:
    """Set-level data dependencies of a model.

    The graph is stored as the CSR set graph
    (:class:`~repro.core.kernels.SetGraphArrays`: ``indptr`` /
    ``indices`` over global set ids), which Stage II emits directly and
    the schedulers, the energy model and the verifier read.

    Attributes
    ----------
    sets:
        Stage I output: per-layer OFM set rectangles.
    deps:
        Per (layer, set index), the list of predecessor sets that must
        complete first.  Sets reading only the graph input have an
        empty list.  A view built from the arrays on first access, for
        the reference consumers; a graph may also be constructed from
        this dict alone, and is then lowered to arrays on first use.
    """

    __slots__ = ("sets", "_deps", "_arrays")

    def __init__(
        self,
        sets: dict[str, list[Rect]],
        deps: Optional[dict[SetRef, list[SetRef]]] = None,
        arrays: Optional[SetGraphArrays] = None,
    ) -> None:
        self.sets = sets
        self._deps = {} if deps is None and arrays is None else deps
        self._arrays = arrays

    @property
    def arrays(self) -> SetGraphArrays:
        """The CSR set graph (lowered from ``deps`` once if need be)."""
        if self._arrays is None:
            self._arrays = lower_dependencies(self.sets, self.deps)
        return self._arrays

    @property
    def deps(self) -> dict[SetRef, list[SetRef]]:
        """Predecessors per set ref (built from the arrays on first access)."""
        if self._deps is None:
            arrays = self.arrays
            refs = list(
                zip(
                    [arrays.layers[lid] for lid in arrays.layer_of.tolist()],
                    arrays.set_index.tolist(),
                )
            )
            indptr = arrays.indptr.tolist()
            preds = [refs[gid] for gid in arrays.indices.tolist()]
            self._deps = {
                ref: preds[indptr[gid] : indptr[gid + 1]] for gid, ref in enumerate(refs)
            }
        return self._deps

    def __getstate__(self) -> dict:
        """Pickle the arrays, not the ``deps`` view built from them."""
        return {"sets": self.sets, "arrays": self.arrays}

    def __setstate__(self, state: dict) -> None:
        self.sets = state["sets"]
        self._deps = None
        self._arrays = state["arrays"]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, DependencyGraph):
            return NotImplemented
        return self.sets == other.sets and self.deps == other.deps

    def predecessors(self, layer: str, set_index: int) -> list[SetRef]:
        """Data dependencies of one set."""
        return self.deps[(layer, set_index)]

    def num_sets(self) -> int:
        """Total scheduling sets across all layers."""
        return sum(len(rects) for rects in self.sets.values())

    def edge_count(self) -> int:
        """Total dependency edges."""
        return self.arrays.num_edges

    def fan_in_stats(self) -> tuple[float, int]:
        """(mean, max) dependencies per set — the paper's P relation."""
        counts = np.diff(self.arrays.indptr).tolist()
        if not counts:
            return (0.0, 0)
        return (sum(counts) / len(counts), max(counts))


def trace_to_base(
    graph: Graph,
    tensor_name: str,
    rect: Rect,
    shapes: dict | None = None,
) -> list[tuple[str, Rect]]:
    """Propagate a required region backwards to base-layer producers.

    Starting from ``rect`` of the tensor produced by ``tensor_name``,
    walk producer-wards through non-base operators, transforming the
    region with each op's backward rule.  Recursion stops at base
    layers and graph inputs.  Returns ``(base layer name, region)``
    pairs; regions clipped to empty are dropped (e.g. a region that
    falls entirely into explicit padding).

    ``shapes`` may be supplied to avoid repeated shape-table lookups in
    hot loops; it must be ``graph.infer_shapes()`` of the same graph.
    """
    if rect.is_empty():
        return []
    op = graph[tensor_name]
    if op.is_base or isinstance(op, Input):
        return [(tensor_name, rect)] if op.is_base else []
    if shapes is None:
        shapes = graph.infer_shapes()
    input_shapes = [shapes[p] for p in op.inputs]
    regions = op.input_regions(rect, input_shapes, shapes[tensor_name])
    results: list[tuple[str, Rect]] = []
    for producer, region in zip(op.inputs, regions):
        results.extend(trace_to_base(graph, producer, region, shapes))
    return results


def determine_dependencies(graph: Graph, sets: dict[str, list[Rect]]) -> DependencyGraph:
    """Stage II: the full set-level dependency graph, as CSR arrays.

    Columnar twin of walking each set back with :func:`trace_to_base`
    (the scalar reference in ``tests/oracles``, which it must match):
    all sets of a base layer move through the backward rules at once
    as rect columns (:meth:`~repro.ir.ops.Op.input_region_columns`),
    along every producer path :func:`trace_to_base` would walk.  The
    regions of every path of every layer then meet the producers' sets
    in one query, and one sort puts the predecessors in the reference
    order, gid for gid: path order, then set index, keeping the first
    occurrence.  Set ids follow the order of ``sets``.
    """
    layers = tuple(sets)
    if set(layers) != set(graph.base_layers()):
        raise KeyError(
            f"Stage I sets cover layers {sorted(layers)}, but the graph's "
            f"base layers are {sorted(graph.base_layers())}"
        )
    shapes = graph.infer_shapes()
    offsets = set_offsets(map(len, sets.values()))
    coords = layer_rect_columns(sets.values())
    layer_id = {layer: lid for lid, layer in enumerate(layers)}
    # Per path, in path order within each layer: the gids of the sets
    # it carries, its producer layer id and its region block.
    origins = [np.empty(0, dtype=np.int64)]
    producers: list[int] = []
    blocks = [np.empty((4, 0), dtype=np.int64)]
    repeated = False
    for lid, layer in enumerate(layers):
        lo, hi = int(offsets[lid]), int(offsets[lid + 1])
        op = graph[layer]
        paths: list[tuple[str, Optional[np.ndarray], np.ndarray]] = []
        needed = op.input_region_columns(
            coords[:, lo:hi], [shapes[p] for p in op.inputs], shapes[layer]
        )
        for producer, region in zip(op.inputs, needed):
            _trace_columns(graph, producer, None, region, shapes, paths)
        gids = np.arange(lo, hi)
        for base_layer, rows, region in paths:
            origins.append(gids if rows is None else gids[rows])
            producers.append(layer_id[base_layer])
            blocks.append(region)
        repeated = repeated or len({base for base, _, _ in paths}) < len(paths)
    origin = np.concatenate(origins)
    owner, pred = _overlapping_sets(
        coords, offsets, np.repeat(producers, [block.shape[1] for block in blocks[1:]]),
        np.concatenate(blocks, axis=1),
    )
    # Regions are numbered path by path, so for one origin the region
    # number orders its paths.
    origin = origin[owner]
    order = np.lexsort((pred, owner, origin))
    origin, pred = origin[order], pred[order]
    if repeated:
        # Some layer reaches one producer by two paths: first occurrences.
        keep = np.sort(np.unique(origin * int(offsets[-1]) + pred, return_index=True)[1])
        origin, pred = origin[keep], pred[keep]
    fan_in = np.bincount(origin, minlength=int(offsets[-1]))
    indptr = np.concatenate(([0], np.cumsum(fan_in, dtype=np.int64)))
    arrays = SetGraphArrays.from_csr(layers, offsets, coords, indptr, pred)
    return DependencyGraph(sets=sets, arrays=arrays)


def _trace_columns(
    graph: Graph,
    name: str,
    rows: Optional[np.ndarray],
    rects: np.ndarray,
    shapes: dict,
    paths: list,
    checked: bool = False,
) -> None:
    """:func:`trace_to_base` over rect columns, collecting every path.

    ``rows`` maps the columns of ``rects`` to set indices of the layer
    being resolved (``None``: the identity).  Empty regions leave the
    path, exactly where the scalar walk would return early; ``checked``
    says ``rects`` holds none, being a block a column rule handed back
    unchanged after this walk had filtered it.
    """
    op = graph[name]
    if not checked:
        empty = empty_columns(rects)
        if empty.any():
            keep = np.flatnonzero(~empty)
            if not len(keep):
                return
            rects = rects[:, keep]
            rows = keep if rows is None else rows[keep]
    if op.is_base:
        paths.append((name, rows, rects))
        return
    if isinstance(op, Input):
        return
    regions = op.input_region_columns(rects, [shapes[p] for p in op.inputs], shapes[name])
    for producer, region in zip(op.inputs, regions):
        _trace_columns(graph, producer, rows, region, shapes, paths, region is rects)


def _overlapping_sets(
    coords: np.ndarray, offsets: np.ndarray, producer: np.ndarray, regions: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Every overlapping (region, set of the region's producer layer) pair.

    One index over all non-empty sets, sorted by ``(layer, r0)``: a set
    overlapping a region starts within its layer's ``max_rows - 1``
    rows above the region and before its end, so two ``np.searchsorted``
    calls bound its candidates.  Both bounds are clamped to the
    producer's band of the index; with mixed set heights, a bound near
    row 0 would otherwise reach the previous layer's last sets.
    Returns the region number and the gid of each pair, by region.
    """
    gid = np.flatnonzero(~empty_columns(coords))
    if not len(gid) or not len(producer):
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
    layer = gid_columns(offsets)[0][gid].astype(np.int64)
    r0 = coords[0, gid]
    max_rows = np.ones(len(offsets) - 1, dtype=np.int64)
    np.maximum.at(max_rows, layer, coords[2, gid] - r0)
    base = int(r0.min())
    span = int(r0.max()) - base + 1
    key = layer * span + (r0 - base)
    order = np.argsort(key, kind="stable")
    key, gid = key[order], gid[order]
    band = producer * span
    lo = np.searchsorted(key, band + np.clip(regions[0] - max_rows[producer] + 1 - base, 0, span))
    hi = np.searchsorted(key, band + np.clip(regions[2] - base, 0, span))
    found = _ranges(lo, hi - lo)
    owner = np.repeat(np.arange(len(lo)), hi - lo)
    sets = gid[found]
    hit = (
        (coords[2, sets] > regions[0][owner])
        & (coords[1, sets] < regions[3][owner])
        & (coords[3, sets] > regions[1][owner])
    )
    return owner[hit], sets[hit]


def _ranges(starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Concatenated ``arange(start, start + count)`` per pair."""
    total = int(counts.sum())
    if not total:
        return np.empty(0, dtype=np.int64)
    shift = np.repeat(starts - (np.cumsum(counts) - counts), counts)
    return np.arange(total, dtype=np.int64) + shift


def layer_level_dependencies(graph: Graph) -> dict[str, list[str]]:
    """Base-layer-level predecessors (whole-OFM granularity).

    This is the dependency view of layer-by-layer inference: a layer
    may start only after every base layer feeding it (through any
    non-base path) has completed its entire OFM.
    """
    shapes = graph.infer_shapes()
    result: dict[str, list[str]] = {}
    for layer in graph.base_layers():
        op = graph[layer]
        input_shapes = [shapes[p] for p in op.inputs]
        needed = op.input_regions(shapes[layer].full_rect(), input_shapes, shapes[layer])
        preds: list[str] = []
        seen: set[str] = set()
        for producer, region in zip(op.inputs, needed):
            for base_layer, _ in trace_to_base(graph, producer, region, shapes):
                if base_layer not in seen:
                    seen.add(base_layer)
                    preds.append(base_layer)
        result[layer] = preds
    return result
