"""Scalar Stage II (Sec. IV-2): set dependencies one set at a time.

The reference :func:`repro.core.dependencies.determine_dependencies`
is checked against, gid for gid: each set's required input region is
walked back to base-layer producers with :func:`trace_to_base`, one op
at a time, and every producer set it meets becomes a predecessor, in
path order, then set index.  :func:`layer_level_dependencies` is the
same walk at whole-OFM granularity, the reference of the
layer-by-layer baseline's start times.

A :class:`~repro.core.dependencies.DependencyGraph` holds its edges as
CSR arrays only.  :func:`graph_from_deps` lowers a hand-written
``deps`` dict to one, and :func:`deps_dict` turns one back into the
dict the reference schedulers walk.
"""

from __future__ import annotations

from bisect import bisect_left
from collections.abc import Mapping

from repro.core.dependencies import DependencyGraph, SetRef
from repro.core.kernels import SetGraphArrays
from repro.core.sets import SetPartition
from repro.ir.graph import Graph
from repro.ir.ops import Input
from repro.ir.tensor import Rect


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


class RectIndex:
    """Row-interval index over one layer's disjoint set rectangles.

    Stage I emits row-major stripes/grids, so any set intersecting a
    query region must *start* within ``max_rows - 1`` rows above it.
    Sorting the sets by ``r0`` and bisecting turns the naive all-pairs
    intersection scan of Stage II into an ``O(log n + k)`` range query
    — the difference between minutes and seconds on deep ResNets at
    FINEST granularity.
    """

    __slots__ = ("_starts", "_entries", "_max_rows", "_presorted")

    def __init__(self, rects: list[Rect]) -> None:
        entries = sorted(
            (rect.r0, rect.c0, index, rect)
            for index, rect in enumerate(rects)
            if not rect.is_empty()  # empty rects intersect nothing
        )
        self._entries = entries
        self._starts = [entry[0] for entry in entries]
        self._max_rows = max((entry[3].r1 - entry[3].r0 for entry in entries), default=1)
        # Stage I emits sets in row-major order, so sorting by (r0, c0)
        # usually *is* set-index order; when it is, query() can return
        # hits in entry order and skip the final per-query sort.
        self._presorted = all(
            earlier[2] < later[2] for earlier, later in zip(entries, entries[1:])
        )

    def query(self, region: Rect) -> list[tuple[int, Rect]]:
        """Sets intersecting ``region``, in original set order."""
        if region.is_empty():
            return []
        starts = self._starts
        entries = self._entries
        lo = bisect_left(starts, region.r0 - self._max_rows + 1)
        hits: list[tuple[int, Rect]] = []
        for pos in range(lo, len(entries)):
            if starts[pos] >= region.r1:
                break
            _, _, index, rect = entries[pos]
            if rect.r1 > region.r0 and rect.c0 < region.c1 and rect.c1 > region.c0:
                hits.append((index, rect))
        if not self._presorted:
            hits.sort(key=lambda hit: hit[0])
        return hits


def build_set_indexes(sets: dict[str, list[Rect]]) -> dict[str, RectIndex]:
    """One :class:`RectIndex` per layer, for repeated Stage II queries."""
    return {layer: RectIndex(rects) for layer, rects in sets.items()}


def set_dependencies(
    graph: Graph,
    sets: dict[str, list[Rect]],
    layer: str,
    set_index: int,
    shapes: dict | None = None,
    indexes: dict[str, RectIndex] | None = None,
) -> list[SetRef]:
    """Stage II for a single set: its predecessor set references.

    ``indexes`` may carry pre-built :class:`RectIndex` objects (from
    :func:`build_set_indexes`) to replace the all-pairs predecessor
    scan with indexed range queries; results are identical.
    """
    op = graph[layer]
    if shapes is None:
        shapes = graph.infer_shapes()
    out_shape = shapes[layer]
    input_shapes = [shapes[p] for p in op.inputs]
    rect = sets[layer][set_index]
    needed = op.input_regions(rect, input_shapes, out_shape)
    refs: list[SetRef] = []
    seen: set[SetRef] = set()
    for producer, region in zip(op.inputs, needed):
        for base_layer, base_rect in trace_to_base(graph, producer, region, shapes):
            if indexes is not None:
                candidates = indexes[base_layer].query(base_rect)
            else:
                candidates = [
                    (pred_index, pred_rect)
                    for pred_index, pred_rect in enumerate(sets[base_layer])
                    if pred_rect.intersects(base_rect)
                ]
            for pred_index, _ in candidates:
                ref = (base_layer, pred_index)
                if ref not in seen:
                    seen.add(ref)
                    refs.append(ref)
    return refs


def reference_dependencies(
    graph: Graph,
    sets: dict[str, list[Rect]],
    indexes: dict[str, RectIndex] | None = None,
) -> DependencyGraph:
    """Stage II set by set: :func:`set_dependencies` for every set.

    The scalar reference :func:`determine_dependencies` is checked
    against, gid for gid; ``indexes=None`` scans all pairs.
    """
    shapes = graph.infer_shapes()
    return graph_from_deps(
        sets,
        {
            (layer, index): set_dependencies(graph, sets, layer, index, shapes, indexes)
            for layer in sets
            for index in range(len(sets[layer]))
        },
    )


def graph_from_deps(
    sets: Mapping[str, list[Rect]], deps: dict[SetRef, list[SetRef]]
) -> DependencyGraph:
    """The dependency graph of a ``deps`` dict over ``sets``, lowered to CSR.

    Every set of ``sets`` needs an entry (``KeyError`` otherwise); each
    lists its predecessors in the order they enter the CSR.
    """
    partition = SetPartition.of(sets)
    bounds = partition.offsets.tolist()
    base = dict(zip(partition.layers, bounds))
    indptr = [0]
    indices: list[int] = []
    for layer, lo, hi in zip(partition.layers, bounds, bounds[1:]):
        for si in range(hi - lo):
            refs = deps.get((layer, si))
            if refs is None:
                raise KeyError(f"dependency graph has no entry for set ({layer!r}, {si})")
            indices.extend(base[ref_layer] + ref_si for ref_layer, ref_si in refs)
            indptr.append(len(indices))
    arrays = SetGraphArrays.from_csr(
        partition.layers, partition.offsets, partition.coords, indptr, indices
    )
    return DependencyGraph(partition, arrays)


def deps_dict(dependency_graph: DependencyGraph) -> dict[SetRef, list[SetRef]]:
    """Predecessors per set ref, in set-id order: the graph as a dict."""
    arrays = dependency_graph.arrays
    refs = list(
        zip([arrays.layers[lid] for lid in arrays.layer_of.tolist()], arrays.set_index.tolist())
    )
    indptr = arrays.indptr.tolist()
    preds = [refs[gid] for gid in arrays.indices.tolist()]
    return {ref: preds[indptr[gid] : indptr[gid + 1]] for gid, ref in enumerate(refs)}
