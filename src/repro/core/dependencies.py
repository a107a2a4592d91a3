"""Stage II of CLSA-CIM: determine dependencies (Sec. IV-2).

For every OFM set of every base layer, compute which OFM sets of
predecessor base layers must be finished before the set can start.
The set's required IFM region is obtained from the layer's backward
region rule, then propagated further backwards along the non-base
layer path (pooling, padding, activation, concat, ...) until base
layers (or graph inputs) are reached; any predecessor set intersecting
the propagated region becomes a data dependency.  The walk follows the
graph's route table (:meth:`~repro.ir.graph.Graph.routes`), in which
ops that hand a region on unchanged are folded away.

This realizes the paper's P/Q relations (each OFM set can influence
multiple IFM sets and vice versa) without a separate forward pass.
"""

from __future__ import annotations

from collections.abc import Mapping
from typing import NamedTuple, Optional

import numpy as np

from ..ir.graph import Graph
from ..ir.ops import empty_columns
from ..ir.tensor import Rect
from .kernels import SetGraphArrays, gid_columns
from .sets import SetPartition

#: A (layer name, set index) pair identifying one scheduling set.
SetRef = tuple[str, int]


class PartitionMismatchError(ValueError):
    """Set-level dependencies paired with sets they were not computed over."""


class DependencyGraph:
    """Set-level data dependencies of a model.

    Attributes
    ----------
    sets:
        Stage I output, as a :class:`~repro.core.sets.SetPartition`
        (a plain mapping of ``Rect`` lists is converted once).
    arrays:
        The CSR set graph over ``sets``
        (:class:`~repro.core.kernels.SetGraphArrays`): the predecessors
        of global set id ``gid`` are
        ``indices[indptr[gid]:indptr[gid + 1]]``.  Stage II emits it
        directly; the schedulers, the simulator, the energy model, the
        store and the verifier read it.
    """

    __slots__ = ("sets", "arrays")

    def __init__(self, sets: Mapping[str, list[Rect]], arrays: SetGraphArrays) -> None:
        self.sets = SetPartition.of(sets)
        self.arrays = arrays

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, DependencyGraph):
            return NotImplemented
        return (
            self.sets == other.sets
            and np.array_equal(self.arrays.indptr, other.arrays.indptr)
            and np.array_equal(self.arrays.indices, other.arrays.indices)
        )

    def predecessors(self, layer: str, set_index: int) -> list[SetRef]:
        """Data dependencies of one set, in Stage II order."""
        if not 0 <= set_index < self.sets.block(layer).shape[1]:  # KeyError for a layer too
            raise KeyError((layer, set_index))
        arrays = self.arrays
        gid = arrays.gid(layer, set_index)
        preds = arrays.indices[arrays.indptr[gid] : arrays.indptr[gid + 1]]
        return [
            (arrays.layers[lid], si)
            for lid, si in zip(arrays.layer_of[preds].tolist(), arrays.set_index[preds].tolist())
        ]

    def num_sets(self) -> int:
        """Total scheduling sets across all layers."""
        return self.sets.num_sets

    def edge_count(self) -> int:
        """Total dependency edges."""
        return self.arrays.num_edges

    def fan_in_stats(self) -> tuple[float, int]:
        """(mean, max) dependencies per set — the paper's P relation."""
        counts = np.diff(self.arrays.indptr).tolist()
        if not counts:
            return (0.0, 0)
        return (sum(counts) / len(counts), max(counts))


class DependencyCSR(NamedTuple):
    """Set-level dependencies without their sets: what the store keeps.

    ``offsets`` gives each layer's set count; ``indptr``/``indices``
    are the CSR over those set ids.  :meth:`paired` joins them with
    the Stage I partition they were computed over.
    """

    layers: tuple[str, ...]
    offsets: np.ndarray
    indptr: np.ndarray
    indices: np.ndarray

    def paired(self, sets: SetPartition) -> DependencyGraph:
        """The dependency graph over ``sets``.

        Raises :class:`PartitionMismatchError` unless ``sets`` has these
        layer names, in this order, with these set counts.
        """
        if sets.layers != self.layers or not np.array_equal(sets.offsets, self.offsets):
            raise PartitionMismatchError(
                f"dependencies over {len(self.layers)} layers and "
                f"{int(self.offsets[-1])} sets do not belong to the Stage I "
                f"partition of {len(sets.layers)} layers and {sets.num_sets} sets"
            )
        arrays = SetGraphArrays.from_csr(
            self.layers, self.offsets, sets.coords, self.indptr, self.indices
        )
        return DependencyGraph(sets, arrays)


def determine_dependencies(graph: Graph, sets: Mapping[str, list[Rect]]) -> DependencyGraph:
    """Stage II: the full set-level dependency graph, as CSR arrays.

    Columnar twin of walking each set back one region at a time (the
    scalar reference in ``tests/oracles``, which it must match): all
    sets of a base layer move through the backward rules at once as
    rect columns (:meth:`~repro.ir.ops.Op.input_region_columns`), along
    every producer path of the graph's route table.  The regions of
    every path of every layer then meet the producers' sets in one
    query, and one sort puts the predecessors in the reference order,
    gid for gid: path order, then set index, keeping the first
    occurrence.  Set ids follow the order of ``sets``; a plain mapping
    of ``Rect`` lists is converted to a partition first.
    """
    partition = SetPartition.of(sets)
    layers, offsets = partition.layers, partition.offsets
    roots, coords = partition.blocks, partition.coords
    if set(layers) != set(graph.base_layers()):
        raise KeyError(
            f"Stage I sets cover layers {sorted(layers)}, but the graph's "
            f"base layers are {sorted(graph.base_layers())}"
        )
    walk = _RouteWalk(graph)
    layer_id = {layer: lid for lid, layer in enumerate(layers)}
    # Per path, in path order within each layer: the gids of the sets
    # it carries, its producer layer id and its region block.
    origins = [np.empty(0, dtype=np.int64)]
    producers: list[int] = []
    blocks = [np.empty((4, 0), dtype=np.int64)]
    repeated = False
    bounds = offsets.tolist()
    for lid, layer in enumerate(layers):
        lo, hi = bounds[lid], bounds[lid + 1]
        paths = walk.paths(layer, roots[lid])
        gids = np.arange(lo, hi)
        for base_layer, rows, region in paths:
            origins.append(gids if rows is None else gids[rows])
            producers.append(layer_id[base_layer])
            blocks.append(region)
        repeated = repeated or len({base for base, _, _ in paths}) < len(paths)
    origin = np.concatenate(origins)
    owner, pred, by_gid = _overlapping_sets(
        coords, offsets, np.repeat(producers, [block.shape[1] for block in blocks[1:]]),
        np.concatenate(blocks, axis=1),
    )
    # Regions are numbered path by path, so for one origin the region
    # number orders its paths.  The pairs come by region, and by gid
    # within a region if ``by_gid``: then a stable sort on the origin
    # alone gives the (origin, region, gid) order.
    origin = origin[owner]
    order = (
        np.argsort(origin, kind="stable") if by_gid else np.lexsort((pred, owner, origin))
    )
    origin, pred = origin[order], pred[order]
    if repeated:
        # Some layer reaches one producer by two paths: first occurrences.
        keep = np.sort(np.unique(origin * int(offsets[-1]) + pred, return_index=True)[1])
        origin, pred = origin[keep], pred[keep]
    fan_in = np.bincount(origin, minlength=int(offsets[-1]))
    indptr = np.concatenate(([0], np.cumsum(fan_in, dtype=np.int64)))
    arrays = SetGraphArrays.from_csr(layers, offsets, coords, indptr, pred)
    return DependencyGraph(partition, arrays)


class _RouteWalk:
    """One Stage II call's walk over :meth:`~repro.ir.graph.Graph.routes`.

    Each rule runs once per distinct (op class, rule params, input
    shapes, output shape, input block) key, and its output blocks lose
    their empty columns there, once.  Blocks are told apart by
    identity: the memo holds every block it keys, so no id is reused
    within the call.  Same-shaped layers share their Stage I root
    block (:attr:`~repro.core.sets.SetPartition.blocks`), so they and
    the ops above them share rule results.  The walk keeps plain dicts
    and no closures, so it leaves no reference cycle behind.
    """

    __slots__ = ("graph", "shapes", "routes", "keys", "signatures", "applied")

    def __init__(self, graph: Graph) -> None:
        self.graph = graph
        self.shapes = graph.infer_shapes()
        self.routes = graph.routes()
        self.keys: dict[str, int] = {}  # op name -> number of its rule signature
        self.signatures: dict[tuple, int] = {}
        # id(block) -> (block, first op to read it, its regions, regions by signature)
        self.applied: dict[int, tuple[np.ndarray, str, list, dict[int, list]]] = {}

    def paths(self, layer: str, block: np.ndarray) -> list:
        """Every ``(base layer, rows, region block)`` path of ``layer``'s sets.

        ``block`` holds the sets' rect columns; ``rows`` maps a path's
        columns to set indices (``None``: the identity).  Empty regions
        leave the path, exactly where the scalar walk would return early.
        """
        found: list[tuple[str, Optional[np.ndarray], np.ndarray]] = []
        self._walk(layer, None, block, found)
        return found

    def _walk(self, name: str, rows: Optional[np.ndarray], block: np.ndarray, found: list) -> None:
        """Apply ``name``'s rule to ``block`` and walk on from each input."""
        graph = self.graph
        for producer, (keep, region) in zip(graph[name].inputs, self._apply(name, block)):
            at = rows
            if keep is not None:
                if not len(keep):
                    continue
                at = keep if rows is None else rows[keep]
            for node in self.routes[producer]:
                if graph[node].is_base:
                    found.append((node, at, region))
                else:
                    self._walk(node, at, region, found)

    def _apply(self, name: str, block: np.ndarray) -> list:
        """Per input of ``name``: (kept columns or ``None`` for all, region block)."""
        entry = self.applied.get(id(block))
        if entry is None:  # the first rule to read the block: nothing to share
            needed = self._run(name, block)
            self.applied[id(block)] = (block, name, needed, {})
            return needed
        _, first, needed, shared = entry
        if name == first:
            return needed
        if not shared:
            shared[self._signature(first)] = needed
        key = self._signature(name)
        hit = shared.get(key)
        if hit is None:
            hit = shared[key] = self._run(name, block)
        return hit

    def _run(self, name: str, block: np.ndarray) -> list:
        op, shapes = self.graph[name], self.shapes
        regions = op.input_region_columns(block, [shapes[p] for p in op.inputs], shapes[name])
        return [_nonempty(region) for region in regions]

    def _signature(self, name: str) -> int:
        key = self.keys.get(name)
        if key is None:
            op, shapes = self.graph[name], self.shapes
            params = op.rule_params()
            signature = (
                type(op),
                params,
                id(op) if params is None else None,
                shapes[name],
                *[shapes[p] for p in op.inputs],
            )
            key = self.keys[name] = self.signatures.setdefault(signature, len(self.signatures))
        return key


def _nonempty(block: np.ndarray) -> tuple[Optional[np.ndarray], np.ndarray]:
    """``(kept column numbers, those columns)`` of ``block``'s non-empty
    rects; ``(None, block)`` when none is empty."""
    if not (block[2:] <= block[:2]).any():
        return None, block
    keep = np.flatnonzero(~empty_columns(block))
    return keep, block[:, keep]


def _overlapping_sets(
    coords: np.ndarray, offsets: np.ndarray, producer: np.ndarray, regions: np.ndarray
) -> tuple[np.ndarray, np.ndarray, bool]:
    """Every overlapping (region, set of the region's producer layer) pair.

    One index over all non-empty sets, sorted by ``(layer, r0)``: a set
    overlapping a region starts within its layer's ``max_rows - 1``
    rows above the region and before its end, so two ``np.searchsorted``
    calls bound its candidates.  Both bounds are clamped to the
    producer's band of the index; with mixed set heights, a bound near
    row 0 would otherwise reach the previous layer's last sets.
    Returns the region number and the gid of each pair, by region, and
    whether the pairs of each region come in gid order: they do when
    every layer's sets start row by row in gid order, as Stage I's do.
    """
    gid = np.flatnonzero(~empty_columns(coords))
    if not len(gid) or not len(producer):
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64), True
    layer = gid_columns(offsets)[0][gid].astype(np.int64)
    r0 = coords[0, gid]
    max_rows = np.ones(len(offsets) - 1, dtype=np.int64)
    np.maximum.at(max_rows, layer, coords[2, gid] - r0)
    base = int(r0.min())
    span = int(r0.max()) - base + 1
    key = layer * span + (r0 - base)
    by_gid = not np.count_nonzero(key[1:] < key[:-1])
    if not by_gid:
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
    return owner[hit], sets[hit], by_gid


def _ranges(starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Concatenated ``arange(start, start + count)`` per pair."""
    total = int(counts.sum())
    if not total:
        return np.empty(0, dtype=np.int64)
    shift = np.repeat(starts - (np.cumsum(counts) - counts), counts)
    return np.arange(total, dtype=np.int64) + shift
