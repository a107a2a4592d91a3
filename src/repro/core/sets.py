"""Stage I of CLSA-CIM: determine sets (Sec. IV-1).

Every base layer's OFM is divided into disjoint hyperrectangular
*sets* — the minimum scheduling units.  Sets are near-equal in size
(so per-set execution times match), identified by two coordinates,
and should be large enough that non-base operations (e.g. pooling
windows) can execute; dependency propagation (Stage II) keeps
correctness for any size, so the size floor is a granularity/efficiency
knob, not a correctness requirement.

Stage I returns a :class:`SetPartition`: the sets of every layer as
coordinate columns, which Stage II, the baseline, the store, the
verifier and the artifact codec read.  Looked up by layer name it
still reads as the ``dict[str, list[Rect]]`` it used to be.
"""

from __future__ import annotations

import math
from collections.abc import Mapping
from dataclasses import dataclass
from itertools import chain
from typing import Iterable, Iterator, NamedTuple, Optional

import numpy as np

from ..ir.graph import Graph
from ..ir.ops import rect_columns
from ..ir.tensor import Rect, Shape, column_rects, grid_columns


@dataclass(frozen=True)
class SetGranularity:
    """Granularity policy for Stage I.

    Exactly one of the two modes applies:

    * ``rows_per_set``: each set is a horizontal stripe of that many
      OFM rows (full width).  ``rows_per_set=1`` is the finest
      practical granularity and yields the paper's "maximum achievable
      utilization / minimum inference latency".
    * ``target_sets``: aim for about that many near-square sets per
      layer (the Fig. 5 style), subject to ``min_rows``/``min_cols``.
    """

    rows_per_set: Optional[int] = 1
    target_sets: Optional[int] = None
    min_rows: int = 1
    min_cols: int = 1

    def __post_init__(self) -> None:
        if (self.rows_per_set is None) == (self.target_sets is None):
            raise ValueError("specify exactly one of rows_per_set / target_sets")
        if self.rows_per_set is not None and self.rows_per_set < 1:
            raise ValueError("rows_per_set must be >= 1")
        if self.target_sets is not None and self.target_sets < 1:
            raise ValueError("target_sets must be >= 1")
        if self.min_rows < 1 or self.min_cols < 1:
            raise ValueError("minimum set dimensions must be >= 1")


#: The paper's "maximum achievable" granularity: one OFM row per set.
FINEST = SetGranularity(rows_per_set=1)


def set_offsets(counts: Iterable[int]) -> np.ndarray:
    """``int64[L+1]`` gid offsets of layers holding ``counts`` sets each."""
    return np.concatenate(([0], np.cumsum(list(counts), dtype=np.int64)))


def _frozen(array: np.ndarray) -> np.ndarray:
    """``array`` as int64, behind a read-only view if it is writeable."""
    array = np.asarray(array, dtype=np.int64)
    if array.flags.writeable:
        array = array.view()
        array.flags.writeable = False
    return array


class SetPartition(Mapping[str, list[Rect]]):
    """Stage I sets of every base layer, as coordinate columns.

    Attributes
    ----------
    layers:
        Layer names in Stage I order (graph topological order).
    offsets:
        ``int64[L+1]``; layer ``l`` owns set ids ``[offsets[l],
        offsets[l+1])``, as in
        :class:`~repro.core.kernels.SetGraphArrays`.
    blocks:
        Per layer, a read-only int64 ``(4, n_l)`` block with rows ``r0,
        c0, r1, c1``.  Layers with equal sets hold the same block
        object, so Stage II's rule memo runs each rule once for them.
    coords:
        The read-only ``(4, n)`` concatenation of the blocks, in set-id
        order; every block is a view of it.

    A partition is a read-only ``Mapping[str, list[Rect]]`` in layer
    order: a lookup returns a fresh list, so mutating it cannot corrupt
    a cached partition (the :class:`Rect` objects, which are frozen,
    are built once per block on first lookup and shared).  It compares
    equal to a plain dict of equal lists, and pickles as its blocks.
    :meth:`of` turns a plain mapping of ``Rect`` lists into one.
    """

    __slots__ = ("layers", "offsets", "blocks", "coords", "_lid", "_views")

    def __init__(
        self,
        layers: Iterable[str] = (),
        blocks: Iterable[np.ndarray] = (),
        coords: Optional[np.ndarray] = None,
    ) -> None:
        """A partition of ``blocks``, one per layer; ``coords``, if given,
        must be their concatenation (a decoder passes the array it holds)."""
        self.layers = tuple(layers)
        given = list(blocks)
        self._lid = {layer: lid for lid, layer in enumerate(self.layers)}
        if len(self._lid) != len(self.layers) or len(given) != len(self.layers):
            raise ValueError("a partition needs one block per distinct layer name")
        if coords is None:
            coords = np.concatenate([np.empty((4, 0), dtype=np.int64), *given], axis=1)
        self.offsets = _frozen(set_offsets(np.shape(block)[1] for block in given))
        self.coords = _frozen(coords)
        if self.coords.shape != (4, self.num_sets):
            raise ValueError("set blocks must be (4, n) r0, c0, r1, c1 columns")
        # Each distinct block object becomes one view of ``coords``, at
        # the first layer holding it: the partition holds one copy.
        bounds = self.offsets.tolist()
        views: dict[int, np.ndarray] = {}
        for lid, block in enumerate(given):
            if id(block) not in views:
                views[id(block)] = self.coords[:, bounds[lid] : bounds[lid + 1]]
        self.blocks = tuple(views[id(block)] for block in given)
        self._views: dict[int, tuple[Rect, ...]] = {}

    @classmethod
    def of(cls, sets: Mapping[str, list[Rect]]) -> "SetPartition":
        """``sets`` as a partition: itself if it is one, else its ``Rect``
        lists turned into columns, in its layer order."""
        if isinstance(sets, SetPartition):
            return sets
        lists = list(sets.values())
        coords = rect_columns(list(chain.from_iterable(lists)))
        return cls.from_columns(list(sets), set_offsets(map(len, lists)), coords)

    @classmethod
    def from_columns(
        cls, layers: Iterable[str], offsets: np.ndarray, coords: np.ndarray
    ) -> "SetPartition":
        """The partition whose layer ``l`` holds columns ``[offsets[l],
        offsets[l+1])`` of the ``(4, n)`` ``coords``.

        Layers with equal columns share one block.
        """
        coords = _frozen(coords)
        bounds = np.asarray(offsets).tolist()
        shared: dict[bytes, np.ndarray] = {}
        blocks = []
        for lo, hi in zip(bounds, bounds[1:]):
            block = coords[:, lo:hi]
            blocks.append(shared.setdefault(block.tobytes(), block))
        return cls(layers, blocks, coords)

    @property
    def num_sets(self) -> int:
        """Total sets across all layers."""
        return int(self.offsets[-1])

    def block(self, layer: str) -> np.ndarray:
        """The read-only ``(4, n_l)`` columns of ``layer``'s sets."""
        return self.blocks[self._lid[layer]]

    def rect(self, layer: str, index: int) -> Rect:
        """Set ``index`` of ``layer``, without building the layer's list."""
        return Rect(*self.block(layer)[:, index].tolist())

    def __getitem__(self, layer: str) -> list[Rect]:
        block = self.blocks[self._lid[layer]]
        rects = self._views.get(id(block))
        if rects is None:
            rects = self._views[id(block)] = tuple(column_rects(block))
        return list(rects)

    def __iter__(self) -> Iterator[str]:
        return iter(self.layers)

    def __len__(self) -> int:
        return len(self.layers)

    def __contains__(self, layer: object) -> bool:
        return layer in self._lid

    def __eq__(self, other: object) -> bool:
        if isinstance(other, SetPartition) and other.layers == self.layers:
            return bool(
                np.array_equal(self.offsets, other.offsets)
                and np.array_equal(self.coords, other.coords)
            )
        return super().__eq__(other)

    def __reduce__(self) -> tuple:
        return (SetPartition, (self.layers, self.blocks))

    def __repr__(self) -> str:
        return f"SetPartition(<{len(self.layers)} layers, {self.num_sets} sets>)"


def _ofm_block(shape: Shape, granularity: SetGranularity) -> np.ndarray:
    """The read-only columns of the sets ``granularity`` cuts ``shape`` into."""
    height, width = shape.height, shape.width
    if granularity.rows_per_set is not None:
        rows = min(max(granularity.rows_per_set, granularity.min_rows), height)
        return grid_columns(height, width, rows, width)
    target = granularity.target_sets
    assert target is not None
    # Choose a near-square grid honouring the minimum set dimensions.
    max_grid_rows = max(1, height // granularity.min_rows)
    max_grid_cols = max(1, width // granularity.min_cols)
    aspect = height / width
    grid_rows = int(round(math.sqrt(target * aspect))) or 1
    grid_rows = min(max(grid_rows, 1), max_grid_rows)
    grid_cols = min(max(int(round(target / grid_rows)) or 1, 1), max_grid_cols)
    return grid_columns(height, width, math.ceil(height / grid_rows), math.ceil(width / grid_cols))


def partition_ofm(shape: Shape, granularity: SetGranularity = FINEST) -> list[Rect]:
    """Partition one OFM into scheduling sets (row-major order).

    The returned rectangles are disjoint, cover the full spatial
    extent, and differ in area by at most one row/column strip — the
    Stage I "similar number of elements" requirement.  They are the
    :class:`Rect` view of the block :func:`determine_sets` holds.
    """
    return column_rects(_ofm_block(shape, granularity))


def determine_sets(graph: Graph, granularity: SetGranularity = FINEST) -> SetPartition:
    """Stage I: sets of every base layer, as a :class:`SetPartition`.

    Each layer's sets come in row-major order.  Dense layers (1x1
    spatial OFM) always get exactly one set.  Each OFM ``(height,
    width)`` is partitioned once per call, so layers of one spatial
    shape hold the same block.
    """
    shapes = graph.infer_shapes()
    layers = graph.base_layers()
    by_shape: dict[tuple[int, int], np.ndarray] = {}
    blocks = []
    for name in layers:
        shape = shapes[name]
        key = (shape.height, shape.width)
        block = by_shape.get(key)
        if block is None:
            block = by_shape[key] = _ofm_block(shape, granularity)
        blocks.append(block)
    return SetPartition(layers, blocks)


class PartitionProblems(NamedTuple):
    """What keeps one layer's set columns from tiling its OFM exactly.

    ``outside`` and ``empty`` hold set numbers; ``overlap`` and ``gap``
    the first OFM cell, in row-major order, that the in-bounds sets
    cover more than once or not at all (``None``: there is none).
    """

    outside: np.ndarray
    empty: np.ndarray
    overlap: Optional[tuple[int, int]]
    gap: Optional[tuple[int, int]]


def partition_problems(block: np.ndarray, height: int, width: int) -> PartitionProblems:
    """Check the ``(4, n)`` set columns ``block`` against a ``height x width`` OFM.

    A set is outside if a coordinate leaves ``[0, height] x [0,
    width]``.  Coverage is counted over the sets that are neither
    outside nor empty, on the grid cut at every set edge: all OFM cells
    of one grid cell are covered equally often, so a 2-D difference
    array over that grid gives every count in ``O(n log n)``.
    """
    r0, c0, r1, c1 = block
    empty = (r1 <= r0) | (c1 <= c0)
    outside = (r0 < 0) | (c0 < 0) | (r1 > height) | (c1 > width)
    keep = ~(empty | outside)
    rows = _cuts(height, r0[keep], r1[keep])
    cols = _cuts(width, c0[keep], c1[keep])
    top, bottom = np.searchsorted(rows, r0[keep]), np.searchsorted(rows, r1[keep])
    left, right = np.searchsorted(cols, c0[keep]), np.searchsorted(cols, c1[keep])
    stride, size = len(cols), len(rows) * len(cols)
    delta = np.bincount(
        np.concatenate((top * stride + left, bottom * stride + right)), minlength=size
    ) - np.bincount(
        np.concatenate((top * stride + right, bottom * stride + left)), minlength=size
    )
    cover = delta.reshape(len(rows), stride).cumsum(axis=0).cumsum(axis=1)[:-1, :-1]
    return PartitionProblems(
        outside=np.flatnonzero(outside),
        empty=np.flatnonzero(empty),
        overlap=_first_cell(cover > 1, rows, cols),
        gap=_first_cell(cover == 0, rows, cols),
    )


def _cuts(extent: int, starts: np.ndarray, ends: np.ndarray) -> np.ndarray:
    """The sorted distinct values of ``0``, ``extent``, ``starts`` and ``ends``."""
    cuts = np.sort(np.concatenate(([0, extent], starts, ends)))
    return cuts[np.concatenate(([True], cuts[1:] != cuts[:-1]))]


def _first_cell(
    mask: np.ndarray, rows: np.ndarray, cols: np.ndarray
) -> Optional[tuple[int, int]]:
    """The top-left OFM cell of the first grid cell set in ``mask``."""
    flat = mask.ravel()
    at = int(flat.argmax())
    if not flat[at]:
        return None
    i, j = divmod(at, mask.shape[1])
    return int(rows[i]), int(cols[j])


def validate_partition(shape: Shape, sets: list[Rect]) -> None:
    """Assert the Stage I invariants: disjoint, covering, in-bounds."""
    rects = list(sets)
    block = SetPartition.of({"sets": rects}).coords
    problems = partition_problems(block, shape.height, shape.width)
    bad = [int(found[0]) for found in (problems.empty, problems.outside) if len(found)]
    if bad:
        index = min(bad)
        if rects[index].is_empty():
            raise AssertionError(f"set {index} is empty")
        raise AssertionError(
            f"set {index} {rects[index]} exceeds OFM bounds {shape.full_rect()}"
        )
    if problems.overlap is not None:
        raise AssertionError(f"sets overlap at OFM cell {problems.overlap}")
    if problems.gap is not None:
        total = sum(rect.area for rect in rects)
        raise AssertionError(
            f"sets cover {total} pixels, OFM has {shape.spatial_size}: "
            f"cell {problems.gap} is uncovered"
        )
