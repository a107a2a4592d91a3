"""Stage I of CLSA-CIM: determine sets (Sec. IV-1).

Every base layer's OFM is divided into disjoint hyperrectangular
*sets* — the minimum scheduling units.  Sets are near-equal in size
(so per-set execution times match), identified by two coordinates
(we store a :class:`~repro.ir.tensor.Rect`), and should be large enough
that non-base operations (e.g. pooling windows) can execute; dependency
propagation (Stage II) keeps correctness for any size, so the size
floor is a granularity/efficiency knob, not a correctness requirement.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

from ..ir.graph import Graph
from ..ir.tensor import Rect, Shape, rect_grid


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


def partition_ofm(shape: Shape, granularity: SetGranularity = FINEST) -> list[Rect]:
    """Partition one OFM into scheduling sets (row-major order).

    The returned rectangles are disjoint, cover the full spatial
    extent, and differ in area by at most one row/column strip — the
    Stage I "similar number of elements" requirement.
    """
    if granularity.rows_per_set is not None:
        rows = min(max(granularity.rows_per_set, granularity.min_rows), shape.height)
        return rect_grid(shape.height, shape.width, rows, shape.width)

    target = granularity.target_sets
    # Choose a near-square grid honouring the minimum set dimensions.
    max_grid_rows = max(1, shape.height // granularity.min_rows)
    max_grid_cols = max(1, shape.width // granularity.min_cols)
    aspect = shape.height / shape.width
    grid_rows = int(round(math.sqrt(target * aspect))) or 1
    grid_rows = min(max(grid_rows, 1), max_grid_rows)
    grid_cols = min(max(int(round(target / grid_rows)) or 1, 1), max_grid_cols)
    tile_rows = math.ceil(shape.height / grid_rows)
    tile_cols = math.ceil(shape.width / grid_cols)
    return rect_grid(shape.height, shape.width, tile_rows, tile_cols)


def determine_sets(
    graph: Graph, granularity: SetGranularity = FINEST
) -> dict[str, list[Rect]]:
    """Stage I: sets of every base layer, keyed by layer name.

    Returns row-major ordered rectangles per layer.  Dense layers
    (1x1 spatial OFM) always get exactly one set.  Each OFM
    ``(height, width)`` is partitioned once per call: layers of one
    spatial shape get their own lists of the same frozen rectangles.
    """
    shapes = graph.infer_shapes()
    partitions: dict[tuple[int, int], list[Rect]] = {}
    sets: dict[str, list[Rect]] = {}
    for name in graph.base_layers():
        shape = shapes[name]
        key = (shape.height, shape.width)
        if key not in partitions:
            partitions[key] = partition_ofm(shape, granularity)
        sets[name] = list(partitions[key])
    return sets


def validate_partition(shape: Shape, sets: list[Rect]) -> None:
    """Assert the Stage I invariants: disjoint, covering, in-bounds."""
    bounds = shape.full_rect()
    total = 0
    for index, rect in enumerate(sets):
        if rect.is_empty():
            raise AssertionError(f"set {index} is empty")
        if not bounds.contains(rect):
            raise AssertionError(f"set {index} {rect} exceeds OFM bounds {bounds}")
        total += rect.area
        for other in sets[index + 1 :]:
            if rect.intersects(other):
                raise AssertionError(f"sets {rect} and {other} overlap")
    if total != shape.spatial_size:
        raise AssertionError(
            f"sets cover {total} pixels, OFM has {shape.spatial_size}"
        )
