"""Tensor shapes and spatial regions for the NN graph IR.

The IR models single-sample (batch-free) inference tensors in HWC
layout, matching the notation of the CLSA-CIM paper (Table I lists
feature maps as ``(H, W, C)``).  Two geometric primitives live here:

``Shape``
    An immutable ``(height, width, channels)`` descriptor.  Scalar or
    flattened tensors use ``height == width == 1``.

``Rect``
    A half-open spatial rectangle ``[r0, r1) x [c0, c1)``, the
    *hyperrectangle* of the paper's Stage I/II.  The compiler keeps
    sets and regions as int64 ``(4, n)`` columns with rows ``r0, c0,
    r1, c1`` (:func:`grid_columns` builds Stage I's); ``Rect`` is their
    scalar form (:func:`column_rects`), which the scalar rules and
    the row-form analytics use.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np


@dataclass(frozen=True, order=True)
class Shape:
    """Immutable (height, width, channels) tensor shape in HWC layout."""

    height: int
    width: int
    channels: int

    def __post_init__(self) -> None:
        for field_name in ("height", "width", "channels"):
            value = getattr(self, field_name)
            if not isinstance(value, int):
                raise TypeError(f"Shape.{field_name} must be int, got {type(value).__name__}")
            if value < 1:
                raise ValueError(f"Shape.{field_name} must be >= 1, got {value}")

    @property
    def hwc(self) -> tuple[int, int, int]:
        """The shape as a plain ``(H, W, C)`` tuple."""
        return (self.height, self.width, self.channels)

    @property
    def num_elements(self) -> int:
        """Total number of scalar elements in the tensor."""
        return self.height * self.width * self.channels

    @property
    def spatial_size(self) -> int:
        """Number of spatial positions (``H * W``)."""
        return self.height * self.width

    def with_channels(self, channels: int) -> "Shape":
        """A copy of this shape with a different channel count."""
        return Shape(self.height, self.width, channels)

    def full_rect(self) -> "Rect":
        """The rectangle covering the entire spatial extent."""
        return Rect(0, 0, self.height, self.width)

    @staticmethod
    def from_tuple(hwc: Sequence[int]) -> "Shape":
        """Build a shape from any length-3 sequence ``(H, W, C)``."""
        if len(hwc) != 3:
            raise ValueError(f"expected a length-3 (H, W, C) sequence, got {tuple(hwc)!r}")
        return Shape(int(hwc[0]), int(hwc[1]), int(hwc[2]))

    def __str__(self) -> str:
        return f"({self.height}, {self.width}, {self.channels})"


@dataclass(frozen=True, order=True)
class Rect:
    """Half-open spatial rectangle ``[r0, r1) x [c0, c1)``.

    Rows index the feature-map height dimension, columns the width
    dimension.  An empty rectangle has ``r1 <= r0`` or ``c1 <= c0``;
    empty rectangles normalise equality through :meth:`is_empty`.
    """

    r0: int
    c0: int
    r1: int
    c1: int

    @property
    def rows(self) -> int:
        """Number of rows covered (0 when empty)."""
        return max(0, self.r1 - self.r0)

    @property
    def cols(self) -> int:
        """Number of columns covered (0 when empty)."""
        return max(0, self.c1 - self.c0)

    @property
    def area(self) -> int:
        """Number of spatial positions covered."""
        return self.rows * self.cols

    def is_empty(self) -> bool:
        """Whether the rectangle covers no positions."""
        return self.r1 <= self.r0 or self.c1 <= self.c0

    def intersect(self, other: "Rect") -> "Rect":
        """The intersection rectangle (possibly empty)."""
        return Rect(
            max(self.r0, other.r0),
            max(self.c0, other.c0),
            min(self.r1, other.r1),
            min(self.c1, other.c1),
        )

    def intersects(self, other: "Rect") -> bool:
        """Whether the two rectangles share at least one position."""
        return not self.intersect(other).is_empty()

    def contains(self, other: "Rect") -> bool:
        """Whether ``other`` lies fully inside this rectangle."""
        if other.is_empty():
            return True
        return (
            self.r0 <= other.r0
            and self.c0 <= other.c0
            and other.r1 <= self.r1
            and other.c1 <= self.c1
        )

    def contains_point(self, row: int, col: int) -> bool:
        """Whether position ``(row, col)`` lies inside the rectangle."""
        return self.r0 <= row < self.r1 and self.c0 <= col < self.c1

    def clip(self, height: int, width: int) -> "Rect":
        """Clip the rectangle to the bounds of an ``height x width`` map."""
        return Rect(
            max(0, self.r0),
            max(0, self.c0),
            min(height, self.r1),
            min(width, self.c1),
        )

    def shift(self, d_row: int, d_col: int) -> "Rect":
        """Translate the rectangle by ``(d_row, d_col)``."""
        return Rect(self.r0 + d_row, self.c0 + d_col, self.r1 + d_row, self.c1 + d_col)

    def union_bbox(self, other: "Rect") -> "Rect":
        """The bounding box of the union of the two rectangles."""
        if self.is_empty():
            return other
        if other.is_empty():
            return self
        return Rect(
            min(self.r0, other.r0),
            min(self.c0, other.c0),
            max(self.r1, other.r1),
            max(self.c1, other.c1),
        )

    def positions(self) -> Iterator[tuple[int, int]]:
        """Iterate all ``(row, col)`` positions inside the rectangle."""
        for row in range(self.r0, self.r1):
            for col in range(self.c0, self.c1):
                yield (row, col)

    @staticmethod
    def empty() -> "Rect":
        """A canonical empty rectangle."""
        return Rect(0, 0, 0, 0)

    def __str__(self) -> str:
        return f"[{self.r0}:{self.r1}, {self.c0}:{self.c1}]"


def grid_columns(height: int, width: int, tile_rows: int, tile_cols: int) -> np.ndarray:
    """Tile an ``height x width`` map into a grid of rectangles, as columns.

    Returns a read-only int64 ``(4, n)`` block with rows ``r0, c0, r1,
    c1``.  Tiles are at most ``tile_rows x tile_cols``; border tiles
    shrink to fit.  Tiles come in row-major order and exactly partition
    the map (disjoint and covering), which is the invariant Stage I of
    CLSA-CIM requires of scheduling sets.
    """
    if height < 1 or width < 1:
        raise ValueError(f"map dimensions must be positive, got {height}x{width}")
    if tile_rows < 1 or tile_cols < 1:
        raise ValueError(f"tile dimensions must be positive, got {tile_rows}x{tile_cols}")
    rows = np.arange(0, height, tile_rows, dtype=np.int64)
    cols = np.arange(0, width, tile_cols, dtype=np.int64)
    grid = np.empty((4, len(rows), len(cols)), dtype=np.int64)
    grid[0] = rows[:, None]
    grid[1] = cols
    np.minimum(grid[0] + tile_rows, height, out=grid[2])
    np.minimum(grid[1] + tile_cols, width, out=grid[3])
    block = grid.reshape(4, -1)
    block.flags.writeable = False
    return block


def column_rects(block: np.ndarray) -> list[Rect]:
    """The :class:`Rect` of each column of an ``(4, n)`` ``r0, c0, r1, c1`` block."""
    return [Rect(*coords) for coords in block.T.tolist()]


def rect_grid(height: int, width: int, tile_rows: int, tile_cols: int) -> list[Rect]:
    """Tile an ``height x width`` map into a grid of rectangles.

    The :class:`Rect` view of :func:`grid_columns`: tiles are at most
    ``tile_rows x tile_cols``, in row-major order, and exactly
    partition the map.
    """
    return column_rects(grid_columns(height, width, tile_rows, tile_cols))


def split_extent(extent: int, parts: int) -> list[tuple[int, int]]:
    """Split ``[0, extent)`` into ``parts`` contiguous near-equal ranges.

    The first ``extent % parts`` ranges receive one extra element, so
    range sizes differ by at most one — the balanced-cut rule used both
    by weight-duplication slicing (Fig. 4) and by set partitioning.
    """
    if parts < 1:
        raise ValueError(f"parts must be >= 1, got {parts}")
    if extent < parts:
        raise ValueError(f"cannot split extent {extent} into {parts} non-empty parts")
    base, remainder = divmod(extent, parts)
    ranges = []
    start = 0
    for index in range(parts):
        size = base + (1 if index < remainder else 0)
        ranges.append((start, start + size))
        start += size
    return ranges
