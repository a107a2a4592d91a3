"""Loop-built Stage I (Sec. IV-1): one ``Rect`` at a time.

The reference the columnar grid of :func:`repro.ir.tensor.grid_columns`
and :func:`repro.core.sets.determine_sets` must match, list for list.
"""

from __future__ import annotations

import math

from repro.core.sets import SetGranularity
from repro.ir.tensor import Rect, Shape


def rect_grid(height: int, width: int, tile_rows: int, tile_cols: int) -> list[Rect]:
    """Tile an ``height x width`` map into at most ``tile_rows x tile_cols``
    rectangles, row-major, border tiles shrunk to fit."""
    if height < 1 or width < 1:
        raise ValueError(f"map dimensions must be positive, got {height}x{width}")
    if tile_rows < 1 or tile_cols < 1:
        raise ValueError(f"tile dimensions must be positive, got {tile_rows}x{tile_cols}")
    tiles = []
    for r0 in range(0, height, tile_rows):
        for c0 in range(0, width, tile_cols):
            tiles.append(Rect(r0, c0, min(r0 + tile_rows, height), min(c0 + tile_cols, width)))
    return tiles


def reference_partition(shape: Shape, granularity: SetGranularity) -> list[Rect]:
    """One OFM's Stage I sets: stripes, or a near-square grid of about
    ``target_sets`` sets no smaller than ``min_rows x min_cols``."""
    if granularity.rows_per_set is not None:
        rows = min(max(granularity.rows_per_set, granularity.min_rows), shape.height)
        return rect_grid(shape.height, shape.width, rows, shape.width)
    target = granularity.target_sets
    max_grid_rows = max(1, shape.height // granularity.min_rows)
    max_grid_cols = max(1, shape.width // granularity.min_cols)
    aspect = shape.height / shape.width
    grid_rows = int(round(math.sqrt(target * aspect))) or 1
    grid_rows = min(max(grid_rows, 1), max_grid_rows)
    grid_cols = min(max(int(round(target / grid_rows)) or 1, 1), max_grid_cols)
    tile_rows = math.ceil(shape.height / grid_rows)
    tile_cols = math.ceil(shape.width / grid_cols)
    return rect_grid(shape.height, shape.width, tile_rows, tile_cols)
