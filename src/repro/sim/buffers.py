"""Tile buffer occupancy analysis.

Section II-A requires tiles to hold "parts of the input and output
data" in local buffers, spilling to global DRAM when they overflow.
The scheduling model itself never blocks on buffers (matching the
paper), but this analysis quantifies the pressure a schedule creates:
a producer set's output is *live* at the consumer layer's tile from the
producer's completion until the last consumer set needing it finishes.
The peak liveness per tile, compared against the configured buffer
capacity, shows how much DRAM spill traffic the Sec. II-A fallback
would absorb.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..core.pipeline import CompiledModel, dependencies_of
from ..verify.hazards import buffer_peaks, covering_table


@dataclass
class TileBufferStats:
    """Peak input-buffer occupancy of one tile."""

    tile: int
    peak_bytes: int
    capacity_bytes: int

    @property
    def overflows(self) -> bool:
        return self.peak_bytes > self.capacity_bytes


@dataclass
class BufferReport:
    """Whole-chip buffer pressure of one schedule."""

    tiles: dict[int, TileBufferStats] = field(default_factory=dict)

    @property
    def peak_bytes(self) -> int:
        """Largest per-tile peak."""
        return max((stats.peak_bytes for stats in self.tiles.values()), default=0)

    @property
    def overflowing_tiles(self) -> list[int]:
        """Tiles whose peak exceeds their input buffer."""
        return sorted(t for t, stats in self.tiles.items() if stats.overflows)

    def summary(self) -> str:
        overflow_count = len(self.overflowing_tiles)
        return (
            f"peak buffer occupancy {self.peak_bytes} B across "
            f"{len(self.tiles)} tiles; {overflow_count} tile(s) would spill "
            "to DRAM"
        )


def analyze_buffers(compiled: CompiledModel, bytes_per_element: int = 1) -> BufferReport:
    """Sweep-line peak liveness of forwarded set data per consumer tile.

    Each dependency edge contributes ``payload`` bytes to the consumer
    layer's home tile over ``[producer end, consumer end)``.  Within a
    tile, contributions are accumulated and the maximum over time
    reported: the sweep of the verifier's ``schedule.buffer-capacity``
    rule (:func:`~repro.verify.hazards.buffer_peaks`).
    """
    dependencies = dependencies_of(compiled)
    if dependencies is None:
        raise ValueError("analyze_buffers needs a CLSA-CIM compilation")
    if bytes_per_element < 1:
        raise ValueError("bytes_per_element must be >= 1")
    table = covering_table(dependencies.arrays, compiled.schedule.columns())
    tiles, peaks = buffer_peaks(
        table, compiled.mapped.infer_shapes(), compiled.placement, bytes_per_element
    )
    peak_of = dict(zip(tiles.tolist(), peaks.tolist()))
    capacity = compiled.arch.tile.input_buffer_bytes
    return BufferReport(
        tiles={
            tile: TileBufferStats(
                tile=tile, peak_bytes=peak_of.get(tile, 0), capacity_bytes=capacity
            )
            for tile in range(compiled.arch.num_tiles)
        }
    )
