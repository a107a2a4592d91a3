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

from ..core.pipeline import CompiledModel


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
    reported.
    """
    if compiled.dependencies is None:
        raise ValueError("analyze_buffers needs a CLSA-CIM compilation")
    if bytes_per_element < 1:
        raise ValueError("bytes_per_element must be >= 1")
    shapes = compiled.mapped.infer_shapes()
    sets = compiled.dependencies.sets
    end_of = {
        (task.layer, task.set_index): task.end for task in compiled.schedule.tasks
    }
    home_tile = {
        layer: compiled.placement.tiles_of(layer)[0]
        for layer in compiled.placement.pe_ranges
    }

    # (tile, time, delta) events for a sweep per tile.
    events: dict[int, list[tuple[int, int]]] = {}
    for (layer, index), preds in compiled.dependencies.deps.items():
        consumer_end = end_of[(layer, index)]
        tile = home_tile[layer]
        for pred_layer, pred_index in preds:
            rect = sets.rect(pred_layer, pred_index)
            payload = rect.area * shapes[pred_layer].channels * bytes_per_element
            start = end_of[(pred_layer, pred_index)]
            if consumer_end <= start:
                continue  # producer not earlier; nothing buffered
            events.setdefault(tile, []).append((start, payload))
            events.setdefault(tile, []).append((consumer_end, -payload))

    capacity = compiled.arch.tile.input_buffer_bytes
    report = BufferReport()
    for tile in range(compiled.arch.num_tiles):
        timeline = sorted(events.get(tile, ()))
        level = 0
        peak = 0
        for _, delta in timeline:
            level += delta
            peak = max(peak, level)
        report.tiles[tile] = TileBufferStats(
            tile=tile, peak_bytes=peak, capacity_bytes=capacity
        )
    return report
