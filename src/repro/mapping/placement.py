"""Static placement of base layers onto PEs and tiles.

Weights are programmed once before inference (RRAM endurance,
Sec. II-A), so placement is a static assignment: each base layer of the
(possibly duplication-rewritten) graph owns ``c_i`` PEs exclusively.
PEs are packed consecutively in topological order — with one PE per
tile (the paper's case study) any packing is equivalent; with multiple
PEs per tile, consecutive packing keeps a layer's submatrices close,
which the optional NoC cost model rewards.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from ..arch.config import ArchitectureConfig
from ..ir.graph import Graph
from .tiling import LayerTiling, tile_graph

if TYPE_CHECKING:
    from ..core.kernels import SetGraphArrays
    from ..ir.tensor import Shape


class PlacementError(ValueError):
    """Raised when a model does not fit the architecture."""


@dataclass
class Placement:
    """PE/tile assignment of every base layer.

    Attributes
    ----------
    arch:
        The architecture placed onto.
    pe_ranges:
        Per base layer, the half-open PE id range ``(first, last+1)``.
    tilings:
        Per-layer tiling (Eq. 1 geometry) used for the assignment.
    """

    arch: ArchitectureConfig
    pe_ranges: dict[str, tuple[int, int]] = field(default_factory=dict)
    tilings: dict[str, LayerTiling] = field(default_factory=dict)

    @property
    def pes_used(self) -> int:
        """Total PEs claimed by base layers."""
        return sum(end - start for start, end in self.pe_ranges.values())

    def pes_of(self, layer: str) -> list[int]:
        """PE ids owned by a base layer."""
        start, end = self.pe_ranges[layer]
        return list(range(start, end))

    def tiles_of(self, layer: str) -> list[int]:
        """Tile ids hosting a base layer's PEs (sorted, unique)."""
        per_tile = self.arch.tile.pes_per_tile
        start, end = self.pe_ranges[layer]
        return sorted({pe // per_tile for pe in range(start, end)})

    def layer_of_pe(self, pe: int) -> str | None:
        """The base layer owning a PE id, or ``None`` if idle."""
        for layer, (start, end) in self.pe_ranges.items():
            if start <= pe < end:
                return layer
        return None

    def summary(self) -> str:
        """Human-readable placement overview."""
        lines = [
            f"placement on {self.arch.summary()}",
            f"  {self.pes_used}/{self.arch.num_pes} PEs used "
            f"({self.arch.num_pes - self.pes_used} idle)",
        ]
        for layer, (start, end) in self.pe_ranges.items():
            lines.append(f"  {layer:<32} PEs [{start}, {end})")
        return "\n".join(lines)


def place_graph(graph: Graph, arch: ArchitectureConfig) -> Placement:
    """Pack every base layer's PEs consecutively in topological order.

    Raises :class:`PlacementError` when the model needs more PEs than
    the architecture provides (violating the Sec. II-A requirement that
    all weights be storable at least once).
    """
    tilings = tile_graph(graph, arch.crossbar)
    placement = Placement(arch=arch, tilings=tilings)
    cursor = 0
    for layer, tiling in tilings.items():
        placement.pe_ranges[layer] = (cursor, cursor + tiling.num_pes)
        cursor += tiling.num_pes
    if cursor > arch.num_pes:
        raise PlacementError(
            f"model '{graph.name}' needs {cursor} PEs but architecture "
            f"'{arch.name}' has only {arch.num_pes}"
        )
    return placement


def edge_transfers(
    arrays: SetGraphArrays,
    shapes: dict[str, Shape],
    placement: Placement,
    bytes_per_element: int = 1,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(source tile, destination tile, payload bytes)`` of every set-graph edge.

    Int64 columns aligned with ``arrays.indices``.  An edge forwards its
    producer set's output, ``area x channels x bytes_per_element``
    bytes, from the producer layer's home tile to the consumer layer's;
    a layer's home tile hosts its first PE.  A layer missing from
    ``shapes`` has 0 channels, and one the placement leaves out has
    tile -1.
    """
    channels = np.array(
        [shapes[layer].channels if layer in shapes else 0 for layer in arrays.layers],
        dtype=np.int64,
    )
    placed = placement.pe_ranges
    home_tile = np.array(
        [placement.tiles_of(layer)[0] if layer in placed else -1 for layer in arrays.layers],
        dtype=np.int64,
    )
    producer_layer = arrays.layer_of[arrays.indices]
    consumer_layer = np.repeat(arrays.layer_of, np.diff(arrays.indptr))
    payload = arrays.area[arrays.indices] * channels[producer_layer] * bytes_per_element
    return home_tile[producer_layer], home_tile[consumer_layer], payload
