"""Network-on-chip model connecting the tiles.

The paper's headline results treat inter-tile communication as free
(Section V-C lists data-movement cost as future work), but the
requirements of Section II-A — "tiles that exchange data with other
tiles via a NoC" and "fast access to a global DRAM" — still shape which
schedules are *feasible*.  This module provides a 2-D mesh topology
with per-hop latency/bandwidth so the optional cost model in
:mod:`repro.sim.noc_cost` can quantify the sensitivity of CLSA-CIM's
speedups to data-movement costs (the paper's future-work ablation).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class NocSpec:
    """2-D mesh NoC parameters.

    Attributes
    ----------
    hop_latency_ns:
        Latency of one router hop.
    link_bandwidth_bytes_per_ns:
        Payload bytes a link moves per nanosecond.
    dram_latency_ns:
        Flat access latency to the global DRAM (every tile has fast
        DRAM access per Sec. II-A; modeled distance-independent).
    """

    hop_latency_ns: float = 2.0
    link_bandwidth_bytes_per_ns: float = 32.0
    dram_latency_ns: float = 100.0

    def __post_init__(self) -> None:
        if self.hop_latency_ns < 0 or self.dram_latency_ns < 0:
            raise ValueError("latencies must be non-negative")
        if self.link_bandwidth_bytes_per_ns <= 0:
            raise ValueError("link bandwidth must be positive")


class MeshNoc:
    """A 2-D mesh of tiles with XY routing.

    Tiles are numbered row-major; the mesh is the smallest near-square
    grid containing ``num_tiles`` nodes.
    """

    def __init__(self, num_tiles: int, spec: NocSpec | None = None) -> None:
        if num_tiles < 1:
            raise ValueError(f"num_tiles must be >= 1, got {num_tiles}")
        self.num_tiles = num_tiles
        self.spec = spec or NocSpec()
        self.cols = math.ceil(math.sqrt(num_tiles))
        self.rows = math.ceil(num_tiles / self.cols)

    def coordinates(self, tile: int) -> tuple[int, int]:
        """Mesh ``(row, col)`` of a tile id."""
        self._check_tile(tile)
        return divmod(tile, self.cols)

    def hops(self, src: int, dst: int) -> int:
        """Manhattan (XY-routing) hop count between two tiles."""
        self._check_tile(src)
        self._check_tile(dst)
        r1, c1 = divmod(src, self.cols)
        r2, c2 = divmod(dst, self.cols)
        return abs(r1 - r2) + abs(c1 - c2)

    def hops_array(self, src: np.ndarray, dst: np.ndarray) -> np.ndarray:
        """:meth:`hops` elementwise over two arrays of tile ids."""
        for tiles in (src, dst):
            bad = (tiles < 0) | (tiles >= self.num_tiles)
            if bad.any():
                self._check_tile(int(tiles[bad][0]))
        r1, c1 = np.divmod(src, self.cols)
        r2, c2 = np.divmod(dst, self.cols)
        return np.abs(r1 - r2) + np.abs(c1 - c2)

    def transfer_latency_ns(self, src: int, dst: int, payload_bytes: int) -> float:
        """Latency of moving ``payload_bytes`` from one tile to another.

        Model: per-hop header latency plus bandwidth-limited serialization;
        a zero-hop (same-tile) transfer is free.
        """
        if payload_bytes < 0:
            raise ValueError("payload must be non-negative")
        hop_count = self.hops(src, dst)
        if hop_count == 0:
            return 0.0
        serialization = payload_bytes / self.spec.link_bandwidth_bytes_per_ns
        return hop_count * self.spec.hop_latency_ns + serialization

    def dram_round_trip_ns(self, payload_bytes: int) -> float:
        """Latency of bouncing a payload through the global DRAM."""
        if payload_bytes < 0:
            raise ValueError("payload must be non-negative")
        serialization = payload_bytes / self.spec.link_bandwidth_bytes_per_ns
        return 2.0 * self.spec.dram_latency_ns + serialization

    def average_hops(self) -> float:
        """Mean hop count over all ordered tile pairs (NoC pressure metric)."""
        if self.num_tiles == 1:
            return 0.0
        total = sum(
            self.hops(a, b)
            for a in range(self.num_tiles)
            for b in range(self.num_tiles)
            if a != b
        )
        return total / (self.num_tiles * (self.num_tiles - 1))

    def is_connected(self) -> bool:
        """Whether the mesh is a single connected component.

        A breadth-first walk from tile 0 over mesh links (left, right,
        up, down; the ragged last row has no links past its end).
        """
        seen = [False] * self.num_tiles
        seen[0] = True
        frontier = [0]
        for tile in frontier:
            col = tile % self.cols
            links = (
                tile - 1 if col > 0 else -1,
                tile + 1 if col + 1 < self.cols else -1,
                tile - self.cols,
                tile + self.cols,
            )
            for other in links:
                if 0 <= other < self.num_tiles and not seen[other]:
                    seen[other] = True
                    frontier.append(other)
        return len(frontier) == self.num_tiles

    def _check_tile(self, tile: int) -> None:
        if not 0 <= tile < self.num_tiles:
            raise ValueError(f"tile {tile} out of range [0, {self.num_tiles})")
