"""Optional data-movement cost model (the paper's Sec. V-C future work).

The paper's headline results assume partial-result forwarding is free;
Section V-C acknowledges that "depending on the topology, forwarding
partial results may incur varying costs".  This module quantifies that
sensitivity: every set-level dependency edge is charged the NoC latency
of moving the producer set's payload from the producer's tile to the
consumer's tile (XY-routed mesh), optionally bouncing through global
DRAM when the payload exceeds the consumer's input buffer.  An optional
GPEU term charges the non-base operations between the two layers.

A cost model prices all edges of a set graph at once, as one delay
column aligned with the CSR (:meth:`NocCostModel.edge_delays`), from
which :func:`repro.sim.engine.simulate` re-schedules; the ablation
benchmark and ``examples/custom_architecture.py`` drive it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..arch.noc import MeshNoc
from ..core.kernels import SetGraphArrays
from ..ir.graph import Graph
from ..mapping.placement import Placement, edge_transfers


@dataclass(frozen=True)
class CostModelConfig:
    """Knobs of the data-movement cost model."""

    #: Bytes per activation element (quantized activations).
    bytes_per_element: int = 1
    #: Charge DRAM round trips for payloads exceeding the input buffer.
    model_buffer_spills: bool = True
    #: Charge GPEU time for non-base ops (elements / throughput cycles).
    model_gpeu: bool = False

    def __post_init__(self) -> None:
        if self.bytes_per_element < 1:
            raise ValueError("bytes_per_element must be >= 1")


class NocCostModel:
    """Per-dependency-edge delay in cycles.

    The delay of edge ``(producer set) -> (consumer set)`` is the NoC
    transfer latency of the producer set's payload between the two
    layers' home tiles, converted to t_MVM cycles (rounded up).
    """

    def __init__(
        self,
        graph: Graph,
        placement: Placement,
        config: CostModelConfig = CostModelConfig(),
    ) -> None:
        self.graph = graph
        self.placement = placement
        self.config = config
        self.arch = placement.arch
        self.noc: MeshNoc = self.arch.build_noc()
        self._shapes = graph.infer_shapes()

    def edge_delays(self, arrays: SetGraphArrays) -> np.ndarray:
        """Delay in cycles of every edge, int64 aligned with ``arrays.indices``.

        :meth:`MeshNoc.transfer_latency_ns` (free within one tile), plus
        :meth:`MeshNoc.dram_round_trip_ns` where the payload spills the
        input buffer and the GPEU's occupancy if modelled, for all edges
        in one pass, rounded up to t_MVM cycles.
        """
        src, dst, payload = edge_transfers(
            arrays, self._shapes, self.placement, self.config.bytes_per_element
        )
        spec, tile = self.noc.spec, self.arch.tile
        hops = self.noc.hops_array(src, dst)
        serialization = payload / spec.link_bandwidth_bytes_per_ns
        latency_ns = np.where(hops > 0, hops * spec.hop_latency_ns + serialization, 0.0)
        if self.config.model_buffer_spills:
            spilled = payload > tile.input_buffer_bytes
            latency_ns += np.where(spilled, 2.0 * spec.dram_latency_ns + serialization, 0.0)
        if self.config.model_gpeu:
            elements = payload / self.config.bytes_per_element
            latency_ns += elements / tile.gpeu.throughput_per_cycle * self.arch.t_mvm_ns
        return np.ceil(latency_ns / self.arch.t_mvm_ns).astype(np.int64)


class ZeroCostModel:
    """The paper's headline assumption: forwarding is free."""

    def edge_delays(self, arrays: SetGraphArrays) -> np.ndarray:
        """A zero delay for every edge."""
        return np.zeros(arrays.num_edges, dtype=np.int64)
